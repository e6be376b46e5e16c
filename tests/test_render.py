"""Grid sampling, the threaded scan, and the three output encoders."""

import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    BudgetExceeded,
    EscapeConfig,
    TailUndefined,
    GridSpec,
    IterBuffer,
    all_ones,
    ConstantTail,
    escape_levels,
    parse_csv,
    scan_grid,
    write_csv,
    write_png,
    write_ppm,
)
from fibmachine import render
from fibmachine.figures import panel_config
from fibmachine.render import PIXEL_BUDGET, _color
from fibmachine.spectrum import BLOCK
from oracles import Recording, for_probseq, old_pixel

HALF = ConstantTail((), 0.5)
MIXED = ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)


# ---------------------------------------------------------------------------
# grid geometry


def test_pixel_centers_match_vectorized_array():
    grid = GridSpec(center=0.3 - 0.2j, width=3.0, height=2.0, pixels_x=7, pixels_y=5)
    lam = grid.lam_array()
    assert lam.shape == (5, 7)
    for j in range(5):
        for i in range(7):
            assert lam[j, i] == old_pixel(grid, i, j)


def test_grid_covers_the_window():
    grid = GridSpec(center=0j, width=4.0, height=4.0, pixels_x=101, pixels_y=101)
    assert old_pixel(grid, 50, 50) == 0j  # odd count puts a pixel center on the center
    assert abs(old_pixel(grid, 0, 0) - (-2 + 2 / 101 - 2j + 2j / 101)) < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(width=0.0)
    with pytest.raises(ValueError):
        GridSpec(pixels_x=0)


@pytest.mark.parametrize(
    "kwargs,field",
    [
        ({"center": complex(float("inf"), 0.0)}, "center"),
        ({"center": complex(0.0, float("nan"))}, "center"),
        ({"center": "0"}, "center"),
        ({"width": float("inf")}, "width"),
        ({"width": float("nan")}, "width"),
        ({"height": float("inf")}, "height"),
        ({"height": -1.0}, "height"),
        ({"pixels_x": 2.5}, "pixels_x"),
        ({"pixels_x": True}, "pixels_x"),
        ({"pixels_y": 4.0}, "pixels_y"),
        ({"pixels_y": "8"}, "pixels_y"),
    ],
)
def test_grid_refuses_non_finite_and_non_integer_fields(kwargs, field):
    with pytest.raises(ValueError, match=field):
        GridSpec(**kwargs)


@pytest.mark.parametrize("key", ["pixels_x", "pixels_y"])
@pytest.mark.parametrize("value", [0, -3])
def test_grid_refuses_a_pixel_count_below_one_naming_it(key, value):
    with pytest.raises(ValueError, match=f"grid {key} must be at least 1, got {value}$"):
        GridSpec(**{key: value})


def test_grid_accepts_numpy_and_real_values():
    grid = GridSpec(center=0.5, width=np.float64(2.0), height=3, pixels_x=np.int64(4), pixels_y=3)
    assert grid.lam_array().shape == (3, 4)


# ---------------------------------------------------------------------------
# scanning


def _cfg(p, max_level=12):
    return for_probseq(p, max_level=max_level, margin=1.0)


def test_scan_budget_and_worker_validation():
    big = GridSpec(pixels_x=10001, pixels_y=10000)
    assert 10001 * 10000 > PIXEL_BUDGET
    with pytest.raises(BudgetExceeded):
        scan_grid(big, HALF, _cfg(HALF))
    with pytest.raises(ValueError):
        scan_grid(GridSpec(pixels_x=4, pixels_y=4), HALF, _cfg(HALF), workers=0)


def test_worker_counts_are_bit_identical(monkeypatch):
    monkeypatch.setattr(render.os, "cpu_count", lambda: 4)  # at most 4 threads
    grid = GridSpec(center=0j, width=5.0, height=5.0, pixels_x=64, pixels_y=48)
    base = scan_grid(grid, HALF, _cfg(HALF), workers=1)
    for workers in (2, 3, 7, 48, 64):
        other = scan_grid(grid, HALF, _cfg(HALF), workers=workers)
        assert np.array_equal(base.cells, other.cells), workers


@settings(max_examples=60, deadline=None)
@given(
    pixels_x=st.integers(min_value=1, max_value=24),
    pixels_y=st.integers(min_value=1, max_value=24),
    workers=st.integers(min_value=2, max_value=4),
    max_level=st.integers(min_value=0, max_value=17),
    early_exit=st.booleans(),
    p=st.sampled_from([HALF, all_ones(), ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)]),
)
def test_scan_cells_do_not_depend_on_the_worker_count(
    pixels_x, pixels_y, workers, max_level, early_exit, p
):
    grid = GridSpec(center=0.1 - 0.2j, width=5.0, height=4.0, pixels_x=pixels_x, pixels_y=pixels_y)
    cfg = for_probseq(p, max_level=max_level, early_exit=early_exit)
    one = scan_grid(grid, p, cfg, workers=1)
    assert np.array_equal(one.cells, scan_grid(grid, p, cfg, workers=workers).cells)


def test_conjugation_symmetry_with_mirrored_rows():
    # a power-of-two row count makes the y samples mirror exactly, and the
    # kernel commutes with conjugation exactly, so rows must mirror too
    grid = GridSpec(center=0j, width=5.0, height=5.0, pixels_x=37, pixels_y=64)
    cells = scan_grid(grid, HALF, _cfg(HALF)).cells
    assert np.array_equal(cells, cells[::-1])


# ---------------------------------------------------------------------------
# conjugate rows: scanned once, copied to their partners


@pytest.fixture
def inline_pool(monkeypatch):
    """Run the scan's bands at submit, in this thread; returns (max_workers, bands) lists."""
    made, bands = [], []

    class InlinePool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            bands.append(args)
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(render, "ThreadPoolExecutor", InlinePool)
    return made, bands


def _scanned_rows(grid):
    return len(np.unique(np.abs(grid.imag_axis())))


def _built_lambdas(monkeypatch, record):
    """Patch lam_array, which builds the lambda blocks scan_grid walks, to pass each to `record`."""
    lam_array = GridSpec.lam_array

    def recorded(grid, rows=None):
        lam = lam_array(grid, rows)
        record(lam)
        return lam

    monkeypatch.setattr(GridSpec, "lam_array", recorded)


def _kernel_sizes(monkeypatch):
    """Record the size of each lambda block the kernel gets."""
    sizes = []
    _built_lambdas(monkeypatch, lambda lam: sizes.append(lam.size))
    return sizes


# imaginary parts 0, +-1e-300 (only the middle row of an odd height is not
# mirrored), 0.3 (a few rows mirrored), and 1e17, whose spacing of 16 makes
# rows of a 40-high window share three imaginary parts
CENTERS = [(0.2 + 0j, 4.0), (0.2 + 1e-300j, 4.0), (0.2 - 1e-300j, 4.0), (-0.1 + 0.3j, 4.0), (1e17j, 40.0)]


@pytest.mark.parametrize("center, height", CENTERS)
@pytest.mark.parametrize("pixels_y", [1, 2, 7, 8, 31, 64])
def test_scan_equals_the_kernel_over_every_row(monkeypatch, center, pixels_y, height):
    grid = GridSpec(center=center, width=5.0, height=height, pixels_x=13, pixels_y=pixels_y)
    for p in (HALF, MIXED):
        cfg = _cfg(p, max_level=17)
        want = escape_levels(grid.lam_array(), p, cfg)
        sizes = _kernel_sizes(monkeypatch)
        for workers in (1, 2, 3, 4):
            sizes.clear()
            cells = scan_grid(grid, p, cfg, workers=workers).cells
            assert cells.dtype == np.int32 and cells.flags.c_contiguous
            assert np.array_equal(cells, want), (p, workers)
            assert sum(sizes) == _scanned_rows(grid) * grid.pixels_x
            assert len(sizes) == min(workers, _scanned_rows(grid))
    if center.imag == 1e17:
        assert _scanned_rows(grid) == min(pixels_y, 3)
    elif center.imag == 0.0 and pixels_y > 1:
        assert _scanned_rows(grid) < pixels_y


@pytest.mark.parametrize("center, height", CENTERS)
@pytest.mark.parametrize("pixels_y", [1, 8, 31])
def test_scan_asks_p_what_a_scan_of_every_row_asks(center, pixels_y, height):
    grid = GridSpec(center=center, width=5.0, height=height, pixels_x=11, pixels_y=pixels_y)
    for max_level in (0, 3, 17):
        cfg = _cfg(MIXED, max_level=max_level)
        new, old = Recording(MIXED), Recording(MIXED)
        assert np.array_equal(scan_grid(grid, new, cfg).cells, escape_levels(grid.lam_array(), old, cfg))
        assert new.asked == old.asked
    # a prefix with no tail raises at the first level it lacks, in both scans
    # or in neither (every pixel of the 1e17 window escapes at level 0)
    bare = ConstantTail((0.5, 0.6), tail=None)
    cfg = EscapeConfig(radius=4.0, max_level=17)
    new, old = Recording(bare), Recording(bare)
    outcomes = []
    for scan in (lambda: scan_grid(grid, new, cfg).cells, lambda: escape_levels(grid.lam_array(), old, cfg)):
        try:
            outcomes.append(scan().tolist())
        except TailUndefined as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1] and new.asked == old.asked
    assert isinstance(outcomes[0], str) == (center.imag != 1e17)


def test_panel_3_sends_548_of_800_rows_to_the_kernel(monkeypatch):
    # lam_array mirrors 504 of the 800 rows of a window centred on the real
    # axis exactly, so 252 of them are copies of a scanned row
    cfg = panel_config(3)
    grid = GridSpec(cfg.grid.center, cfg.grid.width, cfg.grid.height, 800, 800)
    sizes = _kernel_sizes(monkeypatch)
    cells = scan_grid(grid, cfg.prob_seq, cfg.escape_config()).cells
    assert sum(sizes) == 548 * 800 and max(sizes) <= BLOCK
    assert np.array_equal(cells, escape_levels(grid.lam_array(), cfg.prob_seq, cfg.escape_config()))


@pytest.mark.parametrize("cpus", [None, 1, 3])
def test_scan_threads_are_capped_by_bands_and_cpus(monkeypatch, inline_pool, cpus):
    made, submitted = inline_pool
    grid = GridSpec(center=0.1 + 0.2j, width=5.0, height=4.0, pixels_x=9, pixels_y=40)
    rows = _scanned_rows(grid)
    want = escape_levels(grid.lam_array(), HALF, _cfg(HALF))
    monkeypatch.setattr(render.os, "cpu_count", lambda: cpus)
    for workers in (1, 2, 3, 5, rows, rows + 1, 100_000):
        made.clear()
        submitted.clear()
        cells = scan_grid(grid, HALF, _cfg(HALF), workers=workers).cells
        assert np.array_equal(cells, want), workers
        bands = min(workers, rows)
        assert made == ([] if bands == 1 else [min(bands, cpus or 1)])
        if bands > 1:
            sizes = [len(levels) for (levels,) in submitted]
            assert len(sizes) == bands and sum(sizes) == rows
            assert min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


def test_scan_deals_rows_near_the_axis_to_every_band(monkeypatch, inline_pool):
    # the rows nearest the real axis escape last; each band gets its share
    grid = GridSpec(center=0j, width=5.0, height=5.0, pixels_x=8, pixels_y=64)
    axis = np.unique(np.abs(grid.imag_axis()))
    seen = []
    _built_lambdas(monkeypatch, lambda lam: seen.append(np.abs(lam[:, 0].imag)))
    for workers in (2, 3, 4):
        seen.clear()
        scan_grid(grid, HALF, _cfg(HALF), workers=workers)
        assert [np.sort(band).tolist() for band in seen] == [
            axis[b::workers].tolist() for b in range(workers)
        ]


def test_deeper_scan_only_removes_inside_cells():
    grid = GridSpec(center=0j, width=5.0, height=5.0, pixels_x=40, pixels_y=40)
    shallow = scan_grid(grid, HALF, _cfg(HALF, max_level=8)).cells
    deep = scan_grid(grid, HALF, _cfg(HALF, max_level=16)).cells
    assert np.all((deep != -1) | (shallow == -1))
    assert (deep == -1).sum() <= (shallow == -1).sum()


def test_unit_disk_raster_for_the_deterministic_machine():
    grid = GridSpec(center=0j, width=4.0, height=4.0, pixels_x=41, pixels_y=41)
    buf = scan_grid(grid, all_ones(), _cfg(all_ones(), max_level=17))
    lam = grid.lam_array()
    mods = np.abs(lam)
    near_boundary = np.abs(mods - 1.0) <= 2 * (4.0 / 41)
    inside = buf.cells == -1
    assert not np.any(~near_boundary & (inside != (mods < 1.0)))


def test_iter_buffer_checks_and_counts():
    buf = IterBuffer(2, 2, np.array([[-1, 0], [3, -1]], dtype=np.int32))
    assert buf.inside_count() == 2
    with pytest.raises(ValueError):
        IterBuffer(3, 2, np.zeros((2, 2), dtype=np.int32))


@pytest.mark.parametrize(
    "cells",
    [
        np.array([[1.7, 0.0]]),
        np.array([[np.nan, 1.0]]),
        np.array([[1.0, 2.0]]),  # integral floats too: no dtype but an integer one
        np.array([[True, False]]),
        np.array([[1, 2]], dtype=object),
        np.array([["1", "2"]]),
        np.array([[1 + 0j, 2]]),
    ],
)
def test_iter_buffer_refuses_cells_that_are_not_integers(cells):
    with pytest.raises(ValueError, match="^cells must hold integers, got dtype "):
        IterBuffer(2, 1, cells)


@pytest.mark.parametrize(
    "cells",
    [
        np.array([[0, 2**40]]),  # wrapped to 0 by a cast
        np.array([[0, 2**31]]),
        np.array([[-(2**31) - 1, 0]]),
        np.array([[0, 2**32 - 1]], dtype=np.uint32),
        np.array([[0, 2**64 - 1]], dtype=np.uint64),
    ],
)
def test_iter_buffer_refuses_values_outside_int32(cells):
    with pytest.raises(ValueError, match="^cells hold a value outside the int32 range$"):
        IterBuffer(2, 1, cells)


def test_iter_buffer_takes_integers_in_range_and_keeps_int32_cells():
    for cells in ([[-(2**31), 2**31 - 1]], np.array([[7, 0]], dtype=np.uint8), np.zeros((1, 2), np.int16)):
        buf = IterBuffer(2, 1, cells)
        assert buf.cells.dtype == np.int32
        assert buf.cells.tolist() == np.asarray(cells).tolist()
    cells = np.array([[3, -1]], dtype=np.int32)
    assert IterBuffer(2, 1, cells).cells is cells


def test_writers_refuse_a_level_below_inside():
    buf = parse_csv("0,0,-5\n1,0,2\n")
    assert buf.cells.tolist() == [[-5, 2]]
    with pytest.raises(ValueError, match=r"^cells hold level -5, below INSIDE \(-1\)"):
        write_ppm(buf)
    try:
        import PIL  # noqa: F401
    except ImportError:
        return
    with pytest.raises(ValueError, match=r"^cells hold level -5, below INSIDE \(-1\)"):
        write_png(buf)


# ---------------------------------------------------------------------------
# encoders


def test_ppm_golden_single_inside_pixel():
    buf = IterBuffer(1, 1, np.array([[-1]], dtype=np.int32))
    assert write_ppm(buf) == b"P6\n1 1\n255\n\x00\x00\x00"


def test_ppm_golden_two_pixels():
    buf = IterBuffer(2, 1, np.array([[-1, 3]], dtype=np.int32))
    assert write_ppm(buf) == b"P6\n2 1\n255\n\x00\x00\x00\xff&\xe4"


def test_default_palette_colors():
    assert _color(-1) == (0, 0, 0)
    assert _color(0) == (255, 38, 38)
    assert _color(1) == (38, 101, 255)
    assert _color(3) == (255, 38, 228)


@pytest.mark.parametrize(
    "buf",
    [
        parse_csv("0,0,2147483647\n"),
        IterBuffer(3, 1, np.array([[-1, 2**31 - 1, 7]], dtype=np.int32)),
        IterBuffer(10, 7, np.where(np.arange(70).reshape(7, 10) % 3, -1, 2**31 - 1)),
    ],
)
def test_a_far_level_is_coloured_without_a_table_up_to_it(buf):
    # the table covers the distinct levels, not 0..2**31 - 1
    start = time.perf_counter()
    data = write_ppm(buf)
    assert time.perf_counter() - start < 0.1
    header = f"P6\n{buf.width} {buf.height}\n255\n".encode("ascii")
    assert data == header + b"".join(bytes(_color(int(level))) for level in buf.cells.reshape(-1))


def test_ppm_of_an_empty_buffer():
    # no cells: the header alone, as write_csv gives "\n"
    assert write_ppm(IterBuffer(0, 0, np.zeros((0, 0), dtype=np.int32))) == b"P6\n0 0\n255\n"
    assert write_ppm(IterBuffer(3, 0, np.zeros((0, 3), dtype=np.int32))) == b"P6\n3 0\n255\n"


def test_ppm_size_matches_header():
    grid = GridSpec(pixels_x=13, pixels_y=9)
    buf = scan_grid(grid, HALF, _cfg(HALF))
    data = write_ppm(buf)
    assert data.startswith(b"P6\n13 9\n255\n")
    assert len(data) == len(b"P6\n13 9\n255\n") + 3 * 13 * 9


def test_csv_golden_and_round_trip():
    one = IterBuffer(1, 1, np.array([[-1]], dtype=np.int32))
    assert write_csv(one) == "0,0,-1\n"
    grid = GridSpec(pixels_x=11, pixels_y=7)
    buf = scan_grid(grid, HALF, _cfg(HALF))
    back = parse_csv(write_csv(buf))
    assert np.array_equal(back.cells, buf.cells)


def test_csv_parse_errors():
    with pytest.raises(ValueError):
        parse_csv("")
    with pytest.raises(ValueError):
        parse_csv("0,0\n")
    with pytest.raises(ValueError):
        parse_csv("0,0,-1\n2,0,5\n")  # gap at (1,0)


def test_csv_parse_refuses_text_that_is_not_a_str():
    # bytes used to reach str.startswith and die there with a TypeError
    for bad, name in [(b"0,0,1\n", "bytes"), (bytearray(b"0,0,1\n"), "bytearray"),
                      (None, "NoneType"), (["0,0,1"], "list"), (7, "int")]:
        with pytest.raises(ValueError, match=f"^text must be a str, got {name}$"):
            parse_csv(bad)


def test_csv_rejects_negative_and_repeated_coordinates():
    # -1 used to wrap to the last column and leave cell (0, 0) uninitialized
    with pytest.raises(ValueError, match="line 1: negative coordinate"):
        parse_csv("-1,0,5\n1,0,7\n")
    with pytest.raises(ValueError, match="line 2: negative coordinate"):
        parse_csv("0,0,5\n0,-1,7\n")
    # a repeated cell used to keep its last value silently
    with pytest.raises(ValueError, match=r"line 2: cell \(0, 0\) appears twice"):
        parse_csv("0,0,1\n0,0,2\n1,0,3\n")
    # as many lines as cells, but one cell twice and one missing
    with pytest.raises(ValueError, match=r"line 4: cell \(1, 1\) appears twice"):
        parse_csv("0,0,1\n1,1,2\n0,1,3\n1,1,4\n")


def test_csv_parse_messages_and_lenient_layouts():
    for text, message in [
        ("", "no cells in CSV text"),
        ("  \n\n", "no cells in CSV text"),
        ("0,0,1\n1,0\n", "line 2: expected x,y,value"),
        ("0,0,1\n1,0,2,3\n", "line 2: expected x,y,value"),
        ("0,0\n5,1,0,7\n", "line 1: expected x,y,value"),  # six fields, two bad lines
        ("0,0,1\n\n1,0,2\n", "line 2: expected x,y,value"),
        ("0,0,1\n2,0,5\n", "CSV text does not cover a full grid"),
        ("0,0,4294967296\n", "line 1: value outside the int32 range"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_csv(text)
    for bad_field in ("-", "1.5", "x", "", "0x1", "5-3", "1--2"):
        with pytest.raises(ValueError, match="invalid literal"):
            parse_csv(f"0,0,{bad_field}\n")
    want = np.array([[-1, 3], [7, 0]], dtype=np.int32)
    for text in [
        "0,0,-1\r\n1,0,3\r\n0,1,7\r\n1,1,0\r\n",  # CRLF
        " 0 , 0 , -1\n1,0, 3\n\t0,1,+7 \n1,1,0",  # spaces, a sign, no final newline
        "1,1,0\n0,1,7\n1,0,3\n0,0,-1\n",  # any line order
    ]:
        assert np.array_equal(parse_csv(text).cells, want)


def test_csv_parse_falls_back_when_numpy_only_warns(monkeypatch):
    # numpy releases before the unread-data error only warned and returned
    # the fields read so far; "0,0,5-3" then has the right count
    def warning_fromstring(text, dtype, sep):
        warnings.warn("string or file could not be read to its end", DeprecationWarning)
        return np.array([0, 0, 5], dtype=dtype)

    monkeypatch.setattr(np, "fromstring", warning_fromstring)
    with pytest.raises(ValueError, match="invalid literal"):
        parse_csv("0,0,5-3\n")


def test_csv_writer_matches_line_by_line_format():
    rng = np.random.default_rng(3)
    for cells in (
        rng.integers(-1, 18, (7, 12)),
        rng.integers(-(2**31), 2**31, (3, 5)),
    ):
        buf = IterBuffer(cells.shape[1], cells.shape[0], cells)
        lines = [f"{i},{j},{v}" for j, row in enumerate(cells.tolist()) for i, v in enumerate(row)]
        text = write_csv(buf)
        assert text == "\n".join(lines) + "\n"
        assert np.array_equal(parse_csv(text).cells, buf.cells)


def test_png_round_trip_matches_ppm_payload():
    PIL = pytest.importorskip("PIL.Image")
    grid = GridSpec(pixels_x=8, pixels_y=6)
    buf = scan_grid(grid, HALF, _cfg(HALF))
    import io

    img = PIL.open(io.BytesIO(write_png(buf)))
    assert img.size == (8, 6)
    payload = write_ppm(buf)[len(b"P6\n8 6\n255\n") :]
    assert img.tobytes() == payload


def test_ppm_payload_is_the_palette_color_of_every_cell():
    rng = np.random.default_rng(11)
    cells = rng.integers(-1, 40, (17, 23)).astype(np.int32)
    cells[0, 0] = 39  # the top level sizes the colour table
    buf = IterBuffer(23, 17, cells)
    want = b"".join(bytes(_color(int(level))) for level in cells.reshape(-1))
    assert write_ppm(buf) == b"P6\n23 17\n255\n" + want
    inside = IterBuffer(3, 2, np.full((2, 3), -1, dtype=np.int32))
    assert write_ppm(inside) == b"P6\n3 2\n255\n" + bytes(18)
