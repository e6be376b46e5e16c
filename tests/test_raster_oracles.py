"""The CSV writer, the CSV reader and the lambda grid against their old forms.

write_csv builds its value field from a table indexed by cells - min,
parse_csv reads write_csv's own text on a fast path that it checks by
writing the cells again, and GridSpec.lam_array writes the real and
imaginary parts directly.  The forms they replaced, kept in
tests/oracles.py, are the oracles: the same text byte for byte, the same
cells or the same error and message for any text, and the same lambda grid
bit for bit.
"""

import math
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import GridSpec, IterBuffer, parse_csv, write_csv
from fibmachine import render
from oracles import old_lam_array, old_parse_csv, old_write_csv


def _lines(cells) -> str:
    return "".join(f"{i},{j},{v}\n" for j, row in enumerate(cells) for i, v in enumerate(row))


def _outcome(parse, text):
    try:
        buf = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return buf.width, buf.height, buf.cells.dtype, buf.cells.tobytes()


@st.composite
def grids(draw):
    """Shapes 1x1 to 40x40; values from 20 or 1000 levels, or all of int32."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        lo, hi = -(2**31), 2**31
    else:
        lo = draw(st.sampled_from([-1, 0, 5, -(2**31), 2**31 - 1000]))
        hi = lo + draw(st.sampled_from([20, 1000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = rng.integers(lo, hi, (h, w))
    cells.flat[draw(st.integers(0, w * h - 1))] = draw(st.sampled_from([lo, hi - 1]))
    return IterBuffer(w, h, cells)


@settings(max_examples=300, deadline=None)
@given(grids())
def test_csv_round_trip_matches_the_old_writer_and_reader(buf):
    text = write_csv(buf)
    assert text == old_write_csv(buf) == _lines(buf.cells.tolist())
    assert np.array_equal(render._canonical_cells(text), buf.cells)  # the fast path
    assert _outcome(parse_csv, text) == _outcome(old_parse_csv, text)


def test_csv_writer_table_and_unique_paths_cross_blocks():
    rng = np.random.default_rng(8)
    for shape, lo, hi in [
        ((40, 700), -1, 17),  # a value table, several row blocks
        ((3, render.CSV_BLOCK + 5), -1, 17),  # rows wider than a block
        ((2, 3), 0, 60),  # a value table past the grid size, under 64 values
        ((70, 300), -(2**31), 2**31),  # distinct values
        ((1, 2), -(2**31), 2**31),  # range past the grid size by far
    ]:
        cells = rng.integers(lo, hi, shape).astype(np.int32)
        buf = IterBuffer(shape[1], shape[0], cells)
        text = write_csv(buf)
        assert text == old_write_csv(buf)
        assert np.array_equal(parse_csv(text).cells, buf.cells)
        assert np.array_equal(parse_csv("\n " + text[:-1] + " \t\n\n").cells, buf.cells)


# one-byte mutations: digits and signs keep some texts canonical, the rest
# break the layout, the line structure or the ASCII of the text
MUTATIONS = "0123456789-+,\n\r xé"
LEVELS = list(range(-1, 17))
WIDE = LEVELS + [-12, 123, -(2**31), 2**31 - 1, 2**31]


def _fuzz_text(rng: random.Random) -> str:
    w, h = rng.randint(1, 4), rng.randint(1, 4)
    values = rng.choices(WIDE if rng.random() < 0.1 else LEVELS, k=w * h)
    text = _lines([values[j * w : (j + 1) * w] for j in range(h)])
    kind = rng.randrange(6)
    if kind == 1:
        lines = text.splitlines()
        rng.shuffle(lines)
        text = "\n".join(lines) + rng.choice(["", "\n"])
    elif kind == 2:
        text = text.replace("\n", "\r\n")
    elif kind == 3:
        text = text[: rng.randrange(len(text))]
    elif kind >= 4:
        k = rng.randrange(len(text))
        text = text[:k] + rng.choice(MUTATIONS) + text[k + 1 :]
    return text


def test_csv_reader_differential_fuzz(monkeypatch):
    fast = 0
    canonical_cells = render._canonical_cells

    def counted(text):
        nonlocal fast
        cells = canonical_cells(text)
        fast += cells is not None
        return cells

    monkeypatch.setattr(render, "_canonical_cells", counted)
    rng = random.Random(2026)
    for _ in range(200_000):
        text = _fuzz_text(rng)
        assert _outcome(parse_csv, text) == _outcome(old_parse_csv, text), repr(text)
    assert 40_000 < fast < 100_000  # both paths carry a large share


def test_csv_reader_fast_path_only_takes_write_csv_text():
    extremes = IterBuffer(2, 1, np.array([[-(2**31), 2**31 - 1]]))
    assert np.array_equal(render._canonical_cells(write_csv(extremes)), extremes.cells)
    buf = IterBuffer(3, 2, np.array([[5, -1, 12], [0, 7, 3]]))
    text = write_csv(buf)
    for variant in [text, text[:-1], text + "\n\n", text[:-1] + " \t\r\n"]:
        assert np.array_equal(render._canonical_cells(variant), buf.cells)
    for variant in [
        " " + text,  # leading whitespace: the general readers take it
        text.replace("\n", "\r\n"),
        text.replace("0,0,5", "0,0,+5"),
        text.replace("0,0,5", "0,0,05"),
        text.replace("1,0,-1", "1,0,-01"),
        text.replace("2,1,3", "2, 1,3"),
        text.replace("2,1,3", "02,1,3"),
        text.replace("1,1,7", "1,1,7 "),
        text.replace("0,1,0\n", "") + "0,1,0\n",  # lines out of order
        text + "3,1,4\n",
        text.replace("12", "99999999999"),  # eleven digits: the first is not read
        text.replace("12", "4294967308"),  # 12 + 2**32 wraps to 12
        text.replace("12", "-2147483649"),  # one below int32
    ]:
        assert render._canonical_cells(variant) is None, variant
        assert _outcome(parse_csv, variant) == _outcome(old_parse_csv, variant)


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).view(np.uint64).tobytes()


def test_lam_array_is_bit_identical_to_the_old_grid():
    rng = random.Random(4)
    parts = [0.0, -0.0, 1.0, -1.0, 0.3, -2.5, 1e-300, -1e300, 5e-324]
    for _ in range(400):
        re_ = rng.choice(parts + [rng.uniform(-3, 3), rng.uniform(-1e6, 1e6)])
        im_ = rng.choice(parts + [rng.uniform(-3, 3), math.ldexp(rng.random(), rng.randint(-60, 60))])
        grid = GridSpec(
            center=complex(re_, im_),
            width=rng.choice([5.0, 1e-9, rng.uniform(0.1, 10.0), 3e300]),
            height=rng.choice([5.0, 2.0, rng.uniform(0.1, 10.0), 1e-12]),
            pixels_x=rng.randint(1, 9),
            pixels_y=rng.randint(1, 9),
        )
        assert _bits(grid.lam_array()) == _bits(old_lam_array(grid)), grid
    for center in (0, 2, -0.5, np.float32(0.25), np.complex64(-0.0 - 0.0j), complex(-0.0, -0.0)):
        grid = GridSpec(center=center, pixels_x=7, pixels_y=5)
        assert _bits(grid.lam_array()) == _bits(old_lam_array(grid)), center
