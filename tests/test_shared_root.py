"""The escape walk of several fibers on a prefix tree, each shared prefix walked once, against each fiber alone.

A fiber is one (p, cfg) pair.  spectrum.FiberWalk walks, for each group of
fibers that agree on a prefix of coefficients, the levels of that prefix
once, then splits the group where they differ; render.scan_fibers and
figures.repro_panels run it over a grid.  Every fiber's levels, and the
coefficients its sequence is asked for, must be those of escape_levels for
that fiber alone, and every panel's bytes those of render_panel.
render.write_ppms paints each fiber's PPM from that one walk: its bytes must
be write_ppm's of each buffer scan_fibers yields.
"""

import hashlib
import tempfile
import time
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fibmachine import (
    PANEL_COUNT,
    ConstantTail,
    EscapeConfig,
    GridSpec,
    TailUndefined,
    escape_levels,
    render_panel,
    repro_panels,
    write_ppm,
)
from fibmachine import render, spectrum
from fibmachine.cli import main
from fibmachine.figures import panel_config
from fibmachine.render import scan_fibers, scan_grid, write_ppms
from fibmachine.spectrum import INSIDE, FiberWalk
from oracles import Recording

# values 1e-17 and 5e-324 lie below TINY_R; repeats make fibers agree
PROB = st.one_of(
    st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.3, 0.01, 1e-17, 5e-324]),
    st.floats(min_value=0.01, max_value=1.0),
    st.floats(min_value=0.9, max_value=1.0),  # orbits near 1 then live longer
)
SPECIAL_PARTS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308]
# most lambdas near the unit disk, where orbits outlive the first levels
PART = st.one_of(
    st.sampled_from(SPECIAL_PARTS),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-1.2, max_value=1.2),
    st.floats(min_value=0.6, max_value=1.2),  # near the fixed point lambda = 1
)
# radii cutting the moduli of levels 0-2 over the window, and one far past them
RADIUS = st.one_of(
    st.sampled_from([1.0 + 1e-9, 1.5, 2.0, 3.0, 4.0, 7.0, 1e200]),
    st.floats(min_value=1.01, max_value=12.0),
)


@st.composite
def fiber_sets(draw):
    """1-5 fibers on a drawn prefix tree: a trunk all share, branches past it, then their own values.

    Fibers on one branch leave the others where the trunk ends and each
    other past the branch, so groups split at two or more levels.  Radii
    and max_levels differ inside a group at any level, and a fiber without
    a tail raises TailUndefined where its prefix ends, in a group it may
    share with fibers that walk on.
    """
    trunk = draw(st.lists(PROB, min_size=1, max_size=6))
    branches = [trunk + draw(st.lists(PROB, max_size=4)) for _ in range(draw(st.integers(1, 3)))]
    fibers = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        prefix = draw(st.sampled_from(branches)) + draw(st.lists(PROB, max_size=3))
        if draw(st.integers(0, 7)) == 0:  # a p_1 of its own
            prefix[0] = draw(PROB)
        tail = draw(st.one_of(PROB, PROB, st.none()))  # no tail: a TailUndefined at some level
        cfg = EscapeConfig(
            draw(RADIUS), draw(st.integers(min_value=0, max_value=40)), draw(st.booleans())
        )
        fibers.append((ConstantTail(tuple(prefix), tail), cfg))
    if draw(st.integers(0, 3)):  # one early_exit for all, so the fibers may share levels
        early_exit = fibers[0][1].early_exit
        fibers = [(p, EscapeConfig(cfg.radius, cfg.max_level, early_exit)) for p, cfg in fibers]
    return fibers


def alone(lam, p, cfg):
    """escape_levels of one fiber: (levels or the TailUndefined message, the indices asked)."""
    seen = Recording(p)
    try:
        outcome = escape_levels(lam, seen, cfg)
    except TailUndefined as exc:
        outcome = str(exc)
    return outcome, seen.asked


def together(lam, fibers, block):
    """FiberWalk over blocks of `block` pixels: each fiber's outcome, as alone's, until one raises."""
    seen = [Recording(p) for p, _ in fibers]
    walk = FiberWalk(
        list(zip(seen, [cfg for _, cfg in fibers])),
        lambda: (lam[at : at + block] for at in range(0, lam.size, block)),
    )
    out = np.full(lam.shape, INSIDE, dtype=np.int32)
    outcomes = []
    try:
        walk.walk(out)
        for k in range(len(fibers)):
            out[walk.index] = walk.fiber(k)
            outcomes.append(out.copy())
    except TailUndefined as exc:
        outcomes.append(str(exc))
    return outcomes, [s.asked for s in seen]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    fibers=fiber_sets(),
    parts=st.lists(st.tuples(PART, PART), min_size=1, max_size=40),
    block=st.integers(min_value=1, max_value=40),
    join=st.integers(min_value=1, max_value=40),
)
@example(  # the second fiber's tail runs out at p_3, inside the node both step through p_2
    fibers=[
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(3.0, 17, True)),
        (ConstantTail((0.9, 0.8), None), EscapeConfig(4.0, 17, True)),
    ],
    parts=[(1.0, 0.0), (0.5, 0.1), (0.9, -0.2), (2.0, 1.0)],
    block=3,
    join=2,
)
def test_each_fiber_walks_as_it_does_alone(fibers, parts, block, join):
    lam = np.array([complex(re, im) for re, im in parts])
    want = [alone(lam, p, cfg) for p, cfg in fibers]
    # BLOCK also sets how many handed-back lanes the top node joins into one part
    with mock.patch.object(spectrum, "BLOCK", join):
        got, asked = together(lam, fibers, block)
    for k, outcome in enumerate(got):
        levels, wanted = want[k]
        if isinstance(outcome, str):  # the fiber's tail ran out where it does alone
            assert outcome == levels
        else:
            assert np.array_equal(outcome, levels), k
        assert asked[k] == wanted, k
    if isinstance(got[-1], str):
        # the fibers after the one that raised were asked a prefix of what they ask alone
        for k in range(len(got), len(fibers)):
            assert asked[k] == want[k][1][: len(asked[k])]
    else:
        assert len(got) == len(fibers)


def test_a_lane_handed_on_keeps_the_pair_test_of_its_last_root_level():
    # p_2 differs, so the top node is level 0 alone; |q_0| = 1 + 5e-7 is not
    # above 1 + ETA, so the pair rule first fires at level 2, naming level 1
    lam = np.array([1.0 + 5e-7, 1.0 + 2e-6, 0.5])
    fibers = [
        (ConstantTail((1.0, 1.0), 1.0), EscapeConfig(4.0, 17)),
        (ConstantTail((1.0, 0.999), 1.0), EscapeConfig(4.0, 17)),
    ]
    got, asked = together(lam, fibers, 3)
    for k, (p, cfg) in enumerate(fibers):
        assert got[k].tolist() == escape_levels(lam, p, cfg).tolist()
    assert got[0].tolist() == [1, 0, INSIDE]


def test_the_panels_walk_each_shared_prefix_once():
    # every panel has p_1 = 1.0 and p_2 = 0.999 (levels 0-2), all but panels
    # 1 and 7 have p_3 = 1.0 (levels 3-4), and the groups that agree further
    # step each level they share once: panels 13-15 through p_6 (level 10)
    fibers = [(panel_config(k).prob_seq, panel_config(k).escape_config()) for k in range(1, 16)]
    lam = panel_config(1).grid.lam_array().reshape(-1)
    steps = Counter()  # (panels, level) of each level a group's block walk steps
    walk_lanes = spectrum._walk_lanes

    def counted(cur, prev, start, out, rules):
        group = rules.step.args[0]  # a group's members, or a lone fiber's index

        def step(n):
            r = rules.step(n)
            if r is not None and isinstance(group, list):
                steps[tuple(k + 1 for k in group), n] += 1
            return r

        return walk_lanes(cur, prev, start, out, rules._replace(step=step))

    with mock.patch.object(spectrum, "_walk_lanes", counted):
        walk = FiberWalk(fibers, lambda: iter([lam]))
        out = np.full(lam.shape, INSIDE, dtype=np.int32)
        walk.walk(out)
    tree = {
        tuple(range(1, 16)): range(0, 3),
        (2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 14, 15): range(3, 5),
        (2, 4, 5, 11, 12): range(5, 7),
        (3, 6): range(5, 7),
        (9, 10): range(5, 7),
        (4, 5): range(7, 9),
        (13, 14, 15): range(5, 11),
    }
    assert steps == {(group, n): 1 for group, levels in tree.items() for n in levels}
    assert 0 < walk.index.size < 0.2 * lam.size  # the lanes past the top node
    assert all(kept.dtype == np.int8 for kept in walk.kept)
    for k, (p, cfg) in enumerate(fibers):
        out[walk.index] = walk.fiber(k)
        assert np.array_equal(out, escape_levels(lam, p, cfg)), k


def passes_over(lam, size):
    """blocks() of `size` pixels over lam, and the number of times each block was given."""
    given = Counter()

    def blocks():
        for at in range(0, lam.size, size):
            given[at] += 1
            yield lam[at : at + size]

    return blocks, given


def test_a_group_past_level_0_hands_back_lanes_between_its_radii_with_their_state():
    # p_2 splits the third fiber off at level 1; the first two walk on
    # together with radii 2 and 4, so a lane whose modulus passes 2 but not 4
    # goes back to each of them with its state, to step that level again alone
    fibers = [
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(2.0, 30, False)),
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(4.0, 25, False)),
        (ConstantTail((0.9, 0.6), 0.7), EscapeConfig(3.0, 30, False)),
    ]
    lam = np.linspace(-1.5 - 0.3j, 1.5 + 0.4j, 997)
    blocks, given = passes_over(lam, 100)
    between = []  # the levels at which lanes are handed back between a group's radii
    walk_lanes = spectrum._walk_lanes

    def recorded(cur, prev, start, out, rules):
        survivors, handed = walk_lanes(cur, prev, start, out, rules)
        between.extend(n for n, _, _, _ in handed)
        return survivors, handed

    walk = FiberWalk(fibers, blocks)
    out = np.full(lam.shape, INSIDE, dtype=np.int32)
    with mock.patch.object(spectrum, "_walk_lanes", recorded):
        walk.walk(out)
    assert set(given.values()) == {1} and len(given) == 10  # one pass over the blocks
    assert max(between) >= 2
    for k, (p, cfg) in enumerate(fibers):
        out[walk.index] = walk.fiber(k)
        assert np.array_equal(out, escape_levels(lam, p, cfg)), k


def test_a_split_at_level_0_walks_each_level_0_group_from_the_blocks_once():
    # p_1 differs, so every pixel passes the top node: the first three fibers
    # walk the band together, the first two on past level 0 handing lanes
    # between radii 2 and 4 back, and the fourth walks it alone; a fiber
    # without p_1 walks nothing
    fibers = [
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(2.0, 30, False)),
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(4.0, 25, False)),
        (ConstantTail((0.9, 0.6), 0.7), EscapeConfig(3.0, 30, False)),
        (ConstantTail((0.8, 0.8), 0.7), EscapeConfig(3.0, 30, False)),
    ]
    lam = np.linspace(-1.5 - 0.3j, 1.5 + 0.4j, 997)
    blocks, given = passes_over(lam, 100)
    walk = FiberWalk(fibers, blocks)
    out = np.full(lam.shape, INSIDE, dtype=np.int32)
    walk.walk(out)
    assert set(given.values()) == {2} and len(given) == 10  # one pass per level-0 group
    assert np.array_equal(walk.index, np.arange(lam.size)) and np.all(out == INSIDE)
    for k, (p, cfg) in enumerate(fibers):
        out[walk.index] = walk.fiber(k)
        assert np.array_equal(out, escape_levels(lam, p, cfg)), k
    blocks, given = passes_over(lam, 100)
    walk = FiberWalk([*fibers[:1], (ConstantTail((), None), fibers[0][1])], blocks)
    walk.walk(np.full(lam.shape, INSIDE, dtype=np.int32))
    assert set(given.values()) == {1}
    with pytest.raises(TailUndefined):
        walk.fiber(1)


def test_scan_fibers_yields_each_fibers_scan_at_any_worker_count():
    fibers = [(panel_config(k).prob_seq, panel_config(k).escape_config()) for k in (3, 7, 11, 3)]
    grid = GridSpec(0.1 + 0.05j, 5.0, 4.0, 37, 29)
    alone = [Recording(p) for p, _ in fibers]
    want = [scan_grid(grid, seen, cfg).cells for seen, (_, cfg) in zip(alone, fibers)]
    for workers in (1, 2, 3):
        seen = [Recording(p) for p, _ in fibers]
        bufs = scan_fibers(grid, [(s, cfg) for s, (_, cfg) in zip(seen, fibers)], workers)
        got = [buf.cells for buf in bufs]
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), workers
        # each sequence is asked what it is asked alone, at any worker count
        assert [s.asked for s in seen] == [s.asked for s in alone], workers


class SlowRecording(Recording):
    """A Recording that yields its thread inside every request, so two bands meet mid-request."""

    def p(self, i):
        time.sleep(1e-4)
        return super().p(i)


def test_two_bands_on_one_descriptor_ask_each_index_once_in_order():
    # both bands' threads read one descriptor's table; growth takes a lock
    p, cfg = panel_config(3).prob_seq, panel_config(3).escape_config()
    grid = GridSpec(0.1 + 0.05j, 5.0, 4.0, 64, 48)
    alone = Recording(p)
    want = next(scan_fibers(grid, [(alone, cfg)], workers=1)).cells
    assert alone.asked == list(range(1, len(alone.asked) + 1)) and len(alone.asked) > 5
    for _ in range(5):
        seen = SlowRecording(p)
        for buf in scan_fibers(grid, [(seen, cfg), (seen, cfg)], workers=2):
            assert np.array_equal(buf.cells, want)
        assert seen.asked == alone.asked


# ---------------------------------------------------------------------------
# one painter: write_ppms against write_ppm of each buffer scan_fibers yields


@st.composite
def small_grids(draw):
    """Grids of 1-9 by 1-9 pixels, centred on the real axis (rows mirrored) or off it (none).

    A height of 1e-18 rounds every row to a few imaginary parts, so one
    scanned row stands for several grid rows, not just a row and its mirror.
    """
    center = complex(draw(st.floats(-1.5, 1.5)), draw(st.sampled_from([0.0, 0.0, 0.37, -1.1])))
    width = draw(st.floats(0.5, 6.0))
    height = draw(st.one_of(st.floats(0.5, 6.0), st.just(1e-18)))
    return GridSpec(center, width, height, draw(st.integers(1, 9)), draw(st.integers(1, 9)))


def scanned_ppms(grid, fibers, workers):
    """write_ppm and the INSIDE count of each buffer scan_fibers yields, then the error it raised."""
    ppms = []
    try:
        for buf in scan_fibers(grid, fibers, workers):
            ppms.append((write_ppm(buf), buf.inside_count()))
    except TailUndefined as exc:
        return ppms, str(exc)
    return ppms, None


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(grid=small_grids(), fibers=fiber_sets(), workers=st.integers(min_value=1, max_value=3))
@example(  # p_1 differs, so the fibers split at level 0 and every pixel passes the top node
    grid=GridSpec(0.1j, 3.0, 2.5, 9, 7),
    fibers=[
        (ConstantTail((1.0,), 0.9), EscapeConfig(3.0, 17, True)),
        (ConstantTail((0.9,), 0.9), EscapeConfig(3.0, 9, True)),
    ],
    workers=2,
)
def test_write_ppms_writes_write_ppm_of_each_scan(grid, fibers, workers):
    want, error = scanned_ppms(grid, fibers, workers)
    with tempfile.TemporaryDirectory() as out:
        paths = [Path(out) / f"{k}.ppm" for k in range(len(fibers))]
        try:
            counts = write_ppms(grid, fibers, paths, workers)
        except TailUndefined as exc:
            assert str(exc) == error
        else:
            assert error is None and counts == [inside for _, inside in want]
        # the files before the fiber that raised are written, and no others
        assert [path.exists() for path in paths] == [k < len(want) for k in range(len(paths))]
        assert [path.read_bytes() for path in paths[: len(want)]] == [ppm for ppm, _ in want]


def test_write_ppms_raises_a_fibers_error_at_its_turn(tmp_path):
    # the second fiber has no tail past p_2; its group walks on to level 2 with the first
    fibers = [
        (ConstantTail((0.9, 0.8), 0.7), EscapeConfig(3.0, 17, True)),
        (ConstantTail((0.9, 0.8), None), EscapeConfig(4.0, 17, True)),
        (ConstantTail((0.9, 0.6), 0.7), EscapeConfig(3.0, 17, True)),
    ]
    grid = GridSpec(0.1 + 0.05j, 5.0, 4.0, 21, 15)
    paths = [tmp_path / f"{k}.ppm" for k in range(3)]
    with pytest.raises(TailUndefined):
        write_ppms(grid, fibers, paths, workers=2)
    assert paths[0].read_bytes() == write_ppm(next(scan_fibers(grid, fibers)))
    assert not paths[1].exists() and not paths[2].exists()


def test_write_ppms_sizes_its_colour_table_by_the_deepest_level_walked(tmp_path):
    # every pixel escapes at level 0, so two colours do, whatever max_level is;
    # p_1 differs, so the levels are the kept arrays of a split at level 0
    cfg = EscapeConfig(4.0, 10_000, True)
    fibers = [(ConstantTail((0.9,), 0.8), cfg), (ConstantTail((1.0,), 0.8), cfg)]
    grid = GridSpec(100.0 + 0j, 2.0, 2.0, 7, 5)
    paths = [tmp_path / "a.ppm", tmp_path / "b.ppm"]
    with mock.patch.object(render, "_color", wraps=render._color) as color:
        assert write_ppms(grid, fibers, paths) == [0, 0]
    assert color.call_count <= 0 + 2
    for path, (p, cfg) in zip(paths, fibers):
        assert path.read_bytes() == write_ppm(scan_grid(grid, p, cfg))


def test_write_ppms_refuses_a_paths_list_that_is_not_one_per_fiber(tmp_path):
    fiber = (ConstantTail((0.9,), 0.8), EscapeConfig(4.0, 17))
    grid = GridSpec(0j, 3.0, 3.0, 5, 5)
    for fibers, paths in (([fiber, fiber], ["a.ppm"]), ([fiber], ["a.ppm", "b.ppm"])):
        with pytest.raises(ValueError, match="paths"):
            write_ppms(grid, fibers, [tmp_path / path for path in paths])
        assert list(tmp_path.iterdir()) == []


def test_an_empty_fiber_list_is_refused_naming_fibers(tmp_path):
    grid = GridSpec(0j, 3.0, 3.0, 5, 5)
    with pytest.raises(ValueError, match="fibers"):
        write_ppms(grid, [], [])
    with pytest.raises(ValueError, match="fibers"):
        next(scan_fibers(grid, []))


# ---------------------------------------------------------------------------
# the panels' bytes

#: SHA-256 of each committed panel's PPM at 800x800.
PANEL_PPM_SHA256 = {
    1: "964cfabe322d2bbd66b80494b0108cd5efd3c25b5c974726b7e43642cee8bdf2",
    2: "bbc9abd010300b5566d05e11f959edb7cbd0050809de7704b21f061a803a2db5",
    3: "86511b1cec0ea50c39c8a2f653f03ecb6077bdd086c22238e3814c8eea41d97f",
    4: "b6c4ace3715699ff0b46e2968f3644bf0aaecbd77daf80940a4e6ff85d40ad7c",
    5: "3eb848ee507fd729a5cbbb8c8691b85cecb567a5f2bf5df839f1b3d3bfbd2026",
    6: "96dcc66114677c0871b396e7db3b666aa9199a46fdb24784b6a73d58b839c673",
    7: "b0860b69af9016fd5189cc4a17b1248c7c55be2f258d9da2b6ea1801248ae09c",
    8: "20286fc1b6ec9c97443009eb79180c7367f715c89fd5d76980fe20696fc7c370",
    9: "fadbd6ec1c82cb7203b19e000b0afad38c58527f13f2de1d36a9410f822dc97d",
    10: "0daf527e57a368ab6641fee5136077fddeda991d335516c7c0305e9ab731b15f",
    11: "6f75eaf235b0914dad5b68f0517ffc32058fa1a39b638deffb66f5fc77753072",
    12: "442f0be4d7d1f8dca9f0114a5381bdd540a45a69e1b36d2622f6c71964bf27a2",
    13: "2f1e63c6c9fd2feb822449e822b1e8b969b640e32360e07c8e58db93f271e1ae",
    14: "30d78d8f39caa388abf37a8067535b8568c127f0817d2b4f06688efc64f092f9",
    15: "3419829fcb37ed63134341784e9f8ac37111729f6b76b1578b77b5245bd9ab37",
}


@pytest.mark.parametrize("workers", [1, 2])
def test_repro_all_writes_the_pinned_panels(tmp_path, capsys, workers):
    argv = ["repro", "all", "--pixels", "800", "--workers", str(workers), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    paths = [tmp_path / f"panel{k:02d}.ppm" for k in range(1, PANEL_COUNT + 1)]
    assert capsys.readouterr().out == "".join(f"wrote {path}\n" for path in paths)
    for k, path in enumerate(paths, start=1):
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PANEL_PPM_SHA256[k], k


@pytest.mark.parametrize("numbers", [list(range(1, PANEL_COUNT + 1)), [7, 1], [5], [3, 3]])
def test_repro_panels_writes_what_render_panel_gives(tmp_path, numbers):
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        paths = repro_panels(numbers, out, workers=workers, pixels=48)
        assert paths == [out / f"panel{k:02d}.ppm" for k in numbers]
        for k, path in zip(numbers, paths):
            assert path.read_bytes() == write_ppm(render_panel(k, pixels=48)), (k, workers)


@pytest.mark.parametrize("target, numbers", [("all", range(1, 16)), ("7", [7]), ("fig5-2", [5])])
def test_repro_prints_one_line_per_panel(tmp_path, capsys, target, numbers):
    assert main(["repro", target, "--pixels", "48", "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "".join(
        f"wrote {tmp_path / f'panel{k:02d}.ppm'}\n" for k in numbers
    )
