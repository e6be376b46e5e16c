"""The escape walk of several fibers, their shared root walked once, against each fiber alone.

A fiber is one (p, cfg) pair.  spectrum.FiberWalk walks the levels that all
fibers share once, then each fiber's rest; render.scan_fibers and
figures.repro_panels run it over a grid.  Every fiber's levels, and the
coefficients its sequence is asked for, must be those of escape_levels for
that fiber alone, and every panel's bytes those of render_panel.
"""

import hashlib
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from fibmachine import spectrum
from fibmachine.cli import main
from fibmachine.figures import panel_config
from fibmachine.render import scan_fibers, scan_grid
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
    """1-5 fibers whose prefixes agree on a drawn number of values, then differ."""
    shared = draw(st.lists(PROB, min_size=1, max_size=8))
    fibers = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        prefix = shared + draw(st.lists(PROB, max_size=6))
        if draw(st.integers(0, 7)) == 0:  # a p_1 of its own
            prefix[0] = draw(PROB)
        tail = draw(st.one_of(PROB, PROB, st.none()))  # no tail: a TailUndefined at some level
        cfg = EscapeConfig(
            draw(RADIUS), draw(st.integers(min_value=0, max_value=40)), draw(st.booleans())
        )
        fibers.append((ConstantTail(tuple(prefix), tail), cfg))
    if draw(st.integers(0, 3)):  # one early_exit for all, so the fibers may share a root
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
        walk.root(out)
        for k in range(len(fibers)):
            walk.finish(k, out)
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
def test_each_fiber_walks_as_it_does_alone(fibers, parts, block, join):
    lam = np.array([complex(re, im) for re, im in parts])
    want = [alone(lam, p, cfg) for p, cfg in fibers]
    # BLOCK also sets how many handed-back lanes the root joins into one part
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
    # p_2 differs, so the root is level 0 alone; |q_0| = 1 + 5e-7 is not
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


def test_the_root_ends_where_the_panels_differ():
    # every panel has p_1 = 1.0 and p_2 = 0.999, so levels 0-2 are walked
    # once, and the lanes still walking after level 2 are handed on
    fibers = [(panel_config(k).prob_seq, panel_config(k).escape_config()) for k in range(1, 16)]
    grid = panel_config(1).grid
    lam = grid.lam_array().reshape(-1)
    walk = FiberWalk(fibers, lambda: iter([lam]))
    out = np.full(lam.shape, INSIDE, dtype=np.int32)
    walk.root(out)
    levels = {level for level, *_ in walk.rests}
    assert levels <= {0, 3} and 3 in levels
    survivors = sum(index.size for level, index, *_ in walk.rests if level == 3)
    assert 0 < survivors < 0.2 * lam.size
    for k, (p, cfg) in enumerate(fibers):
        walk.finish(k, out)
        assert np.array_equal(out, escape_levels(lam, p, cfg)), k


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
