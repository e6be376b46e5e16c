"""The blocked escape kernel against the full-array kernel it replaced.

`full_array_escape_levels` below is the earlier kernel, kept only as an
oracle: it steps every pixel at every level, divides by r_n, and freezes
settled lanes at 0.  Its one change since is the step below r_n = 2^-53,
where x/r_n - (1/r_n - 1) no longer maps 1 to 1: there it steps
(x - 1)/r_n + 1, as the kernel does.  The shipped kernel steps blocks of
pixels, carries settled lanes behind a mask until it compacts, and
multiplies by 1/r_n; on a live pixel its moduli equal the oracle's, so their
levels must agree bit for bit.  The scalar `in_E` walks one lambda through
the kernel's expressions and tests without the block bookkeeping; it must
give the level of the shipped kernel on a 1x1 array and of the oracle, ask
`p` for the same coefficients, and raise the same errors.  Past the first
block that reads every level, the kernel settles a lane as INSIDE where the
trap table bounds its moduli; that certificate must change no level and no
request, and its table must hold a worst-case step, computed exactly.
"""

import cmath
from contextlib import nullcontext
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    ConstantTail,
    EscapeConfig,
    GeometricDecay,
    TailUndefined,
    all_ones,
    escape_levels,
    in_E,
)
from fibmachine import spectrum
from fibmachine.chain import coefficients
from fibmachine.figures import PANEL_COUNT, panel_config
from fibmachine.spectrum import (
    ABS_ERR,
    BLOCK,
    COMPACT_AT,
    ETA,
    GROW,
    INSIDE,
    MUL_ERR,
    TINY_ERR,
    TINY_R,
    UNIT,
    r_index,
)
from oracles import Recording, for_probseq

HALF = ConstantTail((), 0.5)
MIXED = ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)
PANEL_SEQS = [panel_config(k).prob_seq for k in range(1, PANEL_COUNT + 1)]


def full_array_escape_levels(lam_grid, p, cfg):
    lam = np.ascontiguousarray(lam_grid, dtype=np.complex128)
    out = np.full(lam.shape, INSIDE, dtype=np.int32)
    active = np.ones(lam.shape, dtype=bool)
    prev_big = np.zeros(lam.shape, dtype=bool)
    radius = cfg.radius
    p1 = p.p(1)
    cur = 1.0 + (lam - 1.0) / p1
    prev = np.zeros_like(cur)

    def step(prod, r):
        if r >= 2.0**-53:
            return prod / r - (1.0 / r - 1.0)
        return (prod - 1.0) / r + 1.0

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(cfg.max_level + 1):
            if n == 1:
                r = p.p(r_index(1))
                cur, prev = step(cur * cur, r), cur
            elif n >= 2:
                r = p.p(r_index(n))
                cur, prev = step(cur * prev, r), cur
            mod = np.abs(cur)
            big = mod > 1.0 + ETA
            hit_pair = active & big & prev_big if (cfg.early_exit and n >= 1) else None
            hit_radius = active & ~(mod <= radius)
            if hit_pair is not None:
                out[hit_pair] = n - 1
                active &= ~hit_pair
                hit_radius &= active
            out[hit_radius] = n
            active &= ~hit_radius
            if not active.any():
                break
            cur = np.where(active, cur, 0.0)
            prev = np.where(active, prev, 0.0)
            prev_big = big & active
    return out


def _grid(n, half_width=2.5, center=0j):
    xs = np.linspace(-half_width, half_width, n)
    return center + xs[None, :] + 1j * xs[:, None]


def assert_same_levels(lam, p, cfg):
    got = escape_levels(lam, p, cfg)
    with np.errstate(invalid="ignore"):  # the old seed warned on NaN and inf
        want = full_array_escape_levels(lam, p, cfg)
    assert got.dtype == want.dtype == np.int32
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    return got


@pytest.mark.parametrize("max_level", [0, 1, 2, 17, 40])
@pytest.mark.parametrize("early_exit", [True, False])
def test_compacted_kernel_equals_full_array_kernel(max_level, early_exit):
    rng = np.random.default_rng(max_level * 2 + early_exit)
    lam = rng.uniform(-2.6, 2.6, (60, 70)) + 1j * rng.uniform(-2.6, 2.6, (60, 70))
    for p in [HALF, MIXED, all_ones()] + PANEL_SEQS[::4]:
        cfg = for_probseq(p, max_level=max_level, early_exit=early_exit)
        assert_same_levels(lam, p, cfg)


@pytest.mark.parametrize("k", range(PANEL_COUNT))
def test_compacted_kernel_on_every_panel(k):
    cfg = panel_config(k + 1)
    assert_same_levels(_grid(97), cfg.prob_seq, cfg.escape_config())


def test_compacted_kernel_shapes_and_strides():
    cfg = for_probseq(HALF, max_level=17)
    grid = _grid(48)
    assert_same_levels(grid[5], HALF, cfg)  # 1-D
    assert_same_levels(grid.reshape(4, 12, 48), HALF, cfg)  # 3-D
    strided = grid[::3, 1::2]
    assert not strided.flags.c_contiguous
    assert_same_levels(strided, HALF, cfg)
    assert_same_levels(grid.T, HALF, cfg)
    empty = assert_same_levels(np.empty((0, 5), dtype=complex), HALF, cfg)
    assert empty.shape == (0, 5)
    # a Python list and a real dtype go through the same conversion
    assert_same_levels([0.5, 1.0, 3.0, -2.0], HALF, cfg)


def test_nan_and_inf_escape_at_level_zero():
    nan, inf = float("nan"), float("inf")
    lam = np.array([nan, complex(nan, 1.0), inf, -inf, complex(0.0, inf), 0.25, 1.0])
    for early_exit in (True, False):
        cfg = for_probseq(HALF, max_level=17, early_exit=early_exit)
        levels = assert_same_levels(lam, HALF, cfg)
        assert levels.tolist()[:5] == [0] * 5
        assert levels[-1] == INSIDE
        for value, level in zip(lam.tolist(), levels.tolist()):
            r = in_E(value, HALF, cfg)
            assert (r.level if r.escaped else INSIDE) == level


def test_unit_disk_never_escapes_for_the_deterministic_machine():
    # |lambda| < 1 keeps every q_{F_n} = lambda^(F_n) inside the unit disk
    ones = all_ones()
    rng = np.random.default_rng(7)
    rad = np.sqrt(rng.uniform(0.0, 0.98, 2000))
    lam = rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 2000))
    for max_level in (0, 1, 2, 40):
        cfg = for_probseq(ones, max_level=max_level)
        levels = assert_same_levels(lam, ones, cfg)
        assert np.all(levels == INSIDE)


# ---------------------------------------------------------------------------
# blocks, masked lanes, overflow and lazily requested coefficients


def _random_lambda(rng, size, half_width=2.6):
    return rng.uniform(-half_width, half_width, size) + 1j * rng.uniform(
        -half_width, half_width, size
    )


@pytest.mark.parametrize("size", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_flat_sizes_around_the_block(size):
    rng = np.random.default_rng(size)
    lam = _random_lambda(rng, size)
    for early_exit in (True, False):
        cfg = for_probseq(MIXED, max_level=17, early_exit=early_exit)
        assert_same_levels(lam, MIXED, cfg)


def test_grid_rows_straddle_blocks():
    rows, cols = 3 * BLOCK // 1000 + 1, 1000  # BLOCK is no multiple of 1000
    assert BLOCK % cols and rows * cols > 3 * BLOCK
    lam = _grid(1000)[:rows]
    for p in (HALF, PANEL_SEQS[4]):
        cfg = for_probseq(p, max_level=17)
        assert_same_levels(lam, p, cfg)


def test_masked_lanes_when_few_settle_per_level():
    # the all-ones orbit is lambda^(F_n): inside the unit disk it never
    # escapes, and just outside it escapes at a level set by the radius, so
    # a mostly-inside grid settles a few lanes at each of many levels, and
    # never enough of them to compact
    ones = all_ones()
    rng = np.random.default_rng(3)
    size = 3 * BLOCK // 2
    rad = np.where(
        rng.uniform(size=size) < 0.2,
        1.0 + 10.0 ** rng.uniform(-9.0, -0.3, size),
        np.sqrt(rng.uniform(0.0, 0.98, size)),
    )
    lam = rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    for early_exit in (True, False):
        cfg = for_probseq(ones, max_level=40, early_exit=early_exit)
        levels = assert_same_levels(lam, ones, cfg)
        for block in (levels[:BLOCK], levels[BLOCK:]):
            settled = np.bincount(block[block != INSIDE], minlength=cfg.max_level + 1)
            assert np.count_nonzero(settled) >= 8  # settles at many levels
            assert settled.sum() < (1.0 - COMPACT_AT) * block.size  # never compacts


def test_lanes_compact_after_a_wide_level():
    # most lanes escape at level 0 and the rest trickle out: compaction at
    # level 0, then masked lanes again in the shrunk arrays
    ones = all_ones()
    rng = np.random.default_rng(4)
    size = BLOCK + 500
    rad = np.where(
        rng.uniform(size=size) < 0.5,
        rng.uniform(4.0, 9.0, size),
        1.0 + 10.0 ** rng.uniform(-4.0, -0.3, size),
    )
    lam = rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    for early_exit in (True, False):
        cfg = for_probseq(ones, max_level=40, early_exit=early_exit)
        assert_same_levels(lam, ones, cfg)


@pytest.mark.parametrize("early_exit", [True, False])
def test_overflow_next_to_a_huge_radius(early_exit):
    # with radius 1e200 and p = 0.01 a step jumps from under the radius to
    # inf (or to NaN, inf * 0 in the complex product) in one level
    small = ConstantTail((), 0.01)
    cfg = EscapeConfig(radius=1e200, max_level=17, early_exit=early_exit)
    rng = np.random.default_rng(5)
    size = BLOCK + 7
    lam = 10.0 ** rng.uniform(0.0, 200.0, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    lam[:4] = [1.0, 0.5, 1e160, (1 + 1j) * 1e155]
    with np.errstate(over="ignore", invalid="ignore"):
        seed = (lam - 1.0) / 0.01 + 1.0
        stepped = seed * seed / 0.01 - (1.0 / 0.01 - 1.0)
    assert np.any(np.abs(seed) <= 1e200) and np.any(~np.isfinite(stepped))
    assert np.any(np.isnan(stepped))
    levels = assert_same_levels(lam, small, cfg)
    assert levels[0] == INSIDE


def test_explicit_prefix_escaping_before_it_runs_out():
    # r_index(3) = 3 is the first index past the prefix: a grid that settles
    # by level 2 never asks for it
    p = Recording(ConstantTail((0.5, 0.6), tail=None))
    cfg = EscapeConfig(radius=4.0, max_level=17)  # no tail, so no derived radius
    rng = np.random.default_rng(6)
    size = 2 * BLOCK + 3
    far = rng.uniform(3.0, 50.0, size) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size))
    # seeds 2 lambda - 1 just inside the unit circle settle at level 1
    near = (0.99 * np.exp(1j * rng.uniform(0.35, 2.8, size)) + 1.0) / 2.0
    lam = np.where(rng.uniform(size=size) < 0.5, far, near)
    levels = assert_same_levels(lam, p, cfg)
    assert set(np.unique(levels)) == {0, 1}
    assert set(p.asked) == {1, 2}


def test_explicit_prefix_raises_where_the_oracle_does():
    p = ConstantTail((0.5, 0.6), tail=None)
    cfg = EscapeConfig(radius=4.0, max_level=17)
    lam = np.full(2 * BLOCK + 3, 20.0 + 0j)
    lam[-1] = 1.0  # the fixed point, in the last block only
    with pytest.raises(TailUndefined) as want:
        full_array_escape_levels(lam, p, cfg)
    with pytest.raises(TailUndefined) as got:
        escape_levels(lam, p, cfg)
    assert str(got.value) == str(want.value)
    with pytest.raises(TailUndefined):
        in_E(1.0, p, cfg)
    assert in_E(20.0, p, cfg).level == 0


def test_coefficients_requested_as_by_the_oracle():
    rng = np.random.default_rng(8)
    lam = _random_lambda(rng, BLOCK + 300)
    for grid in (lam, lam[:1], lam[:0], np.full(5, 40.0 + 0j)):
        for max_level in (0, 3, 17):
            new, old = Recording(MIXED), Recording(MIXED)
            cfg = for_probseq(MIXED, max_level=max_level)
            escape_levels(grid, new, cfg)
            with np.errstate(invalid="ignore"):
                full_array_escape_levels(grid, old, cfg)
            assert set(new.asked) == set(old.asked)


# ---------------------------------------------------------------------------
# the scalar path: in_E against the oracle at random lambda


def _kernel_level(lam, p, cfg):
    return int(full_array_escape_levels(np.array([lam]), p, cfg)[0])


def _scalar_level(lam, p, cfg):
    r = in_E(lam, p, cfg)
    return r.level if r.escaped else INSIDE


SEQS = st.sampled_from([HALF, MIXED] + PANEL_SEQS)
COORD = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(
    p=SEQS,
    re=COORD,
    im=COORD,
    max_level=st.integers(min_value=0, max_value=40),
    early_exit=st.booleans(),
)
def test_in_E_matches_kernel_at_random_lambda(p, re, im, max_level, early_exit):
    cfg = for_probseq(p, max_level=max_level, early_exit=early_exit)
    lam = complex(re, im)
    assert _scalar_level(lam, p, cfg) == _kernel_level(lam, p, cfg)


@settings(max_examples=200, deadline=None)
@given(
    p=SEQS,
    theta=st.floats(min_value=0.0, max_value=2 * np.pi),
    early_exit=st.booleans(),
)
def test_in_E_matches_kernel_on_escape_boundaries(p, theta, early_exit):
    cfg = for_probseq(p, max_level=17, early_exit=early_exit)
    # lambda = 1 is the fixed point q = 1 of every sequence
    assert _scalar_level(1.0, p, cfg) == _kernel_level(1.0, p, cfg) == INSIDE
    # seeds on the radius, up to rounding (real, so both moduli are exact)
    for sign in (1.0, -1.0):
        lam = 1.0 + (sign * cfg.radius - 1.0) * p.p(1)
        assert _scalar_level(lam, p, cfg) == _kernel_level(lam, p, cfg)
    # the unit circle, where E of the deterministic machine ends
    ones = all_ones()
    unit = for_probseq(ones, max_level=17, early_exit=early_exit)
    lam = cmath.exp(1j * theta)
    assert _scalar_level(lam, ones, unit) == _kernel_level(lam, ones, unit)
    assert _scalar_level(lam, p, cfg) == _kernel_level(lam, p, cfg)


# ---------------------------------------------------------------------------
# the one-lane walk of in_E against the kernel on a 1x1 grid and the oracle

# p_n = c * rho^n with an explicit radius: 1/p_n reaches 1e60 and more, and
# for the second sequence it is inf (p_n clamps to 5e-324) from level 19 on
LANE_SEQS = [HALF, MIXED, all_ones()] + PANEL_SEQS
GEOMETRIC = [GeometricDecay(0.9, 0.001), GeometricDecay(0.5, 1e-30)]


def _lane_configs(max_level, early_exit):
    for p in LANE_SEQS:
        yield p, for_probseq(p, max_level=max_level, early_exit=early_exit)
    for p in GEOMETRIC:
        yield p, EscapeConfig(radius=50.0, max_level=max_level, early_exit=early_exit)


def _lane_lambdas(rng, p, cfg):
    nan, inf, big = float("nan"), float("inf"), 1e308
    p1 = p.p(1)
    special = [
        complex(nan, 0.5), complex(0.5, nan), complex(nan, nan), complex(inf, 0.0),
        complex(0.0, -inf), complex(nan, inf), complex(-inf, -inf),
        complex(big, big), complex(big, -big), complex(-big, 0.5), complex(0.25, big),
        1.0, -0.0, complex(-0.0, -0.0),
    ]
    # seeds on the radius and on 1 + ETA, real and imaginary (seed - 1 = (lambda - 1)/p_1)
    for edge in (cfg.radius, 1.0 + ETA):
        for sign in (1.0, -1.0):
            special.append(1.0 + (sign * edge - 1.0) * p1)
            special.append(complex(1.0 - p1, sign * edge * p1))
    # half of the rest have seeds in a box around the unit disk, which is all
    # that survives level 0 when p_1 is tiny
    seeds = _random_lambda(rng, 32 - len(special) // 2, 1.3)
    return _random_lambda(rng, 32, 3.0).tolist() + (1.0 + (seeds - 1.0) * p1).tolist() + special


@pytest.mark.parametrize("max_level", [0, 1, 2, 17, 40])
@pytest.mark.parametrize("early_exit", [True, False])
def test_lane_equals_the_kernel_on_one_pixel_and_the_oracle(max_level, early_exit):
    rng = np.random.default_rng(1000 + 2 * max_level + early_exit)
    checked = 0
    for p, cfg in _lane_configs(max_level, early_exit):
        lams = _lane_lambdas(rng, p, cfg)
        with np.errstate(over="ignore", invalid="ignore"):  # the oracle's seed warns
            oracle = full_array_escape_levels(np.array(lams), p, cfg).tolist()
        for lam, want in zip(lams, oracle):
            one_pixel = int(escape_levels(np.array([[lam]]), p, cfg)[0, 0])
            assert _scalar_level(lam, p, cfg) == one_pixel == want, (p, lam)
        checked += len(lams)
    assert checked * 10 >= 10_000  # over the ten (max_level, early_exit) cases


def test_lane_requests_the_kernels_coefficients_in_its_order():
    rng = np.random.default_rng(1100)
    for p, base in _lane_configs(17, True):
        for lam in _lane_lambdas(rng, p, base)[::4]:
            for max_level in (0, 1, 17):
                for early_exit in (True, False):
                    cfg = EscapeConfig(base.radius, max_level, early_exit)
                    lane, kernel = Recording(p), Recording(p)
                    in_E(lam, lane, cfg)
                    escape_levels(np.array([[lam]]), kernel, cfg)
                    # p_1 up to the last index the walk reads, each once, in order
                    assert lane.asked == kernel.asked, (p, lam, cfg)
                    assert lane.asked == list(range(1, len(lane.asked) + 1)), (p, lam, cfg)
                    # one descriptor's table serves the other walk: nothing is asked again
                    asked = list(lane.asked)
                    escape_levels(np.array([[lam]]), lane, cfg)
                    assert lane.asked == asked, (p, lam, cfg)


@pytest.mark.parametrize("prefix", [(0.5, 0.6), (0.5, 0.6, 0.7, 0.8)])
def test_lane_raises_the_kernels_tail_error(prefix):
    p = ConstantTail(prefix, tail=None)
    cfg = EscapeConfig(radius=4.0, max_level=17)
    raised = 0
    for lam in [1.0, 0.9, 0.6 + 0.3j, 20.0, 0.3 - 0.9j, 2.0, complex(float("nan"), 0.0)]:
        try:
            want = int(escape_levels(np.array([[lam]]), p, cfg)[0, 0])
        except TailUndefined as err:
            with pytest.raises(TailUndefined) as got:
                in_E(lam, p, cfg)
            assert str(got.value) == str(err)
            raised += 1
        else:
            assert _scalar_level(lam, p, cfg) == want
    assert 0 < raised < 7


# ---------------------------------------------------------------------------
# conjugation: every p_i is real, so conjugate lambdas get one level, which
# lets scan_grid scan a row and copy its levels to its mirror image

SPECIAL_PARTS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e308, -1e308, 5e-324, -5e-324]
PART = st.one_of(st.sampled_from(SPECIAL_PARTS), st.floats(min_value=-3.0, max_value=3.0))
CONFIG_COUNT = len(LANE_SEQS) + len(GEOMETRIC)


def _lane_config(which, max_level, early_exit):
    return list(_lane_configs(max_level, early_exit))[which]


@settings(max_examples=300, deadline=None)
@given(
    parts=st.lists(st.tuples(PART, PART), min_size=1, max_size=48),
    which=st.integers(min_value=0, max_value=CONFIG_COUNT - 1),
    max_level=st.sampled_from([0, 2, 17, 40]),
    early_exit=st.booleans(),
)
def test_levels_are_invariant_under_conjugation(parts, which, max_level, early_exit):
    p, cfg = _lane_config(which, max_level, early_exit)
    lam = np.array([complex(re, im) for re, im in parts])
    assert np.array_equal(escape_levels(np.conj(lam), p, cfg), escape_levels(lam, p, cfg))


@pytest.mark.parametrize("max_level", [0, 2, 17, 40])
@pytest.mark.parametrize("early_exit", [True, False])
def test_conjugate_blocks_get_the_same_levels(max_level, early_exit):
    # arrays past a block, so lanes compact as they would in a panel
    rng = np.random.default_rng(1200 + 2 * max_level + early_exit)
    for which in range(CONFIG_COUNT):
        p, cfg = _lane_config(which, max_level, early_exit)
        lam = np.array(_lane_lambdas(rng, p, cfg) * 40 + _random_lambda(rng, BLOCK, 3.0).tolist())
        rng.shuffle(lam)
        assert np.array_equal(escape_levels(np.conj(lam), p, cfg), escape_levels(lam, p, cfg)), p


# ---------------------------------------------------------------------------
# the certified interior: lanes held under the trap table settle as INSIDE

NEAR_ONE = [all_ones(), ConstantTail((1.0, 0.999), 0.98), ConstantTail((), 0.9)]


def _steps(p, cfg):
    return [coefficients(p).level(p, n) for n in range(cfg.max_level + 1)]


def _kernel_moduli(lam, steps):
    """The kernel's moduli of `lam` at each level, from its expressions for r in [TINY_R, 1]."""
    inv = 1.0 / steps[0]
    cur = prev = (lam - 1.0) * inv + 1.0
    mods = [np.abs(cur)]
    for r in steps[1:]:
        inv = 1.0 / r
        cur, prev = cur * prev * inv - (inv - 1.0), cur
        mods.append(np.abs(cur))
    return np.array(mods)


def _next_to_the_trap(p, cfg, rng, rays=24):
    """Lambdas on rays from q_0 = 0 whose moduli at levels n and n - 1 come within an ulp of T_n.

    Each ray takes a level n with T_n > 0 and is bisected to the two
    neighbouring lambdas on either side of max(|q_n|, |q_(n-1)|) = T_n.
    """
    steps = _steps(p, cfg)
    trap = spectrum._trap(steps, cfg)
    levels = [n for n in range(1, cfg.max_level) if trap[n] > 0.0]
    if not levels:
        return np.zeros(0, dtype=complex)
    at = rng.choice(levels, rays)
    bound = np.array(trap)[at]
    center, way = 1.0 - steps[0], np.exp(2j * np.pi * rng.uniform(0.0, 1.0, rays))

    def held(s):
        with np.errstate(over="ignore", invalid="ignore"):
            mods = _kernel_moduli(center + s * way, steps)
        rows = np.arange(rays)
        return np.maximum(mods[at, rows], mods[at - 1, rows]) <= bound

    lo, hi = np.zeros(rays), np.full(rays, 4.0)
    ok = held(lo) & ~held(hi)
    for _ in range(80):
        mid = (lo + hi) / 2.0
        inside = held(mid)
        lo, hi = np.where(inside, mid, lo), np.where(inside, hi, mid)
    return np.concatenate([center + lo[ok] * way[ok], center + hi[ok] * way[ok]])


def _lane_levels(run):
    """run()'s result and the lane-levels its walks stepped: the complex moduli taken."""
    count = 0
    modulus = np.abs

    def counted(x, *args, **kwargs):
        nonlocal count
        if np.iscomplexobj(x):
            count += np.size(x)
        return modulus(x, *args, **kwargs)

    with mock.patch.object(np, "abs", counted):
        result = run()
    return result, count


def _uncertified():
    return mock.patch.object(spectrum, "_trap", lambda steps, cfg: ())


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from(PANEL_SEQS + NEAR_ONE + [HALF]),
    max_level=st.sampled_from([1, 2, 5, 17, 40]),
    early_exit=st.booleans(),
    block=st.sampled_from([16, 61, 200]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_certified_kernel_equals_full_array_kernel(p, max_level, early_exit, block, seed):
    # blocks of `block` lanes, so the trap is live past the first; lambdas
    # next to T_n at some level, around the disk and out past the radius
    cfg = for_probseq(p, max_level=max_level, early_exit=early_exit)
    rng = np.random.default_rng(seed)
    center = 1.0 - p.p(1)
    edge = _next_to_the_trap(p, cfg, rng)
    lam = np.concatenate([[center], edge, center + _random_lambda(rng, 3 * block, 1.6)])
    rng.shuffle(lam[1:])
    with mock.patch.object(spectrum, "BLOCK", block):
        assert_same_levels(lam, p, cfg)


def test_lambdas_next_to_the_trap_straddle_it():
    rng = np.random.default_rng(28)
    for p in PANEL_SEQS[6:10] + NEAR_ONE:
        cfg = for_probseq(p, max_level=17)
        edge = _next_to_the_trap(p, cfg, rng)
        assert edge.size >= 8, p
        with mock.patch.object(spectrum, "BLOCK", 16):
            certified, fewer = _lane_levels(lambda: escape_levels(edge, p, cfg))
            with _uncertified():
                plain, more = _lane_levels(lambda: escape_levels(edge, p, cfg))
        assert np.array_equal(certified, plain) and fewer < more, p
        assert np.array_equal(certified, full_array_escape_levels(edge, p, cfg)), p


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.floats(min_value=0.8, max_value=1.0),
            st.floats(min_value=0.99, max_value=1.0),
            st.sampled_from([1.0, 1.0 - 2.0**-53, 0.999, 0.83, 0.5, TINY_R]),
        ),
        min_size=1,
        max_size=41,
    ),
    radius=st.one_of(
        st.floats(min_value=1.0, max_value=10.0, exclude_min=True),
        st.sampled_from([1.0 + ETA / 2, 1.0 + ETA, 1e300]),
    ),
    early_exit=st.booleans(),
)
def test_the_trap_holds_the_worst_case_step_under_the_next_level(steps, radius, early_exit):
    # exactly, in the rounding model: moduli at most T_m at levels m and m - 1
    # give a modulus at most T_(m+1) at level m + 1, as numpy computes it
    cfg = EscapeConfig(radius, len(steps) - 1, early_exit)
    trap = spectrum._trap(steps, cfg)
    assert len(trap) == len(steps)
    assert trap[-1] == (min(radius, 1.0 + ETA) if early_exit else radius)
    live = [t > 0.0 for t in trap]
    assert live == sorted(live)  # 0 from the first level down where the root fails
    tiny = Fraction(TINY_ERR)
    for m in range(cfg.max_level):
        assert trap[m] <= trap[m + 1]
        if not trap[m]:
            continue
        inv = 1.0 / steps[m + 1]
        size = Fraction(GROW) * (Fraction(trap[m]) + tiny)  # |x| and |y| from their moduli
        product = size * size * (1 + Fraction(MUL_ERR)) + tiny
        scaled = product * Fraction(inv) * (1 + Fraction(MUL_ERR)) + tiny
        shifted = (scaled + Fraction(inv - 1.0)) * (1 + Fraction(UNIT)) + 2 * tiny
        assert shifted * (1 + Fraction(ABS_ERR)) + tiny <= Fraction(trap[m + 1]), m


def test_the_trap_needs_every_coefficient_in_the_certified_range():
    cfg = EscapeConfig(4.0, 5, True)
    assert any(spectrum._trap([1.0] * 6, cfg)[1:])
    for bad in (TINY_R / 2, 1.0 + 2.0**-52, float("nan")):
        for at in (0, 3, 5):
            steps = [1.0] * 6
            steps[at] = bad
            assert spectrum._trap(steps, cfg) == (0.0,) * 6


@pytest.mark.parametrize("p", [all_ones(), PANEL_SEQS[7], PANEL_SEQS[9]])
def test_a_radius_within_eta_of_one_caps_the_trap(p):
    # radius in (1, 1 + ETA] under the pair rule: T_last is the radius
    cfg = EscapeConfig(1.0 + ETA / 2, 17, True)
    trap = spectrum._trap(_steps(p, cfg), cfg)
    assert trap[-1] == cfg.radius and any(trap[1:-1])
    rng = np.random.default_rng(17)
    lam = np.concatenate([[1.0 - p.p(1)], _next_to_the_trap(p, cfg, rng), _random_lambda(rng, 600, 1.2)])
    with mock.patch.object(spectrum, "BLOCK", 50):
        certified, fewer = _lane_levels(lambda: escape_levels(lam, p, cfg))
        with _uncertified():
            _, more = _lane_levels(lambda: escape_levels(lam, p, cfg))
    assert np.any(certified == INSIDE) and fewer < more
    assert np.array_equal(certified, full_array_escape_levels(lam, p, cfg))


@pytest.mark.parametrize(
    "p",
    [
        PANEL_SEQS[6],
        all_ones(),
        # levels 0..17 read p_1..p_9: every level is known, and p_10 is never asked
        ConstantTail((1.0, 0.999, 1.0, 1.0, 0.98, 1.0, 1.0, 1.0, 1.0), tail=None),
        # p_5 raises: the fiber never builds its trap
        ConstantTail((1.0, 0.999, 1.0, 1.0), tail=None),
        ConstantTail((), tail=None),
    ],
)
def test_the_certificate_asks_p_what_the_uncertified_walk_asks(p):
    cfg = EscapeConfig(4.0, 17, True)
    rng = np.random.default_rng(29)
    lam = np.concatenate([[0.0], _random_lambda(rng, 700, 1.3)])

    def walk(certify):
        seen = Recording(p)
        with mock.patch.object(spectrum, "BLOCK", 64), nullcontext() if certify else _uncertified():
            try:
                return seen.asked, escape_levels(lam, seen, cfg).tolist(), None
            except TailUndefined as err:
                return seen.asked, None, str(err)

    got, count = _lane_levels(lambda: walk(True))
    want, plain = _lane_levels(lambda: walk(False))
    assert got == want
    assert got[0] == list(range(1, len(got[0]) + 1))  # each index once, in ascending order
    if got[2] is None and p.p(1) == 1.0:
        assert count < plain  # the trap was live
