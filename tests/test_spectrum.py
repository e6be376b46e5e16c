"""q-recursion, escape tests, membership, residuals, connectivity.

Oracles here: an independent square-and-multiply power for the all-ones
closed form, a brute-force admissible-subset walker for the boundedness DP,
and hand-worked seed/orbit values for the exact-arithmetic cases.
"""

import cmath
import math

import numpy as np
import pytest

from fibmachine import (
    BudgetExceeded,
    ConstantTail,
    EscapeConfig,
    FIBONACCI,
    GeometricDecay,
    InvalidPolynomial,
    InvalidSeed,
    ZeroDelta,
    all_ones,
    eigen_residual,
    escape_levels,
    escape_radius,
    fibered_pair,
    in_E,
    in_point_spectrum,
    non_connectedness_test,
    phi_orbit,
    q_at_integer,
    q_fib_orbit,
    q_general_orbit,
    q_values_upto,
)
from fibmachine import chain
from fibmachine.numeration import FIB64, BaseDef, base_sequence, digits_of_int
from fibmachine.spectrum import CLAMP, INSIDE, LEVEL_BUDGET, r_index
from oracles import Recording, for_probseq, subset_max_exhaustive

HALF = ConstantTail((), 0.5)
MIXED = ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)


def _powc(lam, n):
    """Independent square-and-multiply complex power."""
    result = complex(1.0)
    base = complex(lam)
    while n:
        if n & 1:
            result *= base
        base *= base
        n >>= 1
    return result


# ---------------------------------------------------------------------------
# the recursion itself


def test_r_index_schedule():
    # steps 1,2 divide by p_2, steps 3,4 by p_3, and so on
    assert [r_index(n) for n in range(1, 9)] == [2, 2, 3, 3, 4, 4, 5, 5]
    with pytest.raises(ValueError):
        r_index(0)


def test_fixed_point_one_is_exact_for_any_descriptor():
    for p in (
        all_ones(),
        HALF,
        ConstantTail((), 0.3),
        ConstantTail((), 0.9),
        ConstantTail((0.1, 0.7, 0.23), 0.41),
        GeometricDecay(1.0, 0.25),
    ):
        orbit = q_fib_orbit(1.0, p, 40)
        assert orbit.escaped_at is None
        assert all(abs(v - 1.0) <= 1e-14 for v in orbit.values)


def test_all_ones_closed_form_against_independent_power():
    lams = [
        cmath.exp(0.3j),
        0.9995 * cmath.exp(2.1j),
        1.0004 * cmath.exp(-1.2j),
        complex(0.0),
        complex(-1.0),
    ]
    for lam in lams:
        orbit = q_fib_orbit(lam, all_ones(), 20)
        for n, v in enumerate(orbit.values):
            want = _powc(lam, FIB64[n])
            assert cmath.isclose(v, want, rel_tol=1e-10, abs_tol=1e-300), (lam, n)


def test_seed_vanishes_at_one_minus_p1():
    # with a dyadic p_1 the seed arithmetic is exact
    p = ConstantTail((0.75, 0.5), 0.5)
    orbit = q_fib_orbit(0.25, p, 2)
    assert orbit.values[0] == 0.0
    # next value is -(1/p_2 - 1)
    assert orbit.values[1] == -1.0


def test_orbit_clamp_stops_iteration():
    orbit = q_fib_orbit(50.0, HALF, 60)
    assert orbit.escaped_at is not None
    assert len(orbit.values) <= orbit.escaped_at + 1
    assert abs(orbit.values[-1]) > CLAMP


def test_orbit_asks_for_the_step_schedule():
    # the seed divides by p_1, then step n by p_(r_index(n)); the table asks
    # each of p_1..p_(r_index(8)) once, in ascending order, and keeps them
    p = Recording(MIXED)
    orbit = q_fib_orbit(0.5, p, 8)
    assert p.asked == list(range(1, r_index(8) + 1))
    assert orbit.values == q_fib_orbit(0.5, ConstantTail(MIXED.prefix, MIXED.tail), 8).values
    assert q_fib_orbit(0.5, p, 8) == orbit
    assert p.asked == list(range(1, r_index(8) + 1))
    q_fib_orbit(0.5, p, 10)
    assert p.asked == list(range(1, r_index(10) + 1))


def test_q_at_integer_digit_products():
    lam = 0.8 + 0.4j
    orbit = q_fib_orbit(lam, MIXED, 6).values
    # 12 = F_4 + F_2 + F_0, 17 = F_5 + F_2 + F_0
    assert q_at_integer(12, lam, MIXED) == orbit[0] * orbit[2] * orbit[4]
    assert q_at_integer(17, lam, MIXED) == orbit[0] * orbit[2] * orbit[5]
    assert q_at_integer(0, lam, MIXED) == 1.0
    with pytest.raises(ValueError):
        q_at_integer(-1, lam, MIXED)


def test_q_values_upto_matches_digit_products():
    lam = 0.7 - 0.3j
    vals = q_values_upto(8, lam, MIXED)
    assert len(vals) == FIB64[8] + 1
    for m in range(FIB64[8] + 1):
        want = q_at_integer(m, lam, MIXED)
        assert cmath.isclose(vals[m], want, rel_tol=1e-12, abs_tol=1e-15)


def test_q_values_upto_refuses_past_the_matrix_budget(monkeypatch):
    # F_32 + 1 = 5,702,888 values are refused before the orbit is walked
    with pytest.raises(BudgetExceeded, match="^5702888 exceeds"):
        q_values_upto(32, 0.5, all_ones())
    p = Recording(MIXED)
    monkeypatch.setattr(chain, "MATRIX_BUDGET", FIB64[8] + 1)
    assert len(q_values_upto(8, 0.5, p)) == FIB64[8] + 1
    p.asked.clear()
    with pytest.raises(BudgetExceeded):
        q_values_upto(9, 0.5, p)
    assert p.asked == []


def test_fibered_pair_tracks_orbit():
    for lam in (0.5 + 0.5j, -0.8 + 0.1j, 1.1 + 0.0j, 0.99j):
        orbit = q_fib_orbit(lam, MIXED, 30)
        pairs = fibered_pair(lam, MIXED, 30)
        top = (
            len(orbit.values) - 1
            if orbit.escaped_at is None
            else orbit.escaped_at - 1
        )
        assert pairs[0][0] == orbit.values[0]
        for n in range(1, min(30, top) + 1):
            x, y = pairs[n]
            assert cmath.isclose(x, orbit.values[n], rel_tol=1e-10, abs_tol=1e-300)
            assert cmath.isclose(y, orbit.values[n - 1], rel_tol=1e-10, abs_tol=1e-300)


# ---------------------------------------------------------------------------
# escape radius and the escape kernel


def test_escape_radius_values():
    assert escape_radius(all_ones()) == 1.0 + 1e-9
    assert escape_radius(HALF) == 3.0
    assert escape_radius(ConstantTail((), 0.4), margin=1.0) == 5.0
    with pytest.raises(ValueError):
        escape_radius(HALF, margin=-0.1)
    with pytest.raises(ZeroDelta):
        escape_radius(GeometricDecay(1.0, 0.25))


def test_escape_config_validation():
    with pytest.raises(ValueError):
        EscapeConfig(radius=1.0, max_level=10)
    with pytest.raises(ValueError):
        EscapeConfig(radius=2.0, max_level=-1)
    cfg = for_probseq(HALF, max_level=12, margin=1.0)
    assert cfg.radius == 4.0
    assert cfg.max_level == 12


def test_scalar_membership_equals_grid_kernel():
    cfg = for_probseq(HALF, max_level=14, margin=1.0)
    xs = np.linspace(-2.2, 2.2, 9)
    grid = xs[None, :] + 1j * xs[:, None]
    levels = escape_levels(grid, HALF, cfg)
    for j in range(9):
        for i in range(9):
            r = in_E(grid[j, i], HALF, cfg)
            assert (r.level if r.escaped else INSIDE) == int(levels[j, i])


def test_escape_early_exit_only_shrinks_inside():
    xs = np.linspace(-2.5, 2.5, 21)
    grid = xs[None, :] + 1j * xs[:, None]
    fast = escape_levels(grid, HALF, EscapeConfig(4.0, 17, early_exit=True))
    slow = escape_levels(grid, HALF, EscapeConfig(4.0, 17, early_exit=False))
    assert np.all((slow == INSIDE) | (fast != INSIDE))


def test_escape_sets_are_nested():
    # once an orbit value leaves the safe radius it never returns below it
    cfg = for_probseq(HALF, max_level=13, margin=3.0)
    xs = np.linspace(-2.0, 2.0, 16)
    for re in xs:
        for im in xs:
            orbit = q_fib_orbit(complex(re, im), HALF, 13)
            mods = [abs(v) for v in orbit.values]
            crossed = False
            for m in mods:
                if crossed:
                    assert m > cfg.radius
                crossed = crossed or m > cfg.radius


def test_two_consecutive_big_values_escape():
    # wherever the pair rule fires, the raw orbit grows past 1e12 soon after
    cfg = for_probseq(HALF, max_level=17, margin=1.0)
    xs = np.linspace(-2.4, 2.4, 13)
    checked = 0
    for re in xs:
        for im in xs:
            lam = complex(re, im)
            res = in_E(lam, HALF, cfg)
            if not res.escaped:
                continue
            orbit = q_fib_orbit(lam, HALF, res.level + 62)
            grew = orbit.escaped_at is not None or any(
                abs(v) >= 1e12 for v in orbit.values
            )
            assert grew, lam
            checked += 1
    assert checked > 20


# ---------------------------------------------------------------------------
# point-spectrum boundedness


def test_point_spectrum_fixed_point_inside():
    cfg = for_probseq(HALF, max_level=17, margin=1.0)
    res = in_point_spectrum(1.0, HALF, cfg, bound=1e6)
    assert res.status == "inside"
    assert res.bound_value == 1.0


def test_point_spectrum_outside_unit_circle_escapes():
    cfg = for_probseq(all_ones(), max_level=25, margin=1.0)
    res = in_point_spectrum(1.01, all_ones(), cfg, bound=1e6)
    assert res.status == "escaped"


def test_point_spectrum_inside_implies_in_E():
    cfg = for_probseq(HALF, max_level=17, margin=1.0)
    xs = np.linspace(-1.5, 1.5, 9)
    for re in xs:
        for im in xs:
            lam = complex(re, im)
            res = in_point_spectrum(lam, HALF, cfg, bound=1e6)
            if res.status == "inside":
                assert not in_E(lam, HALF, cfg).escaped


def test_point_spectrum_bound_validation():
    cfg = for_probseq(HALF, max_level=10, margin=1.0)
    with pytest.raises(ValueError):
        in_point_spectrum(0.5, HALF, cfg, bound=0.0)


def test_running_max_matches_exhaustive_subsets():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.2, 1.2, size=(10, 2))
    for re, im in pts:
        lam = complex(re, im)
        for level in (6, 10):
            cfg = EscapeConfig(radius=1e30, max_level=level, early_exit=False)
            got = in_point_spectrum(lam, MIXED, cfg, bound=1e290).bound_value
            want = subset_max_exhaustive(lam, MIXED, level)
            assert math.isclose(got, want, rel_tol=1e-12), (lam, level)


def test_running_max_dominates_every_q_value():
    lam = 0.6 + 0.45j
    cfg = EscapeConfig(radius=1e30, max_level=12, early_exit=False)
    b = in_point_spectrum(lam, MIXED, cfg, bound=1e290).bound_value
    vals = q_values_upto(12, lam, MIXED)
    for m in range(201):
        assert abs(vals[m]) <= b * (1.0 + 1e-12)


# ---------------------------------------------------------------------------
# eigenvector residuals


def test_eigen_residual_within_analytic_bound():
    rng = np.random.default_rng(11)
    for _ in range(6):
        lam = complex(rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2))
        for level in (6, 8):
            res = eigen_residual(lam, MIXED, level)
            assert res.value <= res.bound * (1.0 + 1e-12), (lam, level)


def test_eigen_residual_interior_zero_at_fixed_point():
    for p in (all_ones(), HALF, ConstantTail((0.75, 0.5), 0.25)):
        res = eigen_residual(1.0, p, 8)
        assert res.interior == 0.0
        assert res.sup_norm == 1.0


def test_eigen_residual_bound_formula():
    lam = 0.9 + 0.1j
    level = 6
    res = eigen_residual(lam, MIXED, level)
    w = q_values_upto(level, lam, MIXED)
    sup = max(abs(v) for v in w)
    q_top = abs(w[FIB64[level]])
    p1 = MIXED.p(1)
    want = (abs(1.0 - p1 - lam) * q_top + p1 * q_top + p1) / sup
    assert math.isclose(res.bound, want, rel_tol=1e-14)
    assert res.sup_norm == sup
    assert res.value >= res.interior


def test_eigen_residual_level_validation():
    with pytest.raises(ValueError):
        eigen_residual(0.5, HALF, 0)


# ---------------------------------------------------------------------------
# critical orbits and connectivity


def test_phi_orbit_rejects_bad_polynomials():
    for h in ([0, 1, 1], [1, 0, 1], [0, 0], [0, 0, 0, 0]):
        with pytest.raises(InvalidPolynomial):
            phi_orbit(h, HALF, 5)
    with pytest.raises(ValueError):
        phi_orbit([0, 0, 1], HALF, 0)


def test_phi_orbit_critical_values():
    # the critical orbit starts 0, 0 and then follows the step coefficients
    orb = phi_orbit([0, 0, 1], HALF, 4)
    assert orb.h_coefficients == (1.0,)
    assert orb.values[0] == 0.0
    assert orb.values[1] == 0.0
    assert orb.values[2] == -(1.0 / HALF.p(2) - 1.0)


def test_non_connectedness_worked_example():
    res = non_connectedness_test(ConstantTail((1.0, 1.0, 0.4), 0.4))
    assert res.non_connected
    assert res.status == "NonConnected"
    assert res.level == 3
    assert res.modulus == 1.5


def test_non_connectedness_one_small_parameter_deep():
    res = non_connectedness_test(ConstantTail((1.0, 1.0, 1.0, 1.0, 0.4), 0.4))
    assert res.non_connected
    assert res.level == 7


def test_non_connectedness_all_ones_inconclusive():
    res = non_connectedness_test(all_ones())
    assert res.status == "Inconclusive"
    assert not res.non_connected
    assert res.level is None and res.modulus is None


def test_non_connectedness_needs_positive_delta():
    with pytest.raises(ZeroDelta):
        non_connectedness_test(GeometricDecay(1.0, 0.25))


# ---------------------------------------------------------------------------
# generalized bases


def test_general_orbit_order_two_matches_fibonacci_recursion():
    for lam in (0.4 + 0.2j, -0.9 + 0.05j, 1.05 + 0.0j):
        got = q_general_orbit(lam, MIXED, FIBONACCI, levels=25)
        want = q_fib_orbit(lam, MIXED, 25).values
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert cmath.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


def test_general_orbit_order_three_all_ones_closed_form():
    base = BaseDef((1, 1, 1))
    scale = base_sequence(base, 12)
    lam = 0.9
    vals = q_general_orbit(lam, all_ones(), base, levels=11)
    for m in range(12):
        want = _powc(lam, scale[m])
        assert cmath.isclose(vals[m], want, rel_tol=1e-10), m


def test_general_orbit_seed_validation_and_override():
    base = BaseDef((1, 1, 1))
    with pytest.raises(InvalidSeed):
        q_general_orbit(0.5, HALF, base, seeds=[1.0, 2.0], levels=5)
    seeds = [0.5, 0.25, 0.125]
    vals = q_general_orbit(0.5, HALF, base, seeds=seeds, levels=4)
    assert vals[:3] == [0.5, 0.25, 0.125]
    # level 3 divides by p_(1+1+0) with (n, i) = divmod(3, 3) = (1, 0)
    r = HALF.p(2)
    assert vals[3] == vals[2] * vals[1] * vals[0] / r - (1.0 / r - 1.0)


@pytest.mark.parametrize("radius", [math.inf, -math.inf, math.nan, 1.0, 0.5])
def test_escape_config_rejects_bad_radius(radius):
    with pytest.raises(ValueError, match="radius"):
        EscapeConfig(radius=radius, max_level=10)


@pytest.mark.parametrize("max_level", [True, False, 17.0, 17.9, "17", None])
def test_escape_config_rejects_non_integer_max_level(max_level):
    with pytest.raises(ValueError, match="max_level"):
        EscapeConfig(radius=4.0, max_level=max_level)


def test_escape_config_level_budget():
    assert EscapeConfig(4.0, LEVEL_BUDGET).max_level == LEVEL_BUDGET
    assert EscapeConfig(4.0, np.int64(12)).max_level == 12
    with pytest.raises(BudgetExceeded, match="level budget"):
        EscapeConfig(4.0, LEVEL_BUDGET + 1)
    with pytest.raises(BudgetExceeded):
        for_probseq(HALF, max_level=10**9)
