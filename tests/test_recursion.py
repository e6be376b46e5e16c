"""The one scalar q-recursion against the four copies it replaced.

q_fib_orbit, fibered_pair, the critical orbit and q_general_orbit all run
one walk now.  The copies they were, kept in tests/oracles.py, are the
oracles: q_fib_orbit and the critical orbit must match them bit for bit
everywhere, fibered_pair up to the first value past CLAMP, and
q_general_orbit value for value (==, so up to the sign of a zero) wherever
the old values stay within CLAMP.  Past CLAMP the walk stops, where the old
copies ran on into inf and nan or raised OverflowError.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    FIBONACCI,
    BaseDef,
    BudgetExceeded,
    ConstantTail,
    EscapeConfig,
    FibmachineError,
    GeometricDecay,
    OrbitEscaped,
    PowerLawComplement,
    all_ones,
    construct_positive_recurrent,
    eigen_residual,
    fibered_pair,
    geometric_budget,
    in_E,
    in_point_spectrum,
    non_connectedness_test,
    phi_orbit,
    q_at_integer,
    q_fib_orbit,
    q_general_orbit,
    q_values_upto,
)
from fibmachine.numeration import FIB64
from fibmachine.spectrum import CLAMP, LEVEL_BUDGET, _walk, r_index
from oracles import (
    for_probseq,
    old_fibered_pair,
    old_phi_values,
    old_q_fib_orbit,
    old_q_general_orbit,
)

SEQS = [
    all_ones(),
    ConstantTail((), 0.5),
    ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6),
    ConstantTail((0.9, 0.7, 0.8, 0.35), 0.55),
    PowerLawComplement(0.5, 1.2),
    GeometricDecay(1.0, 0.9),
]
BASES = [
    BaseDef((1, 1)),
    BaseDef((2, 1)),
    BaseDef((1, 1, 1)),
    BaseDef((2, 2)),
    BaseDef((3, 2, 1)),
    BaseDef((5, 1)),
]
SPECIAL = [0.0, -0.0, 1.0, -1.0, 1e75, -1e150, 1e160, -1e200, 1e300]


def bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


def all_bits(values):
    return [bits(v) for v in values]


def outcome(call):
    """The bits of a call's values, or the type of the error it raised.

    A modulus past the float range makes abs() raise OverflowError, so a
    lambda near the top of the float range raises in every orbit alike.
    """
    try:
        return "ok", all_bits(call())
    except OverflowError as exc:
        return "error", type(exc)


def random_coord(rng):
    pick = rng.random()
    if pick < 0.25:
        return rng.choice(SPECIAL)
    if pick < 0.35:
        return rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(0.0, 300.0)
    return rng.uniform(-3.0, 3.0)


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        lam = complex(random_coord(rng), random_coord(rng))
        yield lam, rng.choice(SEQS), rng.randrange(41)


def test_r_index_order_d_schedule():
    # level m = n d + i divides by p_(n + 1 + i); below d by p_(m + 1)
    for d in (2, 3, 4):
        for m in range(1, 30):
            n, i = divmod(m, d)
            assert r_index(m, d) == n + 1 + i
    assert [r_index(m) for m in range(1, 50)] == [r_index(m, 2) for m in range(1, 50)]


# ---------------------------------------------------------------------------
# the oracles


def test_q_fib_orbit_matches_oracle_bit_for_bit():
    for lam, p, levels in random_cases(1, 3000):
        orbit = q_fib_orbit(lam, p, levels)
        values, _, escaped_at = old_q_fib_orbit(lam, p, levels)
        assert all_bits(orbit.values) == all_bits(values), (lam, p, levels)
        assert orbit.escaped_at == escaped_at


def test_q_fib_orbit_matches_oracle_at_nan_lambda():
    # a NaN seed is not tested against CLAMP; the first step escapes
    for lam in (complex(math.nan, 0.0), complex(0.5, math.nan)):
        orbit = q_fib_orbit(lam, SEQS[2], 5)
        values, coeffs, escaped_at = old_q_fib_orbit(lam, SEQS[2], 5)
        assert all_bits(orbit.values) == all_bits(values)
        assert orbit.escaped_at == escaped_at == 1


def test_fibered_pair_matches_oracle_up_to_the_escape():
    for lam, p, levels in random_cases(2, 2000):
        pairs = fibered_pair(lam, p, levels)
        old = old_fibered_pair(lam, p, levels)
        orbit = q_fib_orbit(lam, p, levels)
        assert len(pairs) == len(orbit.values) <= len(old)
        for got, want in zip(pairs, old):
            assert all_bits(got) == all_bits(want), (lam, p, levels)


def test_critical_orbit_matches_oracle_bit_for_bit():
    # phi_orbit and non_connectedness_test walk from the seeds (0, phi_1)
    rng = random.Random(3)
    for _ in range(2000):
        phi1 = complex(random_coord(rng), random_coord(rng))
        p = rng.choice(SEQS)
        levels = rng.randrange(41)
        got = _walk(p, levels, seeds=(0.0, phi1))[0]
        assert all_bits(got) == all_bits(old_phi_values(phi1, p, levels)), (phi1, p)
        if levels >= 1:
            got = phi_orbit([0, 0, 1], p, levels).values
            assert all_bits(got) == all_bits(old_phi_values(0.0, p, levels))


def _check_general(lam, p, base, seeds, levels):
    got = q_general_orbit(lam, p, base, seeds=seeds, levels=levels)
    last = len(got) - 1
    escaped = not abs(got[last]) <= CLAMP and last >= (0 if seeds is None else len(seeds))
    if not escaped:
        # within CLAMP: the old walk ran exactly as far, to the same values
        assert last == levels
        assert got == old_q_general_orbit(lam, p, base, seeds=seeds, levels=levels)
        return
    # the walk stopped at the first value it computed past CLAMP
    if last >= 1:
        assert got[:last] == old_q_general_orbit(lam, p, base, seeds=seeds, levels=last - 1)
    assert all(abs(v) <= CLAMP for v in got[len(seeds or ()) : last])
    try:
        old = old_q_general_orbit(lam, p, base, seeds=seeds, levels=last)
    except OverflowError:
        assert got[last] == complex(math.inf)
    else:
        assert not abs(old[last]) <= CLAMP


def test_general_orbit_matches_oracle_within_clamp():
    rng = random.Random(4)
    for lam, p, levels in random_cases(5, 3000):
        base = rng.choice(BASES)
        seeds = None
        if rng.random() < 0.3:
            seeds = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in base.coeffs]
        _check_general(lam, p, base, seeds, levels)


# ---------------------------------------------------------------------------
# properties that hold by construction

COORD = st.one_of(
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL),
)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from(SEQS),
    re=COORD,
    im=COORD,
    levels=st.integers(min_value=0, max_value=40),
)
def test_general_orbit_at_fibonacci_is_q_fib_orbit(p, re, im, levels):
    lam = complex(re, im)
    got = outcome(lambda: q_general_orbit(lam, p, FIBONACCI, levels=levels))
    assert got == outcome(lambda: q_fib_orbit(lam, p, levels).values)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from(SEQS),
    re=COORD,
    im=COORD,
    levels=st.integers(min_value=0, max_value=40),
)
def test_fibered_pair_pairs_consecutive_orbit_values(p, re, im, levels):
    lam = complex(re, im)
    try:
        values = q_fib_orbit(lam, p, levels).values
    except OverflowError:
        with pytest.raises(OverflowError):
            fibered_pair(lam, p, levels)
        return
    pairs = fibered_pair(lam, p, levels)
    assert len(pairs) == len(values)
    assert all_bits(pairs[0]) == all_bits((values[0], values[0]))
    for n in range(1, len(values)):
        assert all_bits(pairs[n]) == all_bits((values[n], values[n - 1]))


# ---------------------------------------------------------------------------
# the fixed point q(1) = 1


PROB = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
RHO = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
DESCRIPTORS = st.one_of(
    st.builds(ConstantTail, st.lists(PROB, max_size=8).map(tuple), PROB),
    st.builds(PowerLawComplement, st.floats(min_value=5e-324, max_value=1e6), PROB),
    st.builds(GeometricDecay, st.floats(min_value=5e-324, max_value=2.0), RHO),
    # a tinier p_2 or ratio runs the budget out to 0, which the construction refuses
    st.builds(
        lambda p1, p2, ratio: construct_positive_recurrent(p1, p2, geometric_budget(p2, ratio), 3),
        PROB,
        st.floats(min_value=1e-200, max_value=1.0),
        st.floats(min_value=1e-3, max_value=1.0, exclude_max=True),
    ),
)


@settings(max_examples=400, deadline=None)
@given(p=DESCRIPTORS, levels=st.integers(min_value=0, max_value=60))
def test_one_is_a_fixed_point_for_every_descriptor(p, levels):
    # every q_{F_n}(1) is 1, also once 1/r_n passes 2^53, where
    # x/r_n - (1/r_n - 1) rounds 1 to 0 or 2
    assert set(q_fib_orbit(1.0, p, levels).values) == {1.0}
    escape = in_E(1.0, p, EscapeConfig(4.0, levels))
    coefficients = [p.p(1)] + [p.p(r_index(n)) for n in range(1, levels + 1)]
    if all(math.isfinite(1.0 / r) for r in coefficients):
        assert not escape.escaped
    else:  # (1 - 1) * (1/r_n) is NaN
        assert escape.escaped


def test_one_is_a_fixed_point_past_two_to_the_53():
    # 1/r = 2^53 + 2: 1/r - 1 rounds to 2^53, so the old step gave 2
    tie = ConstantTail((0.5, 1.0 / (2.0**53 + 2.0)), 0.5)
    for p in (GeometricDecay(0.5, 1e-30), GeometricDecay(0.9, 0.001), tie):
        orbit = q_fib_orbit(1.0, p, 25)
        assert orbit.escaped_at is None and set(orbit.values) == {1.0}
    assert not in_E(1.0, GeometricDecay(0.9, 0.001), EscapeConfig(50.0, 40)).escaped
    assert not in_E(1.0, tie, EscapeConfig(4.0, 10)).escaped


# ---------------------------------------------------------------------------
# past CLAMP


def test_general_orbit_stops_where_q_fib_orbit_stops():
    p = ConstantTail((), 0.5)
    orbit = q_fib_orbit(1e200, p, 20)
    assert orbit.escaped_at == 0
    assert q_general_orbit(1e200, p, FIBONACCI) == list(orbit.values) == [2e200]
    # the old copy ran on past the seed into inf and nan
    old = old_q_general_orbit(1e200, p, FIBONACCI)
    assert len(old) == 3 and not all(map(math.isfinite, (old[2].real, old[2].imag)))


def test_general_orbit_tests_its_default_seeds():
    # order 3: the squared seed at level 1 already passes CLAMP
    got = q_general_orbit(1e100, all_ones(), BaseDef((1, 1, 1)), levels=10)
    assert got == [1e100, 1e200]
    assert len(old_q_general_orbit(1e100, all_ones(), BaseDef((1, 1, 1)), levels=10)) > 2


def test_supplied_seeds_are_not_tested():
    seeds = [1e200, 0.5]
    got = q_general_orbit(0.0, all_ones(), FIBONACCI, seeds=seeds, levels=1)
    assert got == seeds
    got = q_general_orbit(0.0, all_ones(), FIBONACCI, seeds=seeds, levels=5)
    assert got == [1e200, 0.5, 0.5 * 1e200]


def test_fibered_pair_stops_at_the_escape():
    p = ConstantTail((), 0.5)
    pairs = fibered_pair(1e100, p, 5)
    assert pairs == [(2e100, 2e100), (8e200, 2e100)]
    old = old_fibered_pair(1e100, p, 5)
    assert len(old) == 6 and any(math.isnan(x.real) or math.isnan(x.imag) for x, _ in old)


def test_power_overflow_is_an_escape_not_an_error():
    base = BaseDef((5, 1))
    with pytest.raises(OverflowError):
        old_q_general_orbit(1e40, all_ones(), base, levels=5)
    got = q_general_orbit(1e40, all_ones(), base, levels=5)
    assert got == [1e40, 1e80, complex(math.inf)]


def test_every_scalar_orbit_has_the_level_budget():
    p = ConstantTail((), 0.5)
    for call in (
        lambda: fibered_pair(0.5, p, LEVEL_BUDGET + 1),
        lambda: q_general_orbit(0.5, p, BaseDef((1, 1, 1)), levels=LEVEL_BUDGET + 1),
        lambda: non_connectedness_test(p, LEVEL_BUDGET + 1),
    ):
        with pytest.raises(BudgetExceeded):
            call()
    with pytest.raises(ValueError, match="nonnegative"):
        fibered_pair(0.5, p, -1)


# ---------------------------------------------------------------------------
# an orbit that escapes before the requested level


NULL = ConstantTail((1.0,), 0.5)


def test_orbit_escaped_is_typed_and_names_its_levels():
    lam = 0.9 + 0.1j
    assert q_fib_orbit(lam, NULL, 16).escaped_at == 15
    for call in (
        lambda: q_values_upto(16, lam, NULL),
        lambda: eigen_residual(lam, NULL, 16),
        lambda: q_at_integer(FIB64[16], lam, NULL),
    ):
        with pytest.raises(OrbitEscaped) as info:
            call()
        assert isinstance(info.value, IndexError)
        assert isinstance(info.value, FibmachineError)
        message = str(info.value)
        assert "(0.9+0.1j)" in message
        assert "level 15" in message and "level 16" in message


def test_orbit_escaped_only_below_the_requested_level():
    lam = 0.9 + 0.1j
    # escaping at the requested level itself leaves every value to read
    vals = q_values_upto(15, lam, NULL)
    assert abs(vals[FIB64[15]]) > CLAMP
    assert q_at_integer(FIB64[15], lam, NULL) == q_fib_orbit(lam, NULL, 15).values[15]
    assert q_at_integer(FIB64[15] - 1, lam, NULL) == vals[FIB64[15] - 1]


def test_point_spectrum_bound_must_be_a_number():
    cfg = for_probseq(NULL, max_level=10)
    with pytest.raises(ValueError, match="bound"):
        in_point_spectrum(0.5, NULL, cfg, bound=math.nan)
    assert in_point_spectrum(1.0, NULL, cfg, bound=math.inf).status == "inside"


def test_modulus_past_the_float_range_is_an_escape():
    # finite parts, but abs() overflows: the seed escapes at level 0 as in_E says
    lam = complex(1.3e308, 1.3e308)
    p = all_ones()
    with pytest.raises(OverflowError):
        old_q_fib_orbit(lam, p, 5)
    orbit = q_fib_orbit(lam, p, 5)
    assert (orbit.values, orbit.escaped_at) == ((lam,), 0)
    cfg = EscapeConfig(radius=4.0, max_level=12)
    assert in_E(lam, p, cfg).level == 0
    assert in_point_spectrum(lam, p, cfg, 10.0).level == 0
    assert fibered_pair(lam, p, 5) == [(lam, lam)]
    assert q_general_orbit(lam, p, FIBONACCI, levels=5) == [lam]
    # a step whose modulus overflows ends the walk at that level
    seeds = [complex(1e154, 0.0), complex(1.3e154, 1.3e154)]
    with pytest.raises(OverflowError):
        old_q_general_orbit(0j, p, FIBONACCI, seeds=seeds, levels=4)
    got = q_general_orbit(0j, p, FIBONACCI, seeds=seeds, levels=4)
    assert got == seeds + [seeds[0] * seeds[1]]
    assert math.isfinite(got[2].real) and math.isfinite(got[2].imag)
