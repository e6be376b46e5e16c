"""Markov-chain layer: transition rows, truncations, classification, weights.

The transition ladder is cross-checked against an independent oracle that
enumerates the digit-level stochastic carry update (branching on every coin,
with floor-arithmetic digit rewrites) rather than walking the ladder.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    BudgetExceeded,
    CapacityError,
    ChainClass,
    ConstantTail,
    GeometricDecay,
    InvalidBudget,
    PowerLawComplement,
    SplitMix64,
    UnsupportedVariant,
    all_ones,
    beta,
    beta_eigen_residual,
    block_index,
    classify,
    construct_positive_recurrent,
    geometric_budget,
    simulate,
    stationarity_residual,
    stationary_measure,
    transition_dist,
    transition_matrix,
    transition_terms,
    xi,
)
from fibmachine.chain import MATRIX_BUDGET, _xi_array
from fibmachine.numeration import FIB64, UINT64_MAX, digits_of_int

# distinct values so that any index mix-up shifts a probability
DISTINCT = ConstantTail((0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.41), 0.4)
HALF = ConstantTail((), 0.5)


# ---------------------------------------------------------------------------
# oracle: enumerate the stochastic carry rewrite digit by digit


def _carry_leaves(state, p):
    """Outcome distribution of one increment attempt, by brute enumeration.

    Works on the digit word directly: each step flips a coin e_i (success
    probability p_(i+1)); on success the digit pair under the carry is
    rewritten with the floor-arithmetic update and the carry moves on iff the
    high digit of the pair was set.  On failure the word freezes as-is.
    """
    leaves = []

    def value_of(d):
        return sum(FIB64[i] for i, e in enumerate(d) if e)

    def pair_step(d, lo):
        # successful hop into the pair at (lo, lo+1); returns outgoing carry
        need = lo + 2
        if len(d) < need:
            d.extend([0] * (need - len(d)))
        old_hi = d[lo + 1]
        d[lo] = (d[lo] + 1) // (d[lo + 1] + 1)
        d[lo + 1] = d[lo + 1] // 2
        return old_hi

    def walk(d, i, prob, low_one):
        pi = p.p(i + 1)
        if pi < 1.0:
            leaves.append((value_of(d), prob * (1.0 - pi)))
        nxt = list(d)
        if low_one and i == 0:
            nxt[0] = 0
            carry = 1
        else:
            carry = pair_step(nxt, 2 * i if not low_one else 2 * i - 1)
        if carry:
            walk(nxt, i + 1, prob * pi, low_one)
        else:
            leaves.append((value_of(nxt), prob * pi))

    digs = list(digits_of_int(state))
    walk(digs, 0, 1.0, bool(digs) and digs[0] == 1)
    agg = {}
    for v, pr in leaves:
        agg[v] = agg.get(v, 0.0) + pr
    return agg


def _dist_close(got, want):
    assert set(got) == set(want)
    for t in want:
        assert math.isclose(got[t], want[t], rel_tol=1e-12, abs_tol=1e-15), (
            t,
            got[t],
            want[t],
        )


def test_ladder_matches_carry_enumeration_below_f10():
    for state in range(FIB64[10] + 1):
        _dist_close(transition_dist(state, DISTINCT).as_dict(), _carry_leaves(state, DISTINCT))


def test_ladder_matches_carry_enumeration_certain_first_coin():
    p = ConstantTail((1.0, 0.5, 0.25), 0.125)
    for state in range(200):
        got = transition_dist(state, p).as_dict()
        _dist_close(got, _carry_leaves(state, p))
        assert state not in got or state == 0 or got[state] > 0.0
        # the self-loop has probability 1-p_1 = 0 and must be filtered out
        assert all(v > 0.0 for v in got.values())


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_ladder_matches_carry_enumeration_random(state):
    _dist_close(transition_dist(state, DISTINCT).as_dict(), _carry_leaves(state, DISTINCT))


# ---------------------------------------------------------------------------
# the displayed 14x10 block of the transition matrix

TABLE_BLOCK = {
    0: {0: "1-p1", 1: "p1"},
    1: {0: "p1*(1-p2)", 1: "1-p1", 2: "p1*p2"},
    2: {0: "p1*(1-p2)", 2: "1-p1", 3: "p1*p2"},
    3: {3: "1-p1", 4: "p1"},
    4: {0: "p1*p2*(1-p3)", 3: "p1*(1-p2)", 4: "1-p1", 5: "p1*p2*p3"},
    5: {5: "1-p1", 6: "p1"},
    6: {5: "p1*(1-p2)", 6: "1-p1", 7: "p1*p2"},
    7: {0: "p1*p2*(1-p3)", 5: "p1*(1-p2)", 7: "1-p1", 8: "p1*p2*p3"},
    8: {8: "1-p1", 9: "p1"},
    9: {8: "p1*(1-p2)", 9: "1-p1"},
    10: {8: "p1*(1-p2)"},
    11: {},
    12: {0: "p1*p2*p3*(1-p4)", 8: "p1*p2*(1-p3)"},
    13: {},
}

VALUE_AT_HALF = {
    "1-p1": 0.5,
    "p1": 0.5,
    "p1*(1-p2)": 0.25,
    "p1*p2": 0.25,
    "p1*p2*(1-p3)": 0.125,
    "p1*p2*p3": 0.125,
    "p1*p2*p3*(1-p4)": 0.0625,
}


def test_symbolic_block_rows():
    for state, want in TABLE_BLOCK.items():
        got = {t: f.text() for t, f in transition_terms(state) if t <= 9}
        assert got == want, state


def test_numeric_block_rows_at_half():
    for state, want in TABLE_BLOCK.items():
        row = transition_dist(state, HALF)
        for t, text in want.items():
            assert abs(row.as_dict().get(t, 0.0) - VALUE_AT_HALF[text]) <= 1e-12


def test_terms_sorted_and_capacity_guard():
    for state in (0, 7, 12, 400):
        targets = [t for t, _ in transition_terms(state)]
        assert targets == sorted(targets)
    with pytest.raises(CapacityError):
        transition_terms(UINT64_MAX)
    with pytest.raises(ValueError):
        transition_terms(-1)
    # one below the cap is still incrementable
    assert max(t for t, _ in transition_terms(UINT64_MAX - 1)) == UINT64_MAX


# ---------------------------------------------------------------------------
# truncated matrix: self-similar blocks, zero rectangles, row sums, leak


def _dense(mat):
    rows = []
    for dist in (mat.row(i) for i in range(mat.size)):
        row = [0.0] * mat.size
        for t, v in dist.entries:
            row[t] = v
        rows.append(row)
    return rows


def test_block_self_similarity_exact():
    mat = _dense(transition_matrix(10, DISTINCT))
    for n in range(2, 9):
        lo, hi = FIB64[n], FIB64[n + 1]
        for i in range(lo, hi):
            for j in range(lo, hi):
                assert mat[i][j] == mat[i - lo][j - lo]


def test_zero_rectangles_exact():
    mat = _dense(transition_matrix(10, DISTINCT))
    for n in range(1, 9):
        for j in range(FIB64[n], min(FIB64[n] + FIB64[n + 1], FIB64[10])):
            for i in range(1, FIB64[n]):
                assert mat[j][i] == 0.0


def test_row_sums_and_single_leak():
    mat = transition_matrix(7, HALF)
    assert mat.size == 34
    assert mat.leak_state == 33
    # the top state completes its increment to 34 after five straight successes
    assert abs(mat.leak_prob - 0.5**5) <= 1e-15
    for i in range(mat.size - 1):
        assert abs(mat.row(i).total() - 1.0) <= 1e-15
    assert abs(mat.row(33).total() - (1.0 - mat.leak_prob)) <= 1e-15


def test_matrix_budget():
    assert FIB64[31] <= MATRIX_BUDGET < FIB64[32]
    with pytest.raises(BudgetExceeded):
        transition_matrix(32, HALF)
    with pytest.raises(ValueError):
        transition_matrix(0, HALF)


# ---------------------------------------------------------------------------
# simulation


def test_simulate_all_ones_is_deterministic_increment():
    out = simulate(0, 500, all_ones(), 7)
    assert out.final_state == 500
    assert out.max_state == 500
    assert out.returns_to_zero == 0
    assert out.visits[250] == 1


def test_simulate_seed_determinism():
    a = simulate(0, 2000, HALF, 42)
    b = simulate(0, 2000, HALF, 42)
    assert a == b
    c = simulate(0, 2000, HALF, 43)
    assert c != a


def test_single_row_sampling_frequencies():
    rng = SplitMix64(2026)
    row = transition_dist(4, HALF)
    counts = {t: 0 for t, _ in row.entries}
    n = 20000
    for _ in range(n):
        counts[row.sample(rng)] += 1
    for t, prob in row.entries:
        assert abs(counts[t] / n - prob) < 0.02


# ---------------------------------------------------------------------------
# classification


def test_classify_branches():
    assert classify(all_ones()).kind is ChainClass.TRANSIENT
    assert classify(ConstantTail((1.0, 0.5), 1.0)).kind is ChainClass.TRANSIENT
    assert classify(HALF).kind is ChainClass.NULL_RECURRENT
    assert classify(ConstantTail((0.9, 0.8), 1.0)).kind is ChainClass.TRANSIENT
    assert classify(ConstantTail((0.9, 0.8), 0.99)).kind is ChainClass.NULL_RECURRENT
    assert classify(PowerLawComplement(0.5, 2.0)).kind is ChainClass.TRANSIENT
    assert classify(PowerLawComplement(0.5, 1.0)).kind is ChainClass.NULL_RECURRENT
    assert classify(GeometricDecay(1.0, 0.25)).kind is ChainClass.POSITIVE_RECURRENT
    assert classify(GeometricDecay(1.0, 0.45)).kind is ChainClass.UNKNOWN
    with pytest.raises(UnsupportedVariant):
        classify(ConstantTail((0.5,), None))


def test_classify_reasons_are_informative():
    for p in (all_ones(), HALF, GeometricDecay(1.0, 0.25)):
        assert classify(p).reason


def test_geometric_threshold_boundary():
    # rho just below 1/phi^2 converges, just above does not
    phi2 = (3.0 + math.sqrt(5.0)) / 2.0
    assert classify(GeometricDecay(1.0, 1.0 / phi2 - 1e-6)).kind is ChainClass.POSITIVE_RECURRENT
    assert classify(GeometricDecay(1.0, 1.0 / phi2 + 1e-6)).kind is ChainClass.UNKNOWN


# ---------------------------------------------------------------------------
# block weights beta


def test_block_index_examples():
    assert block_index(1) == 0
    assert block_index(2) == 1
    assert block_index(3) == 2
    assert block_index(4) == 2
    assert block_index(5) == 3
    assert block_index(34) == 7
    with pytest.raises(ValueError):
        block_index(0)


def test_beta_worked_values_at_half():
    p = ConstantTail((1.0, 0.5), 0.5)
    assert beta(1, p) == 1.0
    assert beta(2, p) == 2.0
    assert beta(3, p) == 4.0
    assert beta(4, p) == 4.0


def test_beta_against_closed_form():
    # Pi_0 = 1, Pi_1 = 1/p_2, Pi_(2n) = prod_(i=2..n+1) p_i^-2,
    # Pi_(2n+1) = Pi_(2n) / p_(n+2)
    p = DISTINCT
    for r in range(13):
        if r % 2 == 0:
            n = r // 2
            want = 1.0
            for i in range(2, n + 2):
                want /= p.p(i) ** 2
        else:
            n = (r - 1) // 2
            want = 1.0
            for i in range(2, n + 2):
                want /= p.p(i) ** 2
            want /= p.p(n + 2)
        assert math.isclose(beta(FIB64[r], p), want, rel_tol=1e-12), r


def test_beta_constant_on_blocks():
    for r in range(1, 10):
        vals = {beta(n, DISTINCT) for n in range(FIB64[r], FIB64[r + 1])}
        assert len(vals) == 1


def test_beta_eigen_residual_small():
    for p in (all_ones(), HALF, ConstantTail((0.9, 0.8, 0.7, 0.6), 0.5)):
        assert beta_eigen_residual(10, p) <= 1e-12


# ---------------------------------------------------------------------------
# stationary weights xi


def test_xi_worked_values():
    p = DISTINCT
    assert xi(1, p) == 1.0
    assert xi(2, p) == p.p(2)
    assert xi(8, p) == p.p(3)
    assert math.isclose(xi(12, p), p.p(3) * p.p(2), rel_tol=1e-15)
    assert xi(0, p) == 1.0
    with pytest.raises(ValueError):
        xi(-1, p)


def test_xi_multiplicative_over_digits():
    for n in range(1, 500):
        want = 1.0
        for i, e in enumerate(digits_of_int(n)):
            if e:
                want *= xi(FIB64[i], DISTINCT)
        assert math.isclose(xi(n, DISTINCT), want, rel_tol=1e-13)


def test_xi_array_matches_scalar():
    arr = _xi_array(FIB64[12], DISTINCT)
    for n in range(FIB64[12]):
        assert arr[n] == pytest.approx(xi(n, DISTINCT), rel=1e-13)


def test_stationary_measure_all_ones_uniform():
    sm = stationary_measure(7, all_ones())
    assert sm.partial_sum == 34.0
    assert all(w == 1.0 / 34.0 for w in sm.weights)
    assert not sm.unsummable


def test_stationary_measure_unsummable_flag():
    # p_1 = 1 with constant tail 1/2: the xi partial sums grow linearly,
    # so a small threshold flips the flag at a deep enough truncation
    p = ConstantTail((1.0,), 0.5)
    assert stationary_measure(20, p, summable_threshold=100.0).unsummable
    assert not stationary_measure(7, p, summable_threshold=100.0).unsummable


def test_stationary_measure_refuses_a_threshold_that_is_not_positive():
    for bad in (math.nan, 0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="threshold must be positive"):
            stationary_measure(7, all_ones(), summable_threshold=bad)
    assert not stationary_measure(7, all_ones(), summable_threshold=math.inf).unsummable


def test_stationarity_residual_small():
    for p in (all_ones(), HALF, ConstantTail((0.9, 0.8, 0.7, 0.6), 0.5)):
        assert stationarity_residual(8, p) <= 1e-12


def test_stationarity_residual_matches_dense_oracle():
    size = FIB64[7]
    mu = [xi(n, DISTINCT) for n in range(size)]
    inflow = [0.0] * size
    for i in range(size):
        for t, v in transition_dist(i, DISTINCT).entries:
            if t < size:
                inflow[t] += v * mu[i]
    want = max(abs(inflow[j] - mu[j]) for j in range(1, size))
    assert abs(stationarity_residual(7, DISTINCT) - want) <= 1e-14


# ---------------------------------------------------------------------------
# budget-driven construction


def _alpha(n, q):
    """Stationary mass of block n, summed from the xi weights directly."""
    return math.fsum(xi(i, q) for i in range(FIB64[n], FIB64[n + 1]))


def test_construct_seed_values():
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), 12)
    assert q.p(1) == 1.0
    assert q.p(2) == 0.5
    assert q.a[0] == 1.0
    assert q.a[1] == 0.5
    assert q.a[2] == 1.0


def test_construct_block_sums_match_a():
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), 12)
    for n in range(9):
        assert math.isclose(_alpha(n, q), q.a[n], rel_tol=1e-9), n


def test_construct_block_sums_match_a_other_parameters():
    q = construct_positive_recurrent(0.75, 0.625, geometric_budget(0.625, 0.3), 12)
    for n in range(9):
        assert math.isclose(_alpha(n, q), q.a[n], rel_tol=1e-9), n


def test_construct_probabilities_valid_and_extendable():
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), 8)
    for i in range(1, 40):
        assert 0.0 < q.p(i) <= 1.0
    assert q.delta_lower_bound() == 0.0


def test_construct_classified_positive_recurrent():
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), 8)
    assert classify(q).kind is ChainClass.POSITIVE_RECURRENT


def test_construct_total_mass_converges():
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), 30)
    s10 = math.fsum(xi(i, q) for i in range(FIB64[10]))
    s15 = math.fsum(xi(i, q) for i in range(FIB64[15]))
    assert abs(s15 - s10) / s10 < 0.01


def test_construct_budget_validation():
    with pytest.raises(InvalidBudget):
        construct_positive_recurrent(1.0, 0.5, lambda k: 2.0, 8)
    with pytest.raises(InvalidBudget):
        construct_positive_recurrent(1.0, 0.5, lambda k: 1.0 if k == 1 else 0.7, 8)
    bad = lambda k: 1.0 if k == 1 else (1.5 if k == 2 else -1.0)
    with pytest.raises(InvalidBudget):
        construct_positive_recurrent(1.0, 0.5, bad, 8)
    with pytest.raises(InvalidBudget):
        geometric_budget(0.5, ratio=1.5)


def test_constructed_values_follow_later_extensions():
    q = construct_positive_recurrent(0.7, 0.4, geometric_budget(0.4), 3)
    assert len(q.values) == 3 and len(q.a) == 5
    assert "(3 values computed)" in q.describe()
    p8 = q.p(8)
    assert len(q.values) == 8 and q.values[-1] == p8
    assert q.values == tuple(q.p(i) for i in range(1, 9))
    assert len(q.a) == 15
    assert "(8 values computed)" in q.describe()
    with pytest.raises(AttributeError):
        q.values = ()
