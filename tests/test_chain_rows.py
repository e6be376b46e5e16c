"""Transition rows from the one ladder walk against the per-term code it replaced.

The oracle below is the earlier row code, kept only for these tests: it
re-encodes each state with `digits_of_int`, builds one `ProbFactor` per term,
evaluates it with `ProbFactor.value` and sorts the terms.  The shipped code
walks the Zeckendorf bits once and reads every probability from a per-call
rung table; both multiply the same floats in the same order, so rows,
matrices, residuals and trajectories must agree bit for bit.  The golden
values at the end were recorded with the per-term code.
"""

import hashlib
import json
import math
import random
from dataclasses import astuple, is_dataclass
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    BudgetExceeded,
    CapacityError,
    ConstantTail,
    GeometricDecay,
    OrbitEscaped,
    PowerLawComplement,
    SplitMix64,
    TailUndefined,
    beta_eigen_residual,
    construct_positive_recurrent,
    eigen_residual,
    geometric_budget,
    simulate,
    stationarity_residual,
    transition_dist,
    transition_matrix,
    transition_terms,
)
from fibmachine.chain import (
    ROW_CACHE,
    ROW_CHUNK,
    STEP_BUDGET,
    ProbFactor,
    _RUNG_SUMS,
    _ladder,
    _ladder_chunks,
    _pi_block,
    _pick,
    _trailing_zeros,
    _xi_array,
    coefficients,
)
from fibmachine.cli import main
from fibmachine.numeration import FIB64, UINT64_MAX, digits_of_int, fib_bits_of_int
from fibmachine.spectrum import EigenResidual, q_values_upto
from oracles import Recording

NULL = ConstantTail((1.0,), 0.5)
TRANSIENT = PowerLawComplement(0.5, 2.0)
HALF = ConstantTail((), 0.5)
MIXED = ConstantTail((0.9, 0.7, 0.8, 0.6), 0.55)
# p_3 = 1e-300 and beyond: every product past rung 2 underflows to 0.0
UNDERFLOW = GeometricDecay(1.0, 1e-100)


def constructed():
    # a fresh instance per use, since the construction extends on demand
    return construct_positive_recurrent(0.7, 0.4, geometric_budget(0.4), 3)


def sequences():
    return [
        NULL,
        TRANSIENT,
        HALF,
        MIXED,
        ConstantTail((0.9, 0.8, 0.7), 0.3),
        PowerLawComplement(0.9, 0.5),
        GeometricDecay(0.9, 0.3),
        UNDERFLOW,
        constructed(),
    ]


# ---------------------------------------------------------------------------
# oracle: the per-term row code


def oracle_terms(state):
    if state < 0:
        raise ValueError("states are nonnegative integers")
    if state >= UINT64_MAX:
        raise CapacityError("the incremented state would exceed the 64-bit range")
    eps = digits_of_int(state)

    def digit(i):
        return eps[i] if i < len(eps) else 0

    terms = []
    cleared = 0
    i = 0
    rung = 1
    if digit(0) == 1:
        terms.append((state, ProbFactor(0, 1)))
        cleared = FIB64[0]
        i = 1
        rung = 2
    while True:
        if digit(i + 1) == 1:
            terms.append((state - cleared, ProbFactor(rung - 1, rung)))
            cleared += FIB64[i + 1]
            i += 2
            rung += 1
        else:
            terms.append((state - cleared, ProbFactor(rung - 1, rung)))
            terms.append((state + 1, ProbFactor(rung, None)))
            break
    terms.sort(key=lambda t: t[0])
    return tuple(terms)


def oracle_entries(state, p):
    entries = []
    for target, factor in oracle_terms(state):
        v = factor.value(p)
        if v > 0.0:
            entries.append((target, v))
    return tuple(entries)


def oracle_sample(entries, u):
    acc = 0.0
    for target, prob in entries:
        acc += prob
        if u < acc:
            return target
    return entries[-1][0]


def oracle_simulate(start, steps, p, seed):
    rng = SplitMix64(seed)
    state = start
    visits = {state: 1}
    max_state = state
    returns = 0
    for _ in range(steps):
        state = oracle_sample(oracle_entries(state, p), rng.random())
        visits[state] = visits.get(state, 0) + 1
        max_state = max(max_state, state)
        returns += state == 0
    return state, max_state, returns, visits


def matrix_rows(mat):
    return tuple(mat.row(i) for i in range(mat.size))


def oracle_matrix(level, p):
    size = FIB64[level]
    rows = []
    leak = 0.0
    for state in range(size):
        entries = oracle_entries(state, p)
        rows.append(tuple((t, v) for t, v in entries if t < size))
        if state == size - 1:
            leak = math.fsum(v for t, v in entries if t >= size)
    return rows, leak


def oracle_stationarity_residual(level, p):
    size = FIB64[level]
    mu = _xi_array(size, p)
    inflow = [[] for _ in range(size)]
    for i in range(size):
        for target, prob in oracle_entries(i, p):
            if target < size:
                inflow[target].append(prob * mu[i])
    return max(abs(math.fsum(inflow[j]) - mu[j]) for j in range(1, size))


def oracle_beta_eigen_residual(level, p):
    size = FIB64[level]
    betas = [0.0] * size
    r = 0
    while r < len(FIB64) and FIB64[r] < size:
        val = _pi_block(r, p)
        for n in range(FIB64[r], min(size, FIB64[r + 1])):
            betas[n] = val
        r += 1
    worst = 0.0
    for i in range(1, size - 1):
        acc = [-betas[i]]
        for target, factor in oracle_terms(i):
            if target >= 1:
                acc.append(factor.value(p) * betas[target])
        worst = max(worst, abs(math.fsum(acc)))
    return worst


def oracle_eigen_residual(lam, p, level):
    top = FIB64[level]
    rows = FIB64[level + 1]
    lam = complex(lam)
    w = q_values_upto(level, lam, p)
    sup_norm = max(abs(v) for v in w)
    p1 = p.p(1)
    interior = 0.0
    full = 0.0
    for i in range(rows + 1):
        re_parts = []
        im_parts = []
        for target, factor in oracle_terms(i):
            if target <= top:
                prob = factor.value(p)
                wt = w[target]
                re_parts.append(prob * wt.real)
                im_parts.append(prob * wt.imag)
        if i <= top:
            shift = lam * w[i]
            re_parts.append(-shift.real)
            im_parts.append(-shift.imag)
        res = abs(complex(math.fsum(re_parts), math.fsum(im_parts)))
        if i < top:
            interior = max(interior, res)
        full = max(full, res)
    q_top = abs(w[top])
    bound = (abs(1.0 - p1 - lam) * q_top + p1 * q_top + p1) / sup_norm
    return EigenResidual(level, max(full, p1) / sup_norm, interior / sup_norm, bound, sup_norm)


# ---------------------------------------------------------------------------
# helpers


def exact(entries):
    """Entries with every probability as its exact bit pattern."""
    return tuple((t, float(v).hex()) for t, v in entries)


def outcome(f, *args):
    """A result, or the type and message of the error it raised."""
    try:
        return ("ok", f(*args))
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return ("error", type(exc), str(exc))


def float_outcome(f, *args):
    """`outcome` with every float of the result as its exact bit pattern."""
    result = outcome(f, *args)
    if result[0] != "ok":
        return result
    value = result[1]
    fields = astuple(value) if is_dataclass(value) else (value,)
    return ("ok", tuple(x.hex() if isinstance(x, float) else x for x in fields))


def random_states(seed, count):
    rng = random.Random(seed)
    return [rng.randrange(UINT64_MAX) for _ in range(count)] + [UINT64_MAX - 1]


# ---------------------------------------------------------------------------
# single rows


def test_terms_match_oracle_below_f16():
    for state in range(FIB64[16]):
        assert transition_terms(state) == oracle_terms(state)


def test_terms_match_oracle_on_random_states_up_to_capacity():
    for state in random_states(20, 3000):
        assert transition_terms(state) == oracle_terms(state)
    for state in (UINT64_MAX, UINT64_MAX + 5, -1):
        assert outcome(transition_terms, state) == outcome(oracle_terms, state)


@pytest.mark.parametrize("index", range(len(sequences())))
def test_rows_match_oracle_bit_for_bit(index):
    p = sequences()[index]
    for state in list(range(FIB64[16])) + random_states(index, 400):
        got = transition_dist(state, p)
        assert exact(got.entries) == exact(oracle_entries(state, p)), state


def test_underflowed_products_are_dropped():
    dropped = 0
    for state in range(FIB64[12]):
        terms = oracle_terms(state)
        entries = transition_dist(state, UNDERFLOW).entries
        assert exact(entries) == exact(oracle_entries(state, UNDERFLOW))
        assert all(v > 0.0 for _, v in entries)
        dropped += len(terms) - len(entries)
    assert dropped > 0


def test_constructed_sequence_extends_on_demand():
    p = constructed()
    deep = FIB64[1] + FIB64[3] + FIB64[5] + FIB64[7] + FIB64[9]  # a rung-6 ladder
    assert len(transition_terms(deep)) == 7
    assert exact(transition_dist(deep, p).entries) == exact(oracle_entries(deep, constructed()))


def test_explicit_without_tail_raises_where_it_did():
    for values in ((0.9,), (0.9, 0.8), (0.9, 0.8, 0.7)):
        p = ConstantTail(values, None)
        raised = 0
        for state in list(range(FIB64[14])) + random_states(7, 200):
            got = outcome(lambda s: transition_dist(s, p).entries, state)
            want = outcome(oracle_entries, state, p)
            if want[0] == "error":
                raised += 1
                assert want[1] is TailUndefined
                assert got == want
            else:
                assert exact(got[1]) == exact(want[1])
        assert raised > 0


# ---------------------------------------------------------------------------
# bulk loops


@pytest.mark.parametrize("p", [NULL, TRANSIENT, MIXED, UNDERFLOW], ids=["null", "transient", "mixed", "underflow"])
def test_bulk_loops_match_oracle_levels_1_to_16(p):
    for level in range(1, 17):
        mat = transition_matrix(level, p)
        want_rows, want_leak = oracle_matrix(level, p)
        assert [exact(row.entries) for row in matrix_rows(mat)] == [exact(r) for r in want_rows]
        assert mat.leak_prob.hex() == want_leak.hex()
        for f, oracle in (
            (stationarity_residual, oracle_stationarity_residual),
            # under UNDERFLOW the beta weights overflow and fsum refuses inf - inf
            (beta_eigen_residual, oracle_beta_eigen_residual),
        ):
            assert float_outcome(f, level, p) == float_outcome(oracle, level, p)


def test_bulk_loops_match_oracle_for_constructed_and_explicit():
    for level in (1, 2, 5, 9, 14):
        for make in (constructed, lambda: ConstantTail((0.9, 0.8, 0.7), 0.3)):
            mat = transition_matrix(level, make())
            want_rows, want_leak = oracle_matrix(level, make())
            assert [exact(row.entries) for row in matrix_rows(mat)] == [exact(r) for r in want_rows]
            assert mat.leak_prob.hex() == want_leak.hex()
            for f, oracle in (
                (stationarity_residual, oracle_stationarity_residual),
                (beta_eigen_residual, oracle_beta_eigen_residual),
            ):
                assert float_outcome(f, level, make()) == float_outcome(oracle, level, make())


@pytest.mark.parametrize(
    "p", [NULL, TRANSIENT, MIXED, UNDERFLOW], ids=["null", "transient", "mixed", "underflow"]
)
def test_eigen_residual_matches_oracle_levels_1_to_16(p):
    for level in range(1, 17):
        for lam in (0.2 + 0.1j, 1.0, 0.5, -0.3 + 0.4j):
            got = float_outcome(eigen_residual, lam, p, level)
            want = float_outcome(oracle_eigen_residual, lam, p, level)
            assert got == want, (level, lam)
            if p is NULL and lam == 0.2 + 0.1j and level == 16:
                # the q orbit stops short of the level: refused with a typed
                # error, which is still an IndexError
                assert got[1] is OrbitEscaped


def test_bulk_loops_raise_tail_undefined_where_they_did():
    for values in ((0.9,), (0.9, 0.8), (0.9, 0.8, 0.7)):
        for level in range(1, 13):
            p = ConstantTail(values, None)
            for f, oracle in (
                (lambda: matrix_rows(transition_matrix(level, p)), lambda: oracle_matrix(level, p)[0]),
                (lambda: stationarity_residual(level, p), lambda: oracle_stationarity_residual(level, p)),
                (lambda: beta_eigen_residual(level, p), lambda: oracle_beta_eigen_residual(level, p)),
                (lambda: eigen_residual(0.5, p, level), lambda: oracle_eigen_residual(0.5, p, level)),
            ):
                got, want = outcome(f), outcome(oracle)
                assert got[0] == want[0]
                if want[0] == "error":
                    assert got == want
    # a long enough prefix never runs out inside the truncation
    p = ConstantTail((0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3), None)
    assert beta_eigen_residual(12, p) == oracle_beta_eigen_residual(12, p)


# ---------------------------------------------------------------------------
# the bulk ladder table


def table_rows(start, stop, p):
    """(state, targets, probability bits) of each row the table yields."""
    rows = []
    for states, depths, targets, probs in _ladder_chunks(start, stop, p):
        assert len(states) <= ROW_CHUNK
        for state, depth, t, v in zip(states.tolist(), depths.tolist(), targets.tolist(), probs.tolist()):
            # past the row's entries: negative targets with probability 0.0
            assert all(x < 0 for x in t[depth + 1 :]) and all(x == 0.0 for x in v[depth + 1 :])
            rows.append((state, t[: depth + 1], [x.hex() for x in v[: depth + 1]]))
    return rows


def walked_rows(start, stop, p):
    """The same rows from one `_ladder` walk per state."""
    row = coefficients(p).row
    rows = []
    for state in range(start, stop):
        targets, _ = _ladder(state, fib_bits_of_int(state))
        rows.append((state, targets, [x.hex() for x in row(p, len(targets) - 1)]))
    return rows


@pytest.mark.parametrize("index", range(len(sequences())))
def test_ladder_table_matches_the_walk(index):
    for start, stop in ((0, FIB64[15]), (FIB64[16] - 5, FIB64[16] + 2 * ROW_CHUNK + 7)):
        p = sequences()[index]
        assert table_rows(start, stop, p) == walked_rows(start, stop, sequences()[index])


@settings(max_examples=60, deadline=None)
@given(
    start=st.integers(0, 3 * ROW_CHUNK),
    length=st.integers(0, 3 * ROW_CHUNK),
    index=st.integers(0, len(sequences()) - 1),
)
def test_ladder_table_matches_the_walk_on_random_ranges(start, length, index):
    got = table_rows(start, start + length, sequences()[index])
    assert got == walked_rows(start, start + length, sequences()[index])


def shape_states():
    """Random 64-bit states, and F_k - 2 .. F_k + 1 for every k: all below UINT64_MAX."""
    rng = random.Random(24)
    edges = {f + d for f in FIB64 for d in (-2, -1, 0, 1)}
    return sorted({*edges, *(rng.randrange(UINT64_MAX) for _ in range(3000))} - {-1})


def test_the_ladder_shape_is_the_trailing_zeros_of_the_next_state():
    # the identity the bulk tables rest on, checked far past MATRIX_BUDGET
    for state in shape_states():
        following = fib_bits_of_int(state + 1)
        t = (following & -following).bit_length() - 1
        bits = fib_bits_of_int(state)
        targets, target_bits = _ladder(state, bits)
        c, k0 = divmod(t + 1, 2)
        assert len(targets) - 1 == c + 1, state  # the depth is (t + 1) // 2 + 1
        # the lowest rung is digit k0 = (t + 1) % 2: digit 0 when set, else digit 1
        assert bits & 1 == 1 - k0, state
        # the deepest fall clears the c rungs k0, k0 + 2, ..; the next one is clear
        assert bits ^ target_bits[0] == sum(1 << k for k in range(k0, k0 + 2 * c, 2)), state
        assert not bits >> (k0 + 2 * c) & 1 and targets[0] == state - _RUNG_SUMS[k0][c], state


def bitwise_trailing_zeros(start, stop):
    """t(i) for start <= i < stop from the Zeckendorf bits, bits(F_m + k) = bits(k) | 1<<m."""
    bits = np.zeros(stop, dtype=np.int64)
    m = 0
    while FIB64[m] < stop:
        lo = FIB64[m]
        count = min(FIB64[m + 1], stop) - lo
        np.bitwise_or(bits[:count], 1 << m, out=bits[lo : lo + count])
        m += 1
    bits = bits[start:]
    return np.bitwise_count((bits & -bits) - 1)


@pytest.mark.parametrize(
    "start, stop", [(1, 200_000), (1, 2), (2, 3), (1, 4), (5, 9), (7, 7), (89, 90), (1000, 200_000)]
)
def test_trailing_zeros_fill_is_the_bit_count(start, stop):
    got = _trailing_zeros(start, stop)
    want = bitwise_trailing_zeros(start, stop)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def requests(call, make):
    """The indices `call(p)` asks for, in order of first request, and its outcome."""
    p = Recording(make())
    result = float_outcome(call, p)
    return list(dict.fromkeys(p.asked)), result


@pytest.mark.parametrize(
    "make",
    [
        lambda: MIXED,
        lambda: ConstantTail((), None),
        lambda: ConstantTail((0.9,), None),
        lambda: ConstantTail((0.9, 0.8, 0.7), None),
        constructed,
    ],
    ids=["mixed", "explicit-empty", "explicit-1", "explicit-3", "constructed"],
)
def test_bulk_loops_ask_for_the_same_probabilities(make):
    for level in range(1, 12):
        pairs = [
            (
                lambda p: [row.entries for row in matrix_rows(transition_matrix(level, p))],
                lambda p: oracle_matrix(level, p)[0],
            ),
            (lambda p: stationarity_residual(level, p), lambda p: oracle_stationarity_residual(level, p)),
            (lambda p: beta_eigen_residual(level, p), lambda p: oracle_beta_eigen_residual(level, p)),
        ]
        for lam in (0.5, 0.2 + 0.1j):
            pairs.append(
                (
                    lambda p, lam=lam: eigen_residual(lam, p, level),
                    lambda p, lam=lam: oracle_eigen_residual(lam, p, level),
                )
            )
        for f, oracle in pairs:
            (got_asked, got), (want_asked, want) = requests(f, make), requests(oracle, make)
            assert (got_asked, got) == (want_asked, want), level
    # level 1 of an empty explicit prefix: every loop with rows asks for p_1
    # and fails there; the beta loop has no rows and asks for nothing
    empty = lambda: ConstantTail((), None)  # noqa: E731
    assert requests(lambda p: stationarity_residual(1, p), empty)[0] == [1]
    assert requests(lambda p: beta_eigen_residual(1, p), empty) == ([], ("ok", ("0x0.0p+0",)))
    assert requests(lambda p: eigen_residual(0.5, p, 1), empty)[0] == [1]


# ---------------------------------------------------------------------------
# simulation


@pytest.mark.parametrize("p", [NULL, TRANSIENT, MIXED, UNDERFLOW, ConstantTail((1.0, 0.5), 0.25)])
def test_simulate_matches_oracle_sampler(p):
    for seed in (5, 6):
        got = simulate(0, 3000, p, seed)
        assert (got.final_state, got.max_state, got.returns_to_zero, got.visits) == oracle_simulate(
            0, 3000, p, seed
        )


def test_simulate_matches_oracle_past_a_cache_clear():
    steps = 15_000
    got = simulate(0, steps, TRANSIENT, 11)
    want = oracle_simulate(0, steps, TRANSIENT, 11)
    assert (got.final_state, got.max_state, got.returns_to_zero, got.visits) == want
    assert len(got.visits) > ROW_CACHE


@pytest.mark.parametrize("steps", [1, 4095, 4096, 4097, 9000])
def test_simulate_leaves_the_generator_after_one_draw_a_step(steps):
    rng = SplitMix64(2**64 - 3)
    simulate(0, steps, HALF, rng)
    reference = SplitMix64(2**64 - 3)
    for _ in range(steps):
        reference.random()
    assert rng._state == reference._state
    assert rng.random() == reference.random()


def test_simulate_capacity_error_leaves_the_generator_where_it_was():
    # three increments reach UINT64_MAX; the fourth step's row raises before its draw
    rng = SplitMix64(9)
    with pytest.raises(CapacityError):
        simulate(UINT64_MAX - 3, 10, ConstantTail((), 1.0), rng)
    reference = SplitMix64(9)
    for _ in range(3):
        reference.random()
    assert rng._state == reference._state


def test_pick_falls_back_to_the_last_positive_entry():
    # when rounding leaves the row total at or below u, the old sampler took
    # the last entry it kept, and it kept only positive ones
    probs = (0.5, 0.25, 0.0)
    entries = tuple(zip((3, 4, 5), probs))
    for u in (0.1, 0.6, 0.75, 0.9):
        assert (3, 4, 5)[_pick(u, probs)] == oracle_sample(entries[:2], u)


class GivenDraws(SplitMix64):
    """A generator whose uniforms are given in advance."""

    def __init__(self, draws):
        super().__init__(0)
        self.draws = list(draws)

    def random_block(self, n):
        block, self.draws = self.draws[:n], self.draws[n:]
        return np.array(block)


def test_simulate_falls_back_when_a_draw_passes_the_row_total():
    # the row of 12 (depth 4) sums to 1 - 2^-53 and its increment underflows to 0.0
    p = ConstantTail((0.7360520742121478, 0.05189544801599963, 1e-300, 1e-300), 1e-300)
    u = 1.0 - 2.0**-53
    entries = oracle_entries(12, p)
    *_, total = accumulate(v for _, v in entries)
    assert total <= u and len(entries) == 4
    got = simulate(12, 1, p, GivenDraws([u]))
    assert got.final_state == oracle_sample(entries, u) == 12


def test_simulate_near_capacity_fails_where_it_did():
    p = ConstantTail((), 1.0)
    start = UINT64_MAX - 3
    got = outcome(simulate, start, 10, p, 1)
    want = outcome(oracle_simulate, start, 10, p, 1)
    assert got[0] == want[0] == "error"
    assert got == want
    assert simulate(start, 3, p, 1).final_state == UINT64_MAX


def test_simulate_checks_steps():
    with pytest.raises(ValueError, match="steps"):
        simulate(0, 2.5, HALF, 1)
    with pytest.raises(ValueError, match="steps"):
        simulate(0, "10", HALF, 1)
    with pytest.raises(ValueError, match="steps"):
        simulate(0, 0, HALF, 1)
    with pytest.raises(BudgetExceeded):
        simulate(0, STEP_BUDGET + 1, HALF, 1)


# ---------------------------------------------------------------------------
# golden outputs recorded with the per-term code


GOLDEN_SIMULATIONS = {
    # (sequence, seed): (final_state, max_state, returns_to_zero, SHA-256 of sorted visits)
    ("null", 1): (8, 232, 1870, "60bb95f82402b1546a9e2c66cd443d63c14b3e921535141f64b03525500b02a6"),
    ("null", 2): (257, 376, 1245, "efeceab97f6e34909a8711a826bd4852ce3528104c54d7c58f9c09f65568924e"),
    ("null", 3): (238, 287, 1210, "1edd30881362132c85ba7898827e182f6423f166e6fb181f35c7ad5ad6dd57fc"),
    ("transient", 1): (17175, 17175, 0, "ad9ac0afc63ff8811aade65f784d3fc755f5d010a8437315cc785ec14498a16b"),
    ("transient", 2): (17336, 17338, 0, "fc8c7ea4babc0469f1b7d2ccaae67ba6c6e3fe8d1fe609def5f070a3fe855574"),
    ("transient", 3): (16642, 16642, 1, "ec6e1a045d0530dd4f420fcace9299696bcfa6ee41580a57d1a0a15b8d179963"),
    ("half", 1): (189, 190, 826, "7ed9da05e9111df79b3faeff6d23f4c20a709c0cb094c684405ce540d24cf463"),
    ("half", 2): (124, 143, 1525, "c4a9fb65dd0b61f7c507b66431ffc751766075aed816774dd0a98124eab93357"),
    ("half", 3): (149, 232, 1085, "b19d93291a65e7f03eadb7ab461f3f8913442c9bd960ce37508efc3a62c68523"),
}


@pytest.mark.parametrize("name,seed", sorted(GOLDEN_SIMULATIONS))
def test_golden_simulation_summaries(name, seed):
    p = {"null": NULL, "transient": TRANSIENT, "half": HALF}[name]
    s = simulate(0, 50_000, p, seed)
    digest = hashlib.sha256(json.dumps(sorted(s.visits.items())).encode()).hexdigest()
    assert (s.final_state, s.max_state, s.returns_to_zero, digest) == GOLDEN_SIMULATIONS[name, seed]


GOLDEN_CONFIG = {"prob_seq": {"variant": "constant_tail", "prefix": [0.9, 0.7, 0.8, 0.6], "param": 0.55}}

GOLDEN_CLI = {
    ("chain", "row", "4"): (
        "0 0.126 p1*p2*(1-p3)\n3 0.27 p1*(1-p2)\n4 0.1 1-p1\n5 0.504 p1*p2*p3\n"
    ),
    ("chain", "matrix", "5"): (
        "from,to,prob\n0,0,0.1\n0,1,0.9\n1,0,0.27\n1,1,0.1\n1,2,0.63\n2,0,0.27\n2,2,0.1\n"
        "2,3,0.63\n3,3,0.1\n3,4,0.9\n4,0,0.126\n4,3,0.27\n4,4,0.1\n4,5,0.504\n5,5,0.1\n"
        "5,6,0.9\n6,5,0.27\n6,6,0.1\n6,7,0.63\n7,0,0.126\n7,5,0.27\n7,7,0.1\n7,8,0.504\n"
        "8,8,0.1\n8,9,0.9\n9,8,0.27\n9,9,0.1\n9,10,0.63\n10,8,0.27\n10,10,0.1\n10,11,0.63\n"
        "11,11,0.1\n11,12,0.9\n12,0,0.2016\n12,8,0.126\n12,11,0.27\n12,12,0.1\n"
        "# leak from state 12: 0.3024\n"
    ),
    ("chain", "stationary", "12"): (
        "level 12\npartial_sum 99.715692\nunsummable false\nresidual 5.55111512313e-17\n"
    ),
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_CLI))
def test_golden_cli_text(capsys, tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    assert main([*argv, "--config", str(cfg)]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (GOLDEN_CLI[argv], "")
