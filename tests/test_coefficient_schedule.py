"""One coefficient schedule and one block rule for the chain weights and the q values.

r_index is the only formula for the index of a level's coefficient, and
chain._block_products the only loop of the block rule f(F_m + k) = f(F_m) f(k).
The weights built on them (xi, beta, the stationary measure and the two
chain residuals) and q_values_upto must give the floats of the code they
replace, oracles.old_*, whose index formulas were derived by hand.  They
read p_i from the descriptor's coefficient table, which asks p_1 up to the
highest index the old code asked, each once and in ascending order.  The
stationary measure and the residuals are compared with the package's own
functions run on the old helpers.
"""

import math
import random

import numpy as np
import pytest

from fibmachine import (
    ConstantTail,
    GeometricDecay,
    PowerLawComplement,
    beta,
    beta_eigen_residual,
    chain,
    construct_positive_recurrent,
    geometric_budget,
    q_values_upto,
    stationarity_residual,
    stationary_measure,
    xi,
)
from fibmachine.numeration import FIB64, fib_bits_of_int
from oracles import (
    Recording,
    old_beta,
    old_pi_block,
    old_q_values_upto,
    old_xi,
    old_xi_array,
)

LEVELS = range(1, 21)


def sequences():
    """Fresh descriptors of the four families; a ConstructedSeq grows as it is asked."""
    return {
        "constant": ConstantTail((0.9, 0.75), 0.6),
        "power_law": PowerLawComplement(0.5, 2.0),
        "geometric": GeometricDecay(0.9, 0.8),
        "constructed": construct_positive_recurrent(0.7, 0.4, geometric_budget(0.4), 3),
    }


def outcome(call, p):
    """(hex floats or the error, the indices asked of p in order) of call(recorded p)."""
    recorded = Recording(p)
    try:
        got = _hex(call(recorded))
    except Exception as exc:  # an escaped orbit in q_values_upto
        got = (type(exc), str(exc))
    return got, recorded.asked


def assert_same(new, old, *where):
    """Equal floats or errors; new asked p_1 up to the old code's highest index, each once, in order."""
    (got, asked), (want, old_asked) = new, old
    assert got == want, where
    assert asked == list(range(1, max(old_asked, default=0) + 1)), where


def _hex(value):
    if isinstance(value, complex):
        return [value.real.hex(), value.imag.hex()]
    if isinstance(value, (list, tuple)):
        return [_hex(v) for v in value]
    return value.hex()


def _measure(level, p):
    measure = stationary_measure(level, p)
    return [*measure.weights, measure.partial_sum]


@pytest.mark.parametrize("name", sorted(sequences()))
def test_xi_and_beta_are_the_old_ones(name):
    for level in LEVELS:
        top = FIB64[level]
        states = {top - 1, top, top + FIB64[max(level - 2, 0)], *range(0, min(top, 40))}
        for n in sorted(states):
            assert_same(
                outcome(lambda p: xi(n, p), sequences()[name]),
                outcome(lambda p: old_xi(n, p), sequences()[name]),
                name,
                n,
            )
            if n >= 1:
                assert_same(
                    outcome(lambda p: beta(n, p), sequences()[name]),
                    outcome(lambda p: old_beta(n, p), sequences()[name]),
                    name,
                    n,
                )


@pytest.mark.parametrize("name", sorted(sequences()))
def test_chain_weights_and_residuals_are_the_old_ones(name, monkeypatch):
    calls = {
        "stationary_measure": _measure,
        "stationarity_residual": stationarity_residual,
        "beta_eigen_residual": beta_eigen_residual,
        "xi_array": lambda level, p: chain._xi_array(FIB64[level], p),
        "pi_block": lambda level, p: chain._pi_block(level, p),
    }
    for level in LEVELS:
        for what, call in calls.items():
            new = outcome(lambda p: call(level, p), sequences()[name])
            with monkeypatch.context() as old_code:
                # the old list, as the array the package's callers now take
                old_code.setattr(chain, "_xi_array", lambda size, p: np.array(old_xi_array(size, p)))
                old_code.setattr(chain, "_pi_block", old_pi_block)
                old = outcome(lambda p: call(level, p), sequences()[name])
            assert_same(new, old, name, what, level)
            assert new[1] or level == 1, (name, what, level)  # each one asks p for something


@pytest.mark.parametrize("name", sorted(sequences()))
def test_q_values_are_the_old_ones(name):
    escaped = 0
    for level in range(0, 21):
        for lam in (0.9 + 0.05j, 0.3 - 0.2j, 1.0, -1.2 + 0.4j):
            new = outcome(lambda p: q_values_upto(level, lam, p), sequences()[name])
            old = outcome(lambda p: old_q_values_upto(level, lam, p), sequences()[name])
            assert_same(new, old, name, level, lam)
            escaped += isinstance(new[0], tuple)
    assert escaped < 21 * 4


def test_block_products_are_the_block_rule():
    factors = [2.0, 3.0, 5.0, 7.0, 11.0]
    got = chain._block_products(factors, FIB64[4] + 1, 1.0)
    for n, value in enumerate(got):
        digits = [m for m in range(len(factors)) if fib_bits_of_int(n) >> m & 1]
        assert value == math.prod(factors[m] for m in digits), n
    assert chain._block_products([], 1, 1j).tolist() == [1j]


def test_blocks_have_the_bits_of_python_products():
    # complex and float values, overflow, infinities and NaN included, are
    # the products of the loop the block rule replaced; factors past the
    # last block are not read
    rng = random.Random(4100)
    special = [0.0, -0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324]
    for _ in range(200):
        factors = [
            complex(rng.choice(special) if rng.random() < 0.1 else rng.uniform(-3, 3),
                    rng.choice(special) if rng.random() < 0.1 else rng.uniform(-3, 3))
            for _ in range(15)
        ]
        size = rng.randrange(1, FIB64[13])
        for unit, values in ((complex(1.0), factors), (1.0, [f.real for f in factors])):
            want = [unit] * size
            for m, factor in enumerate(values):
                for k in range(FIB64[m], min(size, FIB64[m + 1])):
                    want[k] = factor * want[k - FIB64[m]]
            got = chain._block_products(values, size, unit).tolist()
            assert [type(v) for v in got] == [type(unit)] * size
            assert _hex(got) == _hex(want)
