"""One coefficient table per descriptor: each p_i is asked once, in ascending order.

chain.Coefficients keeps p_1, p_2, ... on the descriptor, and every walk of
chain and spectrum reads its coefficients from there.  Whatever public calls
run on one descriptor, in whatever order, the descriptor is asked for p_1 up
to the deepest index any of them needed, each once and in ascending order,
and every call gives what it gives on a fresh descriptor: the same floats
bit for bit, or the same error.  An index whose request raises is not kept,
so each call asks it again and raises a fresh error, whose traceback does
not grow from call to call.
"""

import dataclasses
import sys
import threading
import traceback

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    ConstantTail,
    EscapeConfig,
    PowerLawComplement,
    ProbSeq,
    beta_eigen_residual,
    escape_levels,
    in_E,
    in_point_spectrum,
    q_fib_orbit,
    simulate,
    stationary_measure,
)
from fibmachine.chain import coefficients, r_index
from fibmachine.spectrum import eigen_residual
from oracles import Recording


class RaisesFrom(ProbSeq):
    """`inner` up to index `index`, where every request raises a new RuntimeError."""

    def __init__(self, inner, index):
        self.inner, self.index = inner, index

    def p(self, i):
        if i >= self.index:
            raise RuntimeError(f"p_{i} is out of reach")
        return self.inner.p(i)

    def delta_lower_bound(self):
        return self.inner.delta_lower_bound()


#: The inner descriptors: two with tails, two without, one that raises mid-walk.
INNER = {
    "power_law": lambda: PowerLawComplement(0.5, 2.0),
    "constant": lambda: ConstantTail((1.0,), 0.5),
    "bare": lambda: ConstantTail((0.9, 0.8, 0.7), None),
    "empty": lambda: ConstantTail((), None),
    "raises": lambda: RaisesFrom(ConstantTail((0.95,), 0.9), 6),
}

CFG = EscapeConfig(radius=4.0, max_level=17)

LAMBDA = st.builds(
    complex,
    st.floats(min_value=-2.5, max_value=2.5),
    st.floats(min_value=-2.5, max_value=2.5),
)


def _grid(corner):
    return corner + np.add.outer(np.linspace(0.0, 1.0, 4) * 1j, np.linspace(0.0, 1.0, 4))


CALL = st.one_of(
    st.tuples(st.just("in_E"), LAMBDA),
    st.tuples(st.just("in_point_spectrum"), LAMBDA, st.sampled_from([1.5, 1e6])),
    st.tuples(st.just("eigen_residual"), LAMBDA, st.integers(1, 8)),
    st.tuples(st.just("q_fib_orbit"), LAMBDA, st.integers(0, 30)),
    st.tuples(st.just("simulate"), st.integers(0, 40), st.integers(1, 300), st.integers(0, 99)),
    st.tuples(st.just("beta_eigen_residual"), st.integers(1, 12)),
    st.tuples(st.just("stationary_measure"), st.integers(1, 12)),
    st.tuples(st.just("escape_levels"), LAMBDA),
)


def perform(call, p):
    """The public call `call` names, on p."""
    name, *args = call
    if name == "in_E":
        return in_E(args[0], p, CFG)
    if name == "in_point_spectrum":
        return in_point_spectrum(args[0], p, CFG, args[1])
    if name == "eigen_residual":
        return eigen_residual(args[0], p, args[1])
    if name == "q_fib_orbit":
        return q_fib_orbit(args[0], p, args[1])
    if name == "simulate":
        return simulate(args[0], args[1], p, args[2])
    if name == "beta_eigen_residual":
        return beta_eigen_residual(args[0], p)
    if name == "stationary_measure":
        return stationary_measure(args[0], p)
    return escape_levels(_grid(args[0]), p, CFG)


def run(call, p):
    """The call on p: its result with every float as its bits, or the error's type and text."""
    try:
        return "ok", bits(perform(call, p))
    except Exception as exc:
        return type(exc), str(exc)


def bits(value):
    if type(value) is float:
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if dataclasses.is_dataclass(value):
        return [bits(getattr(value, field.name)) for field in dataclasses.fields(value)]
    if isinstance(value, dict):
        return sorted((k, bits(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [bits(v) for v in value]
    return value


def assert_asked_once(recorded):
    """p_1..p_k once each, in order, k the indices kept; after them only requests that raised."""
    kept = len(coefficients(recorded).values)
    assert recorded.asked[:kept] == list(range(1, kept + 1))
    assert all(i > kept for i in recorded.asked[kept:])


@settings(max_examples=150, deadline=None)
@given(inner=st.sampled_from(sorted(INNER)), calls=st.lists(CALL, min_size=1, max_size=8))
def test_any_sequence_of_calls_asks_each_index_once(inner, calls):
    shared = Recording(INNER[inner]())
    for call in calls:
        got = run(call, shared)
        assert got == run(call, Recording(INNER[inner]())), call
        assert_asked_once(shared)
    if inner in ("power_law", "constant"):  # nothing raises: every request was kept
        assert shared.asked == list(range(1, len(shared.asked) + 1))


def test_a_request_that_raises_is_asked_again_with_a_fresh_error():
    for inner, call in [
        ("raises", ("in_E", 0.3 + 0.1j)),
        ("raises", ("in_point_spectrum", 0.3 + 0.1j, 1e6)),
        ("raises", ("q_fib_orbit", 0.3 + 0.1j, 17)),
        ("raises", ("stationary_measure", 12)),
        ("bare", ("escape_levels", -0.5 - 0.5j)),
        ("empty", ("simulate", 0, 50, 7)),
    ]:
        p = Recording(INNER[inner]())
        errors = []
        for _ in range(3):
            try:
                perform(call, p)
            except Exception as exc:
                errors.append(exc)
        assert len(errors) == 3, (inner, call)
        assert len({id(exc) for exc in errors}) == 3
        assert len({(type(exc), str(exc)) for exc in errors}) == 1
        lengths = [len(traceback.extract_tb(exc.__traceback__)) for exc in errors]
        assert lengths[0] == lengths[2], (inner, call, lengths)
        # the index that raised is asked once a call, the ones before it once in all
        kept = len(coefficients(p).values)
        assert p.asked == [*range(1, kept + 1), kept + 1, kept + 1, kept + 1], (inner, call)



def test_threads_growing_one_table_ask_each_index_once():
    # more threads than cores, switching often: a lost update or a request
    # made twice would show in the requests, the values or the level list
    inner = PowerLawComplement(0.5, 2.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            p = Recording(inner)
            table = coefficients(p)
            threads = [
                threading.Thread(target=lambda k=k: [table.level(p, n) for n in range(k, 300, 7)])
                for k in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            top = r_index(299)
            assert p.asked == list(range(1, top + 1))
            assert table.values == [inner.p(i) for i in range(1, top + 1)]
            assert table.levels == [inner.p(r_index(n) if n else 1) for n in range(len(table.levels))]
            assert len(table.levels) >= 300
    finally:
        sys.setswitchinterval(interval)
