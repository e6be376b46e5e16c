"""Probability-sequence descriptors: accessors, tails, JSON round trips."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import (
    ConstantTail,
    GeometricDecay,
    InvalidProbability,
    PowerLawComplement,
    TailUndefined,
    UnsupportedVariant,
    all_ones,
)
from fibmachine.probseq import from_config, to_config


def test_constant_tail_accessor():
    p = ConstantTail((1.0, 0.999, 0.5), 1.0)
    assert p.p(1) == 1.0
    assert p.p(3) == 0.5
    assert p.p(4) == 1.0
    assert p.p(100) == 1.0
    assert p.delta_lower_bound() == 0.5


def test_all_ones():
    p = all_ones()
    assert p.p(1) == p.p(50) == 1.0
    assert p.delta_lower_bound() == 1.0


def test_explicit_without_tail_raises_beyond_prefix():
    p = ConstantTail((0.9, 0.8), None)
    assert p.p(2) == 0.8
    with pytest.raises(TailUndefined):
        p.p(3)
    assert p.delta_lower_bound() == 0.0


def test_explicit_with_tail():
    p = ConstantTail((0.9,), 0.25)
    assert p.p(2) == 0.25
    assert p.delta_lower_bound() == 0.25


def test_validation_rejects_out_of_range():
    with pytest.raises(InvalidProbability):
        ConstantTail((0.0,), 1.0)
    with pytest.raises(InvalidProbability):
        ConstantTail((1.5,), 1.0)
    with pytest.raises(InvalidProbability):
        ConstantTail((), 0.0)
    with pytest.raises(InvalidProbability):
        GeometricDecay(1.0, 1.0)
    with pytest.raises(InvalidProbability):
        PowerLawComplement(-1.0, 2.0)


def test_index_starts_at_one():
    with pytest.raises(ValueError):
        all_ones().p(0)


def test_power_law_complement_values():
    p = PowerLawComplement(0.5, 2.0)
    assert p.p(1) == 0.5
    assert p.p(2) == 1.0 - 0.5 / 4.0
    assert p.delta_lower_bound() == 0.5
    assert all(p.p(i) <= p.p(i + 1) for i in range(1, 50))


def test_geometric_decay_values():
    p = GeometricDecay(1.0, 0.25)
    assert p.p(1) == 0.25
    assert p.p(2) == 0.0625
    assert p.delta_lower_bound() == 0.0
    assert p.p(2000) > 0.0  # clamped above zero, still a probability


def test_config_round_trips():
    cases = [
        ConstantTail((1.0, 0.999, 0.5), 1.0),
        ConstantTail((), 0.5),
        ConstantTail((0.9, 0.8), None),
        ConstantTail((0.9,), 0.25),
        PowerLawComplement(0.5, 2.0),
        GeometricDecay(1.0, 0.25),
    ]
    for p in cases:
        q = from_config(to_config(p))
        assert type(q) is type(p)
        if p.delta_lower_bound() > 0:
            assert [q.p(i) for i in range(1, 21)] == [p.p(i) for i in range(1, 21)]


def test_config_rejects_unknown_variant():
    with pytest.raises(UnsupportedVariant):
        from_config({"variant": "mystery"})
    with pytest.raises(UnsupportedVariant):
        from_config({"prefix": [1.0]})
    with pytest.raises(UnsupportedVariant):
        from_config({"variant": "geometric_decay", "param": 0.5})


def test_config_prefix_must_be_a_list():
    for prefix in ["1", "0.5", "", 0.5, None, {"0": 0.5}]:
        with pytest.raises(ValueError, match="prefix must be a list"):
            from_config({"variant": "constant_tail", "prefix": prefix, "param": 0.5})
    assert from_config({"variant": "explicit", "prefix": [1, 0.5]}) == ConstantTail(
        (1.0, 0.5), None
    )
    assert from_config({"variant": "constant_tail", "param": 0.5}) == ConstantTail((), 0.5)


def test_derived_families_refuse_a_prefix():
    for variant, param in [
        ("power_law_complement", {"c": 0.5, "alpha": 2.0}),
        ("geometric_decay", {"c": 1.0, "rho": 0.9}),
    ]:
        with pytest.raises(ValueError, match=f"{variant} takes no prob_seq prefix"):
            from_config({"variant": variant, "prefix": [0.5], "param": param})
        want = from_config({"variant": variant, "param": param})
        assert from_config({"variant": variant, "prefix": [], "param": param}) == want


@given(
    st.lists(st.floats(min_value=0.01, max_value=1.0), max_size=8),
    st.floats(min_value=0.01, max_value=1.0),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=150)
def test_values_stay_in_unit_interval(prefix, tail, i):
    p = ConstantTail(tuple(prefix), tail)
    assert 0.0 < p.p(i) <= 1.0
    assert 0.0 < p.delta_lower_bound() <= 1.0


# ---------------------------------------------------------------------------
# one descriptor for a prefix with a tail, and refused constructor values

NON_FINITE_OR_NOT_REAL = [True, False, "0.5", math.inf, -math.inf, math.nan, 10**400, 0.5j]


def refuses(make, field):
    for value in NON_FINITE_OR_NOT_REAL:
        with pytest.raises(InvalidProbability) as exc:
            make(value)
        assert str(exc.value) == f"{field} must be a finite real number, got {value!r}"


def test_prefix_entry_must_be_a_finite_real():
    refuses(lambda v: ConstantTail((0.5, v), 0.5), "prefix entry")
    refuses(lambda v: ConstantTail((v,), None), "prefix entry")


def test_tail_value_must_be_a_finite_real():
    refuses(lambda v: ConstantTail((0.5,), v), "tail value")


def test_c_must_be_a_finite_real():
    refuses(lambda v: PowerLawComplement(v, 2.0), "c")
    refuses(lambda v: GeometricDecay(v, 0.5), "c")


def test_alpha_must_be_a_finite_real():
    refuses(lambda v: PowerLawComplement(0.5, v), "alpha")


def test_rho_must_be_a_finite_real():
    refuses(lambda v: GeometricDecay(1.0, v), "rho")


def test_other_real_types_are_kept_as_floats():
    p = PowerLawComplement(np.float64(0.5), 2)
    assert (p.c, p.alpha) == (0.5, 2.0) and type(p.alpha) is float
    g = GeometricDecay(Fraction(1, 2), np.float32(0.25))
    assert (g.c, g.rho) == (0.5, 0.25) and type(g.c) is float
    assert ConstantTail((1, Fraction(1, 4)), 1).prefix == (1.0, 0.25)


PROBS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


@given(
    st.lists(PROBS, max_size=6).map(tuple),
    st.none() | PROBS,
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=300)
def test_prefix_with_tail_property(prefix, tail, i):
    p = ConstantTail(prefix, tail)
    doc = to_config(p)
    assert doc["variant"] == ("explicit" if tail is None else "constant_tail")
    assert from_config(doc) == p
    if i <= len(prefix):
        assert p.p(i) == prefix[i - 1]
    elif tail is None:
        with pytest.raises(TailUndefined) as exc:
            p.p(i)
        assert str(exc.value) == f"p_{i} requested but only {len(prefix)} values given"
    else:
        assert p.p(i) == tail
    both = [
        {"variant": variant, "prefix": list(prefix), "param": tail}
        for variant in ("explicit", "constant_tail")
    ]
    if tail is None:
        assert [from_config(d).tail for d in both] == [None, 1.0]
    else:
        assert from_config(both[0]) == from_config(both[1]) == p
