"""Deterministic RNG used by the trajectory sampler."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fibmachine import SplitMix64
from oracles import old_random

MASK = (1 << 64) - 1


def reference_next(state: int) -> tuple[int, int]:
    """Textbook splitmix64 step, written independently of the library code."""
    state = (state + 0x9E3779B97F4A7C15) & MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return state, z ^ (z >> 31)


def test_known_first_output_for_seed_zero():
    # published first output of splitmix64 at seed 0
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_matches_reference_sequence():
    for seed in (0, 1, 42, 2**63, 0xDEADBEEF):
        rng = SplitMix64(seed)
        state = seed
        for _ in range(200):
            state, expected = reference_next(state)
            assert rng.next_u64() == expected


def test_random_unit_interval():
    rng = SplitMix64(12345)
    values = [rng.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_determinism_and_seed_sensitivity():
    a = [SplitMix64(7).next_u64() for _ in range(5)]
    b = [SplitMix64(7).next_u64() for _ in range(5)]
    c = [SplitMix64(8).next_u64() for _ in range(5)]
    assert a == b
    assert a != c


def test_random_interleaved_with_next_u64_follows_the_reference():
    for seed in (0, 3, 2**64 - 1, 0x9E3779B97F4A7C15):
        rng = SplitMix64(seed)
        state = seed & MASK
        for k in range(300):
            state, z = reference_next(state)
            if k % 3 == 1:
                assert rng.next_u64() == z
            else:
                assert rng.random() == (z >> 11) * 2.0**-53


SEEDS_NEAR_ENDS = st.one_of(
    st.integers(min_value=0, max_value=1 << 16),
    st.integers(min_value=(1 << 64) - (1 << 16), max_value=(1 << 64) - 1),
)


@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS_NEAR_ENDS,
    plan=st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=8),
)
def test_random_block_equals_calls_of_random(seed, plan):
    block = SplitMix64(seed)
    single = SplitMix64(seed)
    for n, then_u64 in plan:
        draws = block.random_block(n)
        assert draws.dtype == np.float64 and draws.shape == (n,)
        assert draws.tolist() == [single.random() for _ in range(n)]
        assert block._state == single._state
        if then_u64:
            assert block.next_u64() == single.next_u64()
    assert block.random() == single.random()


def test_random_block_wraps_past_two_to_the_64():
    # the first draw's state addition wraps, as do the later multiplies
    rng = SplitMix64((1 << 64) - 1)
    state = (1 << 64) - 1
    expected = []
    for _ in range(5):
        state, z = reference_next(state)
        expected.append((z >> 11) * 2.0**-53)
    assert rng.random_block(5).tolist() == expected
    assert rng._state == state


def test_random_is_the_top_53_bits_of_next_u64():
    for seed in (0, 1, 12345, 2**63, 2**64 - 1):
        rng, u64, old = SplitMix64(seed), SplitMix64(seed), SplitMix64(seed)
        for _ in range(1000):
            value = rng.random()
            assert value == (u64.next_u64() >> 11) * 2**-53 == old_random(old)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.one_of(SEEDS_NEAR_ENDS, st.sampled_from([0, 2**63, 2**64 - 1])),
    plan=st.lists(st.tuples(st.integers(0, 20), st.integers(0, 5)), max_size=8),
)
def test_random_equals_the_written_out_step(seed, plan):
    # random() and random_block interleaved, against random() as it was written out
    new, old = SplitMix64(seed), SplitMix64(seed)
    for block, calls in plan:
        assert new.random_block(block).tolist() == old.random_block(block).tolist()
        for _ in range(calls):
            assert new.random() == old_random(old)
        assert new._state == old._state
