"""Deterministic RNG used by the trajectory sampler."""

from fibmachine import SplitMix64

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
