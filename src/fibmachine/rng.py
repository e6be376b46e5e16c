"""Seedable deterministic 64-bit generator (splitmix-style).

One small, documented generator keeps simulations reproducible across
platforms: the state walks a fixed odd increment and each output is a
finalizing bit mix of it.  random() maps the top 53 bits to [0, 1).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits.

        The step of next_u64 is written out here, because this is the
        sampler's hot call: it saves a method call and a second read of the
        state.  The outputs are next_u64's, bit for bit.
        """
        z = self._state = (self._state + _INCREMENT) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53
