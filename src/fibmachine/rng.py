"""Seedable deterministic 64-bit generator (splitmix-style).

One small, documented generator keeps simulations reproducible across
platforms: the state walks a fixed odd increment and each output is a
finalizing bit mix of it, written once in next_u64.  random() maps the top
53 bits of a next_u64 draw to [0, 1).

The generator is counter-based: draw k from state s mixes s + k*increment
(mod 2^64).  random_block uses that to compute a run of random() draws with
a handful of wrapping uint64 array operations; simulate draws through it.
"""

from __future__ import annotations

import numpy as np

from .errors import integer

MASK64 = (1 << 64) - 1
_INCREMENT = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    def __init__(self, seed: int):
        """Start from `seed`, any integer (numpy's too), masked to 64 bits; a bool is refused."""
        self._state = integer(seed, "seed") & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _INCREMENT) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1): the top 53 bits of next_u64."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_block(self, n: int) -> np.ndarray:
        """The next n random() draws as a float64 array, bit for bit.

        The state is left where n calls of random() would leave it.  numpy's
        uint64 array arithmetic wraps modulo 2^64, as the masks above do.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= np.uint64(_INCREMENT)
        z += np.uint64(self._state)
        self._state = (self._state + n * _INCREMENT) & MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        return z.astype(np.float64) * 2.0**-53
