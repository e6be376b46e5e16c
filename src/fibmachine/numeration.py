"""Greedy numeration in Fibonacci-like linear-recurrence bases.

The default base is the Fibonacci one: F_0 = 1, F_1 = 2, F_n = F_{n-1} + F_{n-2}.
Every natural number has a unique greedy (Zeckendorf) expansion whose digit
word never contains two adjacent ones.  An order-d base with coefficients
a_1 >= a_2 >= ... >= a_d >= 1 works the same way, with admissibility meaning
that every length-d digit window reads lexicographically below a_1...a_d.

Words cross the API boundary as most-significant-first strings ("10101").
In the Fibonacci base an admissible string word is read once into an integer
whose bit k is digit k (`fib_bits`); `encode`, `decode` and both successor
routes of the odometer work on those bits and FIB64 directly.  Other bases,
digit sequences in any base, and Fibonacci strings that `fib_bits` refuses go
through the generic path, where digits live least-significant-first so that
carry propagation can index from digit 0 upward; its scale table is computed
once per base.  There `decode` tests admissibility first, with the one window
test of `is_admissible`, and the value second.  The empty word encodes 0.
All integer values are checked against an unsigned 64-bit cap.
"""

from __future__ import annotations

import numbers
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

from .errors import CapacityError, InadmissibleWord, integer

UINT64_MAX = 2**64 - 1

Word = Union[str, Sequence[int]]


@dataclass(frozen=True)
class BaseDef:
    """An order-d numeration base with coefficient block a_1..a_d."""

    coeffs: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if any(isinstance(x, bool) or not isinstance(x, numbers.Integral) for x in self.coeffs):
            raise ValueError(f"base coeffs must be integers, got {self.coeffs!r}")
        c = tuple(int(x) for x in self.coeffs)
        object.__setattr__(self, "coeffs", c)
        if len(c) < 2:
            raise ValueError("base degree must be at least 2")
        if c[-1] < 1:
            raise ValueError("base coefficients must be positive")
        if any(c[i] < c[i + 1] for i in range(len(c) - 1)):
            raise ValueError("base coefficients must be non-increasing")
        if c[0] > 9:
            raise ValueError("leading coefficient above 9 would need multi-character digits")

    @property
    def degree(self) -> int:
        return len(self.coeffs)


FIBONACCI = BaseDef((1, 1), name="fibonacci")


def base_sequence(base: BaseDef, count: int) -> list[int]:
    """First `count` scale values F_0..F_{count-1} of the base, 64-bit checked."""
    values = _scale_table(base)
    if integer(count, "count", 1) > len(values):
        raise CapacityError(f"scale value F_{len(values)} exceeds the 64-bit range")
    return list(values[:count])


@lru_cache(maxsize=16)
def _scale_table(base: BaseDef) -> tuple[int, ...]:
    """Every scale value of the base that fits in 64 bits (cached per base)."""
    a, d = base.coeffs, base.degree
    values = [1]
    while True:
        n = len(values)
        # below the recurrence depth the defining sum carries a trailing +1
        v = sum(a[j - 1] * values[n - j] for j in range(1, min(n, d) + 1)) + (n < d)
        if v > UINT64_MAX:
            return tuple(values)
        values.append(v)


def _values_upto(base: BaseDef, n: int) -> list[int]:
    """All scale values <= n (at least F_0), without tripping the 64-bit check."""
    values = _scale_table(base)
    hi = bisect_right(values, n)
    return list(values[:hi]) if hi else [1]


def digits_lsb(word: str) -> tuple[int, ...]:
    """Parse an MSB-first display word into the internal LSB-first digit tuple."""
    try:
        raw = word.encode("ascii")
    except UnicodeEncodeError:
        raise InadmissibleWord(f"word {word!r} contains a non-digit character") from None
    if raw and not raw.isdigit():
        raise InadmissibleWord(f"word {word!r} contains a non-digit character")
    return tuple(b - 48 for b in reversed(raw))


def word_from_lsb(digits: Sequence[int]) -> str:
    """Render LSB-first digits as the canonical MSB-first word (no leading zeros)."""
    top = len(digits)
    while top > 0 and digits[top - 1] == 0:
        top -= 1
    return "".join(map(str, reversed(digits[:top])))


def _as_lsb(word: Word) -> tuple[int, ...]:
    if isinstance(word, str):
        return digits_lsb(word)
    return tuple(int(d) for d in word)


def fib_bits(word: str) -> int | None:
    """Digits of a Fibonacci-admissible string word as bits (bit k = digit k).

    Returns None unless the word is made of ASCII "0"/"1" only and has no two
    adjacent ones.  Leading zeros are harmless; the empty word gives 0.
    """
    if not word:
        return 0
    if not (word.isascii() and word.isdigit()):
        return None
    try:
        bits = int(word, 2)
    except ValueError:  # a digit from 2 to 9
        return None
    return None if bits & (bits >> 1) else bits


def is_admissible(word: Word, base: BaseDef = FIBONACCI) -> bool:
    """True iff every digit window reads lexicographically below a_1..a_d.

    Accepts either an MSB-first string or an LSB-first digit sequence.  Windows
    that extend below digit 0 are padded with zeros, which also enforces the
    per-digit bound on short words.  Leading zeros are harmless.
    """
    try:
        eps = _as_lsb(word)
    except InadmissibleWord:
        return False
    if any(e < 0 for e in eps):
        return False
    # the window at digit i reads eps[i], eps[i-1], ..: d MSB-first digits, zipped from shifts
    a, d = base.coeffs, base.degree
    msb = eps[::-1] + (0,) * (d - 1)
    return all(window < a for window in zip(*[msb[k:] for k in range(d)]))


def _check_encodable(n: int) -> int:
    """`n` as an int in the 64-bit range; a bool or a non-integer is refused by `integer`."""
    if type(n) is not int:  # the exact-int case skips the call
        n = integer(n, "n")
    if n < 0:
        raise ValueError("cannot encode a negative integer")
    if n > UINT64_MAX:
        raise CapacityError(f"{n} exceeds the 64-bit range")
    return n


def digits_of_int(n: int, base: BaseDef = FIBONACCI) -> tuple[int, ...]:
    """Greedy LSB-first digits of n (empty tuple for 0)."""
    n = _check_encodable(n)
    if n == 0:
        return ()
    values = _values_upto(base, n)
    eps = [0] * len(values)
    r = n
    for k in range(len(values) - 1, -1, -1):
        if values[k] <= r:
            eps[k] = r // values[k]
            r -= eps[k] * values[k]
    return tuple(eps)


def fib_bits_of_int(n: int) -> int:
    """Greedy Fibonacci digits of n as the bits of one integer (bit k = digit k)."""
    n = _check_encodable(n)
    # take the largest F_k <= n, one bit per digit taken, until the rest is small
    fib = FIB64
    bits = 0
    k = len(fib)
    while n >= _LOW_LIMIT:
        k = bisect_right(fib, n, 0, k) - 1
        bits |= 1 << k
        n -= fib[k]
    return bits | _LOW_BITS[n]


def encode(n: int, base: BaseDef = FIBONACCI) -> str:
    """Greedy expansion of n as an MSB-first word ("" encodes 0)."""
    if base.coeffs != (1, 1):
        return word_from_lsb(digits_of_int(n, base))
    bits = fib_bits_of_int(n)
    return format(bits, "b") if bits else ""


def _fib_value(bits: int) -> int:
    if bits.bit_length() > len(FIB64):
        raise CapacityError("decoded value exceeds the 64-bit range")
    total = 0
    for sums in _FIB_BYTE_SUMS:
        if not bits:
            break
        total += sums[bits & 0xFF]
        bits >>= 8
    if total > UINT64_MAX:
        raise CapacityError("decoded value exceeds the 64-bit range")
    return total


def decode(word: Word, base: BaseDef = FIBONACCI) -> int:
    """Value of an admissible word; inverse of encode on canonical words."""
    if base.coeffs == (1, 1) and isinstance(word, str):
        bits = fib_bits(word)
        if bits is not None:
            return _fib_value(bits)
    eps = _as_lsb(word)
    if not is_admissible(eps, base):
        raise InadmissibleWord(f"word {word!r} is not admissible in this base")
    top = len(eps)
    while top > 0 and eps[top - 1] == 0:
        top -= 1
    values = _scale_table(base)
    if top > len(values):
        raise CapacityError("decoded value exceeds the 64-bit range")
    total = sum(e * v for e, v in zip(eps, values))  # digits above top are 0
    if total > UINT64_MAX:
        raise CapacityError("decoded value exceeds the 64-bit range")
    return total


#: Every Fibonacci-base scale value that fits in 64 bits (F_0..F_91).
FIB64 = _scale_table(FIBONACCI)


def _fib_low_bits(m: int) -> tuple[int, ...]:
    """Greedy bits of 0..F_m - 1 in value order: the words of at most m digits."""
    shorter, words = [0], [0, 1]  # words of at most 0 and at most 1 digits
    for j in range(1, m):
        # a word with top digit j has digit j-1 clear below it
        shorter, words = words, words + [(1 << j) | w for w in shorter]
    return tuple(words)


_LOW_BITS = _fib_low_bits(12)
_LOW_LIMIT = len(_LOW_BITS)  # F_12


def _fib_byte_sums() -> tuple[tuple[int, ...], ...]:
    """Row j, entry b: the value of byte b placed at digits 8j..8j+7."""
    fib = FIB64 + (0,) * 8  # digits past F_91 never reach a row lookup
    rows = []
    for j in range(0, len(FIB64), 8):
        row = [0] * 256
        for b in range(1, 256):
            low = b & -b
            row[b] = row[b ^ low] + fib[j + low.bit_length() - 1]
        rows.append(tuple(row))
    return tuple(rows)


_FIB_BYTE_SUMS = _fib_byte_sums()
