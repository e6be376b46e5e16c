"""The deterministic Fibonacci adding machine (successor N -> N+1).

Two independent routes compute the same map and are cross-checked in tests:

* succ_carry: digit rewriting with an auxiliary carry bit.  The update rules
  use integer-division expressions and have two branches, selected by the
  lowest digit of N, that differ only by a one-digit offset, so one loop
  runs both.  With digit 0 clear the carry walks the even/odd digit pairs
  (eps_2i, eps_2i+1); with digit 0 set the machine first clears it and the
  carry walks the pairs shifted by one.  Once a carry dies every higher
  digit is copied unchanged.

* succ_transducer: a two-state finite transducer that reads the word from the
  least-significant side in blocks of one or two digits, rewrites the carry
  prefix, then copies the rest verbatim.

Both routes start from one shared check, `_checked_bits`: it tests the word's
admissibility once, on the string, and reads its digits into the bits of an
integer (bit k = digit k); only a word long enough to reach UINT64_MAX is
decoded in full for the capacity test.  Both reject inadmissible input, each
with its own error.  Each route rewrites only the digits its carry reaches
and keeps the untouched tail above them as one slice of those bits.  The
transducer still reports one copy edge per tail digit (leading zeros
included); every edge of a run is one of five shared immutable constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CapacityError, InadmissibleWord, NoPath
from .numeration import FIB64, UINT64_MAX, decode, fib_bits

STATE_CARRY = "I"
STATE_COPY = "T"


@dataclass(frozen=True)
class CarryTrace:
    """Carry bits produced while incrementing one word.

    `carries[0]` is the initial carry (always 1).  For the branch taken when
    digit 0 is clear the sequence starts at index -1 (the pre-digit carry);
    for the other branch it starts at index 0.  The final entry is the first
    zero carry, after which all digits are copied unchanged.
    """

    branch: str  # "low_zero" or "low_one"
    carries: tuple[int, ...]
    start_index: int

    @property
    def halted_at(self) -> int:
        """Index of the carry bit that first became 0."""
        return self.start_index + len(self.carries) - 1


class TransducerEdge(NamedTuple):
    src: str
    label_in: str
    label_out: str
    dst: str


# The transducer's five edges; every run is a tuple of these shared constants.
_EDGE_LOW = TransducerEdge(STATE_CARRY, "1", "0", STATE_CARRY)
_EDGE_CARRY = TransducerEdge(STATE_CARRY, "10", "00", STATE_CARRY)
_EDGE_HALT = TransducerEdge(STATE_CARRY, "00", "01", STATE_COPY)
_EDGE_COPY = {ch: TransducerEdge(STATE_COPY, ch, ch, STATE_COPY) for ch in "01"}


def _checked_bits(word: str) -> int | None:
    """Digits of an admissible word with a 64-bit successor, as bits.

    Returns None for an inadmissible word, so that each route raises its own
    error; raises CapacityError when the successor would leave 64 bits.
    """
    bits = fib_bits(word)
    # a value of UINT64_MAX or more needs digit len(FIB64) - 1 or a higher one
    if bits is not None and bits.bit_length() >= len(FIB64) and decode(word) >= UINT64_MAX:
        raise CapacityError("successor would exceed the 64-bit range")
    return bits


def succ_carry(word: str) -> tuple[str, CarryTrace]:
    """Increment an admissible word via the carry rewriting rules."""
    eps = _checked_bits(word)
    if eps is None:
        raise InadmissibleWord(f"word {word!r} is not an admissible Fibonacci word")
    # digit 0 set: the machine clears it and the pairs shift up by one digit
    low = eps & 1
    out = 0  # rewritten digits, as bits
    carries = [1]
    k = low  # pair i is digits (k, k + 1) with k = 2i - low, from i = low
    while carries[-1] == 1:
        c = carries[-1]
        lo, hi = (eps >> k) & 1, (eps >> (k + 1)) & 1
        out |= ((lo + c) // (hi * c + 1)) << k | (hi // (c + 1)) << (k + 1)
        carries.append(c * hi)
        k += 2
    # digits below k were rewritten
    branch = ("low_zero", "low_one")[low]
    return format((eps >> k << k) | out, "b"), CarryTrace(branch, tuple(carries), low - 1)


def succ_transducer(word: str) -> tuple[str, tuple[TransducerEdge, ...]]:
    """Increment an admissible word by running the two-state transducer."""
    eps = _checked_bits(word)
    if eps is None:
        raise NoPath(f"the transducer rejects {word!r}")
    edges: list[TransducerEdge] = []

    i = 0
    if eps & 1:
        edges.append(_EDGE_LOW)
        i = 1
    # the finishing edge may consume zeros above the top digit
    while (eps >> (i + 1)) & 1:  # a 10 block; its low digit is 0 in any admissible word
        edges.append(_EDGE_CARRY)
        i += 2
    edges.append(_EDGE_HALT)
    i += 2
    # the digits from i up are copied, leading zeros included, top digit last
    edges.extend(map(_EDGE_COPY.__getitem__, reversed(word[: max(len(word) - i, 0)])))

    return format((eps >> i << i) | (1 << (i - 2)), "b"), tuple(edges)


def format_path(edges: tuple[TransducerEdge, ...]) -> str:
    """Render a run as (state,in/out,state) tuples, last-consumed block first."""
    return "".join(
        f"({e.dst},{e.label_in}/{e.label_out},{e.src})" for e in reversed(edges)
    )
