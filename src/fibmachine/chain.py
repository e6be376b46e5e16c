"""The stochastic Fibonacci adding machine as a Markov chain on the naturals.

From state N the machine tries to increment: the first carry rung succeeds
with probability p_1, the next with p_2, and so on; the first failure freezes
the partially rewritten word.  Walking the digit ladder of N yields the exact
transition row analytically: a self-loop, a fallback target for each rung that
can fail mid-way, and the full increment when every rung succeeds.

The loops over every state below F_L (the truncated matrix, the stationarity
and beta residuals, and the spectral residual) work ROW_CHUNK states at a
time as numpy arrays.  The Zeckendorf bits follow the block rule
bits(F_m + k) = bits(k) | 1<<m, and a ladder has one shape: the number t of
trailing zero digits of the next state fixes its rungs, so a row's targets
and probabilities, and a target's inflow, come from small per-t tables.
Each sum over a row or over a target's inflow is math.fsum's sum of the
same products, so the results are those of the per-row walk bit for
bit: _fsum_rows sums a chunk's rows at once by error-free TwoSum sweeps and
leaves to math.fsum only the rows whose rounding it cannot certify.  The
truncated matrix keeps its rows as arrays, targets and probabilities in
compressed-row form, and builds a row's Distribution only when asked.
Simulation draws its uniforms in blocks and keeps the rows of recently
visited states in a bounded per-call cache.  Every p_i, and every row's
probabilities, come from the one Coefficients table kept on each
descriptor, which asks it for each index once, in ascending order; the
walks here and in spectrum index its lists.

Also here: the transience/recurrence classification of a descriptor, the
block-constant eigenvector weights (beta), the stationary weights (xi), and
the budget-driven construction of a positive-recurrent sequence.
"""

from __future__ import annotations

import bisect
import enum
import math
import threading
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    CapacityError,
    InvalidBudget,
    UnsupportedVariant,
    integer,
    real,
    within,
)
from .numeration import FIB64, UINT64_MAX, digits_of_int, fib_bits_of_int
from .probseq import ConstantTail, GeometricDecay, PowerLawComplement, ProbSeq, _check_prob
from .rng import SplitMix64

#: Largest truncation size (number of states) any dense-ish loop will accept.
MATRIX_BUDGET = 1 << 22

#: Largest number of steps `simulate` will take.
STEP_BUDGET = 10**8

#: Uniforms `simulate` draws at a time.
DRAW_CHUNK = 4096

#: States whose rows `simulate` keeps at once; a transient walk rarely
#: revisits a state, so the cache is cleared when it reaches this size.
ROW_CACHE = 4096

#: phi^2 where phi is the golden ratio; scale values grow like phi^(2i) over
#: two index steps, which drives the weighted-series ratio test below.
PHI_SQUARED = (3.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# the coefficient table


#: Held while a table grows: bands of one scan share a descriptor across threads.
_GROWING = threading.RLock()


class Coefficients:
    """p_1, p_2, ... of one descriptor, each asked of it once, in ascending index.

    values[i - 1] is p_i, levels[n] the coefficient of level n (p_1 at level
    0, then p_(r_index(n))) and rows[K] the transition row of ladder depth K.
    The lists only grow, under a lock; walks index them, and call `at`,
    `level` or `row` past their end.  A request that raises is not kept, so
    the next one raises afresh; past it, the index needed is asked alone.
    """

    __slots__ = ("values", "levels", "rows", "full", "fall")

    def __init__(self) -> None:
        self.values: list[float] = []
        self.levels: list[float] = []
        self.rows: list[tuple[float, ...]] = [()]
        self.full = [1.0]
        self.fall = [0.0]  # no rung 0

    def at(self, p: ProbSeq, i: int) -> float:
        """p_i, asking `p` first for each index up to i not asked yet."""
        values = self.values
        if i <= len(values):
            return values[i - 1]
        with _GROWING:
            try:
                while len(values) < i:
                    values.append(p.p(len(values) + 1))
            except Exception:
                if len(values) + 1 == i:
                    raise
                return p.p(i)
            finally:
                levels = self.levels
                while (k := r_index(len(levels)) if levels else 1) <= len(values):
                    levels.append(values[k - 1])
        return values[i - 1]

    def level(self, p: ProbSeq, n: int) -> float:
        """The coefficient of level n: p_1 at level 0, p_(r_index(n)) after."""
        levels = self.levels
        return levels[n] if n < len(levels) else self.at(p, r_index(n) if n else 1)

    def row(self, p: ProbSeq, depth: int) -> tuple[float, ...]:
        """(fall[K], ..., fall[1], full[K]) at depth K, lined up with `_ladder`'s targets.

        full[k] = p_1*...*p_k from 1.0, fall[k] = full[k-1] * (1 - p_k): ProbFactor.value's floats.
        """
        rows = self.rows
        if depth < len(rows):
            return rows[depth]
        with _GROWING:
            full, fall = self.full, self.fall
            while len(rows) <= depth:
                pk = self.at(p, len(rows))
                fall.append(full[-1] * (1.0 - pk))
                full.append(full[-1] * pk)
                rows.append((*fall[:0:-1], full[-1]))
        return rows[depth]


def coefficients(p: ProbSeq) -> Coefficients:
    """The coefficient table of `p`, made on first use and kept on `p`: it lives as long as `p`."""
    try:
        return p.__dict__["_coefficients"]
    except KeyError:
        return p.__dict__.setdefault("_coefficients", Coefficients())


# ---------------------------------------------------------------------------
# transition structure


@dataclass(frozen=True)
class ProbFactor:
    """A probability of the form p_1 * ... * p_hops * (1 - p_fail).

    hops counts leading success factors; fail is the index of a trailing
    complement factor or None for the pure-success product.
    """

    hops: int
    fail: int | None = None

    def value(self, p: ProbSeq) -> float:
        at = coefficients(p).at
        v = 1.0
        for k in range(1, self.hops + 1):
            v *= at(p, k)
        if self.fail is not None:
            v *= 1.0 - at(p, self.fail)
        return v

    def text(self) -> str:
        parts = [f"p{k}" for k in range(1, self.hops + 1)]
        if self.fail is not None:
            if not parts:
                return f"1-p{self.fail}"
            parts.append(f"(1-p{self.fail})")
        return "*".join(parts) if parts else "1"


def _state_bits(state: int) -> int:
    """Zeckendorf bits of a state whose row is asked for directly."""
    if integer(state, "state") < 0:
        raise ValueError("states are nonnegative integers")
    # `_ladder` refuses a state from UINT64_MAX up before it reads the bits
    return fib_bits_of_int(state) if state < UINT64_MAX else 0


def _ladder(state: int, bits: int) -> tuple[list[int], list[int]]:
    """The row of `state` walked once: its targets ascending, and their bits.

    `bits` holds the Zeckendorf digits of `state` (bit k = digit k).  The carry
    ladder climbs every other digit, from digit 0 when it is set and from digit
    1 otherwise, and the increment propagates past every set rung.  With K the
    number of rungs that can fail, targets[j] for j < K is `state` with its
    lowest K-1-j set ladder digits cleared, reached when rung K-j fails; it
    has probability p_1...p_(K-j-1) * (1 - p_(K-j)).  targets[K] = state + 1 is
    the completed increment, with probability p_1...p_K.  The second list
    gives each target's bits, so a walk along the chain never re-encodes.
    """
    if state >= UINT64_MAX:
        raise CapacityError("the incremented state would exceed the 64-bit range")
    k = (bits & 1) ^ 1
    targets = [state + 1, state]
    target_bits = [bits]
    while bits >> k & 1:
        state -= FIB64[k]
        k += 2
        targets.append(state)
        target_bits.append(bits >> k << k)
    targets.reverse()
    target_bits.reverse()
    # the set rungs below digit k sum to F_(k-1) - 1, so N + 1 sets digit k-1
    target_bits.append(bits >> k << k | 1 << (k - 1))
    return targets, target_bits


#: Rows of the bulk ladder table handled together, so that no padded array
#: or list built from the table spans more states than this.
ROW_CHUNK = 2048

#: _RUNG_SUMS[k0][m] = F_k0 + F_(k0+2) + ... (m terms): m rungs from digit k0.
_RUNG_SUMS = tuple(tuple(accumulate(FIB64[k0::2], initial=0)) for k0 in (0, 1))


def _trailing_zeros(start: int, stop: int) -> np.ndarray:
    """t(i), the number of trailing zero digits of i's Zeckendorf word, for 1 <= start <= i < stop.

    The ladder's one shape: state i's increment clears its c rungs from digit
    k0 and sets digit k0 + 2c - 1, so t(i + 1) = 2c + k0 - 1 gives c and k0.
    The Zeckendorf bits of 0..stop-1 come by bits(F_m + k) = bits(k) | 1<<m.
    """
    bits = np.zeros(stop, dtype=np.int64)
    m = 0
    while FIB64[m] < stop:
        lo = FIB64[m]
        count = min(FIB64[m + 1], stop) - lo
        np.bitwise_or(bits[:count], 1 << m, out=bits[lo : lo + count])
        m += 1
    bits = bits[start:]
    return np.bitwise_count((bits & -bits) - 1)


def _ladder_chunks(
    start: int, stop: int, p: ProbSeq
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The rows of every state in [start, stop), as arrays of ROW_CHUNK rows.

    Yields (states, depths, targets, probs): _ladder_rows' chunks with
    probs[r] the row of depth depths[r] in `p`'s table, padded with 0.0 as
    targets is with negative states, so target state - _RUNG_SUMS[k0][m] has
    probability fall[m + 1] and state + 1 has full[c + 1].  The table grows
    to the deepest row in range before the first chunk, so an error comes
    as from a row-by-row walk, and an empty range asks for nothing.
    """
    if stop <= start:
        return
    deepest, chunks = _ladder_rows(start, stop)
    probs = _depth_probs(p, deepest)
    for states, depths, targets in chunks:
        yield states, depths, targets, np.take(probs[:, : targets.shape[1]], depths, axis=0)


def _ladder_rows(
    start: int, stop: int
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """The deepest row in [start, stop) (start < stop) and the rows' chunks, without probabilities.

    A chunk is (states, depths, targets) for ROW_CHUNK rows.  Row r has
    depths[r] + 1 entries: targets[r] ascends as `_ladder`'s targets do, and
    columns past the row's entries hold a negative target.  A row's shape is
    t = t(state + 1) alone: its ladder climbs c = (t + 1) // 2 rungs from
    digit k0 = (t + 1) % 2, the depth is c + 1, and the targets are
    state - _RUNG_SUMS[k0][m] (m = c..0), then state + 1.
    """
    shapes = _trailing_zeros(start + 1, stop + 1)
    top = int(shapes.max())
    deepest = (top + 1) // 2 + 1
    # row t of `offsets` lays out the row of shape t
    offsets = np.full((top + 1, deepest + 1), -stop, dtype=np.int64)
    for t in range(top + 1):
        c, k0 = divmod(t + 1, 2)
        offsets[t, : c + 2] = [*(-s for s in _RUNG_SUMS[k0][c::-1]), 1]

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        for lo in range(0, stop - start, ROW_CHUNK):
            hi = min(lo + ROW_CHUNK, stop - start)
            chunk_shapes = shapes[lo:hi].astype(np.intp)
            chunk_depths = (chunk_shapes + 1) // 2 + 1
            states = np.arange(start + lo, start + hi, dtype=np.int64)
            targets = np.take(offsets[:, : int(chunk_depths.max()) + 1], chunk_shapes, axis=0)
            targets += states[:, None]
            yield states, chunk_depths, targets

    return deepest, chunks()


def _depth_probs(p: ProbSeq, deepest: int) -> np.ndarray:
    """Row d holds `p`'s depth-d row padded with 0.0, d up to `deepest`; asks for that row first."""
    row = coefficients(p).row
    row(p, deepest)
    probs = np.zeros((deepest + 1, deepest + 1))
    for d in range(1, deepest + 1):
        probs[d, : d + 1] = row(p, d)
    return probs


def _fsum_rows(terms: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """math.fsum(terms[r][keep[r]].tolist()) for every row r, bit for bit; reads nothing else.

    Two error-free sweeps over all rows at once, each a tree of TwoSums (the terms, then
    their errors), as in SumK (K = 2) of Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26(6),
    2005, leave each row's exact sum in a top term and errors.  With at most one error not
    0.0, one IEEE addition rounds it as fsum does; else the top term is fsum's if the errors'
    absolute sum times 2 + 2**-39 (2, and room for rounding) is below the smaller gap around it
    (Rump, Ogita and Oishi, ibid. 31(2), 2008; rows of under 2**12 terms).  Other rows, and
    rows with a term from 2**1000 up (no TwoSum overflows), go to math.fsum in row order.
    """
    rows, width = terms.shape
    if not terms.size:
        return np.zeros(rows)
    work = np.zeros((width, rows))  # work[j] holds term j of every row
    np.copyto(work.T, terms, where=keep)
    fallback = ~(np.maximum(work.max(axis=0), -work.min(axis=0)) < 2.0**1000)  # or NaN
    work[:, fallback] = 0.0
    scratch = np.empty((3, width // 2, rows))
    for part in work, work[1:], work[:2]:
        n = len(part)
        while n > 1:  # TwoSum (Knuth, TAOCP 4.2.2) by pairs: fl(a + b) into a, its error into b
            h = n // 2
            a, b = part[:h], part[n - h : n]
            s, back, front = scratch[0, :h], scratch[1, :h], scratch[2, :h]
            np.subtract(np.add(a, b, out=s), a, out=back)
            np.subtract(a, np.subtract(s, back, out=front), out=front)
            np.add(front, np.subtract(b, back, out=b), out=b)
            a[...] = s
            n -= h
    top, errors = work[0], work[1:]
    sums = top + errors.sum(axis=0) + 0.0  # fsum's zero is +0.0
    left = np.flatnonzero(np.count_nonzero(errors, axis=0) > 1)
    rest, size = np.abs(errors[:, left]).sum(axis=0), np.abs(top[left])
    fallback[left] = ~(rest * (2.0 + 2.0**-39) < size - np.nextafter(size, 0.0))
    for r in np.flatnonzero(fallback).tolist():
        sums[r] = math.fsum(terms[r][keep[r]].tolist())
    return sums


def transition_terms(state: int) -> tuple[tuple[int, ProbFactor], ...]:
    """Symbolic transition row of `state`, sorted by target."""
    targets, _ = _ladder(state, _state_bits(state))
    depth = len(targets) - 1
    factors = [ProbFactor(k - 1, k) for k in range(depth, 0, -1)]
    factors.append(ProbFactor(depth, None))
    return tuple(zip(targets, factors))


def _entries(targets: list[int], probs: tuple[float, ...]) -> tuple[tuple[int, float], ...]:
    """(target, probability) pairs of a row, dropping underflowed zeros."""
    if 0.0 in probs:
        return tuple((t, v) for t, v in zip(targets, probs) if v > 0.0)
    return tuple(zip(targets, probs))


def _pick(u: float, probs: tuple[float, ...]) -> int:
    """Index of the entry whose running total first exceeds u.

    When rounding leaves the total at or below u, the last positive entry.
    """
    acc = 0.0
    for j, prob in enumerate(probs):
        acc += prob
        if u < acc:
            return j
    return max(j for j, prob in enumerate(probs) if prob > 0.0)


@dataclass(frozen=True)
class Distribution:
    """One transition row: (target, probability) pairs, positive and sorted."""

    state: int
    entries: tuple[tuple[int, float], ...]

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def total(self) -> float:
        return math.fsum(prob for _, prob in self.entries)

    def sample(self, rng: SplitMix64) -> int:
        return self.entries[_pick(rng.random(), tuple(v for _, v in self.entries))][0]


def transition_dist(state: int, p: ProbSeq) -> Distribution:
    """Numeric transition row of `state` under the descriptor p."""
    targets, _ = _ladder(state, _state_bits(state))
    return Distribution(state, _entries(targets, coefficients(p).row(p, len(targets) - 1)))


@dataclass(frozen=True, eq=False)
class TruncatedMatrix:
    """The square block of the transition operator on states < F_level.

    Only the top state F_level - 1 can leave the block (its completed
    increment lands on F_level); that single leak is recorded explicitly.
    The entries are kept as read-only arrays in compressed-row form: row i
    is targets[indptr[i]:indptr[i + 1]] with the matching probs, targets
    ascending.  `row` builds one row's Distribution.
    """

    level: int
    size: int
    leak_state: int
    leak_prob: float
    indptr: np.ndarray
    targets: np.ndarray
    probs: np.ndarray

    def row(self, i: int) -> Distribution:
        if not 0 <= integer(i, "state") < self.size:
            raise ValueError(f"state {i} is outside the truncation 0..{self.size - 1}")
        lo, hi = self.indptr[i : i + 2].tolist()
        entries = zip(self.targets[lo:hi].tolist(), self.probs[lo:hi].tolist())
        return Distribution(int(i), tuple(entries))


def _truncation_size(level: int, low: int = 1, extra: int = 0) -> int:
    """F_level, for an integer level from `low`, with F_level + `extra` states in budget."""
    if integer(level, "level", low) >= len(FIB64):
        raise ValueError(f"F_{level} is past the 64-bit scale table")
    within(FIB64[level] + extra, MATRIX_BUDGET, "state")
    return FIB64[level]


def transition_matrix(level: int, p: ProbSeq) -> TruncatedMatrix:
    size = _truncation_size(level)
    counts: list[np.ndarray] = [np.zeros(1, dtype=np.int64)]
    targets: list[np.ndarray] = []
    probs: list[np.ndarray] = []
    for _, _, chunk_targets, chunk_probs in _ladder_chunks(0, size, p):
        kept = chunk_probs > 0.0  # drops underflowed zeros and the padding
        counts.append(np.count_nonzero(kept, axis=1))
        targets.append(chunk_targets[kept])
        probs.append(chunk_probs[kept])
    indptr = np.cumsum(np.concatenate(counts))
    all_targets, all_probs = np.concatenate(targets), np.concatenate(probs)
    # only the top state's completed increment lands outside the block; the
    # row ascends, so it is the row's tail
    top = int(indptr[-2])
    end = top + int(np.count_nonzero(all_targets[top:] < size))
    leak = math.fsum(all_probs[end:].tolist())
    indptr[-1] = end
    arrays = (indptr, all_targets[:end], all_probs[:end])
    for array in arrays:
        array.flags.writeable = False
    return TruncatedMatrix(level, size, size - 1, leak, *arrays)


# ---------------------------------------------------------------------------
# simulation


@dataclass(frozen=True)
class SimulationSummary:
    start: int
    steps: int
    final_state: int
    max_state: int
    returns_to_zero: int
    visits: dict[int, int]


def simulate(start: int, steps: int, p: ProbSeq, rng: SplitMix64 | int) -> SimulationSummary:
    """Run `steps` transitions; deterministic for a fixed seed.

    `rng` is a SplitMix64 or the seed of a fresh one.  Each step draws one
    uniform from it and takes the same target as `Distribution.sample` on
    the state's `transition_dist` row would; the walk carries the state's
    bits from step to step.
    The uniforms come in blocks of at most DRAW_CHUNK.  The rows of the
    states visited are kept, with their running totals, in a per-call cache
    of at most ROW_CACHE states, cleared when full; `bisect_right` on a row's
    running totals picks what `_pick` picks.  When a row raises
    CapacityError, `rng` is left after one draw per step taken.
    """
    steps = integer(steps, "steps", 1)
    within(steps, STEP_BUDGET, "step")
    if not isinstance(rng, SplitMix64):
        rng = SplitMix64(rng)
    row = coefficients(p).row
    totals_of: dict[int, tuple[float, ...]] = {}  # running totals by depth
    cache: dict[int, tuple[list[int], list[int], tuple[float, ...], tuple[float, ...]]] = {}
    state = start
    bits = _state_bits(state)
    visits = {state: 1}
    max_state = state
    returns = 0
    for done in range(0, steps, DRAW_CHUNK):
        mark = rng._state
        try:
            for taken, u in enumerate(rng.random_block(min(DRAW_CHUNK, steps - done)).tolist()):
                entry = cache.get(state)
                if entry is None:
                    if len(cache) >= ROW_CACHE:
                        cache.clear()
                    targets, target_bits = _ladder(state, bits)
                    depth = len(targets) - 1
                    probs = row(p, depth)
                    totals = totals_of.get(depth)
                    if totals is None:
                        totals = totals_of[depth] = tuple(accumulate(probs))
                    entry = cache[state] = (targets, target_bits, totals, probs)
                targets, target_bits, totals, probs = entry
                j = bisect.bisect_right(totals, u)
                if j == len(totals):
                    j = _pick(u, probs)
                state = targets[j]
                bits = target_bits[j]
                visits[state] = visits.get(state, 0) + 1
                if state > max_state:
                    max_state = state
                if state == 0:
                    returns += 1
        except CapacityError:
            # the per-step loop drew once for each step taken, and not for this one
            rng._state = mark
            rng.random_block(taken)
            raise
    return SimulationSummary(start, steps, state, max_state, returns, visits)


# ---------------------------------------------------------------------------
# classification


class ChainClass(enum.Enum):
    TRANSIENT = "Transient"
    NULL_RECURRENT = "NullRecurrent"
    POSITIVE_RECURRENT = "PositiveRecurrent"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Classification:
    kind: ChainClass
    reason: str


def classify(p: ProbSeq) -> Classification:
    """Decide transience/recurrence from the descriptor's tail behaviour.

    Transient iff the infinite product of p_i stays positive; otherwise null
    recurrent when the series sum p_i diverges; otherwise positive recurrent
    when the weighted series sum p_i F_{2(i-1)} converges; Unknown in the
    remaining gap, which no implemented criterion decides.
    """
    if isinstance(p, ConstructedSeq):
        return Classification(
            ChainClass.POSITIVE_RECURRENT,
            "budget-driven construction: stationary weight partial sums are "
            "bounded by the summable budget",
        )
    if isinstance(p, ConstantTail):
        tail = p.tail
        if tail is None:
            raise UnsupportedVariant(
                "explicit sequence with no tail rule: convergence is undecidable"
            )
        if tail == 1.0:
            return Classification(
                ChainClass.TRANSIENT,
                "all-ones tail: the infinite product of p_i converges to a positive value",
            )
        return Classification(
            ChainClass.NULL_RECURRENT,
            f"constant tail {tail:g} < 1: the product vanishes while sum p_i diverges",
        )
    if isinstance(p, PowerLawComplement):
        if p.alpha > 1.0:
            return Classification(
                ChainClass.TRANSIENT,
                f"complements c*i^(-{p.alpha:g}) are summable, so the product stays positive",
            )
        return Classification(
            ChainClass.NULL_RECURRENT,
            f"complements c*i^(-{p.alpha:g}) are not summable (product 0) and p_i -> 1 "
            "(sum diverges)",
        )
    if isinstance(p, GeometricDecay):
        if p.rho * PHI_SQUARED < 1.0:
            return Classification(
                ChainClass.POSITIVE_RECURRENT,
                f"ratio test: rho*phi^2 = {p.rho * PHI_SQUARED:.6g} < 1, so "
                "sum p_i F_(2(i-1)) converges",
            )
        return Classification(
            ChainClass.UNKNOWN,
            "product vanishes and sum p_i converges, but the weighted series "
            "sum p_i F_(2(i-1)) diverges; no implemented criterion applies",
        )
    raise UnsupportedVariant(f"cannot classify descriptor {type(p).__name__}")


# ---------------------------------------------------------------------------
# block weights (beta) and stationary weights (xi)


def r_index(n: int, d: int = 2) -> int:
    """The p index of step n >= 1 of an order-d recursion; beta's Pi and xi's digit n use it too."""
    if n < 1:
        raise ValueError("recursion coefficients start at step 1")
    return n // d + n % d + 1


def _block_products(factors: Sequence, size: int, unit: float | complex) -> np.ndarray:
    """f(0..size-1) by f(F_m + k) = f(F_m) f(k), f(0) = unit, f(F_m) = factors[m] for F_m < size.

    One numpy product per block, on float64 for a float unit.  A complex
    unit keeps Python complex numbers in an object array, so each value is
    CPython's own product; complex128 taken part by part was three times
    slower at level 12 (234 values), where eigen_residual builds its rows.
    """
    out = np.full(size, unit, dtype=object if isinstance(unit, complex) else float)
    with np.errstate(over="ignore", invalid="ignore"):
        for m, factor in enumerate(factors[: bisect.bisect_left(FIB64, size)]):
            # the block reads f(0..hi-lo-1), all below F_m, so it never reads itself
            lo, hi = FIB64[m], min(size, FIB64[m + 1])
            np.multiply(out[: hi - lo], factor, out=out[lo:hi])
    return out


def block_index(n: int) -> int:
    """The r with F_r <= n < F_(r+1)."""
    return bisect.bisect_right(FIB64, integer(n, "n", 1)) - 1


def _pi_block(r: int, p: ProbSeq) -> float:
    """Pi_r: Pi_0 = 1, and block step k divides by p_(r_index(k))."""
    level = coefficients(p).level
    v = 1.0
    for k in range(1, r + 1):
        v /= level(p, k)
    return v


def beta(n: int, p: ProbSeq) -> float:
    """Block-constant eigenvector weight: beta(n) = Pi_r on block r."""
    return _pi_block(block_index(n), p)


def xi(n: int, p: ProbSeq) -> float:
    """Stationary weight of state n: product of per-digit factors.

    The factor of digit index 0 is 1; digit index i >= 1 contributes
    p_(r_index(i)).  Multiplicative over the greedy digits.
    """
    level = coefficients(p).level
    v = 1.0
    for i, e in enumerate(digits_of_int(integer(n, "n", 0))):
        if e and i >= 1:
            v *= level(p, i)
    return v


def _xi_array(size: int, p: ProbSeq) -> np.ndarray:
    """xi_0..xi_(size-1) by the block rule, digit m's factor p_(r_index(m)) (1.0 at m = 0)."""
    top = bisect.bisect_left(FIB64, size)  # the levels m with F_m < size
    level = coefficients(p).level
    return _block_products([1.0, *(level(p, m) for m in range(1, top))], size, 1.0)


def beta_eigen_residual(level: int, p: ProbSeq) -> float:
    """Worst deviation of the beta weights from the eigen identity.

    For every checkable row i (1 <= i < F_level - 1, whose full support lies
    inside the truncation) the sum of transition probabilities weighted by the
    target betas must reproduce beta(i).
    """
    size = _truncation_size(level)
    betas = np.zeros(size)
    r = 0
    while r < len(FIB64) and FIB64[r] < size:
        betas[FIB64[r] : FIB64[r + 1]] = _pi_block(r, p)
        r += 1
    worst = 0.0
    for states, _, targets, probs in _ladder_chunks(1, size - 1, p):
        with np.errstate(over="ignore", invalid="ignore"):
            terms = probs * betas[targets]
        # -beta_i, then the row's entries into states >= 1
        acc = np.concatenate((-betas[states][:, None], terms), axis=1)
        keep = np.concatenate((np.ones((len(states), 1), bool), targets >= 1), axis=1)
        # max over the row sums' moduli from 0.0, where a NaN never wins
        worst = float(np.fmax.reduce(np.abs(_fsum_rows(acc, keep)), initial=worst))
    return worst


@dataclass(frozen=True)
class StationaryMeasure:
    level: int
    weights: tuple[float, ...]  # normalized over states < F_level
    partial_sum: float  # sum of raw xi weights in the truncation
    unsummable: bool
    threshold: float


def stationary_measure(
    level: int, p: ProbSeq, summable_threshold: float = 1e6
) -> StationaryMeasure:
    """Truncated stationary weights mu_i = xi_i, normalized.

    The raw partial sum is reported; when it exceeds `summable_threshold` the
    measure is flagged unsummable (the normalized vector is still returned, as
    a truncated diagnostic object).  The threshold must be positive; inf
    never flags.  It is kept as a float, so a numpy scalar gives the result
    a float gives.
    """
    if not real(summable_threshold, "threshold") > 0.0:
        raise ValueError(f"threshold must be positive (inf allowed), got {summable_threshold!r}")
    try:
        threshold = float(summable_threshold)
    except OverflowError:  # an integer past the float range, which no sum reaches
        threshold = math.inf
    raw = _xi_array(_truncation_size(level), p)
    total = math.fsum(raw.tolist())
    weights = tuple((raw / total).tolist())
    return StationaryMeasure(level, weights, total, total > threshold, threshold)


def stationarity_residual(level: int, p: ProbSeq) -> float:
    """max over 1 <= j < F_level of |(mu S)_j - mu_j| with mu_i = xi_i.

    State 0 is excluded: it receives mass from outside the truncation.  No
    other state does, so the truncated product is exact for j >= 1.  Target
    j's inflow depends on t = t(j) alone, so targets are summed one t at a
    time, each in source order: j - 1's increment (full[(t + 1) // 2 + 1]),
    j's self-loop (fall[1]), then for s = 2..t the fall of s // 2 rungs from
    j + _RUNG_SUMS[s % 2][s // 2], if below F_level (fall[s // 2 + 1]).
    """
    size = _truncation_size(level)
    shapes = _trailing_zeros(1, size + 1)  # t(size) only sizes the deepest row
    mu = _xi_array(size, p)
    top = int(shapes.max())
    table = coefficients(p)
    table.row(p, (top + 1) // 2 + 1)  # the deepest row below F_level, asked first
    full, fall = table.full, table.fall
    gaps = np.empty(size)
    for t in range(top + 1):
        rungs = range(2, t + 1)  # s = 2m + k0: the fall of m rungs from digit k0
        offsets = np.array([-1, 0, *(_RUNG_SUMS[s % 2][s // 2] for s in rungs)])
        probs = np.array([full[(t + 1) // 2 + 1], fall[1], *(fall[s // 2 + 1] for s in rungs)])
        targets = np.flatnonzero(shapes[:-1] == t) + 1
        for lo in range(0, len(targets), ROW_CHUNK):
            group = targets[lo : lo + ROW_CHUNK]
            sources = group[:, None] + offsets
            terms = probs * np.take(mu, sources, mode="clip")
            gaps[group] = np.abs(_fsum_rows(terms, sources < size) - mu[group])
    # max over gaps[1:] as Python takes it: a NaN first stays, a later one never wins
    return max(float(gaps[1]), float(np.fmax.reduce(gaps[2:], initial=0.0)))


# ---------------------------------------------------------------------------
# positive-recurrent construction


class ConstructedSeq(ProbSeq):
    """A probability sequence built so its stationary weights are summable.

    Given p_1, p_2 and a summable positive budget b (with b(1) = 1 and
    b(2) = 3 p_2), each later p_k is the largest value <= 1 whose companion
    block sums a_(2k-3) + a_(2k-2) stay below b(k).  The per-block stationary
    mass then telescopes against the budget, so the total mass is finite.
    """

    def __init__(self, p1: float, p2: float, budget: Callable[[int], float], count: int):
        p1, p2 = _check_prob(p1, "p1"), _check_prob(p2, "p2")
        integer(count, "count", 3)
        if not abs(budget(1) - 1.0) <= 1e-9:
            raise InvalidBudget("budget must be normalized with b(1) = 1")
        if not abs(budget(2) - 3.0 * p2) <= 1e-9:
            raise InvalidBudget("budget must satisfy b(2) = 3*p2")
        self._budget = budget
        self._values = [p1, p2]
        self._a = [1.0, p2, 2.0 * p2]
        self._k = 2
        self._extend(count)

    @property
    def values(self) -> tuple[float, ...]:
        """p_1..p_k computed so far; grows as later indices are requested."""
        return tuple(self._values)

    @property
    def a(self) -> tuple[float, ...]:
        """The block sums a_0..a_(2k-2) computed so far, alongside `values`."""
        return tuple(self._a)

    def _extend(self, upto: int) -> None:
        while self._k < upto:
            k = self._k + 1
            bk = self._budget(k)
            if not (bk > 0.0):
                raise InvalidBudget(f"budget b({k}) must be positive, got {bk!r}")
            s1 = math.fsum(self._a[: 2 * k - 4])
            denom = 2.0 * s1 + 2.0 + self._a[2 * k - 4]
            pk = min(1.0, bk / denom)
            self._values.append(pk)
            self._a.append(pk * (s1 + 1.0))
            s2 = s1 + self._a[2 * k - 4]
            self._a.append(pk * (s2 + 1.0))
            self._k = k

    def p(self, i: int) -> float:
        if i < 1:
            raise ValueError("probability index starts at 1")
        if i > self._k:
            self._extend(i)
        return self._values[i - 1]

    def delta_lower_bound(self) -> float:
        return 0.0

    def describe(self) -> str:
        return f"constructed positive-recurrent sequence ({len(self.values)} values computed)"


def geometric_budget(p2: float, ratio: float = 0.25) -> Callable[[int], float]:
    """A convenient summable budget: b(1)=1, b(2)=3*p2, then geometric decay."""
    if not 0.0 < real(ratio, "ratio") < 1.0:
        raise InvalidBudget("ratio must lie in (0, 1)")

    def b(k: int) -> float:
        if k == 1:
            return 1.0
        return 3.0 * p2 * ratio ** (k - 2)

    return b


def construct_positive_recurrent(
    p1: float, p2: float, budget: Callable[[int], float], count: int
) -> ConstructedSeq:
    """Build p_1..p_count (extendable on demand) with summable xi weights."""
    return ConstructedSeq(p1, p2, budget, count)
