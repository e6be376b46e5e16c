"""Spectral side of the machine: the q-recursion and its fibered Julia set.

The transition operator has a formal eigenvector whose entries are products
of the values q_{F_n}(lambda), generated by a two-term multiplicative
recursion.  Boundedness of those products decides candidate point-spectrum
membership; the escape locus of the recursion is the fibered Julia set E
rendered by the sibling render module.

Everything here is reentrant.  The grid kernel is vectorized with numpy
and runs the pixels in cache-sized blocks.  Inside a block a settled pixel
rides along behind a mask until a quarter of the lanes have settled, and
the work arrays then shrink to the live ones.  Each step multiplies by
1/r_n, which gives the moduli of numpy's division by r_n exactly.  Each
fiber has a trap table T_n, built from its coefficients once a walk has
read them all: a pixel whose moduli at levels n and n - 1 are at most T_n
stays under the radius and 1 + ETA through max_level, under in_E's
rounding model of numpy's arithmetic, so it settles as INSIDE there
instead of stepping on (a certified interior).  One
block walk, which starts from lambda or from a level's state and takes
each level's coefficient r_n, has one caller, FiberWalk: the walk of
several fibers (sequence and escape parameters) over one set of pixels,
which steps each level once for each group of fibers that shares the
coefficients up to it, and lambda once for each group that steps level 0
alike.  escape_levels is that walk with one fiber.  The
scalar membership test in_E walks one lambda with the scalar step and
carries a bound on its distance from numpy's arithmetic (a rounding model
with the constants UNIT, MUL_ERR, ABS_ERR, TINY_ERR and SAFE); a test is
decided there only when the modulus lies farther than that bound from
the threshold.  Any other lambda runs escape_levels on that one lambda, so
scalar and raster answers agree bit for bit by construction.
in_point_spectrum takes its running maximum and in_E's result from one
such walk.  eigen_residual's row layout depends on the level alone and is
kept for small levels.  The coefficient schedule r_index, the block rule
and the coefficient table every walk reads come from chain, which xi
shares them with.

EscapeConfig, escape_radius, RADIUS_EPS and LEVEL_BUDGET are defined in
config, which needs no numpy, and are the same objects here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    InvalidPolynomial,
    InvalidSeed,
    OrbitEscaped,
    integer,
    real,
    within,
)
from .chain import ROW_CHUNK, _block_products, _depth_probs, _fsum_rows, _ladder_rows
from .chain import _truncation_size, coefficients, r_index
from .config import LEVEL_BUDGET, RADIUS_EPS, EscapeConfig, escape_radius
from .numeration import FIB64, BaseDef, digits_of_int
from .probseq import ProbSeq

#: Slack on the "modulus exceeds 1" tests; exact arithmetic needs none, the
#: slack only guards float noise at the boundary.
ETA = 1e-6

#: Orbit values beyond this modulus are declared escaped outright; every
#: threshold of interest is far smaller, and stopping here avoids overflow.
CLAMP = 1e150

#: Below this r_n, 1/r_n passes 2^53, where 1/r_n - 1 rounds and the step
#: x/r_n - (1/r_n - 1) loses the fixed point q(1) = 1; every walk steps
#: (x - 1)/r_n + 1 there instead.  From it up the first form is kept, as it
#: is exact where r_n = 1.
TINY_R = 2.0**-53

#: Flat pixels stepped together through the whole level loop; a block's
#: work arrays then stay in cache.
BLOCK = 1 << 15

#: A block's work arrays shrink to the alive lanes once fewer than this
#: share of them is alive; until then settled lanes ride along masked.
COMPACT_AT = 0.75

#: Plateau window for the boundedness verdict: the running maximum must not
#: have grown over this many trailing levels to count as settled.
PLATEAU_WINDOW = 5


# ---------------------------------------------------------------------------
# the q-recursion


@dataclass(frozen=True)
class QOrbit:
    """Orbit q_{F_0}..q_{F_N} at one lambda.

    escaped_at is the first level whose modulus crossed the overflow clamp
    (the orbit stops there); None when the whole requested orbit is finite.
    """

    lam: complex
    values: tuple[complex, ...]
    escaped_at: int | None = None


def _lam(lam) -> complex:
    """lam as a complex; a bool, a str or anything but a number is refused, naming lam."""
    if type(lam) is complex:  # skips the abstract-class check, which costs several times more
        return lam
    if type(lam) is bool or not isinstance(lam, numbers.Number):
        raise ValueError(f"lam must be a number, got {lam!r}")
    return complex(lam)


def _modulus(z: complex) -> float:
    """|z|, and inf where abs() overflows: finite parts, modulus past the float range."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def _step(prod: complex, r: float) -> complex:
    """The one scalar q-recursion step, from the product of the previous values."""
    return prod / r - (1.0 / r - 1.0) if r >= TINY_R else (prod - 1.0) / r + 1.0


def _walk(
    p: ProbSeq,
    levels: int,
    powers: Sequence[int] = (1, 1),
    seeds: Sequence[complex] | None = None,
    lam: complex = 0j,
) -> tuple[list[complex], int | None]:
    """The one scalar q-recursion: (values, escape level).

    Without seeds the orbit starts at q_{F_0} = 1 + (lambda - 1)/p_1, escaped
    at level 0 past CLAMP; supplied seeds are not tested.  Level m of the
    order d = len(powers) divides by p_(r_index(m, d)); below d it squares the
    previous value, from d on it multiplies the a_j-th powers of the d
    previous values.  The walk stops at the first value it computes past
    CLAMP, a power or a modulus past the float range counting as inf.
    """
    within(integer(levels, "levels", 0), LEVEL_BUDGET, "level")
    table = coefficients(p)
    if seeds is None:
        values = [1.0 + (lam - 1.0) / table.level(p, 0)]
        if _modulus(values[0]) > CLAMP:
            return values, 0
    else:
        values = [complex(s) for s in seeds[: levels + 1]]
    d, first, rest = len(powers), powers[0], list(enumerate(powers[1:], start=2))
    steps = table.levels if d == 2 else ()  # the table lists order-2 levels only
    for m in range(len(values), levels + 1):
        try:
            r = steps[m]
        except IndexError:
            r = table.level(p, m) if d == 2 else table.at(p, r_index(m, d))
        prod = values[m - 1]
        try:
            if m < d:
                prod = prod * prod
            else:
                if first != 1:
                    prod = prod**first
                for j, a in rest:
                    prod *= values[m - j] if a == 1 else values[m - j] ** a
        except OverflowError:
            q = complex(math.inf)
        else:
            q = _step(prod, r)
        values.append(q)
        if not (_modulus(q) <= CLAMP):
            return values, m
    return values, None


def q_fib_orbit(lam: complex, p: ProbSeq, levels: int) -> QOrbit:
    """Run the q recursion up to q_{F_levels}.

    Seed (lambda - (1 - p_1))/p_1, evaluated as 1 + (lambda - 1)/p_1 so that
    lambda = 1 maps to exactly 1 for every p_1; step n multiplies the two
    previous values (step 1 squares the seed), divides by r_n and subtracts
    (1/r_n - 1), or below r_n = TINY_R steps (x - 1)/r_n + 1 instead.
    More than LEVEL_BUDGET levels raise BudgetExceeded.
    """
    lam = _lam(lam)
    values, escaped_at = _walk(p, levels, lam=lam)
    return QOrbit(lam, tuple(values), escaped_at)


def _orbit_through(lam: complex, p: ProbSeq, level: int) -> tuple[complex, ...]:
    """q_{F_0}..q_{F_level}; OrbitEscaped when the orbit stops short of level."""
    orbit = q_fib_orbit(lam, p, level)
    if orbit.escaped_at is not None and orbit.escaped_at < level:
        raise OrbitEscaped(
            f"the q orbit at lambda {orbit.lam} passes {CLAMP:g} at level "
            f"{orbit.escaped_at}, before the requested level {level}"
        )
    return orbit.values


def q_at_integer(n: int, lam: complex, p: ProbSeq) -> complex:
    """q_n = product of q_{F_i} over the greedy digits of n (empty = 1)."""
    eps = digits_of_int(integer(n, "n", 0))
    values = _orbit_through(lam, p, max(len(eps) - 1, 0))
    result = complex(1.0)
    for i, e in enumerate(eps):
        if e:
            result *= values[i]
    return result


def q_values_upto(level: int, lam: complex, p: ProbSeq) -> list[complex]:
    """All q_m for m = 0..F_level, via the block rule q(F_m + k) = q(F_m) q(k)."""
    size = _truncation_size(level, 0, 1) + 1
    return _block_products(_orbit_through(lam, p, level), size, complex(1.0)).tolist()


def fibered_pair(lam: complex, p: ProbSeq, levels: int) -> list[tuple[complex, complex]]:
    """Iterate the planar maps g_n from (lambda, lambda); returns psi_0..psi_N.

    g_0 applies the seed affine map to both coordinates; g_n maps (x, y) to
    (x y / r_n - (1/r_n - 1), x), so psi_n = (q_{F_n}, q_{F_(n-1)}).  The
    pairs stop with the orbit, at the first one past CLAMP.
    """
    values = q_fib_orbit(lam, p, levels).values
    return list(zip(values, values[:1] + values[:-1]))


# ---------------------------------------------------------------------------
# membership


INSIDE = -1


@dataclass(frozen=True)
class EscapeResult:
    escaped: bool
    level: int | None

    @property
    def status(self) -> str:
        return "escaped" if self.escaped else "inside"


def escape_levels(lam_grid: np.ndarray, p: ProbSeq, cfg: EscapeConfig) -> np.ndarray:
    """Vectorized escape levels for an array of lambda values.

    Returns int32 of the same shape: INSIDE (-1) where no test triggered by
    max_level, else the triggering level.  The two-consecutive rule (checked
    first) reports the first level of the offending pair; the radius rule
    reports the level that crossed.

    This is the FiberWalk of one fiber over the flat pixels in blocks of
    BLOCK, whose top node is the whole walk.  Each step multiplies by 1/r
    where the recursion divides by r.  numpy divides a complex x by a real r
    as (x.real + x.imag*0, x.imag - x.real*0) times 1/r, and the product
    x * (1/r) differs from that only in the sign of a zero, so every
    modulus, and hence every level, is the same.  The seed is written the
    same way, (lambda - 1) * (1/p_1) + 1, and past 1/r = 2^53 (r below
    TINY_R) the step is (x - 1) * (1/r) + 1.  The coefficient of level n is
    read from `p`'s coefficient table when a block first steps level n, so
    `p` is asked for what a level-by-level sweep of all pixels needs (a
    ConstantTail without a tail raises TailUndefined at the same inputs).
    """
    grid = np.ascontiguousarray(lam_grid, dtype=np.complex128)
    out = np.full(grid.shape, INSIDE, dtype=np.int32)
    lam = grid.reshape(-1)
    walk = FiberWalk([(p, cfg)], lambda: (lam[s : s + BLOCK] for s in range(0, lam.size, BLOCK)))
    walk.walk(out)
    out.reshape(-1)[walk.index] = walk.fiber(0)
    return out


class _Rules(NamedTuple):
    """How a walk steps and settles its lanes."""

    step: Callable[[int], float | None]  # level n's coefficient r; None ends the walk there
    radius: float
    last: int  # the deepest level stepped
    pair_rule: bool
    wide: float  # lanes past `radius` but not past `wide` are handed back
    trap: Sequence[float]  # _trap's T_n by level, or () for none: see _walk_lanes


#: Lanes handed back by a walk, (level, index, cur, prev), to walk on from
#: `level`: cur and prev are q_(level-1) and q_(level-2), or lambda twice at level 0.
_Part = tuple[int, np.ndarray, np.ndarray, np.ndarray]


def _walk_lanes(cur, prev, start: int, out: np.ndarray, rules: _Rules) -> tuple[list, list]:
    """Step lanes from level `start`, writing into `out` the level of each lane that settles.

    The lanes are a _Part's cur and prev at `start`.  Level n multiplies by
    1/r for its coefficient r: the seed (lambda - 1)/r + 1 at level 0, then
    x/r - (1/r - 1), or (x - 1)/r + 1 below TINY_R.  The walk ends after
    rules.last, or at the first level whose coefficient is None, where it
    hands back the lanes still walking in the first list it returns.  When
    rules.wide exceeds rules.radius it hands back in the second each lane
    settled at a level n by the radius rule alone with a modulus of at most
    rules.wide, with its state before level n, to step level n again; the
    level written for it here is then provisional.  Indices are into `out`.
    At a level 0 < n < rules.last with T_n = rules.trap[n] > 0, a lane whose
    moduli at n and n - 1 are both at most T_n settles as INSIDE: _trap's
    bound keeps it under the radius and 1 + ETA through the last level, so
    nothing is written for it and it is never handed back.  Each level
    keeps, beside the pair rule's mask of moduli past 1 + ETA, the mask of
    moduli at most T of the next level, as the modulus test of level n - 1.

    A lane that settles stays in the work arrays behind an `alive` mask and
    is never written again; once fewer than COMPACT_AT of the lanes are
    alive, the arrays shrink to the alive ones, kept with their indices and
    their two masks.
    """
    step, radius, last, pair_rule, wide, trap = rules

    def bound(n: int) -> float:  # T_n where level n may settle lanes as INSIDE, else 0.0
        return trap[n] if 0 < n < last and n < len(trap) else 0.0

    mod = np.abs(cur) if start else None  # the moduli of the level before
    big = mod > 1.0 + ETA if start else None
    t = bound(start)
    low = mod <= t if start and t > 0.0 else None  # the lanes at most T of the level to come
    lanes = count = cur.size
    levels = out  # the level of each lane, written through to `out` until compacted
    live = None  # index into `out` of each lane; None until compacted
    alive = None  # lanes not yet settled; None while all of them are
    survivors, between = [], []
    for n in range(start, last + 1):
        r = step(n)
        if r is None:  # never at level 0
            keep = slice(None) if alive is None else alive.nonzero()[0]
            index = np.arange(lanes) if live is None else live
            survivors.append((n, index[keep], cur[keep], prev[keep]))
            break
        inv_r = 1.0 / r
        state = cur, prev  # before level n
        # one expression per form, so numpy reuses its temporary in place
        if n == 0:
            cur = prev = (cur - 1.0) * inv_r + 1.0  # step 1 squares the seed
        elif r >= TINY_R:
            cur, prev = cur * prev * inv_r - (inv_r - 1.0), cur
        else:
            cur, prev = (cur * prev - 1.0) * inv_r + 1.0, cur
        prev_big, prev_low = big, low
        mod = np.abs(cur)
        big = mod > 1.0 + ETA
        hit = ~(mod <= radius)
        pair = None
        if pair_rule and n >= 1:
            pair = big & prev_big
            hit |= pair
        if alive is not None:
            hit &= alive
        settled = np.count_nonzero(hit)
        if settled:
            np.copyto(levels, n, where=hit)
            if pair is not None:  # the pair rule wins: it names the level before
                pair &= hit
                np.copyto(levels, n - 1, where=pair)
            if wide > radius:
                back = hit & (mod <= wide)
                if pair is not None:
                    back &= ~pair
                back = back.nonzero()[0]
                if back.size:
                    index = back if live is None else live[back]
                    between.append((n, index, state[0][back], state[1][back]))
        t = bound(n)
        if t > 0.0:  # T_n is at most the radius, so no held lane is hit
            held = mod <= t
            held &= prev_low
            if alive is not None:
                held &= alive
            inside = np.count_nonzero(held)
            if inside:
                hit |= held
                settled += inside
        t = bound(n + 1)
        low = mod <= t if t > 0.0 else None
        if settled:
            count -= settled
            if count == 0:
                break
            if alive is None:
                alive = ~hit
            else:
                alive ^= hit
            if count < COMPACT_AT * lanes:
                kept = alive.nonzero()[0]
                if live is None:
                    live = kept
                else:
                    out[live] = levels
                    live = live[kept]
                levels = np.full(count, INSIDE, dtype=np.int32)
                cur = cur[kept]
                prev = cur if n == 0 else prev[kept]
                big = big[kept]
                low = None if low is None else low[kept]
                lanes = count
                alive = None
    if live is not None:
        out[live] = levels
    return survivors, between


class FiberWalk:
    """The escape walk of several fibers over one band of pixels, each shared prefix walked once.

    A fiber is one (p, cfg) pair.  Escape level n depends only on lambda,
    p_1 and p_(r_index(1..n)), so fibers that agree on early_exit and those
    coefficients differ only in their radius tests.  A node of the prefix
    tree, a group of fibers and their lanes from a start level, steps once,
    with the group's smallest radius, each level its members step alike, up
    to their smallest max_level; the lanes still walking then go on to each
    group of its members that steps the next level alike.  The pair rule
    does not depend on the radius and is checked first, so only a lane
    between the smallest and the widest radius may settle otherwise in some
    member: it goes back to each member with its state before that level,
    to step it again alone, and no lane is rebuilt from lambda.  The top
    node, every fiber from level 0, writes into the band's levels.  Where
    the fibers step level 0 differently every pixel is past it, and each
    group that steps level 0 alike walks the band as a top node of its own,
    through the band's levels, which it leaves INSIDE, into its members'.
    walk() goes depth first, the largest group last, so a node's lanes are
    freed as they are walked; each fiber's levels of the lanes past the top
    node are kept in the smallest integer type that holds its max_level,
    and fiber(k) gives them, to be written at self.index.

    Once a fiber's coefficients of levels 0..max_level are all known, its
    trap table (_trap) is built from them, with no further request of `p`,
    and each later block walk, a top node's block or a node's part, settles
    as INSIDE the lanes held under it; a group takes its members' smallest
    T_n, and no table until each member has one.  So in each band the first
    block that reaches max_level walks uncertified, and so does a group
    whose members have not yet walked alone.

    `blocks()` gives a fresh iterator over the band's pixels as flat
    complex128 blocks, so lambda is built one block at a time, once per top
    node.  FiberWalk is the only caller of the block walk.  Each fiber's
    coefficients are read from its sequence's coefficient table, in level
    order and only as far as a walk of that fiber alone reads them, and kept
    with the error a level's read raised; the fiber stops there and fiber(k)
    raises it, so a failing index is asked once per walk.
    """

    def __init__(
        self,
        fibers: Sequence[tuple[ProbSeq, EscapeConfig]],
        blocks: Callable[[], Iterator[np.ndarray]],
    ) -> None:
        self.fibers = list(fibers)
        self.blocks = blocks
        self.known: list[list[float | Exception]] = [[] for _ in self.fibers]
        self.traps: list[tuple[float, ...] | None] = [None] * len(self.fibers)  # built once known
        self.index = np.zeros(0, dtype=np.intp)  # the band position of each lane past the top node
        self.kept: list[np.ndarray] = []  # each fiber's levels of those lanes

    def _read(self, k: int, n: int) -> float | Exception:
        """Fiber k's coefficient of level n, or the error its read raised; each level is read once."""
        known, p = self.known[k], self.fibers[k][0]
        while len(known) <= n:
            try:
                known.append(coefficients(p).level(p, len(known)))
            except Exception as exc:  # raised by fiber(k)
                known.append(exc)
        return known[n]

    def _step(self, k: int, n: int) -> float | None:
        """Fiber k's coefficient of level n, or None where its read failed: fiber k stops there."""
        r = self._read(k, n)
        return None if isinstance(r, Exception) else r

    def _groups(self, members: list[int], n: int) -> list[list[int]]:
        """The members that step level n, grouped by coefficient and early_exit, smallest first."""
        groups: dict[tuple, list[int]] = {}
        for k in members:
            cfg = self.fibers[k][1]
            r = self._step(k, n) if n <= cfg.max_level else None
            if r is not None:
                groups.setdefault((r, cfg.early_exit), []).append(k)
        return sorted(groups.values(), key=len)

    def _shared_step(self, members: list[int], n: int) -> float | None:
        """Level n's coefficient when every member steps it alike, else None: the node ends there."""
        return self._step(members[0], n) if self._groups(members, n) == [members] else None

    def _fiber_trap(self, k: int) -> tuple[float, ...]:
        """Fiber k's trap table, built once its coefficients of levels 0..max_level are known; else ()."""
        trap = self.traps[k]
        if trap is None:
            cfg = self.fibers[k][1]
            if len(self.known[k]) <= cfg.max_level:
                return ()
            trap = self.traps[k] = _trap(self.known[k][: cfg.max_level + 1], cfg)
        return trap

    def _rules(self, members: list[int]) -> _Rules:
        """How a node of `members` walks; a lone fiber takes its own steps, with no grouping.

        The node's trap table is its members' smallest T_n at each level, () until all are built.
        """
        cfgs = [self.fibers[k][1] for k in members]
        radii = [cfg.radius for cfg in cfgs]
        low, last, pair_rule = min(radii), max(cfg.max_level for cfg in cfgs), cfgs[0].early_exit
        traps = [self._fiber_trap(k) for k in members]
        trap = tuple(map(min, *traps)) if len(traps) > 1 else traps[0]
        if len(members) == 1:
            return _Rules(partial(self._step, *members), low, last, pair_rule, low, trap)
        return _Rules(partial(self._shared_step, members), low, last, pair_rule, max(radii), trap)

    def walk(self, out: np.ndarray) -> None:
        """Walk the tree; `out`, the band's levels, C-contiguous and INSIDE, gets the top node's."""
        out = out.reshape(-1)
        every = list(range(len(self.fibers)))
        tops = self._groups(every, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            if tops != [every]:  # p_1 or early_exit differ, or a read failed
                self._keep([np.arange(out.size)])
                for group in tops:  # each a top node, walked into `out`
                    handed = self._top(out, group)
                    for k in group:
                        self.kept[k][:] = out
                    out.fill(INSIDE)
                    self._split(group, *handed)
                return
            handed = self._top(out, every)
            if any(handed):
                slots = self._keep([index for parts in handed for _, index, _, _ in parts])
                for parts in handed:  # their indices become slots of self.index
                    parts[:] = [(n, next(slots), c, p) for n, _, c, p in parts]
                self._split(every, *handed)

    def _keep(self, at: list[np.ndarray]) -> Iterator[np.ndarray]:
        """Keep each fiber's levels, INSIDE until written, at the positions in `at`; their slots."""
        self.index = np.concatenate(at)
        types = [np.min_scalar_type(-cfg.max_level - 1) for _, cfg in self.fibers]
        self.kept = [np.full(self.index.size, INSIDE, dtype) for dtype in types]
        return iter(np.split(np.arange(self.index.size), np.cumsum([index.size for index in at])))

    def _top(self, out: np.ndarray, members: list[int]) -> tuple[list[_Part], list[_Part]]:
        """Walk a top node over every block into `out`; what it hands back, as _walk_lanes does."""
        handed: tuple[list[_Part], list[_Part]] = ([], [])
        pending: dict[tuple, list] = {}  # lanes by list and level, joined BLOCK at a time
        at = 0
        for lam in self.blocks():
            rules = self._rules(members)  # certified once a block has read every level
            for which, parts in enumerate(_walk_lanes(lam, lam, 0, out[at : at + lam.size], rules)):
                for level, index, cur, prev in parts:
                    lanes = pending.setdefault((which, level), [])
                    lanes.append((index + at, cur, prev))
                    if sum(lane[0].size for lane in lanes) >= BLOCK:
                        handed[which].append(_joined(level, pending.pop((which, level))))
            at += lam.size
        for (which, level), lanes in pending.items():
            handed[which].append(_joined(level, lanes))
        return handed

    def _node(self, members: list[int], parts: list[_Part]) -> tuple[list[_Part], list[_Part]]:
        """Walk `parts`, indexed by slots of self.index, for `members`; what they hand back."""
        handed: tuple[list[_Part], list[_Part]] = ([], [])
        while parts:
            rules = self._rules(members)  # certified once a part has read every level
            level, slots, cur, prev = parts.pop()
            levels = np.full(slots.size, INSIDE, dtype=np.int32)
            for lanes, into in zip(_walk_lanes(cur, prev, level, levels, rules), handed):
                into += [(n, slots[index], c, p) for n, index, c, p in lanes]
            if len(members) > 1:  # the group's lanes are INSIDE until it settles them
                slots, levels = slots[levels != INSIDE], levels[levels != INSIDE]
            for k in members:
                self.kept[k][slots] = levels
        return handed

    def _split(self, members: list[int], survivors: list[_Part], between: list[_Part]) -> None:
        """Walk a node's lanes between its radii by each member alone, then its survivors by group."""
        for k in members if between else ():  # the last frees the lanes as it walks them
            self._split([k], *self._node([k], between if k == members[-1] else list(between)))
        groups = self._groups(members, survivors[0][0]) if survivors else []
        for group in groups:  # the largest last, which frees the lanes as it walks them
            parts = survivors if group is groups[-1] else list(survivors)
            self._split(group, *self._node(group, parts))

    def fiber(self, k: int) -> np.ndarray:
        """Fiber k's levels of the lanes at self.index; raises the error of its walk."""
        error = self.known[k][-1]  # walk() reads p_1, even in a band without pixels
        if isinstance(error, Exception):
            raise error
        return self.kept[k] if self.kept else np.zeros(0, dtype=np.int8)


def _joined(level: int, parts: list[tuple]) -> _Part:
    """Lanes handed back at `level`, (index, cur, prev) each, as one part."""
    return level, *map(np.concatenate, zip(*parts))


#: The rounding model of in_E's certificate (Higham, Accuracy and Stability
#: of Numerical Algorithms, 2nd ed., SIAM 2002, §3.1-3.6), with UNIT the unit
#: roundoff: a complex product, numpy's (which may fuse a multiply and an
#: add) or CPython's, lies within MUL_ERR |a||b| of the exact product, and so
#: does numpy's product of a complex by a real; a modulus, numpy's or
#: CPython's, lies within ABS_ERR |z| of |z|; a sum, a difference, a real
#: reciprocal and CPython's quotient of a complex by a real are rounded part
#: by part to nearest, within UNIT of each exact part; and each operation may
#: be off by TINY_ERR more where it underflows.  The constants are two to
#: four times the largest errors seen (tests/test_scalar_lane.py measures
#: both libraries against exact rational arithmetic).
UNIT = 2.0**-53
MUL_ERR = 4 * UNIT
ABS_ERR = 8 * UNIT
TINY_ERR = 2.0**-1060

#: Widens every bound; covers the rounding of the bound's own arithmetic.
SAFE = 1.0 + 2.0**-40

#: |z| is at most GROW times either lane's modulus of z.
GROW = 1.0 + 2 * ABS_ERR

#: A kernel step x y (1/r) - (1/r - 1) from lanes whose moduli are at most T
#: has a modulus, as numpy computes it, of at most T^2 (1/r) TRAP_GROW +
#: (1/r - 1) TRAP_SHIFT + TRAP_FLOOR under the model above: GROW for each
#: of |x| and |y|, MUL_ERR for the product and for the multiply by 1/r, UNIT
#: for the subtraction, ABS_ERR for the modulus, and a floor far above the
#: TINY_ERR terms.
TRAP_GROW = GROW**2 * (1 + MUL_ERR) ** 2 * (1 + UNIT) * (1 + ABS_ERR) * SAFE
TRAP_SHIFT = (1 + UNIT) * (1 + ABS_ERR) * SAFE
TRAP_FLOOR = 2.0**-1000


def _trap(steps: Sequence, cfg: EscapeConfig) -> tuple[float, ...]:
    """T_0..T_last of a fiber whose coefficients of levels 0..last = max_level are `steps`.

    A lane whose moduli at levels m and m - 1 are at most T_m has moduli at
    most T_(m+1) at m + 1 and m, so at most T_last from then on, and T_last
    is the radius, and at most 1 + ETA under the pair rule: the lane never
    settles.  Down from T_last, T_m = min(T_(m+1), sqrt((T_(m+1) - shift) /
    (TRAP_GROW/r_(m+1)))), with 1/r_(m+1) rounded as the kernel rounds it and
    shift the TRAP_SHIFT/TRAP_FLOOR bound on its (1/r - 1); T_m is 0 from the
    first level down where that root is not positive, and every T_m is 0
    unless each coefficient is _certain (a float in [TINY_R, 1]).
    """
    last = cfg.max_level
    trap = [0.0] * (last + 1)
    if not all(map(_certain, steps)):
        return tuple(trap)
    t = trap[last] = min(cfg.radius, 1.0 + ETA) if cfg.early_exit else cfg.radius
    for m in range(last - 1, -1, -1):
        inv = 1.0 / steps[m + 1]
        room = t - ((inv - 1.0) * TRAP_SHIFT + TRAP_FLOOR)
        if not room > 0.0:
            break
        t = trap[m] = min(t, math.sqrt(room / (inv * TRAP_GROW)))
    return tuple(trap)


def _certain(r) -> bool:
    """Whether the certificate covers a step by coefficient r: a float in [TINY_R, 1]."""
    return type(r) is float and TINY_R <= r <= 1.0


def in_E(lam: complex, p: ProbSeq, cfg: EscapeConfig) -> EscapeResult:
    """Membership in the fibered Julia set E: escape_levels' level at one lambda.

    The tests are decided on the scalar walk of _step wherever its error
    bound against numpy's arithmetic allows (_lane), which is everywhere but
    within about 1e-15, relative, of a threshold.  Other lambdas run
    escape_levels on a 1x1 grid of lambda (_numpy_lane).  Both read `p`'s
    coefficient table, so the level, any error, and the indices `p` is asked
    for are those of escape_levels on a 1x1 grid: each once per descriptor,
    in ascending order.
    """
    lam = _lam(lam)
    if _certain(coefficients(p).level(p, 0)):
        verdict = _lane(lam, p, cfg, False)[1]
        if verdict is not None:
            return verdict
    return _numpy_lane(lam, p, cfg)


def _numpy_lane(lam: complex, p: ProbSeq, cfg: EscapeConfig) -> EscapeResult:
    """in_E on numpy's arithmetic: escape_levels at one lambda."""
    level = int(escape_levels(np.array([complex(lam)]), p, cfg)[0])
    return EscapeResult(False, None) if level == INSIDE else EscapeResult(True, level)


def _lane(
    lam: complex, p: ProbSeq, cfg: EscapeConfig, walk_on: bool
) -> tuple[list[float], EscapeResult | None]:
    """Walk lambda's orbit with _step, deciding in_E's tests on it where that is certain.

    Returns the moduli |q_n| of the levels walked and in_E's result, or None
    where the walk could not decide it.  Level n's coefficient is read from
    `p`'s table (its level list, indexed by n) when the walk steps level n.
    The walk is q_fib_orbit's: its seed, steps, errors and stop, past CLAMP
    (NaN too, from level 1) or at max_level.  With `walk_on` it goes on to
    that stop; without, it returns once the result is known or cannot be,
    and p_1 must then be _certain.

    The numpy lane steps the same recursion with x * (1/r) for x / r and with
    numpy's complex product and modulus.  Beside q_n the walk carries err, a
    bound on |q_n(numpy) - q_n| under the model above.  The seed's err comes
    from |lambda - 1|/p_1 and the rounding of the + 1.  A step from
    a = q_(n-1) and b = q_(n-2), with sizes s (GROW times the moduli) and
    bounds e, is off by
    (s_a e_b + e_a (s_b + e_b) + (s_a + e_a)(s_b + e_b)(3 MUL_ERR + 4 UNIT))/r
    before the shift, plus TINY_ERR terms, and the shift's rounding adds
    2 UNIT s.  numpy's modulus then lies within off = err + ABS_ERR (2 s + err)
    of the walk's, so a test against a threshold (1 + ETA, the radius) is
    decided only when the modulus lies farther than `off` from it: numpy's
    lane then takes the same branch.  A coefficient that is not _certain or
    an undecided test (NaN and infinities included) ends the certificate.
    """
    radius, pair_rule, last = cfg.radius, cfg.early_exit, cfg.max_level
    edge = 1.0 + ETA
    table = coefficients(p)
    steps = table.levels
    p1 = table.level(p, 0)
    cur = prev = 1.0 + (lam - 1.0) / p1  # step 1 squares the seed
    mod = _modulus(cur)
    mods = [mod]
    verdict = None
    sure = _certain(p1)
    if sure:
        x = lam - 1.0
        size = prev_size = GROW * mod
        spread = (abs(x.real) + abs(x.imag)) / p1  # at least |lambda - 1| / p_1
        err = prev_err = (spread * (MUL_ERR + 3 * UNIT) + 2 * TINY_ERR + 2 * UNIT * size) * SAFE
    prev_big = False
    n = 0
    while True:
        if sure:
            off = (err + ABS_ERR * (2 * size + err)) * SAFE
            big = mod > edge
            if pair_rule and not abs(mod - edge) > off:
                sure = False
            elif pair_rule and big and prev_big:
                verdict = EscapeResult(True, n - 1)
            elif not abs(mod - radius) > off:
                sure = False
            elif mod > radius:
                verdict = EscapeResult(True, n)
            elif n == last:
                verdict = EscapeResult(False, None)
            prev_big = big
            sure = sure and verdict is None
        if not (sure or walk_on):
            return mods, verdict
        if n == last or (not mod <= CLAMP if n else mod > CLAMP):
            return mods, verdict
        n += 1
        try:
            r = steps[n]
        except IndexError:
            r = table.level(p, n)
        if sure and not _certain(r):
            sure = False
            if not walk_on:
                return mods, None
        cur, prev = _step(cur * prev, r), cur
        mod = _modulus(cur)
        mods.append(mod)
        if sure:
            big_a, big_b = size + err, prev_size + prev_err
            rounding = big_a * big_b * (3 * MUL_ERR + 4 * UNIT) + 5 * TINY_ERR
            shifted = (size * prev_err + err * big_b + rounding) / r
            prev_size, prev_err = size, err
            size = GROW * mod
            err = (shifted + 2 * UNIT * size) * SAFE


# ---------------------------------------------------------------------------
# point-spectrum boundedness


@dataclass(frozen=True)
class SpectrumResult:
    status: str  # "inside" | "escaped" | "undetermined"
    level: int | None
    bound_value: float  # running maximum B at the stopping level


def in_point_spectrum(
    lam: complex, p: ProbSeq, cfg: EscapeConfig, bound: float
) -> SpectrumResult:
    """Decide whether every product q_m(lambda) stays below `bound`.

    B_n = max(B_(n-1), B_(n-2) |q_{F_n}|) is the maximum of |q_m| over all m
    whose greedy digits live in {0..n} (adjacent indices never multiply).
    Escaped when B crosses the bound or the in_E escape tests trigger; inside
    when B has plateaued below the bound by max_level; undetermined when it
    was still growing there.  The inside verdict therefore implies in_E's.

    One walk of lambda (_lane) gives the moduli of q_fib_orbit, and so B,
    and decides in_E's tests where its certificate allows; the kernel's walk
    decides the rest.  Both read `p`'s coefficient table, which asks `p`
    for each index once per descriptor, in ascending order, through the
    level where q_fib_orbit stops, and past it only where in_E walks on.
    """
    return _point_spectrum(lam, p, cfg, bound)[0]


def _point_spectrum(
    lam, p, cfg, bound, need_E: bool = False
) -> tuple[SpectrumResult, EscapeResult | None]:
    """in_point_spectrum's verdict and in_E's result, both from one walk of lambda.

    in_E's result is None when the bound was crossed first, unless `need_E`.
    """
    if not real(bound, "bound") > 0.0:
        raise ValueError(f"bound must be positive (inf allowed), got {bound!r}")
    lam = _lam(lam)
    mods, esc = _lane(lam, p, cfg, True)
    history = [1.0, 1.0]  # B_(-2) and B_(-1)
    crossed = None
    for n, mod in enumerate(mods):
        b = max(history[-1], history[-2] * mod)
        if b > bound:
            crossed = SpectrumResult("escaped", n, b)
            break
        history.append(b)
    if esc is None and (crossed is None or need_E):
        esc = _numpy_lane(lam, p, cfg)
    if crossed is not None:
        return crossed, esc
    if esc.escaped:
        return SpectrumResult("escaped", esc.level, history[-1]), esc
    window = min(PLATEAU_WINDOW, len(history) - 3)
    if window >= 1 and history[-1] > history[-1 - window]:
        return SpectrumResult("undetermined", None, history[-1]), esc
    return SpectrumResult("inside", None, history[-1]), esc


# ---------------------------------------------------------------------------
# approximate-eigenvector residuals


@dataclass(frozen=True)
class EigenResidual:
    """Residual of the truncated formal eigenvector w = (1, q_1, .., q_{F_n}, 0..).

    value: max over rows 0..F_(n+1) of |((S - lambda I) w)_i|, together with
    the analytic p_1 cap for all deeper rows, scaled by 1/sup|w|.
    interior: same sup over rows 0..F_n - 1 only (the rows untouched by the
    truncation; exactly 0 at lambda = 1).
    bound: the analytic upper bound the residual is checked against.
    """

    level: int
    value: float
    interior: float
    bound: float
    sup_norm: float


class _ResidualChunk(NamedTuple):
    """Where one chunk of eigen_residual's rows puts its terms; depends on the level alone.

    Each row i with terms is two rows of a padded term array, its real parts
    then its imaginary parts: its entries into w's support in target order,
    then -lambda w_i for i <= top, packed to the left; `keep` marks them.
    Term k is element prob_at[k] of the depth-probability table raveled,
    with 1.0 appended, times w_at[k] of (w, -lambda w), real part at flat
    position term_at[0, k] and imaginary part at term_at[1, k].  The first
    `interior` rows are the rows below top.
    """

    prob_at: np.ndarray
    w_at: np.ndarray
    term_at: np.ndarray
    keep: np.ndarray
    interior: int


#: eigen_residual's row layouts by level, (deepest row, chunks), kept for the
#: levels whose rows fit in one ROW_CHUNK (level 14 and below, 0.15 MB at
#: most each); deeper levels build theirs chunk by chunk on every call.
_RESIDUAL_ROWS: dict[int, tuple[int, list[_ResidualChunk]]] = {}


def _residual_rows(level: int, rows: int) -> tuple[int, Iterable[_ResidualChunk]]:
    """The deepest ladder row and the chunks of eigen_residual's rows 0..rows at `level`."""
    layout = _RESIDUAL_ROWS.get(level)
    if layout is not None:
        return layout
    top = FIB64[level]
    deepest, chunks = _ladder_rows(0, rows + 1)

    def chunk(states: np.ndarray, depths: np.ndarray, targets: np.ndarray) -> _ResidualChunk:
        keep = np.concatenate(((targets >= 0) & (targets <= top), states[:, None] <= top), axis=1)
        prob_at = depths[:, None] * (deepest + 1) + np.arange(targets.shape[1] + 1)
        prob_at[:, -1] = (deepest + 1) ** 2  # -lambda w_i takes the 1.0 after the table
        w_at = np.column_stack((targets, states + top + 1))
        # a row with no terms sums to 0.0, which raises neither maximum, and
        # is left out; all such rows lie past top, behind the interior rows
        counts = keep.sum(axis=1)
        width = int(counts.max())
        at = np.cumsum(keep, axis=1) - 1 + 2 * width * (np.cumsum(counts > 0) - 1)[:, None]
        parts = (
            prob_at[keep],
            w_at[keep],
            np.stack((at[keep], at[keep] + width)),
            np.repeat(np.arange(width) < counts[counts > 0][:, None], 2, axis=0),
        )
        for part in parts:
            part.flags.writeable = False  # the kept layout is shared by every call
        return _ResidualChunk(*parts, interior=max(top - int(states[0]), 0))

    if rows + 1 > ROW_CHUNK:
        return deepest, (chunk(*parts) for parts in chunks)
    layout = _RESIDUAL_ROWS[level] = deepest, [chunk(*parts) for parts in chunks]
    return layout


def _peak(start: float, size: np.ndarray, re: np.ndarray, im: np.ndarray) -> float:
    """max([start, *map(abs, map(complex, re, im))]) for start >= 0.0 and size = hypot(re, im).

    abs() is hypot too, within a few ulps of numpy's: it sees the rows within 2**-40 of the top.
    """
    top = np.fmax.reduce(size, initial=start)  # as in max, a NaN never wins
    near = np.flatnonzero(size >= top * (1.0 - 2.0**-40)).tolist() if top else []
    return max([start, *map(abs, map(complex, re[near].tolist(), im[near].tolist()))])


def eigen_residual(lam: complex, p: ProbSeq, level: int) -> EigenResidual:
    # F_(level+1) + 1 rows are checked before q_values_upto checks its F_level + 1 values
    rows = _truncation_size(integer(level, "level", 1) + 1, 2, 1)
    top = FIB64[level]
    lam = _lam(lam)
    w = q_values_upto(level, lam, p)
    p1 = coefficients(p).level(p, 0)
    wc = np.array(w)
    parts = np.stack((wc.real, wc.imag))
    # -lambda * w_i component by component, as CPython multiplies complex numbers
    lr, li = lam.real, lam.imag
    with np.errstate(over="ignore", invalid="ignore"):
        sup_norm = _peak(0.0, np.hypot(*parts), *parts)  # max(map(abs, w)), as w[0] = 1
        minus = -np.stack((lr * parts[0] - li * parts[1], lr * parts[1] + li * parts[0]))
    source = np.concatenate((parts, minus), axis=1)  # (w, -lambda w)
    interior = 0.0
    full = 0.0
    deepest, chunks = _residual_rows(level, rows)
    table = np.append(_depth_probs(p, deepest), 1.0)
    for chunk in chunks:
        terms = np.empty(chunk.keep.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            terms.reshape(-1)[chunk.term_at] = table[chunk.prob_at] * source[:, chunk.w_at]
            sums = _fsum_rows(terms, chunk.keep)
            re, im = sums[0::2], sums[1::2]
            size = np.hypot(re, im)
        interior = _peak(interior, *(x[: chunk.interior] for x in (size, re, im)))
        full = _peak(full, size, re, im)
    q_top = abs(w[top])
    bound = (abs(1.0 - p1 - lam) * q_top + p1 * q_top + p1) / sup_norm
    return EigenResidual(
        level, max(full, p1) / sup_norm, interior / sup_norm, bound, sup_norm
    )


# ---------------------------------------------------------------------------
# critical orbits and connectedness


@dataclass(frozen=True)
class PhiOrbit:
    """Critical orbit of the fibered polynomial family seeded by h."""

    h_coefficients: tuple[complex, ...]  # coefficients of z^2, z^3, ...
    values: tuple[complex, ...]


def phi_orbit(h: Sequence[complex], p: ProbSeq, levels: int) -> PhiOrbit:
    """Critical orbit phi_n(0) for h given by low-to-high coefficients.

    phi_0 is the identity, so the orbit starts at 0.  h must have zero
    constant and linear coefficients, so phi_1(0) = h(0) is 0 as well and the
    orbit is controlled by the step coefficients alone.
    """
    integer(levels, "levels", 1)
    coeffs = tuple(complex(c) for c in h)
    if len(coeffs) < 3 or coeffs[0] != 0 or coeffs[1] != 0:
        raise InvalidPolynomial(
            "h must have zero constant and linear coefficients (degree >= 2)"
        )
    if all(c == 0 for c in coeffs[2:]):
        raise InvalidPolynomial("h must not be identically zero")
    return PhiOrbit(coeffs[2:], tuple(_walk(p, levels, seeds=(0.0, 0.0))[0]))


@dataclass(frozen=True)
class ConnectivityResult:
    status: str  # "NonConnected" | "Inconclusive"
    level: int | None
    modulus: float | None

    @property
    def non_connected(self) -> bool:
        return self.status == "NonConnected"


def non_connectedness_test(p: ProbSeq, levels: int = 40) -> ConnectivityResult:
    """Sufficient test for E being disconnected, via its conjugated family.

    The conjugating quadratic z^2/p_2 - (1/p_2 - 1) has a constant term, so
    its critical value 1 - 1/p_2 feeds the recursion directly.  Escape of the
    critical orbit (two consecutive moduli above 1, or one above the safe
    radius) certifies non-connectedness; anything else is Inconclusive.
    """
    radius = escape_radius(p, 0.0)
    values = _walk(p, levels, seeds=(0.0, 1.0 - 1.0 / coefficients(p).at(p, 2)))[0]
    prev_big = False
    for n, v in enumerate(values):
        mod = _modulus(v)
        big = mod > 1.0 + ETA
        if n >= 1 and big and prev_big:
            return ConnectivityResult("NonConnected", n - 1, abs(values[n - 1]))
        if mod > radius:
            return ConnectivityResult("NonConnected", n, mod)
        prev_big = big
    return ConnectivityResult("Inconclusive", None, None)


# ---------------------------------------------------------------------------
# generalized bases


def q_general_orbit(
    lam: complex,
    p: ProbSeq,
    base: BaseDef,
    seeds: Sequence[complex] | None = None,
    levels: int = 20,
) -> list[complex]:
    """The q recursion for an order-d base with coefficients a_1..a_d.

    Level m divides by p_(r_index(m, d)) and, from level d on, takes the
    a_j-fold products of the d previous values.  Seeds q_{F_0}..q_{F_(d-1)}
    may be supplied; the default chains squares from the q_fib_orbit seed.
    The orbit stops at the first value it computes past CLAMP, so for the
    order-2 all-ones base it is q_fib_orbit's values bit for bit.
    """
    if seeds is not None and len(seeds) != base.degree:
        raise InvalidSeed(f"need exactly {base.degree} seed values, got {len(seeds)}")
    return _walk(p, levels, base.coeffs, seeds, _lam(lam))[0]
