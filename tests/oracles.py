"""Reference implementations kept in the tests only.

subset_max_exhaustive is the brute-force oracle for the boundedness DP of
in_point_spectrum.  The old_* functions are the scalar q-recursions as they
were written before the package ran them all through one walk, copied
unchanged apart from their names; the walk is checked against them bit for
bit wherever they stay within CLAMP.  The old_* raster functions are the
lambda grid, CSV writer and CSV reader from before the writer's value table,
the reader's fast path and the part-by-part lambda grid; the new ones must
match them byte for byte, message for message and bit for bit.  The
old_*matrix* functions are the truncated matrix built as one Distribution
per row and the `chain matrix` CSV writer that formatted it line by line;
the array-backed matrix and its block writer must match them bit for bit
and byte for byte.  old_succ_carry is the carry rewriting with one loop per
branch, as written before both branches ran through one loop; the new one
must give the same word and the same CarryTrace.  Recording is the
descriptor the tests wrap around another to see which p_i a call asks for,
and for_probseq the EscapeConfig with the radius escape_radius derives.
old_pixel is the one-pixel centre GridSpec had as a method, the reference
for its lambda array.  old_is_admissible, old_decode and old_random are
numeration's and the generator's paths from before each was written once:
the Fibonacci string shortcut and the order-2 loop of the admissibility
test, the Fibonacci digit-sequence loop of decode, and random() with the
SplitMix step written out.  old_window_is_admissible is the admissibility
test with one tuple slice per window, from before the windows were zipped.
old_numpy_lane is in_E's numpy lane as it was, its own loop over the
kernel's expressions on one lambda, and old_in_E that lane walked from
lambda; old_point_spectrum is the point-spectrum test as it walked each
orbit twice: q_fib_orbit for the running maximum, then old_in_E; the
certified in_E and the one-walk test must give their levels, verdicts and
running maxima bit for bit.  old_pi_block, old_xi, old_xi_array and
old_q_values_upto are the chain weights and the q values as written before
the coefficient schedule and the block rule each had one home, with the
index formulas derived by hand; the new ones must give the same floats and
ask the same p_i in the same order.  _runs is the per-row slicing the
residuals used before their row sums went through chain._fsum_rows;
old_transition_matrix still cuts its rows with it.
"""

import math
import warnings

import numpy as np

from fibmachine.chain import (
    Distribution,
    _ladder_chunks,
    _truncation_size,
    block_index,
    coefficients,
)
from fibmachine.cli import CSV_BLOCK, fmt
from fibmachine.config import DEFAULT_MARGIN, DEFAULT_MAX_LEVEL, EscapeConfig, escape_radius
from fibmachine.errors import BudgetExceeded, CapacityError, InadmissibleWord, InvalidSeed
from fibmachine.numeration import (
    FIB64,
    FIBONACCI,
    UINT64_MAX,
    _as_lsb,
    _fib_value,
    _scale_table,
    digits_of_int,
    fib_bits,
)
from fibmachine.odometer import CarryTrace, _checked_bits
from fibmachine.probseq import ProbSeq
from fibmachine.rng import _INCREMENT, _MIX1, _MIX2, MASK64
from fibmachine.render import IterBuffer
from fibmachine.spectrum import (
    CLAMP,
    ETA,
    LEVEL_BUDGET,
    PLATEAU_WINDOW,
    TINY_R,
    EscapeResult,
    SpectrumResult,
    _modulus,
    _orbit_through,
    q_fib_orbit,
    r_index,
)


class Recording(ProbSeq):
    """Passes p(i) through to `inner` and records every index asked for, in order."""

    def __init__(self, inner):
        self.inner = inner
        self.asked = []

    def p(self, i):
        self.asked.append(i)
        return self.inner.p(i)

    def delta_lower_bound(self):
        return self.inner.delta_lower_bound()


def for_probseq(p, max_level=DEFAULT_MAX_LEVEL, margin=DEFAULT_MARGIN, early_exit=True):
    """The escape parameters of `p` with its derived radius escape_radius(p, margin)."""
    return EscapeConfig(escape_radius(p, margin), max_level, early_exit)


def subset_max_exhaustive(lam, p, level):
    """Brute-force |q_m| maximum over all m with digits inside {0..level}.

    Slow reference used to pin the DP above; walks every admissible digit
    subset explicitly.  When the orbit stops early at the overflow clamp the
    walk covers the same truncated index set the DP sees.
    """
    orbit = q_fib_orbit(lam, p, level)
    mods = [abs(v) for v in orbit.values]
    level = min(level, len(mods) - 1)
    best = 1.0

    def walk(i, prod):
        nonlocal best
        if i > level:
            best = max(best, prod)
            return
        walk(i + 1, prod)
        walk(i + 2, prod * mods[i])
        if i == level:
            best = max(best, prod * mods[i])

    walk(0, 1.0)
    return best


def old_q_fib_orbit(lam, p, levels):
    """Returns (values, coeffs, escaped_at)."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    if levels > LEVEL_BUDGET:
        raise BudgetExceeded(f"{levels} levels exceed the {LEVEL_BUDGET} level budget")
    lam = complex(lam)
    p1 = p.p(1)
    values = [1.0 + (lam - 1.0) / p1]
    coeffs = []
    escaped_at = 0 if abs(values[0]) > CLAMP else None
    n = 1
    while escaped_at is None and n <= levels:
        r = p.p(r_index(n))
        coeffs.append(r)
        prev = values[n - 1]
        prev2 = values[n - 2] if n >= 2 else values[0]
        q = prev * prev2 / r - (1.0 / r - 1.0)
        values.append(q)
        if not (abs(q) <= CLAMP):
            escaped_at = n
        n += 1
    return tuple(values), tuple(coeffs), escaped_at


def old_fibered_pair(lam, p, levels):
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    lam = complex(lam)
    p1 = p.p(1)
    x = 1.0 + (lam - 1.0) / p1
    y = x
    pairs = [(x, y)]
    for n in range(1, levels + 1):
        r = p.p(r_index(n))
        x, y = x * y / r - (1.0 / r - 1.0), x
        pairs.append((x, y))
    return pairs


def old_phi_values(phi1, p, levels):
    values = [complex(0.0), complex(phi1)]
    for n in range(2, levels + 1):
        r = p.p(r_index(n))
        q = values[n - 1] * values[n - 2] / r - (1.0 / r - 1.0)
        values.append(q)
        if not (abs(q) <= CLAMP):
            break
    return values[: levels + 1]


def old_q_general_orbit(lam, p, base, seeds=None, levels=20):
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    lam = complex(lam)
    d = base.degree
    if seeds is not None:
        if len(seeds) != d:
            raise InvalidSeed(f"need exactly {d} seed values, got {len(seeds)}")
        values = [complex(s) for s in seeds]
    else:
        values = [1.0 + (lam - 1.0) / p.p(1)]
        for i in range(1, d):
            r = p.p(i + 1)
            values.append(values[i - 1] * values[i - 1] / r - (1.0 / r - 1.0))
    values = values[: levels + 1]
    for m in range(d, levels + 1):
        n, i = divmod(m, d)
        r = p.p(n + 1 + i)
        prod = complex(1.0)
        for j, aj in enumerate(base.coeffs, start=1):
            prod *= values[m - j] ** aj
        q = prod / r - (1.0 / r - 1.0)
        values.append(q)
        if not (abs(q) <= CLAMP):
            break
    return values


def old_lam_array(grid):
    i = np.arange(grid.pixels_x, dtype=np.float64)
    j = np.arange(grid.pixels_y, dtype=np.float64)
    x = ((i + 0.5) / grid.pixels_x - 0.5) * grid.width
    y = ((j + 0.5) / grid.pixels_y - 0.5) * grid.height
    return (grid.center + x[None, :]) + 1j * y[:, None]


def _ascii_rows(strings):
    width = max(map(len, strings))
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(len(strings), width)


def old_write_csv(buf):
    if buf.cells.size == 0:
        return "\n"
    h, w = buf.cells.shape
    xs = _ascii_rows([f"{i}," for i in range(w)])
    ys = _ascii_rows([f"{j}," for j in range(h)])
    values, which = np.unique(buf.cells, return_inverse=True)
    vs = _ascii_rows([f"{v}\n" for v in values.tolist()])
    block = np.concatenate(
        [
            np.broadcast_to(xs[None, :, :], (h, w, xs.shape[1])),
            np.broadcast_to(ys[:, None, :], (h, w, ys.shape[1])),
            vs[which.reshape(h, w)],
        ],
        axis=2,
    )
    return block[block != 0].tobytes().decode("ascii")


def _old_fast_fields(body):
    body = body.replace("\r\n", "\n")
    separators = body.encode("utf-8").translate(None, b"0123456789-")
    lines = separators.count(b"\n") + 1
    if separators != b",,\n" * (lines - 1) + b",,":
        return None
    fields_text = body.replace("\n", ",")
    if "-," in fields_text or fields_text.endswith("-"):
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            fields = np.fromstring(fields_text, dtype=np.int64, sep=",")
        except (ValueError, DeprecationWarning):
            return None
    return fields.reshape(lines, 3) if fields.size == 3 * lines else None


def _old_scan_fields(body):
    rows = []
    for lineno, line in enumerate(body.splitlines(), start=1):
        parts = line.strip().split(",")
        if len(parts) != 3:
            raise ValueError(f"line {lineno}: expected x,y,value")
        rows.append([int(s) for s in parts])
    return np.array(rows, dtype=np.int64)


def old_parse_csv(text):
    body = text.strip()
    if not body:
        raise ValueError("no cells in CSV text")
    fields = _old_fast_fields(body)
    if fields is None:
        fields = _old_scan_fields(body)
    xy = fields[:, :2]
    bad = (xy < 0).any(axis=1)
    if bad.any():
        raise ValueError(f"line {int(np.argmax(bad)) + 1}: negative coordinate")
    width = int(xy[:, 0].max()) + 1
    height = int(xy[:, 1].max()) + 1
    if len(fields) < width * height:
        raise ValueError("CSV text does not cover a full grid")
    flat = xy[:, 1] * width + xy[:, 0]
    if np.bincount(flat, minlength=width * height).max() > 1:
        repeat = np.ones(len(flat), dtype=bool)
        repeat[np.unique(flat, return_index=True)[1]] = False
        k = int(np.argmax(repeat))
        raise ValueError(f"line {k + 1}: cell ({xy[k, 0]}, {xy[k, 1]}) appears twice")
    values = fields[:, 2].astype(np.int32)
    bad = values != fields[:, 2]
    if bad.any():
        raise ValueError(f"line {int(np.argmax(bad)) + 1}: value outside the int32 range")
    cells = np.empty(width * height, dtype=np.int32)
    cells[flat] = values
    return IterBuffer(width, height, cells.reshape(height, width))


def _runs(flat, counts):
    """Consecutive slices of `flat`, counts[r] items in slice r."""
    ends = np.cumsum(counts).tolist()
    return map(flat.__getitem__, map(slice, [0, *ends[:-1]], ends))


def old_transition_matrix(level, p):
    """The truncated matrix built one Distribution per row; returns its rows and leak."""
    size = _truncation_size(level)
    row = coefficients(p).row
    positive = []  # by depth, without underflowed zeros
    rows = []
    for states, depths, targets, probs in _ladder_chunks(0, size, p):
        while len(positive) <= depths.max():
            positive.append(tuple(v for v in row(p, len(positive)) if v > 0.0))
        kept = probs > 0.0
        row_targets = _runs(targets[kept].tolist(), kept.sum(axis=1))
        row_probs = map(positive.__getitem__, depths.tolist())
        rows += map(Distribution, states.tolist(), map(tuple, map(zip, row_targets, row_probs)))
    top = rows[-1].entries
    rows[-1] = Distribution(size - 1, tuple((t, v) for t, v in top if t < size))
    leak = math.fsum(v for t, v in top if t >= size)
    return tuple(rows), leak


def old_matrix_csv(rows, leak_state, leak_prob):
    """The `chain matrix` text written one f-string per line."""
    text = {}
    yield "from,to,prob\n"
    lines = []
    for row in rows:
        for target, prob in row.entries:
            shown = text.get(prob)
            if shown is None:
                shown = text[prob] = fmt(prob)
            lines.append(f"{row.state},{target},{shown}\n")
        if len(lines) >= CSV_BLOCK:
            yield "".join(lines)
            lines.clear()
    yield "".join(lines)
    yield f"# leak from state {leak_state}: {fmt(leak_prob)}\n"


def old_succ_carry(word):
    """Increment an admissible word via the carry rewriting rules."""
    eps = _checked_bits(word)
    if eps is None:
        raise InadmissibleWord(f"word {word!r} is not an admissible Fibonacci word")
    out = 0  # rewritten digits, as bits

    if eps & 1 == 0:
        branch, start = "low_zero", -1
        carries = [1]
        i = 0
        while carries[-1] == 1:
            c = carries[-1]
            lo, hi = (eps >> (2 * i)) & 1, (eps >> (2 * i + 1)) & 1
            out |= ((lo + c) // (hi * c + 1)) << (2 * i) | (hi // (c + 1)) << (2 * i + 1)
            carries.append(c * hi)
            i += 1
        top = 2 * i  # digits below top were rewritten
    else:
        branch, start = "low_one", 0
        carries = [1]
        i = 1
        while carries[-1] == 1:
            c = carries[-1]
            lo, hi = (eps >> (2 * i - 1)) & 1, (eps >> (2 * i)) & 1
            out |= ((lo + c) // (hi * c + 1)) << (2 * i - 1) | (hi // (c + 1)) << (2 * i)
            carries.append(c * hi)
            i += 1
        top = 2 * i - 1

    return format((eps >> top << top) | out, "b"), CarryTrace(branch, tuple(carries), start)


def old_pixel(grid, i, j):
    """Center of pixel column i, row j."""
    x = ((i + 0.5) / grid.pixels_x - 0.5) * grid.width
    y = ((j + 0.5) / grid.pixels_y - 0.5) * grid.height
    return (grid.center + x) + 1j * y


def old_is_admissible(word, base=FIBONACCI):
    a = base.coeffs
    if isinstance(word, str) and a == (1, 1):
        return fib_bits(word) is not None
    try:
        eps = _as_lsb(word)
    except InadmissibleWord:
        return False
    if len(a) == 2:
        a1, a2 = a
        prev = 0
        for e in eps:
            if e < 0 or e > a1 or (e == a1 and prev >= a2):
                return False
            prev = e
        return True
    if any(e < 0 for e in eps):
        return False
    # the window at digit i reads eps[i], eps[i-1], ..: a slice of the MSB-first digits
    d = base.degree
    msb = eps[::-1] + (0,) * (d - 1)
    return all(msb[j : j + d] < a for j in range(len(eps)))


def old_decode(word, base=FIBONACCI):
    if base.coeffs == (1, 1) and isinstance(word, str):
        bits = fib_bits(word)
        if bits is not None:
            return _fib_value(bits)
        # an inadmissible word: the digit walk below names its first fault
    eps = _as_lsb(word)
    if base.coeffs == (1, 1):
        # digit sequences: admissibility fused into the accumulation over FIB64
        fib = FIB64
        nfib = len(fib)
        total = 0
        prev = 0
        for i, e in enumerate(eps):
            if e == 1:
                if prev:
                    raise InadmissibleWord(f"word {word!r} is not admissible in this base")
                if i >= nfib:
                    raise CapacityError("decoded value exceeds the 64-bit range")
                total += fib[i]
                prev = 1
            elif e == 0:
                prev = 0
            else:
                raise InadmissibleWord(f"word {word!r} is not admissible in this base")
        if total > UINT64_MAX:
            raise CapacityError("decoded value exceeds the 64-bit range")
        return total
    if not old_is_admissible(eps, base):
        raise InadmissibleWord(f"word {word!r} is not admissible in this base")
    top = len(eps)
    while top > 0 and eps[top - 1] == 0:
        top -= 1
    values = _scale_table(base)
    if top > len(values):
        raise CapacityError(f"scale value F_{len(values)} exceeds the 64-bit range")
    total = sum(e * v for e, v in zip(eps, values))  # digits above top are 0
    if total > UINT64_MAX:
        raise CapacityError("decoded value exceeds the 64-bit range")
    return total


def old_random(rng):
    """rng.random() with the step of next_u64 written out, advancing rng's state."""
    z = rng._state = (rng._state + _INCREMENT) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def old_window_is_admissible(word, base=FIBONACCI):
    try:
        eps = _as_lsb(word)
    except InadmissibleWord:
        return False
    if any(e < 0 for e in eps):
        return False
    # the window at digit i reads eps[i], eps[i-1], ..: a slice of the MSB-first digits
    a, d = base.coeffs, base.degree
    msb = eps[::-1] + (0,) * (d - 1)
    return all(msb[j : j + d] < a for j in range(len(eps)))


def old_numpy_lane(lam, p, cfg, known):
    radius, pair_rule = cfg.radius, cfg.early_exit
    prev_big = False
    inv_p1 = 1.0 / known[0]
    with np.errstate(over="ignore", invalid="ignore"):
        cur = (np.array([complex(lam)]) - 1.0) * inv_p1 + 1.0
        prev = cur  # step 1 squares the seed
        for n in range(cfg.max_level + 1):
            if n >= 1:
                r = known[n] if n < len(known) else p.p(r_index(n))
                inv_r, prod, prev = 1.0 / r, cur * prev, cur
                cur = prod * inv_r - (inv_r - 1.0) if r >= TINY_R else (prod - 1.0) * inv_r + 1.0
            m = np.abs(cur).item()
            big = m > 1.0 + ETA
            if pair_rule and big and prev_big:
                return EscapeResult(True, n - 1)
            if not m <= radius:
                return EscapeResult(True, n)
            prev_big = big
    return EscapeResult(False, None)


def old_in_E(lam, p, cfg):
    return old_numpy_lane(lam, p, cfg, [p.p(1)])


def old_point_spectrum(lam, p, cfg, bound):
    """(verdict, in_E result or None where the bound was crossed first)."""
    if not bound > 0.0:
        raise ValueError(f"bound must be positive (inf allowed), got {bound!r}")
    orbit = q_fib_orbit(lam, p, cfg.max_level)
    history = [1.0, 1.0]  # B_(-2) and B_(-1)
    for n, q in enumerate(orbit.values):
        b = max(history[-1], history[-2] * _modulus(q))
        if b > bound:
            return SpectrumResult("escaped", n, b), None
        history.append(b)
    esc = old_in_E(lam, p, cfg)
    if esc.escaped:
        return SpectrumResult("escaped", esc.level, history[-1]), esc
    window = min(PLATEAU_WINDOW, len(history) - 3)
    if window >= 1 and history[-1] > history[-1 - window]:
        return SpectrumResult("undetermined", None, history[-1]), esc
    return SpectrumResult("inside", None, history[-1]), esc


def old_pi_block(r, p):
    # Pi_0 = 1; odd steps divide by p_((k+3)/2), even steps by p_(k/2 + 1)
    v = 1.0
    for k in range(1, r + 1):
        v /= p.p((k + 3) // 2) if k % 2 else p.p(k // 2 + 1)
    return v


def old_beta(n, p):
    return old_pi_block(block_index(n), p)


def old_xi(n, p):
    v = 1.0
    for i, e in enumerate(digits_of_int(n)):
        if e and i >= 1:
            v *= p.p((i + 1) // 2 + 1)
    return v


def old_xi_array(size, p):
    out = [1.0] * size
    m = 1
    while m < len(FIB64) and FIB64[m] < size:
        fm = FIB64[m]
        xif = p.p((m + 1) // 2 + 1)
        for k in range(fm, min(size, FIB64[m + 1])):
            out[k] = xif * out[k - fm]
        m += 1
    return out


def old_q_values_upto(level, lam, p):
    top = _truncation_size(level, 0, 1)
    values = _orbit_through(lam, p, level)
    out = [complex(1.0)] * (top + 1)
    for m, qf in enumerate(values):
        lo = FIB64[m]
        hi = min(top + 1, FIB64[m + 1])
        for idx in range(lo, hi):
            out[idx] = qf * out[idx - lo]
    return out
