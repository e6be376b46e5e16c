"""Reference implementations kept in the tests only.

subset_max_exhaustive is the brute-force oracle for the boundedness DP of
in_point_spectrum.  The old_* functions are the scalar q-recursions as they
were written before the package ran them all through one walk, copied
unchanged apart from their names; the walk is checked against them bit for
bit wherever they stay within CLAMP.
"""

from fibmachine.spectrum import CLAMP, LEVEL_BUDGET, q_fib_orbit, r_index
from fibmachine.errors import BudgetExceeded, InvalidSeed


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
