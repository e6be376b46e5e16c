"""Full acceptance gate: fourteen checks, one verdict line per criterion.

Each test prints exactly one "[criterion NN] ...: PASS/FAIL" line (visible in
the pytest PASSES section) and then asserts, so the whole gate is readable at
a glance from the test log.
"""

import cmath
import math
import time

import numpy as np
import scipy.stats

from fibmachine import (
    ChainClass,
    ConstantTail,
    EscapeConfig,
    GeometricDecay,
    GridSpec,
    SplitMix64,
    all_ones,
    beta_eigen_residual,
    classify,
    construct_positive_recurrent,
    decode,
    eigen_residual,
    encode,
    fibered_pair,
    geometric_budget,
    in_point_spectrum,
    non_connectedness_test,
    q_fib_orbit,
    render_panel,
    scan_grid,
    stationarity_residual,
    stationary_measure,
    succ_carry,
    succ_transducer,
    transition_dist,
    transition_matrix,
    transition_terms,
    write_ppm,
)
from fibmachine.numeration import FIB64
from oracles import for_probseq, subset_max_exhaustive

HALF = ConstantTail((), 0.5)
DECREASING = ConstantTail((0.9, 0.8, 0.7, 0.6), 0.5)
GENERIC = ConstantTail((0.9, 0.8, 0.7, 0.6, 0.5, 0.45, 0.41), 0.4)
MIXED = ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)
THREE_DESCRIPTORS = (all_ones(), HALF, DECREASING)


def gate(number: int, label: str, failures: list, elapsed: float | None = None) -> None:
    status = "PASS" if not failures else "FAIL"
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {number:02d}] {label}: {status}{timing}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_criterion_01_numeration_round_trip():
    start = time.perf_counter()
    bad = []
    for n in range(100_001):
        if decode(encode(n)) != n:
            bad.append(n)
    if encode(12) != "10101":
        bad.append(("encode(12)", encode(12)))
    if encode(17) != "100101":
        bad.append(("encode(17)", encode(17)))
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        bad.append(f"runtime {elapsed:.2f}s >= 1s")
    gate(1, "numeration round-trip to 1e5 + worked encodings", bad, elapsed)


def test_criterion_02_odometer_equivalence():
    start = time.perf_counter()
    bad = []
    word = ""
    for n in range(100_001):
        expected = encode(n + 1)
        carry_word, _ = succ_carry(word)
        trans_word, _ = succ_transducer(word)
        if carry_word != expected or trans_word != expected:
            bad.append(n)
        word = expected
    for n in (3, 4, 17):
        if succ_carry(encode(n))[0] != encode(n + 1):
            bad.append(("worked case", n))
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        bad.append(f"runtime {elapsed:.2f}s >= 5s")
    gate(2, "both successor routes equal the increment oracle to 1e5", bad, elapsed)


TABLE_BLOCK = {
    0: {0: "1-p1", 1: "p1"},
    1: {0: "p1*(1-p2)", 1: "1-p1", 2: "p1*p2"},
    2: {0: "p1*(1-p2)", 2: "1-p1", 3: "p1*p2"},
    3: {3: "1-p1", 4: "p1"},
    4: {0: "p1*p2*(1-p3)", 3: "p1*(1-p2)", 4: "1-p1", 5: "p1*p2*p3"},
    5: {5: "1-p1", 6: "p1"},
    6: {5: "p1*(1-p2)", 6: "1-p1", 7: "p1*p2"},
    7: {0: "p1*p2*(1-p3)", 5: "p1*(1-p2)", 7: "1-p1", 8: "p1*p2*p3"},
    8: {8: "1-p1", 9: "p1"},
    9: {8: "p1*(1-p2)", 9: "1-p1"},
    10: {8: "p1*(1-p2)"},
    11: {},
    12: {0: "p1*p2*p3*(1-p4)", 8: "p1*p2*(1-p3)"},
    13: {},
}

VALUE_AT_HALF = {
    "1-p1": 0.5,
    "p1": 0.5,
    "p1*(1-p2)": 0.25,
    "p1*p2": 0.25,
    "p1*p2*(1-p3)": 0.125,
    "p1*p2*p3": 0.125,
    "p1*p2*p3*(1-p4)": 0.0625,
}


def test_criterion_03_table_reproduction():
    bad = []
    matrix = transition_matrix(7, HALF)
    if matrix.size != 34:
        bad.append(("size", matrix.size))
    for state, want in TABLE_BLOCK.items():
        symbolic = {t: f.text() for t, f in transition_terms(state) if t <= 9}
        if symbolic != want:
            bad.append(("symbolic", state))
        numeric = matrix.row(state).as_dict()
        for t in range(10):
            expect = VALUE_AT_HALF.get(want.get(t), 0.0)
            if abs(numeric.get(t, 0.0) - expect) > 1e-12:
                bad.append(("numeric", state, t))
    gate(3, "all 14 displayed transition rows, symbolic + numeric at 0.5", bad)


def test_criterion_04_structural_propositions():
    start = time.perf_counter()
    bad = []
    matrix = transition_matrix(17, GENERIC)
    rows = [dict(matrix.row(i).entries) for i in range(matrix.size)]
    for n in range(2, 16):
        lo, hi = FIB64[n], FIB64[n + 1]
        width = hi - lo
        for i in range(lo, hi):
            shifted = {t - lo: v for t, v in rows[i].items() if lo <= t < hi}
            reference = {t: v for t, v in rows[i - lo].items() if t < width}
            if shifted != reference:
                bad.append(("self-similarity", n, i))
    for n in range(1, 16):
        for j in range(FIB64[n], FIB64[n] + FIB64[n + 1]):
            if any(0 < t < FIB64[n] for t in rows[j]):
                bad.append(("zero-pattern", n, j))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        bad.append(f"runtime {elapsed:.2f}s >= 10s")
    gate(4, "self-similar blocks and zero rectangles exact to n=15", bad, elapsed)


def test_criterion_05_stochasticity_and_sampling():
    bad = []
    for state in range(FIB64[15]):
        if abs(transition_dist(state, GENERIC).total() - 1.0) > 1e-12:
            bad.append(("row sum", state))
    rng = SplitMix64(2026)
    draws = 100_000
    for state in (0, 2, 4, 17):
        row = transition_dist(state, HALF)
        counts = {t: 0 for t, _ in row.entries}
        for _ in range(draws):
            counts[row.sample(rng)] += 1
        stat = sum(
            (counts[t] - draws * prob) ** 2 / (draws * prob)
            for t, prob in row.entries
        )
        critical = scipy.stats.chi2.ppf(0.99, df=len(row.entries) - 1)
        if stat >= critical:
            bad.append(("chi2", state, stat, critical))
    gate(5, "rows sum to 1 below F_15; chi-square at 99% for 4 states", bad)


def test_criterion_06_block_weight_residual():
    bad = []
    for p in THREE_DESCRIPTORS:
        res = beta_eigen_residual(13, p)
        if res > 1e-12:
            bad.append((p.describe(), res))
    gate(6, "beta eigen-identity residual <= 1e-12 at level 13", bad)


def test_criterion_07_stationarity():
    bad = []
    for p in THREE_DESCRIPTORS:
        res = stationarity_residual(12, p)
        if res > 1e-12:
            bad.append((p.describe(), res))
    gate(7, "stationary weights satisfy mu*S = mu below F_12 to 1e-12", bad)


def test_criterion_08_classification_and_construction():
    bad = []
    cases = (
        (all_ones(), ChainClass.TRANSIENT),
        (HALF, ChainClass.NULL_RECURRENT),
        (GeometricDecay(1.0, 0.25), ChainClass.POSITIVE_RECURRENT),
    )
    for p, want in cases:
        got = classify(p).kind
        if got is not want:
            bad.append((p.describe(), got))
    q = construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5, 0.25), 30)
    if classify(q).kind is not ChainClass.POSITIVE_RECURRENT:
        bad.append("constructed sequence not positive recurrent")
    sums = [stationary_measure(level, q).partial_sum for level in (10, 15, 20)]
    if max(sums) / min(sums) - 1.0 >= 0.01:
        bad.append(("partial sums spread", sums))
    gate(8, "classification verdicts + constructed xi-sums within 1%", bad)


def _powc(lam: complex, n: int) -> complex:
    result = complex(1.0)
    base = complex(lam)
    while n:
        if n & 1:
            result *= base
        base *= base
        n >>= 1
    return result


def test_criterion_09_fixed_point_closed_form_disk():
    bad = []
    descriptors = (
        all_ones(),
        HALF,
        ConstantTail((), 0.3),
        ConstantTail((), 0.9),
        ConstantTail((0.1, 0.7, 0.23), 0.41),
        GeometricDecay(1.0, 0.25),
        GENERIC,
    )
    for p in descriptors:
        orbit = q_fib_orbit(1.0, p, 40)
        worst = max(abs(v - 1.0) for v in orbit.values)
        if orbit.escaped_at is not None or worst > 1e-14:
            bad.append(("fixed point", p.describe(), worst))
    lams = [
        cmath.exp(0.3j),
        cmath.exp(-2.7j),
        0.999 * cmath.exp(2.1j),
        1.0005 * cmath.exp(-1.2j),
        complex(-1.0),
        complex(1.0),
    ]
    for lam in lams:
        orbit = q_fib_orbit(lam, all_ones(), 20)
        for n, v in enumerate(orbit.values):
            want = _powc(lam, FIB64[n])
            if not cmath.isclose(v, want, rel_tol=1e-10, abs_tol=1e-300):
                bad.append(("closed form", lam, n))
    grid = GridSpec(center=0j, width=4.0, height=4.0, pixels_x=101, pixels_y=101)
    cfg = for_probseq(all_ones(), max_level=17, margin=1.0)
    cells = scan_grid(grid, all_ones(), cfg).cells
    mods = np.abs(grid.lam_array())
    off_boundary = np.abs(mods - 1.0) > 4.0 / 101
    mismatches = int((off_boundary & ((cells == -1) != (mods < 1.0))).sum())
    if mismatches:
        bad.append(("unit disk mismatches", mismatches))
    gate(9, "q(1)=1 to 1e-14; all-ones closed form; unit-disk raster", bad)


def test_criterion_10_fibered_map_consistency():
    bad = []
    rng = np.random.default_rng(2026)
    pts = rng.uniform(-1.5, 1.5, size=(100, 2))
    for re, im in pts:
        lam = complex(re, im)
        orbit = q_fib_orbit(lam, MIXED, 30)
        pairs = fibered_pair(lam, MIXED, 30)
        top = len(orbit.values) - 1
        for n in range(1, top + 1):
            x, y = pairs[n]
            ok = cmath.isclose(
                x, orbit.values[n], rel_tol=1e-10, abs_tol=1e-300
            ) and cmath.isclose(y, orbit.values[n - 1], rel_tol=1e-10, abs_tol=1e-300)
            if not ok:
                bad.append((lam, n))
    gate(10, "fibered pairs track (q_Fn, q_F(n-1)) on 100 samples", bad)


def test_criterion_11_non_connectedness_detection():
    bad = []
    worked = non_connectedness_test(ConstantTail((1.0, 1.0, 0.4), 0.4))
    if not (worked.non_connected and worked.level == 3 and worked.modulus == 1.5):
        bad.append(("worked example", worked))
    deep = non_connectedness_test(ConstantTail((1.0, 1.0, 1.0, 1.0, 0.4), 0.4))
    if not (deep.non_connected and deep.level == 7):
        bad.append(("deep pattern", deep))
    ones = non_connectedness_test(all_ones())
    if ones.status != "Inconclusive":
        bad.append(("all ones", ones))
    gate(11, "critical-orbit escape detected at the worked parameters", bad)


def test_criterion_12_residual_bound():
    bad = []
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.2, 1.2, size=(20, 2))
    for re, im in pts:
        lam = complex(re, im)
        for level in (6, 8, 10):
            res = eigen_residual(lam, MIXED, level)
            if res.value > res.bound * (1.0 + 1e-12):
                bad.append((lam, level, res.value, res.bound))
    for p in (all_ones(), HALF, ConstantTail((0.75, 0.5), 0.25)):
        res = eigen_residual(1.0, p, 8)
        if res.interior > 1e-12:
            bad.append(("fixed point interior", p.describe(), res.interior))
    gate(12, "residuals within the analytic bound; zero at the fixed point", bad)


def test_criterion_13_boundedness_dp_oracle():
    start = time.perf_counter()
    bad = []
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.1, 1.1, size=(50, 2))
    cfg = EscapeConfig(radius=1e30, max_level=12, early_exit=False)
    for re, im in pts:
        lam = complex(re, im)
        got = in_point_spectrum(lam, MIXED, cfg, bound=math.inf).bound_value
        want = subset_max_exhaustive(lam, MIXED, 12)
        if not math.isclose(got, want, rel_tol=1e-12):
            bad.append((lam, got, want))
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        bad.append(f"runtime {elapsed:.2f}s >= 30s")
    gate(13, "running-max DP equals exhaustive subset maximization", bad, elapsed)


def test_criterion_14_figure_regeneration():
    start = time.perf_counter()
    bad = []
    first = {}
    for number in range(1, 16):
        buf = render_panel(number, workers=1)
        if buf.width != 400 or buf.height != 400:
            bad.append(("size", number))
        first[number] = write_ppm(buf)
    for number in range(1, 16):
        again = write_ppm(render_panel(number, workers=1))
        if again != first[number]:
            bad.append(("rerun differs", number))
        for workers in (2, 4):
            banded = write_ppm(render_panel(number, workers=workers))
            if banded != first[number]:
                bad.append(("workers differ", number, workers))
    grid = GridSpec(center=0j, width=5.0, height=5.0, pixels_x=400, pixels_y=400)
    cfg = for_probseq(all_ones(), max_level=17, margin=1.0)
    baseline = scan_grid(grid, all_ones(), cfg).inside_count()
    dimmed = render_panel(7, workers=1).inside_count()
    if not dimmed < baseline:
        bad.append(("inside counts", dimmed, baseline))
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        bad.append(f"runtime {elapsed:.2f}s >= 120s")
    gate(14, "15 panels byte-stable across runs and workers", bad, elapsed)
