"""in_E's certified scalar lane and the one-walk point-spectrum test.

in_E decides its tests on the scalar walk of the q-recursion where a bound
on the walk's distance from numpy's arithmetic puts the modulus clear of the
threshold, and runs the numpy lane (spectrum._numpy_lane, the kernel's walk
of one lambda) everywhere else.  The numpy lane as it was written before it
ran the kernel, its own loop walked from lambda, oracles.old_in_E, is the
oracle here: wherever the scalar lane decides, its answer must be
old_in_E's, and a lambda within an ulp of a level boundary must fall back.
On those lambdas, on non-finite and huge parts, on coefficients below
TINY_R and on sequences that run out or return 0.0, in_E must be
escape_levels on a 1x1 grid: the same level, the same error and the same
requests of `p` in the same order.  Both read `p` through its coefficient
table, so `p` is asked for each index once, in ascending order, however
often it is called.  The rounding model the bound rests on is itself
checked against exact rational arithmetic.  in_point_spectrum and
`spectrum member` walk each lambda once; oracles.old_point_spectrum is the
two-walk test they replace, and their verdicts, levels, running maxima and
CLI text must be today's, with `p` asked for the indices of the levels
walked.
"""

import dataclasses
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fibmachine import (
    ConstantTail,
    EscapeConfig,
    GeometricDecay,
    PowerLawComplement,
    ProbSeq,
    RunConfig,
    TailUndefined,
    all_ones,
    cli,
    escape_levels,
    in_E,
    in_point_spectrum,
    load_config,
    q_fib_orbit,
    spectrum,
)
from fibmachine.chain import ROW_CHUNK
from fibmachine.cli import fmt, main
from fibmachine.errors import FibmachineError
from fibmachine.numeration import FIB64
from fibmachine.spectrum import (
    ABS_ERR,
    CLAMP,
    ETA,
    INSIDE,
    MUL_ERR,
    TINY_R,
    UNIT,
    _lane,
    _point_spectrum,
    r_index,
)
from oracles import Recording, for_probseq, old_in_E, old_point_spectrum
from test_chain_rows import oracle_eigen_residual
from test_escape_kernel import GEOMETRIC, LANE_SEQS, _lane_configs, _lane_lambdas

# the `scalar` benchmark's two sequences, then two of the lane sequences
NULL = ConstantTail((1.0,), 0.5)
TRANSIENT = PowerLawComplement(0.5, 2.0)
HALF = ConstantTail((), 0.5)
MIXED = ConstantTail((0.75, 0.5, 0.8, 0.7), 0.6)
FOUR = [NULL, TRANSIENT, HALF, MIXED]
TRANSIENT_DOC = {
    "prob_seq": {"variant": "power_law_complement", "prefix": [], "param": {"c": 0.5, "alpha": 2.0}}
}


def certified(lam, p, cfg):
    """The scalar lane's answer, or None where it falls back to the numpy lane."""
    return _lane(complex(lam), p, cfg, False)[1]


def outcome(result):
    return result.escaped, result.level


def window(rng, n, half=2.5):
    return [complex(rng.uniform(-half, half), rng.uniform(-half, half)) for _ in range(n)]


class ZeroAt(ProbSeq):
    """`inner` with p_index = 0.0, which 1/r refuses when its level is stepped."""

    def __init__(self, inner, index):
        self.inner, self.index = inner, index

    def p(self, i):
        return 0.0 if i == self.index else self.inner.p(i)

    def delta_lower_bound(self):
        return self.inner.delta_lower_bound()


def _answer(call, lam, p, cfg):
    """The level call(lambda, recorded p, cfg) gives, or its error, and p's requests in order."""
    recorded = Recording(p)
    try:
        got = call(lam, recorded, cfg)
    except Exception as exc:
        got = (type(exc), str(exc))
    return got, recorded.asked


def _in_E_level(lam, p, cfg):
    result = in_E(lam, p, cfg)
    return result.level if result.escaped else INSIDE


def _kernel_level(lam, p, cfg):
    return int(escape_levels(np.array([[lam]]), p, cfg)[0, 0])


def assert_in_E_is_the_kernel(lam, p, cfg):
    """in_E's level, error and requests are escape_levels' on a 1x1 grid; returns the answer."""
    got = _answer(_in_E_level, lam, p, cfg)
    assert got == _answer(_kernel_level, lam, p, cfg), (p, lam, cfg)
    return got[0]


def assert_asked_once(lam, p, cfg):
    """in_E, twice on one recorded p, asks for p_1..p_k once each, in order, the second time nothing."""
    recorded = Recording(p)
    first = outcome(in_E(lam, recorded, cfg))
    asked = list(recorded.asked)
    assert asked == list(range(1, len(asked) + 1)), (p, lam, cfg)
    assert outcome(in_E(lam, recorded, cfg)) == first
    assert recorded.asked == asked, (p, lam, cfg)


# ---------------------------------------------------------------------------
# the certificate against the numpy lane


@pytest.mark.parametrize("max_level", [0, 1, 17, 40])
@pytest.mark.parametrize("early_exit", [True, False])
def test_lane_decides_as_the_numpy_lane(max_level, early_exit):
    rng = np.random.default_rng(2000 + 2 * max_level + early_exit)
    decided = fell = 0
    for p, cfg in _lane_configs(max_level, early_exit):
        for lam in _lane_lambdas(rng, p, cfg):
            want = old_in_E(lam, p, cfg)
            got = certified(lam, p, cfg) if spectrum._certain(p.p(1)) else None
            if got is None:
                fell += 1
            else:
                assert outcome(got) == outcome(want), (p, lam, cfg)
                decided += 1
            assert outcome(in_E(lam, p, cfg)) == outcome(want)
    # a third of the lambdas have NaN, infinite or 1e308 parts or seeds on a
    # threshold, and GeometricDecay(0.5, 1e-30) has p_1 below TINY_R: these
    # fall back; the random ones nearly never do
    assert decided > 2 * fell > 0


def test_random_lambdas_rarely_fall_back():
    rng = random.Random(2100)
    decided = fell = 0
    for p, cfg in _lane_configs(17, True):
        if not spectrum._certain(p.p(1)):  # GeometricDecay(0.5, 1e-30): p_1 below TINY_R
            assert p is GEOMETRIC[1]
            continue
        for lam in window(rng, 400, 3.0):
            got = certified(lam, p, cfg)
            want = old_in_E(lam, p, cfg)
            if got is None:
                fell += 1
            else:
                assert outcome(got) == outcome(want), (p, lam)
                decided += 1
    assert decided + fell == 400 * (len(LANE_SEQS) + 1)
    assert fell < 0.005 * (decided + fell)


def _level(lam, p, cfg):
    r = old_in_E(lam, p, cfg)
    return r.level if r.escaped else None


def test_lambdas_at_level_boundaries_fall_back():
    # bisect along horizontal lines to the two adjacent floats where the
    # numpy lane's level changes: the deciding modulus lies within rounding
    # of its threshold there, so the scalar lane must not decide either one,
    # and in_E's answer there is the kernel's
    rng = random.Random(2200)
    boundary = 0
    for p, cfg in _lane_configs(17, True):
        for _ in range(5):
            im = rng.uniform(-1.5, 1.5)
            xs = np.linspace(-3.0, 3.0, 41).tolist()
            levels = [_level(complex(x, im), p, cfg) for x in xs]
            for lo, hi, low_level, high_level in zip(xs, xs[1:], levels, levels[1:]):
                if low_level == high_level:
                    continue
                while math.nextafter(lo, hi) != hi:
                    mid = lo + (hi - lo) / 2
                    if _level(complex(mid, im), p, cfg) == low_level:
                        lo = mid
                    else:
                        hi = mid
                for x in (lo, hi):
                    assert certified(complex(x, im), p, cfg) is None, (p, x, im)
                    assert_in_E_is_the_kernel(complex(x, im), p, cfg)
                    assert_asked_once(complex(x, im), p, cfg)
                    boundary += 1
    assert boundary >= 400


@pytest.mark.parametrize("early_exit", [True, False])
def test_non_finite_and_huge_parts(early_exit):
    # a NaN or infinite part falls back; a part of 1e308 is decided only where
    # the bound stays finite, and then as the numpy lane decides
    parts = [math.nan, math.inf, -math.inf, 1e308, -1e308, 0.5, -0.0]
    for p, cfg in _lane_configs(17, early_exit):
        for re in parts:
            for im in parts:
                lam = complex(re, im)
                want = outcome(old_in_E(lam, p, cfg))
                got = certified(lam, p, cfg)
                if not (math.isfinite(re) and math.isfinite(im)):
                    assert got is None, (p, lam)
                elif got is not None:
                    assert outcome(got) == want, (p, lam)
                assert outcome(in_E(lam, p, cfg)) == want
                level = int(escape_levels(np.array([[lam]]), p, cfg)[0, 0])
                assert level == (want[1] if want[0] else -1)
                assert_in_E_is_the_kernel(lam, p, cfg)
                assert_asked_once(lam, p, cfg)


def test_coefficients_below_tiny_r_end_the_certificate():
    p = GEOMETRIC[1]  # p_i = 0.5 * 1e-30^i: below TINY_R from p_1 on
    q = GeometricDecay(0.9, 1e-15)  # p_1 = 9e-16 just above TINY_R, p_2 = 9e-31 below it
    assert p.p(1) < TINY_R and q.p(1) >= TINY_R > q.p(2)
    rng = random.Random(2300)
    for seq in (p, q):
        cfg = EscapeConfig(radius=50.0, max_level=17)
        for lam in [1.0, 1.0 + 1e-300j, *window(rng, 200, 1.5)]:
            seed = 1.0 + (lam - 1.0) / seq.p(1)
            if abs(seed) <= cfg.radius:  # the seed does not settle it
                assert certified(lam, seq, cfg) is None, (seq, lam)
            assert outcome(in_E(lam, seq, cfg)) == outcome(old_in_E(lam, seq, cfg))
            assert_in_E_is_the_kernel(lam, seq, cfg)
            assert_asked_once(lam, seq, cfg)


@pytest.mark.parametrize("radius", [math.nextafter(1.0 + ETA, 2.0), 1.0 + 2 * ETA, CLAMP, 1e200])
@pytest.mark.parametrize("early_exit", [True, False])
def test_radius_at_the_edges(radius, early_exit):
    rng = random.Random(2400)
    for p in [HALF, MIXED, all_ones(), NULL, TRANSIENT]:
        cfg = EscapeConfig(radius, 17, early_exit)
        for lam in [1.0, *window(rng, 150, 3.0)]:
            want = outcome(old_in_E(lam, p, cfg))
            got = certified(lam, p, cfg)
            assert got is None or outcome(got) == want, (p, lam, cfg)
            assert outcome(in_E(lam, p, cfg)) == want
            _, esc = _point_spectrum(lam, p, cfg, 1e6, need_E=True)
            assert outcome(esc) == want


# ---------------------------------------------------------------------------
# the rounding model, against exact rational arithmetic


def _operands(rng, n):
    """Pairs of complex numbers over 200 binades, with cancelling products among them."""
    out = []
    for k in range(n):
        scale = 10.0 ** rng.uniform(-100, 100)
        a = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
        if k % 3 == 0:  # a*b's real part cancels
            b = complex(a.imag, a.real) * rng.uniform(0.5, 2.0)
        else:
            b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10.0 ** rng.uniform(-100, 100)
        out.append((a, b))
    return out


def _norm2(re, im):
    return re * re + im * im


def _within(value, exact_re, exact_im, bound_sq):
    """|value - exact|^2 <= bound_sq, exactly."""
    return _norm2(Fraction(value.real) - exact_re, Fraction(value.imag) - exact_im) <= bound_sq


def _one_lane(op, *args):
    """op on 1-element arrays, as the numpy lane calls it; long arrays may take another loop."""
    return op(*(np.array([a]) if isinstance(a, complex) else a for a in args)).tolist()[0]


def test_complex_products_are_within_the_model():
    rng = random.Random(2500)
    pairs = _operands(rng, 3000)
    fused = (np.array([x for x, _ in pairs]) * np.array([y for _, y in pairs])).tolist()
    worst = Fraction(0)
    for k, ((x, y), long_product) in enumerate(zip(pairs, fused)):
        xr, xi, yr, yi = map(Fraction, (x.real, x.imag, y.real, y.imag))
        re, im = xr * yr - xi * yi, xr * yi + xi * yr
        size_sq = _norm2(xr, xi) * _norm2(yr, yi)
        products = [long_product, x * y]
        if k < 500:
            products.append(_one_lane(np.multiply, x, y))
        for product in products:
            err_sq = _norm2(Fraction(product.real) - re, Fraction(product.imag) - im)
            worst = max(worst, err_sq / size_sq)
    assert worst <= Fraction(MUL_ERR) ** 2, math.sqrt(worst) / UNIT


def test_products_and_quotients_by_a_real_are_within_the_model():
    rng = random.Random(2600)
    pairs = _operands(rng, 1000)
    for k, (x, _) in enumerate(pairs):
        r = rng.uniform(TINY_R, 1.0) if k % 2 else 2.0 ** -rng.uniform(0, 53)
        inv = 1.0 / r
        xr, xi, exact_inv = Fraction(x.real), Fraction(x.imag), 1 / Fraction(r)
        assert abs(Fraction(inv) - exact_inv) <= UNIT * exact_inv
        # numpy's x * (1/r), on one lane, within MUL_ERR |x| (1/r)
        scaled = _one_lane(lambda a: a * inv, x)
        bound_sq = Fraction(MUL_ERR) ** 2 * _norm2(xr, xi) * Fraction(inv) ** 2
        assert _within(scaled, xr * Fraction(inv), xi * Fraction(inv), bound_sq)
        # CPython's x / r, rounded part by part
        q = x / r
        for part, exact in ((q.real, xr * exact_inv), (q.imag, xi * exact_inv)):
            assert abs(Fraction(part) - exact) <= UNIT * abs(exact)


def test_moduli_are_within_the_model():
    rng = random.Random(2700)
    zs = [x for x, _ in _operands(rng, 4000)]
    zs += [complex(1.0 + k * 2.0**-40, k * 1e-9) for k in range(200)]  # near 1 + ETA
    long_moduli = np.abs(np.array(zs)).tolist()
    low, high = (1 - Fraction(ABS_ERR)) ** 2, (1 + Fraction(ABS_ERR)) ** 2
    rounded = 0
    for k, (z, long_mod) in enumerate(zip(zs, long_moduli)):
        exact_sq = _norm2(Fraction(z.real), Fraction(z.imag))
        moduli = [long_mod, abs(z)]
        if k % 5 == 0:
            moduli.append(np.abs(np.array([z])).item())
        for mod in moduli:
            # |mod - |z|| <= ABS_ERR |z|, squared to stay rational
            ratio = Fraction(mod) ** 2 / exact_sq
            assert low <= ratio <= high, (z, mod)
            rounded += ratio != 1
    assert rounded > 0


# ---------------------------------------------------------------------------
# one walk per lambda in the point-spectrum test


def test_point_spectrum_equals_the_two_walk_oracle():
    rng = random.Random(2800)
    checked = 0
    for p in FOUR:
        cfg = for_probseq(p)
        for lam in window(rng, 2500):
            got = in_point_spectrum(lam, p, cfg, 1e6)
            want, _ = old_point_spectrum(lam, p, cfg, 1e6)
            assert (got.status, got.level, got.bound_value.hex()) == (
                want.status,
                want.level,
                want.bound_value.hex(),
            ), (p, lam)
            checked += 1
    assert checked == 10_000


@pytest.mark.parametrize("bound", [1e-300, 1.5, 1e6, math.inf])
def test_point_spectrum_and_in_E_agree_with_the_oracles_at_every_bound(bound):
    rng = random.Random(2900)
    for p, cfg in _lane_configs(17, True):
        for lam in [1.0, 0.5j, *window(rng, 60, 1.6)]:
            verdict, esc = _point_spectrum(lam, p, cfg, bound, need_E=True)
            want, want_esc = old_point_spectrum(lam, p, cfg, bound)
            assert (verdict.status, verdict.level, verdict.bound_value.hex()) == (
                want.status,
                want.level,
                want.bound_value.hex(),
            )
            assert outcome(esc) == outcome(old_in_E(lam, p, cfg))
            if want_esc is not None:
                assert outcome(esc) == outcome(want_esc)


def _walked(lam, p, levels):
    """The indices q_fib_orbit's walk reads, each once in ascending order: p_1 to p_(r_index(stop))."""
    stop = len(q_fib_orbit(lam, p, levels).values) - 1
    return list(range(1, r_index(stop) + 1 if stop else 2))


def test_point_spectrum_asks_each_coefficient_once_in_level_order():
    rng = random.Random(3000)
    for p in FOUR + [all_ones()]:
        cfg = for_probseq(p)
        for lam in [1.0, 0.3 + 0.2j, *window(rng, 40)]:
            for bound in (1.5, 1e6):
                recorded = Recording(p)
                got = in_point_spectrum(lam, recorded, cfg, bound)
                assert recorded.asked == _walked(lam, p, cfg.max_level), (p, lam)
                # a second call reads the table and asks nothing
                assert in_point_spectrum(lam, recorded, cfg, bound) == got
                assert recorded.asked == _walked(lam, p, cfg.max_level), (p, lam)


@pytest.mark.parametrize("argv", [["0.3", "0.2"], ["2", "0"], ["1", "0", "--bound", "1.5"]])
def test_member_asks_each_coefficient_once_in_level_order(capsys, monkeypatch, tmp_path, argv):
    # `spectrum member` through the CLI, its sequence wrapped to record the requests
    doc = TRANSIENT_DOC
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    recorded = []
    load = cli._load

    def recording_load(args):
        cfg = load(args)
        recorded.append(Recording(cfg.prob_seq))
        return dataclasses.replace(cfg, prob_seq=recorded[-1])

    monkeypatch.setattr(cli, "_load", recording_load)
    assert _run(capsys, "spectrum", "member", *argv, "--config", str(path))[0] == 0
    lam = complex(float(argv[0]), float(argv[1]))
    assert recorded[0].asked == _walked(lam, TRANSIENT, 17)


def test_point_spectrum_raises_the_tail_error_at_the_same_level():
    for prefix in [(0.5, 0.6), (0.5, 0.6, 0.7, 0.8), (1.0, 0.999, 0.5)]:
        p = ConstantTail(prefix, tail=None)
        cfg = EscapeConfig(radius=4.0, max_level=17)
        raised = 0
        for lam in [1.0, 0.9, 0.6 + 0.3j, 20.0, 0.3 - 0.9j, 2.0, complex(math.nan, 0.0)]:
            new, old = Recording(p), Recording(p)
            try:
                want = old_point_spectrum(lam, old, cfg, 1e6)[0]
            except TailUndefined as err:
                with pytest.raises(TailUndefined) as got:
                    in_point_spectrum(lam, new, cfg, 1e6)
                assert str(got.value) == str(err)
                # each index once, in ascending order, up to the one that raised
                assert new.asked == list(range(1, len(new.asked) + 1))
                assert new.asked[-1] == old.asked[-1]
                # that index is not kept: the next call asks it again, and only it
                asked = list(new.asked)
                with pytest.raises(TailUndefined) as again:
                    in_point_spectrum(lam, new, cfg, 1e6)
                assert str(again.value) == str(err) and again.value is not got.value
                assert new.asked == asked + asked[-1:]
                raised += 1
            else:
                got = in_point_spectrum(lam, new, cfg, 1e6)
                assert (got.status, got.level, got.bound_value.hex()) == (
                    want.status,
                    want.level,
                    want.bound_value.hex(),
                )
        assert raised > 0


# ---------------------------------------------------------------------------
# CLI text: spectrum member and spectrum residual


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _member_text(lam, p, cfg, bound):
    """`spectrum member`'s output from the two-walk oracle and the numpy lane."""
    try:
        verdict, _ = old_point_spectrum(lam, p, cfg, bound)
        esc = old_in_E(lam, p, cfg)
    except (FibmachineError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    out = f"E escaped at level {esc.level}\n" if esc.escaped else "E inside\n"
    line = f"point_spectrum {verdict.status}"
    if verdict.level is not None:
        line += f" at level {verdict.level}"
    return 0, out + f"{line} (running max {fmt(verdict.bound_value)})\n", ""


def _residual_text(lam, p, level):
    try:
        res = oracle_eigen_residual(lam, p, level)
    except (FibmachineError, ValueError) as exc:
        return 2, "", f"error: {exc}\n"
    fields = ("value", res.value), ("interior", res.interior), ("bound", res.bound)
    fields += (("sup_norm", res.sup_norm),)
    return 0, "".join(f"{name} {fmt(v)}\n" for name, v in fields), ""


CONFIGS = [
    None,
    {"prob_seq": {"variant": "constant_tail", "prefix": [1.0], "param": 0.5}},
    TRANSIENT_DOC,
    # explicit values with no tail: the walk runs out of coefficients
    {"prob_seq": {"variant": "explicit", "prefix": [0.9, 0.8, 0.7]}, "escape": {"radius": 4.0}},
]


@pytest.mark.parametrize("doc", CONFIGS)
def test_member_and_residual_text_is_todays(capsys, tmp_path, doc):
    args = []
    cfg = RunConfig(prob_seq=all_ones())
    if doc is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        args = ["--config", str(path)]
        cfg = load_config(path)
    p, esc_cfg = cfg.prob_seq, cfg.escape_config()
    grid = [k / 4 for k in range(-10, 11, 3)]
    errors = 0
    for re in grid:
        for im in grid[::2]:
            lam = complex(re, im)
            for bound in ("1e6", "1.5"):
                argv = ["spectrum", "member", repr(re), repr(im), "--bound", bound, *args]
                got = _run(capsys, *argv)
                assert got == _member_text(lam, p, esc_cfg, float(bound)), (lam, bound)
                errors += got[0] != 0
            got = _run(capsys, "spectrum", "residual", repr(re), repr(im), "6", *args)
            assert got == _residual_text(lam, p, 6), lam
    if doc is not None and doc["prob_seq"]["variant"] == "explicit":
        assert errors > 0


# ---------------------------------------------------------------------------
# eigen_residual's row layout, kept for the levels that fit one chunk


def test_residual_layout_is_kept_only_while_it_fits_one_chunk():
    spectrum._RESIDUAL_ROWS.clear()
    for level in (3, 12, 14, 15):
        a = spectrum.eigen_residual(0.3 + 0.1j, MIXED, level)
        b = spectrum.eigen_residual(0.3 + 0.1j, MIXED, level)
        assert a == b
        fits = FIB64[level + 1] + 1 <= ROW_CHUNK  # rows 0..F_(level+1)
        assert (level in spectrum._RESIDUAL_ROWS) is fits
    assert sorted(spectrum._RESIDUAL_ROWS) == [3, 12, 14]
    # a kept layout serves every sequence and lambda
    for p in FOUR:
        for lam in (0.2, 0.1 - 0.3j):
            got = spectrum.eigen_residual(lam, p, 12)
            want = oracle_eigen_residual(lam, p, 12)
            assert [x.hex() for x in (got.value, got.interior, got.bound, got.sup_norm)] == [
                x.hex() for x in (want.value, want.interior, want.bound, want.sup_norm)
            ]


# ---------------------------------------------------------------------------
# in_E is escape_levels at one lambda


def test_in_E_is_the_kernel_where_the_tail_runs_out():
    rng = random.Random(3300)
    raised = 0
    for prefix in [(), (0.5,), (0.5, 0.6), (0.5, 0.6, 0.7, 0.8), (1.0, 0.999, 0.5)]:
        p = ConstantTail(prefix, tail=None)
        for early_exit in (True, False):
            cfg = EscapeConfig(radius=4.0, max_level=17, early_exit=early_exit)
            for lam in [1.0, 0.9, 0.6 + 0.3j, 20.0, complex(math.nan, 0.0), *window(rng, 30, 2.0)]:
                got = assert_in_E_is_the_kernel(lam, p, cfg)
                raised += isinstance(got, tuple)
    assert raised > 0


def test_in_E_is_the_kernel_where_a_coefficient_is_zero():
    # p_index = 0.0 raises ZeroDivisionError where its level is stepped, and
    # not at all when the verdict comes first
    rng = random.Random(3400)
    raised = settled_first = 0
    for index in (1, 2, 3, 5, 9):
        for inner in (HALF, MIXED, all_ones()):
            p = ZeroAt(inner, index)
            cfg = EscapeConfig(radius=4.0, max_level=17)
            for lam in [1.0, 0.5, 3.0, 0.9 + 0.6j, 30.0, *window(rng, 20, 2.0)]:
                got = assert_in_E_is_the_kernel(lam, p, cfg)
                if isinstance(got, tuple):
                    assert got[0] is ZeroDivisionError
                    raised += 1
                elif index > 1:
                    settled_first += 1
    assert raised > 0 and settled_first > 0
