"""The guards of errors.py: `integer` for counts, `real` for reals, `within` for budgets.

Every count argument refuses a bool and a float, integral or not, with a
ValueError naming it, before any work and without a TypeError from deeper
down.  Every budget refusal has the one message format, and a scan of the
source keeps any other module from raising BudgetExceeded or comparing a
budget itself.  The real and flag arguments of the public entry points
refuse a bool (or, for a flag, anything else) naming the field, a real
one refuses any other non-number the same way, numpy scalars still pass,
and ConstructedSeq checks its p1, p2 and budget where they enter.  A seed
enters SplitMix64 and simulate through `integer` too, and lambda enters
every spectral entry point as a number: a bool, a str or a non-number is
refused naming lam.  A second scan keeps the
coefficient schedule in r_index: no other expression computes the index of
a p.p(...) request by halving.  A third keeps FiberWalk the only caller of
the escape kernel: no _walk_lanes call or _Rules built outside it.  A
fourth keeps the residuals' row sums in chain._fsum_rows: neither
beta_eigen_residual, stationarity_residual nor eigen_residual names fsum.
A fifth keeps one ladder shape: t, the trailing zero digits, computed only
in chain._trailing_zeros (by its self-copying fill, with no bitwise_count
anywhere), the one stepped slice of FIB64 in chain._RUNG_SUMS, and no sort
or count of falls by target in stationarity_residual.
"""

import ast
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fibmachine
from fibmachine import (
    FIBONACCI,
    BudgetExceeded,
    ConstantTail,
    EscapeConfig,
    GridSpec,
    InvalidBudget,
    InvalidProbability,
    SplitMix64,
    base_sequence,
    beta,
    beta_eigen_residual,
    block_index,
    construct_positive_recurrent,
    digits_of_int,
    eigen_residual,
    encode,
    fibered_pair,
    geometric_budget,
    in_E,
    in_point_spectrum,
    non_connectedness_test,
    phi_orbit,
    q_at_integer,
    q_fib_orbit,
    q_general_orbit,
    q_values_upto,
    scan_grid,
    simulate,
    stationarity_residual,
    stationary_measure,
    transition_dist,
    transition_matrix,
    transition_terms,
    xi,
)
from fibmachine.chain import MATRIX_BUDGET, STEP_BUDGET, ConstructedSeq
from fibmachine.config import RunConfig, escape_radius, load_config
from fibmachine.errors import ConfigError
from fibmachine.numeration import FIB64, fib_bits_of_int
from fibmachine.render import PIXEL_BUDGET
from fibmachine.spectrum import LEVEL_BUDGET

HALF = ConstantTail((), 0.5)
SMALL = GridSpec(pixels_x=4, pixels_y=3)
CFG = EscapeConfig(4.0, 5)

ENTRIES = {
    "transition_matrix": ("level", lambda v: transition_matrix(v, HALF)),
    "beta_eigen_residual": ("level", lambda v: beta_eigen_residual(v, HALF)),
    "stationary_measure": ("level", lambda v: stationary_measure(v, HALF)),
    "stationarity_residual": ("level", lambda v: stationarity_residual(v, HALF)),
    "q_values_upto": ("level", lambda v: q_values_upto(v, 0.5, HALF)),
    "eigen_residual": ("level", lambda v: eigen_residual(0.5, HALF, v)),
    "q_fib_orbit": ("levels", lambda v: q_fib_orbit(0.5, HALF, v)),
    "fibered_pair": ("levels", lambda v: fibered_pair(0.5, HALF, v)),
    "q_general_orbit": ("levels", lambda v: q_general_orbit(0.5, HALF, FIBONACCI, levels=v)),
    "non_connectedness_test": ("levels", lambda v: non_connectedness_test(HALF, v)),
    "phi_orbit": ("levels", lambda v: phi_orbit([0, 0, 1], HALF, v)),
    "EscapeConfig": ("max_level", lambda v: EscapeConfig(4.0, v)),
    "simulate steps": ("steps", lambda v: simulate(0, v, HALF, 1)),
    "simulate start": ("state", lambda v: simulate(v, 5, HALF, 1)),
    "simulate seed": ("seed", lambda v: simulate(0, 5, HALF, v)),
    "SplitMix64": ("seed", SplitMix64),
    "scan_grid": ("workers", lambda v: scan_grid(SMALL, HALF, CFG, workers=v)),
    "GridSpec pixels_x": ("grid pixels_x", lambda v: GridSpec(pixels_x=v)),
    "GridSpec pixels_y": ("grid pixels_y", lambda v: GridSpec(pixels_y=v)),
    "TruncatedMatrix.row": ("state", lambda v: transition_matrix(5, HALF).row(v)),
    "transition_terms": ("state", transition_terms),
    "transition_dist": ("state", lambda v: transition_dist(v, HALF)),
    "block_index": ("n", block_index),
    "beta": ("n", lambda v: beta(v, HALF)),
    "base_sequence": ("count", lambda v: base_sequence(FIBONACCI, v)),
    "encode": ("n", encode),
    "digits_of_int": ("n", digits_of_int),
    "fib_bits_of_int": ("n", fib_bits_of_int),
    "xi": ("n", lambda v: xi(v, HALF)),
    "q_at_integer": ("n", lambda v: q_at_integer(v, 0.5, HALF)),
    "construct_positive_recurrent": (
        "count",
        lambda v: construct_positive_recurrent(1.0, 0.5, geometric_budget(0.5), v),
    ),
}


@pytest.mark.parametrize("bad", [True, 2.0, 2.5])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_count_argument_refuses_bools_and_floats(entry, bad):
    what, call = ENTRIES[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be an integer, got {bad!r}')}$"):
        call(bad)


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_every_count_argument_takes_a_numpy_integer(entry):
    ENTRIES[entry][1](np.int64(3))


def test_a_seed_is_any_integer_masked_to_64_bits():
    def draws(seed):
        rng = SplitMix64(seed)
        return [rng.next_u64() for _ in range(3)]

    for seed in (np.int64(7), np.uint64(7), np.int8(7), 7 + 2**64):
        assert draws(seed) == draws(7)
    assert SplitMix64(-1)._state == SplitMix64(np.int64(-1))._state == 2**64 - 1
    got = simulate(0, 50, HALF, np.int64(7))
    assert got == simulate(0, 50, HALF, 7) == simulate(0, 50, HALF, SplitMix64(7))


def budget_message(count, budget, unit):
    return f"^{count} exceeds the {budget} {unit} budget$"


def test_matrix_budget_message():
    for call, count in [
        (lambda: transition_matrix(32, HALF), FIB64[32]),
        (lambda: stationarity_residual(32, HALF), FIB64[32]),
        (lambda: q_values_upto(32, 0.5, HALF), FIB64[32] + 1),
        (lambda: eigen_residual(0.5, HALF, 31), FIB64[32] + 1),
    ]:
        with pytest.raises(BudgetExceeded, match=budget_message(count, MATRIX_BUDGET, "state")):
            call()


def test_level_budget_message():
    want = budget_message(LEVEL_BUDGET + 1, LEVEL_BUDGET, "level")
    for call in (
        lambda: q_fib_orbit(0.5, HALF, LEVEL_BUDGET + 1),
        lambda: EscapeConfig(4.0, LEVEL_BUDGET + 1),
    ):
        with pytest.raises(BudgetExceeded, match=want):
            call()


def test_step_budget_message():
    with pytest.raises(BudgetExceeded, match=budget_message(STEP_BUDGET + 1, STEP_BUDGET, "step")):
        simulate(0, STEP_BUDGET + 1, HALF, 1)


def test_pixel_budget_message():
    grid = GridSpec(pixels_x=10001, pixels_y=10000)
    with pytest.raises(BudgetExceeded, match=budget_message(100010000, PIXEL_BUDGET, "pixel")):
        scan_grid(grid, HALF, CFG)


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def budget_sites(source):
    """(line, what) of every BudgetExceeded raise and every comparison of a *_BUDGET name."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if _name(raised) == "BudgetExceeded":
                sites.append((node.lineno, "raise"))
        if isinstance(node, ast.Compare):
            if any(_name(x).endswith("_BUDGET") for x in (node.left, *node.comparators)):
                sites.append((node.lineno, "compare"))
    return sorted(sites)


def test_budget_sites_are_found():
    source = "if n > render.PIXEL_BUDGET:\n    raise BudgetExceeded('x')\nraise BudgetExceeded\n"
    assert budget_sites(source) == [(1, "compare"), (2, "raise"), (3, "raise")]


def test_only_errors_raises_budget_exceeded_or_compares_a_budget():
    package = Path(fibmachine.__file__).parent
    sites = {
        path.name: budget_sites(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert len(sites) > 10
    assert {name: found for name, found in sites.items() if found and name != "errors.py"} == {}
    assert [what for _, what in sites["errors.py"]] == ["raise"]


# ---------------------------------------------------------------------------
# reals and flags


FIELDS = {
    "GridSpec center": ("grid center must be", lambda v: GridSpec(center=v)),
    "GridSpec width": ("grid width must be", lambda v: GridSpec(width=v)),
    "GridSpec height": ("grid height must be", lambda v: GridSpec(height=v)),
    "EscapeConfig early_exit": ("early_exit must be", lambda v: EscapeConfig(2.0, 5, v)),
    "EscapeConfig radius": ("escape radius must be", lambda v: EscapeConfig(v, 5)),
    "escape_radius margin": ("margin must be", lambda v: escape_radius(HALF, v)),
    "RunConfig margin": ("margin must be", lambda v: RunConfig(HALF, margin=v).escape_config()),
    "geometric_budget ratio": ("ratio must be", lambda v: geometric_budget(0.5, v)),
    "in_point_spectrum bound": ("bound must be", lambda v: in_point_spectrum(0.5, HALF, CFG, v)),
    "stationary_measure summable_threshold": (
        "threshold must be",
        lambda v: stationary_measure(5, HALF, summable_threshold=v),
    ),
}


@pytest.mark.parametrize("bad", [True, False])
@pytest.mark.parametrize("entry", sorted(FIELDS))
def test_every_real_or_flag_argument_refuses_a_bool_where_it_is_not_one(entry, bad):
    what, call = FIELDS[entry]
    if entry.endswith("early_exit"):
        call(bad)  # a flag takes a bool
        bad = "no" if bad else 1
    with pytest.raises(ValueError, match=f"^{re.escape(what)}.*{re.escape(repr(bad))}$"):
        call(bad)


#: The FIELDS entries that enter through errors.real.
REALS = (
    "EscapeConfig radius",
    "RunConfig margin",
    "escape_radius margin",
    "geometric_budget ratio",
    "in_point_spectrum bound",
    "stationary_measure summable_threshold",
)


@pytest.mark.parametrize("bad", ["1", "x", b"5", None, [4.0], 5j, np.bool_(True), Decimal("5")])
@pytest.mark.parametrize("entry", REALS)
def test_every_real_argument_refuses_a_non_number_naming_it(entry, bad):
    what, call = FIELDS[entry]
    message = f"{what} a real number, got {bad!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


def test_real_arguments_out_of_range_keep_their_messages():
    for call, message in [
        (lambda: EscapeConfig(1.0, 5), "escape radius must be finite and exceed 1, got 1.0"),
        (lambda: escape_radius(HALF, -1.0), "margin must be nonnegative and finite, got -1.0"),
        (lambda: in_point_spectrum(0.5, HALF, CFG, 0), "bound must be positive (inf allowed), got 0"),
        (lambda: stationary_measure(5, HALF, -1), "threshold must be positive (inf allowed), got -1"),
        (lambda: geometric_budget(0.5, 1), "ratio must lie in (0, 1)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    assert escape_radius(HALF, Fraction(1, 2)) == escape_radius(HALF, 0.5)
    assert EscapeConfig(np.int64(4), 5).radius == 4
    assert geometric_budget(0.5, np.float32(0.5))(3) == geometric_budget(0.5, 0.5)(3)


def test_numpy_scalars_still_pass():
    assert GridSpec(center=np.float32(0.5)).center == 0.5
    assert GridSpec(center=np.complex64(0.5 - 0.25j)).center == 0.5 - 0.25j
    assert GridSpec(width=np.float64(2.0), height=np.float32(3.0)).width == 2.0
    cfg = EscapeConfig(np.float64(4.0), 5)
    assert in_point_spectrum(0.5, HALF, cfg, np.float64(1e6)) == in_point_spectrum(
        0.5, HALF, cfg, 1e6
    )
    assert not stationary_measure(5, HALF, np.float64(1e6)).unsummable
    # the threshold is a float from where it enters, so the result holds Python types
    for threshold in (np.float64(1e6), np.float32(1e6), np.float64(1.0), np.float32(1.0)):
        measure = stationary_measure(5, HALF, threshold)
        want = stationary_measure(5, HALF, float(threshold))
        assert measure.unsummable is want.unsummable is (float(threshold) < 6.5)
        assert type(measure.threshold) is float and measure.threshold == float(threshold)
        assert measure == want
    huge = stationary_measure(5, HALF, 10**400)
    assert huge.unsummable is False and huge.threshold == math.inf
    for bad in (np.float64(math.nan), np.float64(0.0), np.float32(-1.0)):
        message = f"threshold must be positive (inf allowed), got {bad!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stationary_measure(5, HALF, bad)


LAMBDA = {
    "q_fib_orbit": lambda v: q_fib_orbit(v, HALF, 5),
    "q_at_integer": lambda v: q_at_integer(3, v, HALF),
    "q_values_upto": lambda v: q_values_upto(3, v, HALF),
    "fibered_pair": lambda v: fibered_pair(v, HALF, 5),
    "in_E": lambda v: in_E(v, HALF, CFG),
    "in_point_spectrum": lambda v: in_point_spectrum(v, HALF, CFG, 1e6),
    "eigen_residual": lambda v: eigen_residual(v, HALF, 3),
    "q_general_orbit": lambda v: q_general_orbit(v, HALF, FIBONACCI, levels=5),
}


@pytest.mark.parametrize("bad", [True, False, np.bool_(True), "0.5", "1+2j", b"1", None, [0.5]])
@pytest.mark.parametrize("entry", sorted(LAMBDA))
def test_every_lambda_refuses_a_bool_a_str_or_a_non_number(entry, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(f'lam must be a number, got {bad!r}')}$"):
        LAMBDA[entry](bad)


@pytest.mark.parametrize("entry", sorted(LAMBDA))
def test_every_lambda_takes_any_number(entry):
    call = LAMBDA[entry]
    for lam in (np.complex128(0.5 + 0.25j), np.complex64(0.5 - 0.25j), np.float32(0.5),
                np.int64(0), Fraction(1, 2), 1):
        assert call(lam) == call(complex(lam))


def test_the_config_loader_messages_stay(tmp_path):
    for doc, message in [
        ({"grid": {"center": True}}, "grid center must be a number, got True"),
        ({"grid": {"width": True}}, "grid width must be a number, got True"),
        ({"escape": {"early_exit": "no"}}, "escape early_exit must be true or false, got 'no'"),
        ({"escape": {"early_exit": 1}}, "escape early_exit must be true or false, got 1"),
    ]:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            load_config(path)


def test_constructed_seq_checks_p1_p2_and_the_budget_where_they_enter():
    budget = geometric_budget(0.5)
    for p1, p2, what in [(True, 0.5, "p1"), (0.5, True, "p2"), ("0.5", 0.5, "p1"),
                         (0.5, "0.5", "p2"), (0.0, 0.5, "p1"), (0.5, 1.5, "p2"),
                         (math.nan, 0.5, "p1"), (0.5, math.inf, "p2")]:
        with pytest.raises(InvalidProbability, match=f"^{what} must "):
            ConstructedSeq(p1, p2, budget, 3)
    assert type(ConstructedSeq(np.float64(0.5), 1, geometric_budget(1.0), 3).p(2)) is float
    nan_at = lambda k: lambda i: math.nan if i == k else budget(i)
    with pytest.raises(InvalidBudget, match="b\\(1\\) = 1"):
        ConstructedSeq(1.0, 0.5, nan_at(1), 3)
    with pytest.raises(InvalidBudget, match="b\\(2\\) = 3\\*p2"):
        ConstructedSeq(1.0, 0.5, nan_at(2), 3)


# ---------------------------------------------------------------------------
# the coefficient schedule


def halved_requests(source):
    """Lines of every p(...) call whose argument halves with //, outside a function r_index."""
    tree = ast.parse(source)
    skip = {
        id(node)
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef) and function.name == "r_index"
        for node in ast.walk(function)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in skip or not (isinstance(node, ast.Call) and _name(node.func) == "p"):
            continue
        for arg in node.args:
            if any(
                isinstance(part, ast.BinOp) and isinstance(part.op, ast.FloorDiv)
                for part in ast.walk(arg)
            ):
                lines.append(node.lineno)
    return sorted(set(lines))


def test_halved_requests_are_found():
    source = (
        "def r_index(n, d=2):\n    return p.p(n // d)\n"
        "v /= p.p((k + 3) // 2) if k % 2 else p.p(k // 2 + 1)\n"
        "x = self.p.p((i + 1) // 2 + 1)\n"
        "y = p.p(r_index(m))\n"
    )
    assert halved_requests(source) == [3, 4]


def test_only_r_index_computes_a_coefficient_index():
    package = Path(fibmachine.__file__).parent
    found = {
        path.name: halved_requests(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


# ---------------------------------------------------------------------------
# the escape kernel's one caller


def kernel_sites(source):
    """(line, what) of each _walk_lanes or _Rules call outside class FiberWalk, and of class _Steps."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name == "FiberWalk"
        for node in ast.walk(cls)
    }
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "_Steps":
            sites.append((node.lineno, "_Steps"))
        if isinstance(node, ast.Call) and _name(node.func) in ("_walk_lanes", "_Rules"):
            if id(node) not in inside:
                sites.append((node.lineno, _name(node.func)))
    return sorted(sites)


def test_kernel_sites_are_found():
    source = (
        "class FiberWalk:\n"
        "    def root(self):\n"
        "        _walk_lanes(lam, None, 0, out, _Rules(step, 4.0, 5, True, 4.0))\n"
        "def _numpy_lane(lam):\n"
        "    return spectrum._walk_lanes(lam, None, 0, out, _Rules(step, 4.0, 5, True, 4.0))\n"
        "class _Steps:\n"
        "    pass\n"
    )
    assert kernel_sites(source) == [(5, "_Rules"), (5, "_walk_lanes"), (6, "_Steps")]


def test_fiber_walk_is_the_only_caller_of_the_escape_kernel():
    package = Path(fibmachine.__file__).parent
    found = {
        path.name: kernel_sites(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert len(found) > 10
    assert {name: sites for name, sites in found.items() if sites} == {}
    # the scan sees the calls FiberWalk makes
    source = (package / "spectrum.py").read_text(encoding="utf-8")
    calls = [
        _name(node.func)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _name(node.func) in ("_walk_lanes", "_Rules")
    ]
    assert calls.count("_walk_lanes") >= 2 and calls.count("_Rules") >= 2


# ---------------------------------------------------------------------------
# one exact row sum


#: The residuals whose row sums go through chain._fsum_rows, by module.
RESIDUALS = {
    "chain.py": ("beta_eigen_residual", "stationarity_residual"),
    "spectrum.py": ("eigen_residual",),
}


def residual_sums(source, functions):
    """{function: (fsum lines, calls)} for each named function: where it names fsum, and what it calls."""
    found = {}
    for function in ast.walk(ast.parse(source)):
        if isinstance(function, ast.FunctionDef) and function.name in functions:
            nodes = list(ast.walk(function))
            lines = [node.lineno for node in nodes if _name(node) == "fsum"]
            calls = {_name(node.func) for node in nodes if isinstance(node, ast.Call)}
            found[function.name] = (sorted(lines), calls)
    return found


def test_fsum_in_a_residual_is_found():
    source = (
        "def beta_eigen_residual(level, p):\n"
        "    return max(map(math.fsum, rows))\n"
        "def eigen_residual(lam, p, level):\n"
        "    return fsum(row) + _fsum_rows(terms, keep)\n"
        "def other():\n"
        "    return math.fsum(x)\n"
    )
    found = residual_sums(source, ("beta_eigen_residual", "eigen_residual"))
    assert {name: lines for name, (lines, _) in found.items()} == {
        "beta_eigen_residual": [2],
        "eigen_residual": [4],
    }
    assert "_fsum_rows" in found["eigen_residual"][1]


def test_the_residuals_sum_their_rows_only_through_the_one_helper():
    package = Path(fibmachine.__file__).parent
    for name, functions in RESIDUALS.items():
        found = residual_sums((package / name).read_text(encoding="utf-8"), functions)
        assert sorted(found) == sorted(functions), name
        for function, (lines, calls) in found.items():
            assert lines == [], (name, function)
            assert "_fsum_rows" in calls, (name, function)


# ---------------------------------------------------------------------------
# one ladder shape


def _top_name(node):
    """The name a top-level statement defines or assigns."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return ", ".join(_name(target) for target in targets if target is not None)


def _sliced(node):
    """The name of an array sliced by `node`, or None."""
    if isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice):
        return _name(node.value)
    return None


def shape_sites(source):
    """(top-level name, what) of each bitwise_count named, each t fill and each stepped slice of FIB64.

    A t fill copies a slice of an array into another slice of it, as
    t(F_m + k) = t(k) does.
    """
    sites = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if _name(node) == "bitwise_count":
                sites.append((_top_name(top), "bitwise_count"))
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and _sliced(node.value) is not None
                and _sliced(node.targets[0]) == _sliced(node.value)
            ):
                sites.append((_top_name(top), "t fill"))
            if (
                isinstance(node, ast.Subscript)
                and _name(node.value) == "FIB64"
                and isinstance(node.slice, ast.Slice)
                and node.slice.step is not None
            ):
                sites.append((_top_name(top), "FIB64 step"))
    return sorted(sites)


def test_shape_sites_are_found():
    source = (
        "_RUNG_SUMS = tuple(accumulate(FIB64[0::2]))\n"
        "def _ladder_rows(start, stop):\n"
        "    def chunks():\n"
        "        return np.bitwise_count(flip), FIB64[k0 : k0 + 8 : 2], FIB64[1:4]\n"
        "x: int = bitwise_count(3)\n"
        "def _shapes(stop):\n"
        "    t[lo + 1 : lo + count] = t[1:count]\n"
        "    u[1:3] = t[1:3]\n"
        "    t[lo] = t[1]\n"
    )
    assert shape_sites(source) == [
        ("_RUNG_SUMS", "FIB64 step"),
        ("_ladder_rows", "FIB64 step"),
        ("_ladder_rows", "bitwise_count"),
        ("_shapes", "t fill"),
        ("x", "bitwise_count"),
    ]


def test_the_ladder_shape_is_computed_once():
    package = Path(fibmachine.__file__).parent
    found = {
        path.name: shape_sites(path.read_text(encoding="utf-8"))
        for path in sorted(package.glob("*.py"))
    }
    assert len(found) > 10
    assert {name: sites for name, sites in found.items() if sites} == {
        "chain.py": [("_RUNG_SUMS", "FIB64 step"), ("_trailing_zeros", "t fill")]
    }
    # the inflow is gathered by shape, not sorted or counted by target
    source = (package / "chain.py").read_text(encoding="utf-8")
    _, calls = residual_sums(source, ("stationarity_residual",))["stationarity_residual"]
    assert "_trailing_zeros" in calls
    assert not calls & {"argsort", "bincount", "concatenate", "_ladder_chunks"}
