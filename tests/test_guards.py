"""The two guards of errors.py: `integer` for count arguments, `within` for budgets.

Every count argument refuses a bool and a float, integral or not, with a
ValueError naming it, before any work and without a TypeError from deeper
down.  Every budget refusal has the one message format, and a scan of the
source keeps any other module from raising BudgetExceeded or comparing a
budget itself.
"""

import ast
import re
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
from fibmachine.chain import MATRIX_BUDGET, STEP_BUDGET
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
