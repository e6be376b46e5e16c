"""The package's public surface, pinned name by name.

A change that adds or drops a public name, or an attribute of one of the
core types below, has to update these lists, so the change shows in its diff.
"""

import dataclasses
import inspect
import types

import fibmachine
from fibmachine import (
    Distribution,
    GridSpec,
    IterBuffer,
    ProbSeq,
    QOrbit,
    TruncatedMatrix,
    write_png,
    write_ppm,
)

EXPORTS = [
    "BaseDef", "BudgetExceeded", "CapacityError", "CarryTrace", "ChainClass",
    "Classification", "ConfigError", "ConnectivityResult", "ConstantTail",
    "ConstructedSeq", "Distribution", "EigenResidual", "EscapeConfig",
    "EscapeResult", "FIB64", "FIBONACCI", "FibmachineError", "GeometricDecay",
    "GridSpec", "INSIDE", "InadmissibleWord", "InvalidBudget",
    "InvalidPolynomial", "InvalidProbability", "InvalidSeed", "IterBuffer",
    "NoPath", "OrbitEscaped", "PANEL_COUNT", "PhiOrbit", "PowerLawComplement",
    "ProbFactor", "ProbSeq", "QOrbit", "RunConfig", "SimulationSummary",
    "SpectrumResult", "SplitMix64", "StationaryMeasure", "TailUndefined",
    "TransducerEdge", "TruncatedMatrix", "UINT64_MAX", "UnsupportedVariant",
    "ZeroDelta", "all_ones", "base_sequence", "beta", "beta_eigen_residual",
    "block_index", "classify", "config_from_dict", "config_to_dict",
    "construct_positive_recurrent", "decode", "digits_of_int",
    "eigen_residual", "encode", "escape_levels", "escape_radius",
    "fibered_pair", "format_path", "geometric_budget", "in_E",
    "in_point_spectrum", "is_admissible", "load_config",
    "non_connectedness_test", "panel_config", "panel_name", "parse_csv",
    "parse_target", "phi_orbit", "q_at_integer", "q_fib_orbit",
    "q_general_orbit", "q_values_upto", "render_panel", "repro_panels",
    "scan_grid", "simulate", "stationarity_residual", "stationary_measure",
    "succ_carry", "succ_transducer", "transition_dist", "transition_matrix",
    "transition_terms", "write_csv", "write_png", "write_ppm", "xi",
]

ATTRIBUTES = {
    TruncatedMatrix: [
        "indptr", "leak_prob", "leak_state", "level", "probs", "row", "size", "targets",
    ],
    QOrbit: ["escaped_at", "lam", "values"],
    IterBuffer: ["cells", "height", "inside_count", "width"],
    Distribution: ["as_dict", "entries", "sample", "state", "total"],
    ProbSeq: ["delta_lower_bound", "describe", "p"],
    GridSpec: ["center", "height", "imag_axis", "lam_array", "pixels_x", "pixels_y", "width"],
}


def public_attributes(cls):
    """Public class attributes, with the fields of a dataclass that have no default."""
    names = {n for n in dir(cls) if not n.startswith("_")}
    if dataclasses.is_dataclass(cls):
        names |= {f.name for f in dataclasses.fields(cls)}
    return sorted(names)


def test_package_exports():
    # submodules are left out: importing one more (fibmachine.cli, say) adds it
    names = [
        n
        for n in dir(fibmachine)
        if not n.startswith("_") and not isinstance(getattr(fibmachine, n), types.ModuleType)
    ]
    assert sorted(names) == EXPORTS


def test_core_type_attributes():
    for cls, want in ATTRIBUTES.items():
        assert public_attributes(cls) == want, cls.__name__


def test_truncated_matrix_compares_by_identity():
    assert TruncatedMatrix.__eq__ is object.__eq__
    assert TruncatedMatrix.__hash__ is object.__hash__


def test_image_writers_take_only_the_buffer():
    for writer in (write_ppm, write_png):
        assert list(inspect.signature(writer).parameters) == ["buf"]
