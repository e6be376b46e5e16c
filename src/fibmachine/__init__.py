"""Fibonacci-base adding machine: numeration, odometer, Markov chain, spectra.

The package covers the full pipeline: greedy digit words for a linear
recurrence base, the deterministic increment (two independent routes), the
probabilistic increment as a Markov chain on the naturals with its
transience/recurrence classification, the associated q-recursion with escape
and membership tests, and a deterministic escape-time renderer.

The word arithmetic, the configs and the panel table load without numpy.
GridSpec, EscapeConfig and escape_radius live in config.  The numpy-backed
modules (chain, render, rng, spectrum) and the names taken from them are
listed in _LAZY; __getattr__ imports a module when one of them is first used.
"""

import importlib

from .config import (
    EscapeConfig,
    GridSpec,
    RunConfig,
    config_from_dict,
    config_to_dict,
    escape_radius,
    load_config,
)
from .figures import (
    PANEL_COUNT,
    panel_config,
    panel_name,
    parse_target,
    render_panel,
    repro_panels,
)
from .errors import (
    BudgetExceeded,
    CapacityError,
    ConfigError,
    FibmachineError,
    InadmissibleWord,
    InvalidBudget,
    InvalidPolynomial,
    InvalidProbability,
    InvalidSeed,
    NoPath,
    OrbitEscaped,
    TailUndefined,
    UnsupportedVariant,
    ZeroDelta,
)
from .numeration import (
    FIB64,
    FIBONACCI,
    UINT64_MAX,
    BaseDef,
    base_sequence,
    decode,
    digits_of_int,
    encode,
    is_admissible,
)
from .odometer import (
    CarryTrace,
    TransducerEdge,
    format_path,
    succ_carry,
    succ_transducer,
)
from .probseq import (
    ConstantTail,
    GeometricDecay,
    PowerLawComplement,
    ProbSeq,
    all_ones,
)

#: Public name -> the numpy-backed module that defines it; a module maps to itself.
_LAZY = {
    name: module
    for module, names in {
        "chain": (
            "ChainClass", "Classification", "ConstructedSeq", "Distribution",
            "ProbFactor", "SimulationSummary", "StationaryMeasure", "TruncatedMatrix",
            "beta", "beta_eigen_residual", "block_index", "classify",
            "construct_positive_recurrent", "geometric_budget", "simulate",
            "stationarity_residual", "stationary_measure", "transition_dist",
            "transition_matrix", "transition_terms", "xi",
        ),
        "render": (
            "IterBuffer", "parse_csv", "scan_grid", "write_csv", "write_png", "write_ppm",
        ),
        "rng": ("SplitMix64",),
        "spectrum": (
            "INSIDE", "ConnectivityResult", "EigenResidual", "EscapeResult", "PhiOrbit",
            "QOrbit", "SpectrumResult", "eigen_residual", "escape_levels", "fibered_pair",
            "in_E", "in_point_spectrum", "non_connectedness_test", "phi_orbit",
            "q_at_integer", "q_fib_orbit", "q_general_orbit", "q_values_upto",
        ),
    }.items()
    for name in (module, *names)
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_LAZY[name]}", __name__)
    value = module if name == _LAZY[name] else getattr(module, name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"
