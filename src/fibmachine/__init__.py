"""Fibonacci-base adding machine: numeration, odometer, Markov chain, spectra.

The package covers the full pipeline: greedy digit words for a linear
recurrence base, the deterministic increment (two independent routes), the
probabilistic increment as a Markov chain on the naturals with its
transience/recurrence classification, the associated q-recursion with escape
and membership tests, and a deterministic escape-time renderer.
"""

from .chain import (
    ChainClass,
    Classification,
    ConstructedSeq,
    Distribution,
    ProbFactor,
    SimulationSummary,
    StationaryMeasure,
    TruncatedMatrix,
    beta,
    beta_eigen_residual,
    block_index,
    classify,
    construct_positive_recurrent,
    geometric_budget,
    simulate,
    stationarity_residual,
    stationary_measure,
    transition_dist,
    transition_matrix,
    transition_terms,
    xi,
)
from .config import RunConfig, config_from_dict, config_to_dict, load_config
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
from .render import (
    GridSpec,
    IterBuffer,
    parse_csv,
    scan_grid,
    write_csv,
    write_png,
    write_ppm,
)
from .rng import SplitMix64
from .spectrum import (
    INSIDE,
    ConnectivityResult,
    EigenResidual,
    EscapeConfig,
    EscapeResult,
    PhiOrbit,
    QOrbit,
    SpectrumResult,
    eigen_residual,
    escape_levels,
    escape_radius,
    fibered_pair,
    in_E,
    in_point_spectrum,
    non_connectedness_test,
    phi_orbit,
    q_at_integer,
    q_fib_orbit,
    q_general_orbit,
    q_values_upto,
)

__version__ = "0.1.0"
