"""Spectrally shaped binary sequence design via convex relaxation and randomized rounding."""

from ._version import __version__
from .baselines import BaselineResult, run_lpnn, run_shape
from .errors import (
    DivergenceError,
    EmptyInterfererError,
    EmptyMessageError,
    InfeasibleRelaxationError,
    LengthMismatchError,
    NoFeasibleError,
    OverlapError,
    SizeLimitError,
    SpecseqError,
)
from .experiments import (
    ExperimentConfig,
    ExperimentKind,
    ExperimentReport,
    default_config,
    run_experiment,
)
from .oracle import OracleResult, exhaustive_search, halved_constraint_optimum
from .problem import (
    BandMetrics,
    BandSpec,
    DesignProblem,
    MetricBundle,
    ScoreKind,
    band_metrics,
    build_partial_dft,
    metric_bundle,
    sequence_line,
)
from .rounding import (
    Candidate,
    DesignResult,
    arcsin_trace_ratio,
    mcdiarmid_bound,
    quantized_principal_eigenvector,
    run_design,
)
from .sdp import SdpSolution, solve_relaxation

#: the public API; the submodules stay importable as specseq.<module>
__all__ = [
    "__version__",
    # SHAPE and LPNN baselines
    "BaselineResult", "run_lpnn", "run_shape",
    # errors
    "DivergenceError", "EmptyInterfererError", "EmptyMessageError",
    "InfeasibleRelaxationError", "LengthMismatchError", "NoFeasibleError",
    "OverlapError", "SizeLimitError", "SpecseqError",
    # experiment harnesses
    "ExperimentConfig", "ExperimentKind", "ExperimentReport", "default_config",
    "run_experiment",
    # exhaustive oracle
    "OracleResult", "exhaustive_search", "halved_constraint_optimum",
    # problems and the metric kernel
    "BandMetrics", "BandSpec", "DesignProblem", "MetricBundle", "ScoreKind",
    "band_metrics", "build_partial_dft", "metric_bundle", "sequence_line",
    # randomized rounding and theory quantities
    "Candidate", "DesignResult", "arcsin_trace_ratio", "mcdiarmid_bound",
    "quantized_principal_eigenvector", "run_design",
    # the relaxation
    "SdpSolution", "solve_relaxation",
]
