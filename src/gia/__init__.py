"""Generalized interference alignment for MIMO networks.

Feasibility analysis via the rank of the first-order coefficient matrix of
the zero-forcing constraints, transceiver design by alternating
interference-leakage minimization, and a randomized convergence-experiment
harness.
"""

from .aligner import (
    PASS_THRESHOLD_DB,
    RunTrace,
    VerificationReport,
    leakage,
    receiver_update,
    run_classical_baseline,
    run_gia,
    transmitter_update,
    verify_solution,
)
from .feasibility import (
    CoefficientMatrix,
    FeasibilityReport,
    build_coefficient_matrix,
    build_jacobian,
    check_divisible_formula,
    check_proper,
    check_symmetric_formula,
    feasibility_check,
)
from .harness import (
    BENCHMARK_CONFIGS,
    SamplingBounds,
    TrialRecord,
    run_fig6,
    run_test1,
    sample_random_config,
    sweep_feasibility,
)
from .network import (
    Channel,
    ConfigError,
    ConfigParseError,
    NetworkConfig,
    Pair,
    Problem,
    TransceiverSet,
    alignment_all,
    free_shapes,
    generate_channel,
    load_config,
    save_config,
    scale_config,
)

__version__ = "0.1.0"
