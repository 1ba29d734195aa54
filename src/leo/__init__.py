"""Learning-enhanced Luenberger observers for uncertain discrete-time LTI systems.

The package simulates noisy linear systems whose matrices are known only up
to modest perturbations, designs classical observers by pole placement,
refines the uncertain matrices by gradient descent on a steady-state output
discrepancy, and quantifies the improvement with seeded Monte Carlo
statistics.
"""

from .exceptions import (
    DegenerateReferenceError,
    DivergedRollout,
    GenerationError,
    LeoError,
    NumericalError,
    PolePlacementInfeasible,
    RankDeficientError,
    ShapeError,
    SingularMatrixError,
    SynthesisFailureError,
)
from .lti_core import (
    LtiParams,
    NoiseRealization,
    RngStream,
    SystemGenConfig,
    Trajectory,
    TrueSystem,
    is_observable,
    is_schur,
    matrix_to_json,
    observability_matrix,
    one_norm,
    pinv,
    random_system,
    simulate_true,
    spectral_radius,
)
from .observer import (
    default_observer_poles,
    max_spectrum_deviation,
    place_observer_poles,
    run_luenberger,
    run_open_loop,
)
from .local_lti import (
    TrajectoryWindow,
    back_solve_initial_state,
    fit_local_lti,
    initial_state_gap_bound,
    make_invertible,
    run_theory_checks,
    stack_inputs,
)
from .learning import (
    LearnableParams,
    LossBreakdown,
    TrainConfig,
    TrainResult,
    gradient,
    lambda_coefficients,
    log_to_jsonl,
    loss,
    train,
)
from .experiments import (
    DEFAULT_DIMENSION_GRID,
    McSummary,
    TrialResult,
    TrialSpec,
    execute_trial,
    normalized_error,
    run_monte_carlo,
    run_trial,
    success_rate,
    trimmed_mean_reduction,
    wilcoxon_signed_rank,
)

__version__ = "0.1.0"
