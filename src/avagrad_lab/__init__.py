"""Adaptive gradient optimizers with delayed parameter-wise rates, a scalar
rare-event benchmark where sample-coupled rates stall, convergence-bound
diagnostics, and a deterministic hyperparameter sweep harness."""

from .core import (
    NonFiniteError,
    RngStream,
    Schedule,
    clamp_box,
    ensure_vector,
    mix_seed,
    schedule_eval,
)
from .optim import (
    DecayMode,
    DivergenceError,
    HyperParams,
    Method,
    OptimizerState,
    StepReport,
    eta_bounds,
    init_state,
    normalized_eta,
    step,
)
from .problems import (
    LabeledSet,
    MlpProblem,
    ProblemConstants,
    QuadraticProblem,
    StochasticProblem,
    SynthProblem,
    fd_check,
    gaussian_blobs,
    load_csv_dataset,
    mlp_make,
    quadratic_make,
    synth_make,
)
from .runner import (
    BoundReport,
    TrialConfig,
    TrialRecord,
    TrialTrace,
    bias_gap,
    eval_bound,
    export_trajectory,
    iterate_distribution,
    run_synth_replicas,
    run_trial,
    run_trials,
    summary_line,
)
from .sweep import (
    GridSpec,
    HeatmapCell,
    default_grid,
    export_heatmap,
    run_sweep,
    separability_index,
)

__version__ = "0.1.0"

__all__ = [
    "NonFiniteError", "RngStream", "Schedule", "clamp_box", "ensure_vector",
    "mix_seed", "schedule_eval",
    "DecayMode", "DivergenceError", "HyperParams", "Method", "OptimizerState",
    "StepReport", "eta_bounds", "init_state", "normalized_eta", "step",
    "LabeledSet", "MlpProblem", "ProblemConstants", "QuadraticProblem",
    "StochasticProblem", "SynthProblem", "fd_check", "gaussian_blobs",
    "load_csv_dataset", "mlp_make", "quadratic_make", "synth_make",
    "BoundReport", "TrialConfig", "TrialRecord", "TrialTrace", "bias_gap",
    "eval_bound", "export_trajectory", "iterate_distribution",
    "run_synth_replicas", "run_trial", "run_trials", "summary_line",
    "GridSpec", "HeatmapCell", "default_grid", "export_heatmap", "run_sweep",
    "separability_index",
]
