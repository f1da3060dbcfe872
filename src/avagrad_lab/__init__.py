"""Adaptive gradient optimizers with delayed parameter-wise rates, a scalar
rare-event benchmark where sample-coupled rates stall, convergence-bound
diagnostics, and a deterministic hyperparameter sweep harness."""

import importlib

#: the public names by defining module, each loaded on first use (PEP 562):
#: `import avagrad_lab` loads no submodule and no numpy, so the `-m` entry
#: reaches cli's first statement before numpy's import (see cli.script)
_LAZY = {
    "core": ("NonFiniteError", "RngStream", "Schedule", "clamp_box", "ensure_vector",
             "mix_seed", "schedule_eval"),
    "optim": ("DecayMode", "DivergenceError", "HyperParams", "Method", "OptimizerState",
              "StepReport", "eta_bounds", "init_state", "normalized_eta", "step"),
    "problems": ("ProblemConstants", "QuadraticProblem", "StochasticProblem", "SynthProblem",
                 "fd_check", "quadratic_make", "synth_make"),
    "runner": ("BoundReport", "TrialConfig", "TrialRecord", "TrialTrace", "bias_gap",
               "eval_bound", "export_trajectory", "iterate_distribution",
               "run_synth_replicas", "run_trial", "run_trials", "summary_line"),
    "sweep": ("GridSpec", "HeatmapCell", "default_grid", "export_heatmap", "run_sweep",
              "separability_index"),
    "mlp": ("LabeledSet", "MlpProblem", "gaussian_blobs", "load_csv_dataset", "mlp_make"),
}

__version__ = "0.1.0"

__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            loaded = importlib.import_module(f".{module}", __name__)
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return __all__
