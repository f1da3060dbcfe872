"""Command-line front end.

Subcommands:
  run       execute the configured trial per seed, write trajectory CSVs
  synthfig  run the scalar benchmark comparison and emit plot-ready CSVs
  sweep     run an alpha x epsilon grid and emit heatmap + separability CSVs
  check     gradient, bias-gap and bound diagnostics for a configuration

Configuration is a sectioned key=value file ([problem] / [optimizer] / [run] /
[grid]); unknown keys or sections are hard errors so typos cannot silently
change an experiment. Every value is parsed by its key's type when the file
is read: a float must be finite and a list non-empty. Command-line flags
override file values and every effective setting is echoed in the summary
header. Exit codes: 0 success, 1 configuration or I/O error, 2 a trial
diverged or a check failed.

`main(argv)` runs one command in-process and returns its exit code. The
`avagrad-lab` script and `python -m avagrad_lab.cli` go through `script()`.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import math
import os
import sys
from pathlib import Path

import numpy as np

from .core import SCHEDULE_KINDS, NonFiniteError, RngStream, Schedule, mix_seed, write_csv
from .optim import DecayMode, HyperParams, Method, init_state
from .problems import METRICS, QuadraticProblem, SynthProblem, fd_check, quadratic_make, synth_make
from .runner import (
    GRAD_METRICS,
    STATUS_DIVERGED,
    TrialConfig,
    _beta1_is_zero,
    bias_gap,
    eval_bound,
    export_trajectory,
    run_synth_replicas,
    run_trial,
    run_trials,
    summary_line,
)

ENV_SEED = "AVAGRAD_LAB_SEED"

#: names bound here on first use, by module: only `sweep` compiles the sweep,
#: and only an mlp problem or a [grid] holdout the MLP. perfbench/tracer.py
#: replaces some of them by setattr, so each command calls them through this
#: module's globals, and _load keeps a name already bound.
_LAZY = {
    "sweep": ("GridSpec", "default_grid", "export_heatmap", "run_sweep", "separability_index"),
    "mlp": ("MlpProblem", "load_csv_dataset", "mlp_make"),
}


def _load(module: str) -> None:
    """Import `module` and bind its _LAZY names here, keeping any already bound."""
    loaded = importlib.import_module(f".{module}", __package__)
    for name in _LAZY[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ConfigError(Exception):
    pass


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _bool(raw: str) -> bool:
    import configparser  # loaded by _load_config, the one caller of a key's parse

    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


def _one_of(choices, parse=str):
    def parse_choice(raw: str):
        if raw not in choices:
            raise ValueError(raw)
        return parse(raw)
    return parse_choice, "one of " + ", ".join(choices)


def _list_of(key_type, plural: str):
    parse = key_type[0]

    def parse_list(raw: str) -> list:
        values = [parse(v.strip()) for v in raw.split(",") if v.strip()]
        if not values:
            raise ValueError(raw)
        return values
    return parse_list, f"comma-separated {plural}"


# A key type is (parse, noun): parse raises ValueError on bad text, and the
# error reads "<[section] key> must be <noun>, got '<text>'".
_FLOAT, _INT, _TEXT = (_finite, "a finite float"), (int, "an integer"), (str, "text")
_FLOATS, _INTS = _list_of(_FLOAT, "finite floats"), _list_of(_INT, "integers")
_METHOD_NAMES = tuple(m.value for m in Method)
_METHOD = _one_of(_METHOD_NAMES, Method)
_DECAY = _one_of(tuple(m.value for m in DecayMode), DecayMode)
_BETA_SCHEDULE = _one_of(SCHEDULE_KINDS)

#: every config key by section, with its type; unknown sections and keys are errors
_KEYS = {
    "problem": {
        "kind": _one_of(("synth", "quadratic", "mlp")), "c": _FLOAT, "delta": _FLOAT,
        "curvatures": _FLOATS, "noise_std": _FLOAT, "w_star": _FLOATS, "n_in": _INT,
        "n_hidden": _INT, "n_classes": _INT, "dataset": _TEXT, "batch_size": _INT,
    },
    "optimizer": {
        "method": _METHOD, "alpha": _FLOAT,
        "alpha_schedule": _one_of(("constant", "inverse_sqrt")), "epsilon": _FLOAT,
        "beta1": _FLOAT, "beta1_schedule": _BETA_SCHEDULE, "beta2": _FLOAT,
        "beta2_schedule": _BETA_SCHEDULE, "weight_decay": _FLOAT, "decay_mode": _DECAY,
    },
    "run": {
        "steps": _INT, "seeds": _INTS, "record_every": _INT, "out_dir": _TEXT, "w1": _FLOATS,
        "grad_metric": _one_of(GRAD_METRICS), "converge_tol": _FLOAT, "init_scale": _FLOAT,
    },
    "grid": {
        "default": (_bool, "a boolean"), "alphas": _FLOATS, "epsilons": _FLOATS,
        "methods": _list_of(_METHOD, "names from " + ", ".join(_METHOD_NAMES)),
        "seeds": _INTS, "workers": _INT, "metric": _one_of(METRICS), "holdout": _TEXT,
        "beta1": _FLOAT, "beta2": _FLOAT, "weight_decay": _FLOAT, "decay_mode": _DECAY,
        "init_scale": _FLOAT,
    },
}


def _parse(what: str, key_type, raw: str):
    parse, noun = key_type
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{what} must be {noun}, got {raw!r}") from None


def _load_config(path: str) -> dict[str, dict]:
    """Read an INI file into {section: {key: typed value}} for the keys it sets."""
    import configparser  # only here: synthfig, which reads no file, never loads it

    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {' '.join(str(exc).split())}") from exc
    config = {}
    for section in cp.sections():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(cp[section]) - set(_KEYS[section])
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        config[section] = {key: _parse(f"[{section}] {key}", _KEYS[section][key], raw.strip())
                           for key, raw in cp[section].items()}
    return config


def _given(section: dict, *keys) -> dict:
    """The keys of a section that the file sets; the callee's defaults fill the rest."""
    return {key: section[key] for key in keys if key in section}


def _require_positive(value, what):
    if value < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")


def _steps(run: dict, args, default: int) -> int:
    steps = args.steps if args.steps is not None else run.get("steps", default)
    _require_positive(steps, "steps")
    return steps


def _build_problem(cfg: dict):
    kind = cfg.get("kind")
    if kind is None:
        raise ConfigError("[problem] kind is required")
    required = {"synth": (), "quadratic": ("curvatures",),
                "mlp": ("n_in", "n_hidden", "n_classes", "dataset")}[kind]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"[problem] {key} is required for kind={kind}")
    try:
        if kind == "synth":
            return synth_make(cfg.get("c", 999.0), cfg.get("delta", 1.0))
        if kind == "quadratic":
            return quadratic_make(cfg["curvatures"], **_given(cfg, "noise_std", "w_star"))
        _load("mlp")
        dataset = load_csv_dataset(cfg["dataset"], cfg["n_in"], cfg["n_classes"])
        return mlp_make(cfg["n_in"], cfg["n_hidden"], cfg["n_classes"], dataset,
                        **_given(cfg, "batch_size"))
    except (ValueError, OSError) as exc:
        raise ConfigError(f"[problem] {exc}") from None


def _schedule(kind: str, base: float) -> Schedule:
    return Schedule.inverse_t() if kind == "inverse_t" else Schedule(kind, base)


def _build_hp(cfg: dict, args) -> tuple[HyperParams, Method]:
    method = _parse("--method", _METHOD, args.method) if args.method else cfg.get("method")
    if method is None:
        raise ConfigError("[optimizer] method is required")
    alpha = args.alpha if args.alpha is not None else cfg.get("alpha", 0.001)
    try:
        hp = HyperParams(
            alpha=_schedule(cfg.get("alpha_schedule", "constant"), alpha),
            epsilon=args.epsilon if args.epsilon is not None else cfg.get("epsilon", 1e-8),
            beta1=_schedule(cfg.get("beta1_schedule", "constant"), cfg.get("beta1", 0.9)),
            beta2=_schedule(cfg.get("beta2_schedule", "constant"), cfg.get("beta2", 0.999)),
            **_given(cfg, "weight_decay", "decay_mode"),
        )
    except ValueError as exc:
        raise ConfigError(f"[optimizer] {exc}") from None
    return hp, method


def _base_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    if raw is not None:
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{ENV_SEED} must be an integer, got {raw!r}") from None
    return 0


def _default_w1(problem, seed_label: int, init_scale: float = 0.1) -> np.ndarray:
    if isinstance(problem, SynthProblem):
        return np.array([0.5])
    if isinstance(problem, QuadraticProblem):
        return np.ones(problem.dim)
    # mlp: small random init from a stream disjoint from the trial's sampling stream
    return init_scale * RngStream(mix_seed(seed_label, 0x1717)).normal(problem.dim)


def cmd_run(args) -> int:
    config = _load_config(args.config)
    run = config.get("run", {})
    problem = _build_problem(config.get("problem", {}))
    hp, method = _build_hp(config.get("optimizer", {}), args)
    steps = _steps(run, args, 1000)
    seeds = run["seeds"] if args.seed is None and "seeds" in run else [_base_seed(args)]
    if len(set(seeds)) != len(seeds):  # each seed writes its own trajectory file
        raise ConfigError("[run] seeds must not repeat")
    record_every = run.get("record_every", max(1, steps // 1000))
    _require_positive(record_every, "[run] record_every")
    out_dir = Path(args.out or run.get("out_dir", "."))
    fixed_w1 = run.get("w1")
    if fixed_w1 is not None and len(fixed_w1) != problem.dim:
        raise ConfigError(f"[run] w1 must be {problem.dim} values, got {len(fixed_w1)}")
    out_dir.mkdir(parents=True, exist_ok=True)

    print(
        f"# run method={method.value} alpha={schedule_repr(hp.alpha)}"
        f" epsilon={hp.epsilon:g} beta1={schedule_repr(hp.beta1)}"
        f" beta2={schedule_repr(hp.beta2)} weight_decay={hp.weight_decay:g}"
        f" decay_mode={hp.decay_mode.value} steps={steps}"
        f" seeds={','.join(str(s) for s in seeds)} record_every={record_every}"
        f" out={out_dir}"
    )
    records = run_trials([TrialConfig(  # the seeds as one lock-step batch
        method=method, hp=hp, problem=problem, T=steps, seed=seed,
        w1=(_default_w1(problem, seed, **_given(run, "init_scale")) if fixed_w1 is None
            else np.array(fixed_w1)),
        record_every=record_every, capture_trace=False,  # only the rows are written
        **_given(run, "grad_metric", "converge_tol"),
    ) for seed in seeds])
    for seed, record in zip(seeds, records):
        traj_path = out_dir / f"trajectory_seed{seed}.csv"
        export_trajectory(record, traj_path)
        print(f"# trial seed={seed} trajectory={traj_path}")
        print(summary_line(record))
    return 2 if any(record.status == STATUS_DIVERGED for record in records) else 0


def schedule_repr(s: Schedule) -> str:
    if s.kind == "inverse_t":
        return "inverse_t"
    return f"{s.base:g}@{s.kind}"


SYNTHFIG_METHODS = (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM)


def cmd_synthfig(args) -> int:
    steps = args.steps if args.steps is not None else 1_000_000
    n_seeds = args.num_seeds
    _require_positive(steps, "steps")
    _require_positive(n_seeds, "--num-seeds")
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    base_seed = _base_seed(args)
    stride = max(1, steps // 1000)
    problem = _build_problem({"kind": "synth"})
    hp = HyperParams(
        alpha=Schedule.constant(1e-5),
        epsilon=1e-8,
        beta1=Schedule.constant(0.0),
        beta2=Schedule.constant(0.99),
    )
    records = run_synth_replicas(  # one batch per method, of its replicas
        problem, SYNTHFIG_METHODS, hp, w1=0.5, T=steps, base_seed=base_seed,
        n_replicas=n_seeds, record_every=stride, capture_trace=False,
    )
    groups = [records[j * n_seeds:(j + 1) * n_seeds] for j in range(len(SYNTHFIG_METHODS))]
    names = [m.value for m in SYNTHFIG_METHODS]
    for fname, col in (("fig1_left.csv", 1), ("fig1_right.csv", 2)):
        # the seed mean of one row column per method: iterate, then grad-norm-sq
        curves = [np.stack([r.rows[:, col] for r in group]).mean(axis=0) for group in groups]
        write_csv(out_dir / fname, ["t", *names],
                  np.column_stack([records[0].rows[:, 0], *curves]), "synthfig curves")
    print(f"# synthfig steps={steps} seeds={n_seeds} base_seed={base_seed} out={out_dir}")
    return 0


def cmd_sweep(args) -> int:
    _load("sweep")
    config = _load_config(args.config)
    problem = _build_problem(config.get("problem", {}))
    grid = config.get("grid")
    if grid is None:
        raise ConfigError("sweep needs a [grid] section")
    if grid.get("default", False):
        alphas, epsilons = default_grid()
    elif "alphas" in grid and "epsilons" in grid:
        alphas, epsilons = grid["alphas"], grid["epsilons"]
    else:
        raise ConfigError("[grid] needs alphas and epsilons (or default = true)")
    if "methods" not in grid:
        raise ConfigError("[grid] methods is required")
    steps = _steps(config.get("run", {}), args, 1000)
    workers = args.workers if args.workers is not None else grid.get("workers", 1)
    _require_positive(workers, "workers")
    holdout = None
    if "holdout" in grid:
        _load("mlp")
        if not isinstance(problem, MlpProblem):
            raise ConfigError("[grid] holdout only applies to mlp problems")
        try:
            holdout = load_csv_dataset(grid["holdout"], problem.n_in, problem.n_classes)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[grid] holdout: {exc}") from None
    try:
        spec = GridSpec(
            problem=problem,
            methods=grid["methods"],
            alphas=alphas,
            epsilons=epsilons,
            seeds=grid.get("seeds", [0]),
            T=steps,
            base_seed=_base_seed(args),
            holdout=holdout,
            **_given(grid, "beta1", "beta2", "weight_decay", "decay_mode", "metric", "init_scale"),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None
    out_dir = Path(args.out or config.get("run", {}).get("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = run_sweep(spec, workers=workers)
    heatmap_path = out_dir / "heatmap.csv"
    export_heatmap(cells, heatmap_path)
    sep_path = out_dir / "separability.csv"
    write_csv(sep_path, ("method", "separability_index"),
              [(m.value, _separability(cells, m)) for m in spec.methods], "separability")
    print(f"# sweep cells={len(cells)} heatmap={heatmap_path} separability={sep_path}")
    return 0


def _separability(cells, method: Method) -> float | str:
    try:
        return separability_index(cells, method)
    except ValueError:
        return ""  # an all-diverged column has no argmin


_FD_THRESHOLDS = {"SynthProblem": 1e-8, "QuadraticProblem": 1e-7, "MlpProblem": 1e-5}


def cmd_check(args) -> int:
    config = _load_config(args.config)
    problem = _build_problem(config.get("problem", {}))
    hp, method = _build_hp(config.get("optimizer", {}), args)
    steps = _steps(config.get("run", {}), args, 20000)
    base_seed = _base_seed(args)
    failed = False

    # gradient check at a handful of seeded points
    rng = RngStream(mix_seed(base_seed, 2))
    fd_tol = _FD_THRESHOLDS[type(problem).__name__]
    worst = 0.0
    for _ in range(5):
        if problem.box is not None:
            lo, hi = problem.box
            w = lo + (hi - lo) * rng.random(problem.dim)
        else:
            w = rng.normal(problem.dim)
            w /= max(1.0, float(np.sqrt(np.sum(w * w))))
        outcomes = problem.outcomes()
        tokens = [tok for _, tok in outcomes] if outcomes else [problem.sample(rng)]
        for token in tokens:
            worst = max(worst, fd_check(problem, w, token, h=1e-5))
    print(f"fd_max_rel_err={worst:.3e} (tol {fd_tol:g})")
    failed = failed or worst > fd_tol

    # bias diagnostic on finite-outcome problems
    if problem.outcomes() is not None:
        worst_delayed, worst_adam = 0.0, 0.0
        for i in range(10):
            srng = RngStream(mix_seed(base_seed, 3, i))
            lo, hi = problem.box if problem.box else (-1.0, 1.0)
            w = lo + (hi - lo) * srng.random(problem.dim)
            state = dataclasses.replace(
                init_state(method, problem.dim), v=100.0 * srng.random(problem.dim), t=10)
            gap_d = bias_gap(w, state, hp, problem, "delayed")
            gap_a = bias_gap(w, state, hp, problem, "adam")
            worst_delayed = max(worst_delayed, float(np.max(np.abs(gap_d))))
            worst_adam = max(worst_adam, float(np.max(np.abs(gap_a))))
        print(f"bias_gap_delayed={worst_delayed:.1e} bias_gap_adam={worst_adam:.3e}")
        failed = failed or worst_delayed > 1e-15

    # bound report when constants exist and the momentum term is off
    w1 = _default_w1(problem, base_seed)
    constants = problem.constants(w1)
    if constants is not None and constants.g_2 is not None:
        if _beta1_is_zero(hp):
            cfg = TrialConfig(
                method=method, hp=hp, problem=problem, T=steps, w1=w1,
                seed=mix_seed(base_seed, 4), record_every=max(1, steps // 100),
                capture_trace=True,
            )
            record = run_trial(cfg)
            if record.status == STATUS_DIVERGED:
                print("bound_skipped=diverged")
                failed = True
            else:
                try:
                    report = eval_bound(record, constants, "unconditional")
                except NonFiniteError:
                    print("bound_skipped=overflow")
                    failed = True
                else:
                    ok = report.lhs <= report.rhs
                    print(
                        f"bound_lhs={report.lhs:.6e} bound_rhs={report.rhs:.6e}"
                        f" bound_ok={int(ok)} variant=unconditional"
                    )
                    failed = failed or not ok
        else:
            print("bound_skipped=momentum")
    return 2 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avagrad-lab",
        description="Adaptive-gradient experiments: trials, sweeps, and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config_required=True):
        if config_required:
            p.add_argument("--config", required=True, help="configuration file path")
        p.add_argument("--seed", type=int, default=None,
                       help=f"base seed (falls back to ${ENV_SEED}, then 0)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--steps", type=int, default=None, help="override step count T")

    p_run = sub.add_parser("run", help="run the configured trial per seed")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_fig = sub.add_parser("synthfig", help="scalar benchmark comparison CSVs")
    common(p_fig, config_required=False)
    p_fig.add_argument("--num-seeds", type=int, default=10, help="replicas per method")
    p_fig.set_defaults(func=cmd_synthfig)

    p_sweep = sub.add_parser("sweep", help="alpha x epsilon grid sweep")
    common(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=None, help="parallel workers")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="gradient / bias / bound diagnostics")
    common(p_check)
    p_check.set_defaults(func=cmd_check)

    for p in (p_run, p_check):  # the commands that build an optimizer from [optimizer]
        p.add_argument("--alpha", type=float, default=None, help="override learning rate")
        p.add_argument("--epsilon", type=float, default=None, help="override epsilon")
        p.add_argument("--method", default=None, help="override optimizer method")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script() -> int:
    """The process entry point: run main() on sys.argv, then freeze the heap.

    After gc.freeze() the interpreter's shutdown collections skip every object
    made so far (about 22,000 after a command, 10,000 of them numpy's), which
    saves about 20 ms a process. Nothing else about exit changes: atexit
    handlers, the stdio flush and module teardown still run, and the OS takes
    the memory back. main() does not freeze, because tests and the benchmark's
    traced passes call it in one long-lived process.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(script())
