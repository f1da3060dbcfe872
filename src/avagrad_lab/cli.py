"""Command-line front end.

Subcommands:
  run       execute the configured trial(s), write trajectory CSVs
  synthfig  run the scalar benchmark comparison and emit plot-ready CSVs
  sweep     run an alpha x epsilon grid and emit heatmap + separability CSVs
  check     gradient, bias-gap and bound diagnostics for a configuration

Configuration is a sectioned key=value file ([problem] / [optimizer] / [run] /
[grid]); unknown keys or sections are hard errors so typos cannot silently
change an experiment. Command-line flags override file values and every
effective setting is echoed in the summary header. Exit codes: 0 success,
1 configuration or I/O error, 2 a trial diverged or a check failed.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
from pathlib import Path

import numpy as np

from .core import RngStream, Schedule, mix_seed
from .optim import DecayMode, HyperParams, Method, init_state
from .problems import (
    MlpProblem,
    QuadraticProblem,
    SynthProblem,
    fd_check,
    load_csv_dataset,
    mlp_make,
    quadratic_make,
    synth_make,
)
from .runner import (
    GRAD_METRICS,
    STATUS_DIVERGED,
    TrialConfig,
    bias_gap,
    eval_bound,
    export_trajectory,
    run_synth_replicas,
    run_trial,
    summary_line,
)
from .sweep import GridSpec, default_grid, export_heatmap, run_sweep, separability_index

ENV_SEED = "AVAGRAD_LAB_SEED"

_ALPHA_SCHEDULES = ("constant", "inverse_sqrt")
_BETA_SCHEDULES = ("constant", "inverse_sqrt", "inverse_t")

_ALLOWED_KEYS = {
    "problem": {
        "kind", "c", "delta", "curvatures", "noise_std", "w_star",
        "n_in", "n_hidden", "n_classes", "dataset", "batch_size",
    },
    "optimizer": {
        "method", "alpha", "alpha_schedule", "epsilon",
        "beta1", "beta1_schedule", "beta2", "beta2_schedule",
        "weight_decay", "decay_mode",
    },
    "run": {
        "steps", "seeds", "record_every", "out_dir", "w1",
        "grad_metric", "converge_tol", "init_scale",
    },
    "grid": {
        "default", "alphas", "epsilons", "methods", "seeds", "workers",
        "metric", "holdout", "beta1", "beta2", "weight_decay", "decay_mode",
        "init_scale",
    },
}


class ConfigError(Exception):
    pass


def _load_config(path: str) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    for section in cp.sections():
        if section not in _ALLOWED_KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(cp[section]) - _ALLOWED_KEYS[section]
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    return cp


def _get(cp, section, key, default=None):
    if cp.has_option(section, key):
        return cp.get(section, key).strip()
    return default


def _parse_float(raw, what):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{what} must be a float, got {raw!r}") from None


def _parse_int(raw, what):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{what} must be an integer, got {raw!r}") from None


def _require_positive(value, what):
    if value < 1:
        raise ConfigError(f"{what} must be >= 1, got {value}")


def _steps(cp, args, default):
    steps = args.steps if args.steps is not None else _parse_int(
        _get(cp, "run", "steps", default), "[run] steps")
    _require_positive(steps, "steps")
    return steps


def _parse_float_list(raw, what):
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated floats, got {raw!r}") from None


def _parse_int_list(raw, what):
    try:
        return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{what} must be comma-separated integers, got {raw!r}") from None


def _parse_bool(raw, what):
    low = raw.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{what} must be a boolean, got {raw!r}")


def _build_problem(cp):
    kind = _get(cp, "problem", "kind")
    if kind is None:
        raise ConfigError("[problem] kind is required")
    if kind == "synth":
        c = _parse_float(_get(cp, "problem", "c", "999"), "[problem] c")
        delta = _parse_float(_get(cp, "problem", "delta", "1"), "[problem] delta")
        try:
            return synth_make(c, delta)
        except ValueError as exc:
            raise ConfigError(f"[problem] {exc}") from None
    if kind == "quadratic":
        raw = _get(cp, "problem", "curvatures")
        if raw is None:
            raise ConfigError("[problem] curvatures is required for kind=quadratic")
        curv = _parse_float_list(raw, "[problem] curvatures")
        noise = _parse_float(_get(cp, "problem", "noise_std", "0"), "[problem] noise_std")
        w_star_raw = _get(cp, "problem", "w_star")
        w_star = _parse_float_list(w_star_raw, "[problem] w_star") if w_star_raw else None
        try:
            return quadratic_make(curv, noise, w_star)
        except ValueError as exc:
            raise ConfigError(f"[problem] {exc}") from None
    if kind == "mlp":
        for key in ("n_in", "n_hidden", "n_classes", "dataset"):
            if _get(cp, "problem", key) is None:
                raise ConfigError(f"[problem] {key} is required for kind=mlp")
        n_in = _parse_int(_get(cp, "problem", "n_in"), "[problem] n_in")
        n_hidden = _parse_int(_get(cp, "problem", "n_hidden"), "[problem] n_hidden")
        n_classes = _parse_int(_get(cp, "problem", "n_classes"), "[problem] n_classes")
        batch = _parse_int(_get(cp, "problem", "batch_size", "16"), "[problem] batch_size")
        path = _get(cp, "problem", "dataset")
        try:
            dataset = load_csv_dataset(path, n_in, n_classes)
            return mlp_make(n_in, n_hidden, n_classes, dataset, batch)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[problem] {exc}") from None
    raise ConfigError(f"[problem] unknown kind {kind!r}")


def _schedule(kind: str, base: float, what: str, allowed) -> Schedule:
    if kind not in allowed:
        raise ConfigError(f"{what} must be one of {allowed}, got {kind!r}")
    if kind == "inverse_t":
        return Schedule.inverse_t()
    return Schedule(kind, base)


def _build_hp(cp, args) -> tuple[HyperParams, Method]:
    method_raw = args.method or _get(cp, "optimizer", "method")
    if method_raw is None:
        raise ConfigError("[optimizer] method is required")
    try:
        method = Method(method_raw)
    except ValueError:
        raise ConfigError(f"unknown method {method_raw!r}") from None
    alpha = args.alpha if args.alpha is not None else _parse_float(
        _get(cp, "optimizer", "alpha", "0.001"), "[optimizer] alpha")
    eps = args.epsilon if args.epsilon is not None else _parse_float(
        _get(cp, "optimizer", "epsilon", "1e-8"), "[optimizer] epsilon")
    b1 = _parse_float(_get(cp, "optimizer", "beta1", "0.9"), "[optimizer] beta1")
    b2 = _parse_float(_get(cp, "optimizer", "beta2", "0.999"), "[optimizer] beta2")
    wd = _parse_float(_get(cp, "optimizer", "weight_decay", "0"), "[optimizer] weight_decay")
    decay_raw = _get(cp, "optimizer", "decay_mode", "none")
    try:
        decay = DecayMode(decay_raw)
    except ValueError:
        raise ConfigError(f"unknown decay_mode {decay_raw!r}") from None
    try:
        hp = HyperParams(
            alpha=_schedule(_get(cp, "optimizer", "alpha_schedule", "constant"), alpha,
                            "[optimizer] alpha_schedule", _ALPHA_SCHEDULES),
            epsilon=eps,
            beta1=_schedule(_get(cp, "optimizer", "beta1_schedule", "constant"), b1,
                            "[optimizer] beta1_schedule", _BETA_SCHEDULES),
            beta2=_schedule(_get(cp, "optimizer", "beta2_schedule", "constant"), b2,
                            "[optimizer] beta2_schedule", _BETA_SCHEDULES),
            weight_decay=wd,
            decay_mode=decay,
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


def _default_w1(problem, seed_label: int, init_scale: float) -> np.ndarray:
    if isinstance(problem, SynthProblem):
        return np.array([0.5])
    if isinstance(problem, QuadraticProblem):
        return np.ones(problem.dim)
    # mlp: small random init from a stream disjoint from the trial's sampling stream
    return init_scale * RngStream(mix_seed(seed_label, 0x1717)).normal(problem.dim)


def cmd_run(args) -> int:
    cp = _load_config(args.config)
    problem = _build_problem(cp)
    hp, method = _build_hp(cp, args)
    steps = _steps(cp, args, "1000")
    if args.seed is not None:
        seeds = [args.seed]
    else:
        raw = _get(cp, "run", "seeds")
        seeds = _parse_int_list(raw, "[run] seeds") if raw else [_base_seed(args)]
    record_every = _parse_int(
        _get(cp, "run", "record_every", str(max(1, steps // 1000))), "[run] record_every")
    _require_positive(record_every, "[run] record_every")
    grad_metric = _get(cp, "run", "grad_metric", "full")
    if grad_metric not in GRAD_METRICS:
        raise ConfigError(f"[run] grad_metric must be one of {GRAD_METRICS}, got {grad_metric!r}")
    tol_raw = _get(cp, "run", "converge_tol")
    converge_tol = _parse_float(tol_raw, "[run] converge_tol") if tol_raw else None
    init_scale = _parse_float(_get(cp, "run", "init_scale", "0.1"), "[run] init_scale")
    out_dir = Path(args.out or _get(cp, "run", "out_dir", "."))
    w1_raw = _get(cp, "run", "w1")
    out_dir.mkdir(parents=True, exist_ok=True)

    print(
        f"# run method={method.value} alpha={schedule_repr(hp.alpha)}"
        f" epsilon={hp.epsilon:g} beta1={schedule_repr(hp.beta1)}"
        f" beta2={schedule_repr(hp.beta2)} weight_decay={hp.weight_decay:g}"
        f" decay_mode={hp.decay_mode.value} steps={steps}"
        f" seeds={','.join(str(s) for s in seeds)} record_every={record_every}"
        f" out={out_dir}"
    )
    any_diverged = False
    for seed in seeds:
        if w1_raw:
            w1 = np.asarray(_parse_float_list(w1_raw, "[run] w1"), dtype=np.float64)
            if w1.shape != (problem.dim,):
                raise ConfigError(f"[run] w1 must have {problem.dim} values")
        else:
            w1 = _default_w1(problem, seed, init_scale)
        cfg = TrialConfig(
            method=method, hp=hp, problem=problem, T=steps, w1=w1, seed=seed,
            record_every=record_every, grad_metric=grad_metric, converge_tol=converge_tol,
        )
        record = run_trial(cfg)
        traj_path = out_dir / f"trajectory_seed{seed}.csv"
        export_trajectory(record, traj_path)
        print(f"# trial seed={seed} trajectory={traj_path}")
        print(summary_line(record))
        any_diverged = any_diverged or record.status == STATUS_DIVERGED
    return 2 if any_diverged else 0


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
    problem = synth_make(999.0, 1.0)
    hp = HyperParams(
        alpha=Schedule.constant(1e-5),
        epsilon=1e-8,
        beta1=Schedule.constant(0.0),
        beta2=Schedule.constant(0.99),
    )
    t_grid = None
    w_curves, gs_curves = {}, {}
    for method in SYNTHFIG_METHODS:
        records = run_synth_replicas(
            problem, method, hp, w1=0.5, T=steps, base_seed=base_seed,
            n_replicas=n_seeds, record_every=stride, capture_trace=False,
        )
        stack = np.stack([r.rows for r in records])  # (seeds, rows, cols)
        if t_grid is None:
            t_grid = stack[0, :, 0]
        w_curves[method.value] = stack[:, :, 1].mean(axis=0)
        gs_curves[method.value] = stack[:, :, 2].mean(axis=0)

    names = [m.value for m in SYNTHFIG_METHODS]
    for fname, curves in (("fig1_left.csv", w_curves), ("fig1_right.csv", gs_curves)):
        path = out_dir / fname
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write("t," + ",".join(names) + "\n")
                for i, t in enumerate(t_grid):
                    vals = ",".join(f"{curves[n][i]:.17g}" for n in names)
                    fh.write(f"{int(t)},{vals}\n")
        except OSError as exc:
            print(f"error: writing {path}: {exc}", file=sys.stderr)
            return 1
    print(f"# synthfig steps={steps} seeds={n_seeds} base_seed={base_seed} out={out_dir}")
    return 0


def cmd_sweep(args) -> int:
    cp = _load_config(args.config)
    problem = _build_problem(cp)
    if not cp.has_section("grid"):
        raise ConfigError("sweep needs a [grid] section")
    use_default = _parse_bool(_get(cp, "grid", "default", "false"), "[grid] default")
    if use_default:
        alphas, epsilons = default_grid()
    else:
        a_raw, e_raw = _get(cp, "grid", "alphas"), _get(cp, "grid", "epsilons")
        if a_raw is None or e_raw is None:
            raise ConfigError("[grid] needs alphas and epsilons (or default = true)")
        alphas = _parse_float_list(a_raw, "[grid] alphas")
        epsilons = _parse_float_list(e_raw, "[grid] epsilons")
    methods_raw = _get(cp, "grid", "methods")
    if methods_raw is None:
        raise ConfigError("[grid] methods is required")
    try:
        methods = [Method(m.strip()) for m in methods_raw.split(",") if m.strip()]
    except ValueError as exc:
        raise ConfigError(f"[grid] methods: {exc}") from None
    seeds_raw = _get(cp, "grid", "seeds", "0")
    seeds = _parse_int_list(seeds_raw, "[grid] seeds")
    steps = _steps(cp, args, "1000")
    workers = args.workers if args.workers is not None else _parse_int(
        _get(cp, "grid", "workers", "1"), "[grid] workers")
    _require_positive(workers, "workers")
    metric = _get(cp, "grid", "metric", "full_objective")
    holdout_raw = _get(cp, "grid", "holdout")
    holdout = None
    if holdout_raw:
        if not isinstance(problem, MlpProblem):
            raise ConfigError("[grid] holdout only applies to mlp problems")
        try:
            holdout = load_csv_dataset(holdout_raw, problem.n_in, problem.n_classes)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[grid] holdout: {exc}") from None
    decay_raw = _get(cp, "grid", "decay_mode", "none")
    try:
        decay = DecayMode(decay_raw)
    except ValueError:
        raise ConfigError(f"unknown decay_mode {decay_raw!r}") from None
    try:
        spec = GridSpec(
            problem=problem,
            methods=methods,
            alphas=alphas,
            epsilons=epsilons,
            seeds=seeds,
            T=steps,
            base_seed=_base_seed(args),
            beta1=_parse_float(_get(cp, "grid", "beta1", "0.9"), "[grid] beta1"),
            beta2=_parse_float(_get(cp, "grid", "beta2", "0.999"), "[grid] beta2"),
            weight_decay=_parse_float(_get(cp, "grid", "weight_decay", "0"),
                                      "[grid] weight_decay"),
            decay_mode=decay,
            metric=metric,
            holdout=holdout,
            init_scale=_parse_float(_get(cp, "grid", "init_scale", "0.1"),
                                    "[grid] init_scale"),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None
    out_dir = Path(args.out or _get(cp, "run", "out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = run_sweep(spec, workers=workers)
    heatmap_path = out_dir / "heatmap.csv"
    export_heatmap(cells, heatmap_path)
    sep_path = out_dir / "separability.csv"
    with open(sep_path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,separability_index\n")
        for method in spec.methods:
            try:
                value = f"{separability_index(cells, method):.17g}"
            except ValueError:
                value = ""
            fh.write(f"{method.value},{value}\n")
    print(f"# sweep cells={len(cells)} heatmap={heatmap_path} separability={sep_path}")
    return 0


_FD_THRESHOLDS = {"SynthProblem": 1e-8, "QuadraticProblem": 1e-7, "MlpProblem": 1e-5}


def cmd_check(args) -> int:
    cp = _load_config(args.config)
    problem = _build_problem(cp)
    hp, method = _build_hp(cp, args)
    steps = _steps(cp, args, "20000")
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
            state = init_state(method, problem.dim)
            state.v = 100.0 * srng.random(problem.dim)
            state.t = 10
            gap_d = bias_gap(w, state, hp, problem, "delayed")
            gap_a = bias_gap(w, state, hp, problem, "adam")
            worst_delayed = max(worst_delayed, float(np.max(np.abs(gap_d))))
            worst_adam = max(worst_adam, float(np.max(np.abs(gap_a))))
        print(f"bias_gap_delayed={worst_delayed:.1e} bias_gap_adam={worst_adam:.3e}")
        failed = failed or worst_delayed > 1e-15

    # bound report when constants exist and the momentum term is off
    w1 = _default_w1(problem, base_seed, 0.1)
    constants = problem.constants(w1)
    if constants is not None and constants.g_2 is not None:
        if hp.beta1.kind == "constant" and hp.beta1.base == 0.0:
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
                report = eval_bound(record, constants, "unconditional")
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
    p_run.add_argument("--alpha", type=float, default=None, help="override learning rate")
    p_run.add_argument("--epsilon", type=float, default=None, help="override epsilon")
    p_run.add_argument("--method", default=None, help="override optimizer method")
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
    p_check.add_argument("--alpha", type=float, default=None, help="override learning rate")
    p_check.add_argument("--epsilon", type=float, default=None, help="override epsilon")
    p_check.add_argument("--method", default=None, help="override optimizer method")
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
