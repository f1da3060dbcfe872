"""Command-line front end.

Subcommands:
  run       execute the configured trial per seed, write trajectory CSVs
  synthfig  run the scalar benchmark comparison and emit plot-ready CSVs
  sweep     run an alpha x epsilon grid and emit heatmap + separability CSVs
  check     gradient, bias-gap and bound diagnostics for a configuration

Configuration is a sectioned key=value file ([problem] / [optimizer] / [run] /
[grid]) in the strict INI subset that _read_ini reads; unknown keys or
sections are hard errors so typos cannot silently change an experiment.
Every value is parsed by its key's type when the file is read: a float must
be finite and a list non-empty. Command-line flags, declared once in
_COMMANDS, are parsed by the same key types; they override file values and
every effective setting is echoed in the summary header. Exit codes: 0
success, 1 configuration or I/O error, 2 a trial diverged or a check failed.

`main(argv)` runs one command in-process and returns its exit code; a bad
command line is a configuration error too. The `avagrad-lab` script and
`python -m avagrad_lab.cli` go through `script()`.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # the `-m` entry holds the collector until main(); see script()
    gc.disable()

import atexit
import importlib
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

import numpy as np

from .core import SCHEDULE_KINDS, NonFiniteError, RngStream, Schedule, mix_seed, write_csv
from .optim import BETA1, BETA2, DecayMode, HyperParams, Method, init_state, lane_norm
from .problems import METRICS, QuadraticProblem, SynthProblem, fd_check, quadratic_make, synth_make
from .runner import (GRAD_METRICS, INIT_SCALE, STATUS_DIVERGED, TrialConfig, _beta1_is_zero,
                     bias_gap, eval_bound, export_trajectory, run_synth_replicas, run_trial,
                     run_trials, summary_line)

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


#: the boolean words configparser accepts, in any case
_BOOLEANS = dict.fromkeys(("1", "yes", "true", "on"), True) | dict.fromkeys(
    ("0", "no", "false", "off"), False)


def _bool(raw: str) -> bool:
    try:
        return _BOOLEANS[raw.lower()]
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


def _where(key_type, holds, span: str):
    """key_type narrowed to the values for which holds(value) is true."""
    parse, noun = key_type

    def parse_where(raw: str):
        value = parse(raw)
        if not holds(value):
            raise ValueError(raw)
        return value
    return parse_where, f"{noun} {span}"


# A key type is (parse, noun): parse raises ValueError on bad text, or on a
# value out of the type's range, and the error reads "<source> must be
# <noun>, got '<text>'", where the source is a flag or "[section] key".
_FLOAT, _INT, _TEXT = (_finite, "a finite float"), (int, "an integer"), (str, "text")
_POSITIVE = _where(_FLOAT, lambda x: x > 0.0, "> 0")
_NONNEGATIVE = _where(_FLOAT, lambda x: x >= 0.0, ">= 0")
_BETA = _where(_FLOAT, lambda x: 0.0 <= x < 1.0, "in [0, 1)")
_COUNT = _where(_INT, lambda n: n >= 1, ">= 1")
# the library masks seeds to 64 bits: -1 would alias 2^64 - 1
_SEED = _where(_INT, lambda n: 0 <= n < 2**64, "in [0, 2^64)")
_SEEDS = _list_of(_SEED, "integers in [0, 2^64)")
_FLOATS, _POSITIVES = _list_of(_FLOAT, "finite floats"), _list_of(_POSITIVE, "finite floats > 0")
_METHOD_NAMES = tuple(m.value for m in Method)
_METHOD = _one_of(_METHOD_NAMES, Method)
_DECAY = _one_of(tuple(m.value for m in DecayMode), DecayMode)
_BETA_SCHEDULE = _one_of(SCHEDULE_KINDS)

#: the [problem] keys each kind takes besides kind, as (required, optional)
_KIND_KEYS = {"synth": ((), ("c", "delta")),
              "quadratic": (("curvatures",), ("noise_std", "w_star")),
              "mlp": (("n_in", "n_hidden", "n_classes", "dataset"), ("batch_size",))}
#: every config key by section, with its type; unknown sections and keys are errors
_KEYS = {
    "problem": {
        "kind": _one_of(tuple(_KIND_KEYS)),
        "c": _where(_FLOAT, lambda x: x > 1.0, "> 1"), "delta": _NONNEGATIVE,
        "curvatures": _POSITIVES, "noise_std": _NONNEGATIVE, "w_star": _FLOATS, "n_in": _COUNT,
        "n_hidden": _COUNT, "n_classes": _COUNT, "dataset": _TEXT, "batch_size": _COUNT,
    },
    "optimizer": {
        "method": _METHOD, "alpha": _POSITIVE,
        "alpha_schedule": _one_of(("constant", "inverse_sqrt")), "epsilon": _POSITIVE,
        "beta1": _BETA, "beta1_schedule": _BETA_SCHEDULE, "beta2": _BETA,
        "beta2_schedule": _BETA_SCHEDULE, "weight_decay": _NONNEGATIVE, "decay_mode": _DECAY,
    },
    "run": {
        "steps": _COUNT, "seeds": _SEEDS, "record_every": _COUNT, "out_dir": _TEXT,
        "w1": _FLOATS, "grad_metric": _one_of(GRAD_METRICS), "converge_tol": _NONNEGATIVE,
        "init_scale": _NONNEGATIVE,
    },
    "grid": {
        "default": (_bool, "a boolean"), "alphas": _POSITIVES, "epsilons": _POSITIVES,
        "methods": _list_of(_METHOD, "names from " + ", ".join(_METHOD_NAMES)),
        "seeds": _SEEDS, "workers": _COUNT, "metric": _one_of(METRICS), "holdout": _TEXT,
    },
}


def _parse(what: str, key_type, raw: str):
    parse, noun = key_type
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{what} must be {noun}, got {raw!r}") from None


def _read_ini(text: str) -> dict[str, dict[str, str]]:
    """The sections of INI text as {section: {key: raw value}}, in file order.

    It reads the subset the repository's configs use: `[section]` headers,
    `key = value` lines, and full-line `#` or `;` comments and blank lines.
    A key is lower-cased and stripped, and a value stripped and read
    literally (a `%` is a `%`). Any other line raises a ValueError that names
    it: a key outside a section, a line without `=` or with a `:` in its key,
    an indented (continuation) line, and a repeated section or key.
    """
    sections: dict[str, dict[str, str]] = {}
    keys = None
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped or stripped[0] in "#;":
            continue
        key, eq, value = stripped.partition("=")
        key = key.rstrip().lower()
        if line[0].isspace():
            error = "indented line (continuation lines are not read)"
        elif stripped[0] == "[" and stripped[-1] == "]":
            if stripped[1:-1] not in sections:
                keys = sections[stripped[1:-1]] = {}
                continue
            error = "repeated section"
        elif not eq or not key or ":" in key:
            error = "expected [section] or key = value"
        elif keys is None:
            error = "key outside a section"
        elif key in keys:
            error = f"repeated key {key!r}"
        else:
            keys[key] = value.strip()
            continue
        raise ValueError(f"line {number}: {error}: {stripped!r}")
    return sections


def _load_config(path: str) -> dict[str, dict]:
    """Read an INI file into {section: {key: typed value}} for the keys it sets."""
    try:
        with open(path, encoding="utf-8") as fh:
            sections = _read_ini(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, ValueError) as exc:  # a UnicodeDecodeError is a ValueError
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    config = {}
    for section, raw_values in sections.items():
        if section not in _KEYS:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = set(raw_values) - set(_KEYS[section])
        if unknown:
            raise ConfigError(
                f"{path}: unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
        config[section] = {key: _parse(f"[{section}] {key}", _KEYS[section][key], raw)
                           for key, raw in raw_values.items()}
    return config


def _given(section: dict, *keys) -> dict:
    """The keys of a section that the file sets; the callee's defaults fill the rest."""
    return {key: section[key] for key in keys if key in section}


def _steps(run: dict, args, default: int) -> int:
    return args.steps if args.steps is not None else run.get("steps", default)


def _out_dir(args, run: dict) -> Path:
    """The output directory, --out or else [run] out_dir, made if missing."""
    what, path = ("--out", args.out) if args.out else ("[run] out_dir", run.get("out_dir", "."))
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{what} {path}: cannot make the directory: {exc.strerror}") from None
    return Path(path)


def _build_problem(cfg: dict):
    kind = cfg.get("kind")
    if kind is None:
        raise ConfigError("[problem] kind is required")
    required, optional = _KIND_KEYS[kind]
    for key in required:
        if key not in cfg:
            raise ConfigError(f"[problem] {key} is required for kind={kind}")
    foreign = [key for key in cfg if key not in ("kind", *required, *optional)]
    if foreign:
        raise ConfigError(f"[problem] kind={kind} does not take {', '.join(foreign)}")
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


def _method(cfg: dict, args) -> Method:
    if args.method is None and "method" not in cfg:
        raise ConfigError("[optimizer] method is required")
    return cfg["method"] if args.method is None else args.method


def _build_hp(cfg: dict, alpha: float | None = None, epsilon: float | None = None) -> HyperParams:
    """The [optimizer] settings; an alpha or epsilon given here (a flag) overrides the file's."""
    return HyperParams(  # in range: every value is typed by its key's or flag's range
        alpha=Schedule(cfg.get("alpha_schedule", "constant"),
                       alpha if alpha is not None else cfg.get("alpha", 0.001)),
        epsilon=epsilon if epsilon is not None else cfg.get("epsilon", 1e-8),
        beta1=Schedule(cfg.get("beta1_schedule", "constant"), cfg.get("beta1", BETA1.base)),
        beta2=Schedule(cfg.get("beta2_schedule", "constant"), cfg.get("beta2", BETA2.base)),
        **_given(cfg, "weight_decay", "decay_mode"),
    )


def _base_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get(ENV_SEED)
    return 0 if raw is None else _parse(ENV_SEED, _SEED, raw)


def _w1(problem, run: dict) -> np.ndarray | None:
    """[run] w1 as an array, checked against the problem's dimension; None if unset."""
    w1 = run.get("w1")
    if w1 is not None and len(w1) != problem.dim:
        raise ConfigError(f"[run] w1 must be {problem.dim} values, got {len(w1)}")
    return None if w1 is None else np.array(w1)


def _start(problem, run: dict, seed_label: int) -> np.ndarray:
    """The start point w1 of `run` and `check`: [run] w1, or the problem's default."""
    if "w1" in run:
        return _w1(problem, run)
    if isinstance(problem, SynthProblem):
        return np.array([0.5])
    if isinstance(problem, QuadraticProblem):
        return np.ones(problem.dim)
    # mlp: small random init from a stream disjoint from the trial's sampling stream
    rng = RngStream(mix_seed(seed_label, 0x1717))
    return run.get("init_scale", INIT_SCALE) * rng.normal(problem.dim)


def cmd_run(args) -> int:
    config = _load_config(args.config)
    run = config.get("run", {})
    problem = _build_problem(config.get("problem", {}))
    optimizer = config.get("optimizer", {})
    method, hp = _method(optimizer, args), _build_hp(optimizer, args.alpha, args.epsilon)
    steps = _steps(run, args, 1000)
    seeds = run["seeds"] if args.seed is None and "seeds" in run else [_base_seed(args)]
    if len(set(seeds)) != len(seeds):  # each seed writes its own trajectory file
        raise ConfigError("[run] seeds must not repeat")
    record_every = run.get("record_every", max(1, steps // 1000))
    starts = [_start(problem, run, seed) for seed in seeds]
    out_dir = _out_dir(args, run)

    print(
        f"# run method={method.value} alpha={schedule_repr(hp.alpha)}"
        f" epsilon={hp.epsilon:g} beta1={schedule_repr(hp.beta1)}"
        f" beta2={schedule_repr(hp.beta2)} weight_decay={hp.weight_decay:g}"
        f" decay_mode={hp.decay_mode.value} steps={steps}"
        f" seeds={','.join(str(s) for s in seeds)} record_every={record_every}"
        f" out={out_dir}"
    )
    records = run_trials([TrialConfig(  # the seeds as one lock-step batch
        method=method, hp=hp, problem=problem, T=steps, seed=seed, w1=w1,
        record_every=record_every, capture_trace=False,  # only the rows are written
        **_given(run, "grad_metric", "converge_tol"),
    ) for seed, w1 in zip(seeds, starts)])
    for seed, record in zip(seeds, records):
        traj_path = out_dir / f"trajectory_seed{seed}.csv"
        export_trajectory(record, traj_path)
        print(f"# trial seed={seed} trajectory={traj_path}")
        print(summary_line(record))
    return 2 if any(record.status == STATUS_DIVERGED for record in records) else 0


def schedule_repr(s: Schedule) -> str:
    return "inverse_t" if s.kind == "inverse_t" else f"{s.base:g}@{s.kind}"


SYNTHFIG_METHODS = (Method.ADAM, Method.AMSGRAD, Method.DELAYED_ADAM)


def cmd_synthfig(args) -> int:
    steps = args.steps if args.steps is not None else 1_000_000
    n_seeds = args.num_seeds if args.num_seeds is not None else 10
    base_seed = _base_seed(args)
    out_dir = _out_dir(args, {})
    stride = max(1, steps // 1000)
    problem = _build_problem({"kind": "synth"})
    hp = _build_hp({"alpha": 1e-5, "epsilon": 1e-8, "beta1": 0.0, "beta2": 0.99})
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
        if "alphas" in grid or "epsilons" in grid:
            raise ConfigError("[grid] default = true replaces alphas and epsilons: give one")
        alphas, epsilons = default_grid()
    elif "alphas" in grid and "epsilons" in grid:
        alphas, epsilons = grid["alphas"], grid["epsilons"]
    else:
        raise ConfigError("[grid] needs alphas and epsilons (or default = true)")
    if "methods" not in grid:
        raise ConfigError("[grid] methods is required")
    run = config.get("run", {})
    steps = _steps(run, args, 1000)
    workers = {"workers": args.workers} if args.workers is not None else _given(grid, "workers")
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
            hp=_build_hp(config.get("optimizer", {})),  # the grid's axes replace alpha, epsilon
            w1=_w1(problem, run),
            holdout=holdout,
            **_given(run, "init_scale"), **_given(grid, "metric"),
        )
    except ValueError as exc:
        raise ConfigError(f"[grid] {exc}") from None
    out_dir = _out_dir(args, run)

    cells = run_sweep(spec, **workers)
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
    optimizer = config.get("optimizer", {})
    method, hp = _method(optimizer, args), _build_hp(optimizer, args.alpha, args.epsilon)
    run = config.get("run", {})
    steps = _steps(run, args, 20000)
    base_seed = _base_seed(args)
    w1 = _start(problem, run, base_seed)
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
            w /= max(1.0, lane_norm(w).item())
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
            state.v, state.t = 100.0 * srng.random(problem.dim), 10
            gap_d = bias_gap(w, state, hp, problem, "delayed")
            gap_a = bias_gap(w, state, hp, problem, "adam")
            worst_delayed = max(worst_delayed, float(np.max(np.abs(gap_d))))
            worst_adam = max(worst_adam, float(np.max(np.abs(gap_a))))
        print(f"bias_gap_delayed={worst_delayed:.1e} bias_gap_adam={worst_adam:.3e}")
        failed = failed or worst_delayed > 1e-15

    # bound report when constants exist and the momentum term is off
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


_COMMON_FLAGS = (("--seed", _SEED, f"base seed (falls back to ${ENV_SEED}, then 0)"),
                 ("--steps", _COUNT, "override step count T"))
_OUT_FLAG = (("--out", _TEXT, "output directory"),)
_CONFIG_FLAG = (("--config", _TEXT, "configuration file path"),)
_OPTIMIZER_FLAGS = (("--alpha", _POSITIVE, "override learning rate"),
                    ("--epsilon", _POSITIVE, "override epsilon"),
                    ("--method", _METHOD, "override optimizer method"))

#: each command's function, help line and flags; a flag is (name, key type,
#: help), it defaults to None, and a command that has --config requires it
_COMMANDS = {
    "run": (cmd_run, "run the configured trial per seed",
            _CONFIG_FLAG + _COMMON_FLAGS + _OUT_FLAG + _OPTIMIZER_FLAGS),
    "synthfig": (cmd_synthfig, "scalar benchmark comparison CSVs", _COMMON_FLAGS + _OUT_FLAG
                 + (("--num-seeds", _COUNT, "replicas per method (default 10)"),)),
    "sweep": (cmd_sweep, "alpha x epsilon grid sweep", _CONFIG_FLAG + _COMMON_FLAGS + _OUT_FLAG
              + (("--workers", _COUNT, "parallel workers"),)),
    "check": (cmd_check, "gradient / bias / bound diagnostics",  # it writes no file
              _CONFIG_FLAG + _COMMON_FLAGS + _OPTIMIZER_FLAGS),
}


def _help(command: str | None) -> str:
    if command is None:
        return (f"usage: avagrad-lab {{{','.join(_COMMANDS)}}} ...\n\n"
                "Adaptive-gradient experiments: trials, sweeps, and diagnostics.\n\n"
                "commands:\n" + "".join(f"  {name:<10}{about}\n"
                                         for name, (_, about, _) in _COMMANDS.items()))
    _, about, flags = _COMMANDS[command]
    usage = [f"{name} {name[2:].upper().replace('-', '_')}" for name, _, _ in flags]
    return (f"usage: avagrad-lab {command} "
            + " ".join(u if u.startswith("--config") else f"[{u}]" for u in usage)
            + f"\n\n{about}\n\noptions:\n  -h, --help{'':<15}show this help and exit\n"
            + "".join(f"  {u:<25}{text}\n" for u, (_, _, text) in zip(usage, flags)))


def _flag(name: str, names) -> str | None:
    """The flag that `name` is or is a unique prefix of; None for no flag."""
    if name in names:
        return name
    matches = [flag for flag in names if flag.startswith(name)]
    if len(matches) > 1:
        raise ConfigError(f"ambiguous option: {name} could match {', '.join(matches)}")
    return matches[0] if matches else None


def _parse_argv(argv: list[str]) -> SimpleNamespace:
    """The command of a command line and its flags, as the `args` of its function.

    A flag's value is the next argument, or follows `=` in the same one, and
    goes through _parse with the flag's key type. A flag may be shortened to a
    unique prefix and, given twice, keeps its last value. -h or --help prints
    the usage and raises SystemExit(0); any other error is a ConfigError.
    """
    if not argv:
        raise ConfigError("the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        print(_help(None), end="")
        raise SystemExit(0)
    if command not in _COMMANDS:
        raise ConfigError(f"argument command: invalid choice: {command!r}"
                          f" (choose from {', '.join(_COMMANDS)})")
    func, _, flags = _COMMANDS[command]
    key_types = {name: key_type for name, key_type, _ in flags}
    args = SimpleNamespace(func=func, **{name[2:].replace("-", "_"): None for name in key_types})
    unrecognized = []
    tokens = iter(rest)
    for token in tokens:
        name, eq, raw = token.partition("=")
        flag = (_flag(name, [*key_types, "--help"]) if name.startswith("--") and name != "--"
                else "--help" if token == "-h" else None)
        if flag is None:
            unrecognized.append(token)
            continue
        if flag == "--help":
            print(_help(command), end="")
            raise SystemExit(0)
        if not eq:
            raw = next(tokens, None)
            if raw is None or raw.startswith("--"):
                raise ConfigError(f"argument {flag}: expected one argument")
        setattr(args, flag[2:].replace("-", "_"), _parse(flag, key_types[flag], raw))
    if "--config" in key_types and args.config is None:
        raise ConfigError("the following arguments are required: --config")
    if unrecognized:
        raise ConfigError(f"unrecognized arguments: {' '.join(unrecognized)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def script() -> NoReturn:
    """The process entry point: run main() on sys.argv, then end the process.

    Once main() returns, the atexit callbacks run and stdout and stderr are
    flushed, in the interpreter's own order; then os._exit(status) ends the
    process without module teardown and the shutdown collections, about 4 ms
    sooner. Nothing is lost by skipping them: every output file is closed by
    its `with` block before main() returns, run_sweep has reaped its forked
    workers, and no command starts a thread. A stdout flush that fails, as to
    a pipe whose reader has gone, gives exit 1 and one `error:` line. A
    SystemExit (`--help`) or an uncaught exception leaves through the
    interpreter. main() never ends the process, because tests and the
    benchmark's traced passes call it in one long-lived process.

    Run as `__main__` (`python -m avagrad_lab.cli`), this module disables the
    cyclic collector in its first statement, so the imports of numpy and the
    package run no collection: everything they build lives until exit anyway.
    Here those objects are frozen, and only then is the collector enabled for
    main(), so that no collection walks them. The console script imports this
    module under its own name and leaves the collector alone, as main() does.
    """
    if __name__ == "__main__":
        gc.freeze()
        gc.enable()
    status = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:  # None when the process starts with fd 1 closed
            sys.stdout.flush()
    except OSError as exc:
        status = 1
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(status)


if __name__ == "__main__":
    script()
