"""Byte-for-byte trajectory, sweep and synthfig fixtures.

Each trajectory case runs one trial and writes its rows with
export_trajectory; each sweep case runs one grid and writes heatmap.csv and
separability.csv as the sweep command does; each synthfig case runs the
synthfig command and writes fig1_left.csv and fig1_right.csv. The bytes must equal the CSVs
stored under tests/golden/, under the numpy engine and under the compiled
loop that runs d = 1 synth trials. The fixtures were recorded with Python 3.11.7 and
numpy 2.4.6; a different numpy or BLAS build may round differently.
Re-record them only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from avagrad_lab.cli import main
from avagrad_lab.core import RngStream, Schedule, write_csv
from avagrad_lab.optim import HyperParams, Method
from avagrad_lab.problems import gaussian_blobs, mlp_make, quadratic_make, synth_make
from avagrad_lab.runner import TrialConfig, export_trajectory, run_trial
from avagrad_lab.sweep import GridSpec, default_grid, export_heatmap, run_sweep, separability_index

GOLDEN = Path(__file__).resolve().parent / "golden"
REPO = GOLDEN.parent.parent
SWEEP_FILES = ("heatmap.csv", "separability.csv")
FIG1_FILES = ("fig1_left.csv", "fig1_right.csv")


def _hp(alpha, epsilon=1e-8, beta1=0.9, beta2=0.999):
    return HyperParams(alpha=alpha, epsilon=epsilon, beta1=Schedule.constant(beta1),
                       beta2=Schedule.constant(beta2))


def _quadratic():
    return quadratic_make(np.linspace(1.0, 4.0, 10), 0.1)


def _cases() -> dict[str, TrialConfig]:
    cases = {
        "synth_delayed_adam": TrialConfig(
            method=Method.DELAYED_ADAM,
            hp=_hp(Schedule.constant(1e-4), beta1=0.0, beta2=0.99),
            problem=synth_make(999.0, 1.0), T=500, w1=np.array([0.5]), seed=7,
            record_every=1),
        "quadratic_sgd_diverging": TrialConfig(
            method=Method.SGD, hp=_hp(Schedule.constant(1.0)), problem=_quadratic(),
            T=1000, w1=np.ones(10), seed=3, record_every=10),
        "quadratic_sgd_diverging_inverse_sqrt": TrialConfig(
            method=Method.SGD, hp=_hp(Schedule.inverse_sqrt(50.0)), problem=_quadratic(),
            T=1000, w1=np.ones(10), seed=3, record_every=10),
    }
    for method, alpha in ((Method.AMSGRAD, Schedule.constant(1e-2)),
                          (Method.AVAGRAD, Schedule.inverse_sqrt(5e-2))):
        for metric in ("full", "batch", "none"):
            cases[f"quadratic_{method.value}_{metric}"] = TrialConfig(
                method=method, hp=_hp(alpha), problem=_quadratic(), T=200,
                w1=np.ones(10), seed=11, record_every=3, grad_metric=metric)
    data = gaussian_blobs(40, 3, 2, 1.5, RngStream(3))
    mlp = mlp_make(2, 16, 3, data, batch_size=16)
    cases["mlp_adam_batch"] = TrialConfig(
        method=Method.ADAM, hp=_hp(Schedule.constant(1e-2)), problem=mlp, T=60,
        w1=0.1 * RngStream(11).normal(mlp.dim), seed=5, record_every=1,
        grad_metric="batch")
    return cases


def _criterion8_spec() -> GridSpec:
    """The grid of acceptance criterion 8: delayed Adam on the default 21 x 21 axes."""
    alphas, epsilons = default_grid()
    return GridSpec(problem=quadratic_make(np.linspace(1.0, 4.0, 10), 0.1, np.zeros(10)),
                    methods=[Method.DELAYED_ADAM], alphas=alphas, epsilons=epsilons,
                    seeds=[0], T=1000, w1=np.ones(10))


def _criterion9_spec() -> GridSpec:
    """The grid of acceptance criterion 9: the 7 x 7 x 3 MLP holdout sweep."""
    train = gaussian_blobs(80, 3, 2, 1.5, RngStream(42))
    holdout = gaussian_blobs(40, 3, 2, 1.5, RngStream(43))
    return GridSpec(problem=mlp_make(2, 16, 3, train, batch_size=32),
                    methods=[Method.ADAM, Method.AVAGRAD],
                    alphas=[1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0],
                    epsilons=[1e-2, 1e-1, 1.0, 2.0, 10.0, 20.0, 100.0], seeds=[0, 1, 2],
                    T=2000, base_seed=7, metric="holdout_ce", holdout=holdout)


_CRITERION10_INI = (
    "[problem]\nkind = quadratic\ncurvatures = 1.0,2.0\nnoise_std = 0.1\n\n"
    "[run]\nsteps = 100\n\n"
    "[grid]\nalphas = 0.01,0.1\nepsilons = 0.001,0.1\nmethods = adam\nseeds = 0,1\n"
)


def _write_spec_sweep(spec: GridSpec, workers: int, out: Path) -> None:
    """Run a grid and write its two CSVs as the sweep command does."""
    cells = run_sweep(spec, workers=workers, progress=io.StringIO())
    export_heatmap(cells, out / "heatmap.csv")
    rows = []
    for method in spec.methods:
        try:
            rows.append((method.value, separability_index(cells, method)))
        except ValueError:
            rows.append((method.value, ""))
    write_csv(out / "separability.csv", ("method", "separability_index"), rows, "separability")


def _write_cli_sweep(config: Path, seed: int, out: Path) -> None:
    assert main(["sweep", "--config", str(config), "--out", str(out), "--seed", str(seed)]) == 0


def _write_criterion10(out: Path) -> None:
    config = out / "sweep.ini"
    config.write_text(_CRITERION10_INI)
    _write_cli_sweep(config, 5, out)
    config.unlink()


# name -> writer of heatmap.csv and separability.csv into a directory
SWEEP_CASES = {
    "criterion8": lambda out: _write_spec_sweep(_criterion8_spec(), 1, out),
    "criterion9": lambda out: _write_spec_sweep(_criterion9_spec(), 2, out),
    "criterion10": _write_criterion10,
    "quadratic_sweep_demo": lambda out: _write_cli_sweep(
        REPO / "demos" / "configs" / "quadratic_sweep.ini", 0, out),
}


# name -> synthfig flags; 2999 steps give stride 2 and a final partial row
SYNTHFIG_CASES = {
    "steps2000": ("--steps", "2000", "--num-seeds", "10", "--seed", "0"),
    "steps2999": ("--steps", "2999", "--num-seeds", "3", "--seed", "4"),
}


def _write_synthfig(name: str, out: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["synthfig", *SYNTHFIG_CASES[name], "--out", str(out)]) == 0


def _blobs_csv(data) -> str:
    return "".join(f"{float(x0)!r},{float(x1)!r},{label}\n"
                   for (x0, x1), label in zip(data.features, data.labels))


# name -> the files a run case writes before `run --config run.ini --out .`
RUN_CASES = {
    # the trial_record workload's shape: a row and a trace entry every step
    "synth_3seeds": {"run.ini": (
        "[problem]\nkind = synth\nc = 999\ndelta = 1\n\n"
        "[optimizer]\nmethod = delayed_adam\nalpha = 1e-5\nbeta1 = 0.0\nbeta2 = 0.99\n\n"
        "[run]\nsteps = 300\nseeds = 4,5,6\nrecord_every = 1\ngrad_metric = full\nw1 = 0.5\n")},
    # each seed draws its own w1
    "mlp_2seeds": {"run.ini": (
        "[problem]\nkind = mlp\nn_in = 2\nn_hidden = 8\nn_classes = 3\n"
        "dataset = train.csv\nbatch_size = 8\n\n"
        "[optimizer]\nmethod = adam\nalpha = 1e-2\nbeta1 = 0.0\nbeta2 = 0.99\n\n"
        "[run]\nsteps = 80\nseeds = 3,8\nrecord_every = 4\ngrad_metric = batch\n"),
        "train.csv": _blobs_csv(gaussian_blobs(20, 3, 2, 1.5, RngStream(9)))},
    # the iterate doubles each step (|1 - alpha c| = 2): seed 20's squared batch gradient
    # overflows at step 46 (exit 2), while seeds 1 and 19 finish with finite rows
    "quadratic_sgd_1diverges": {"run.ini": (
        "[problem]\nkind = quadratic\ncurvatures = 1.0\nnoise_std = 1e140\n\n"
        "[optimizer]\nmethod = sgd\nalpha = 3.0\n\n"
        "[run]\nsteps = 46\nseeds = 1,20,19\nrecord_every = 7\ngrad_metric = batch\n"
        "w1 = 0.0\n")},
}


def _write_run(name: str, out: Path) -> None:
    """Run a run case in `out`; keep its stdout, exit code and trajectories there."""
    inputs = RUN_CASES[name]
    for fname, text in inputs.items():
        (out / fname).write_text(text)
    cwd, stdout = os.getcwd(), io.StringIO()
    os.chdir(out)  # the echoed paths are relative, so stdout does not name the directory
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(["run", "--config", "run.ini", "--out", "."])
    finally:
        os.chdir(cwd)
    (out / "stdout.txt").write_text(stdout.getvalue())
    (out / "exit_code.txt").write_text(f"{code}\n")
    for fname in inputs:
        (out / fname).unlink()


@pytest.mark.parametrize("name", sorted(_cases()))
@pytest.mark.usefixtures("engine")  # d = 1 synth cases run compiled
def test_trajectory_matches_golden_bytes(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    export_trajectory(run_trial(_cases()[name]), path)
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", [name for name in _cases() if "diverging" in name])
def test_diverging_cases_diverge(name):
    rec = run_trial(_cases()[name])
    assert rec.status == "diverged"
    assert 10 < rec.steps_done < 1000 and rec.steps_done % 10 != 0  # a flushed final row


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_matches_golden_bytes(name, tmp_path):
    SWEEP_CASES[name](tmp_path)
    for fname in SWEEP_FILES:
        assert (tmp_path / fname).read_bytes() == \
            (GOLDEN / f"sweep_{name}" / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(SYNTHFIG_CASES))
@pytest.mark.usefixtures("engine")  # d = 1 synth cases run compiled
def test_synthfig_matches_golden_bytes(name, tmp_path):
    _write_synthfig(name, tmp_path)
    for fname in FIG1_FILES:
        assert (tmp_path / fname).read_bytes() == \
            (GOLDEN / f"synthfig_{name}" / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(RUN_CASES))
@pytest.mark.usefixtures("engine")  # d = 1 synth cases run compiled
def test_run_matches_golden_bytes(name, tmp_path):
    _write_run(name, tmp_path)
    golden = GOLDEN / f"run_{name}"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case_name, cfg in _cases().items():
        export_trajectory(run_trial(cfg), GOLDEN / f"{case_name}.csv")
        print(f"wrote {GOLDEN / case_name}.csv", file=sys.stderr)
    for case_name, write in SWEEP_CASES.items():
        out = GOLDEN / f"sweep_{case_name}"
        out.mkdir(exist_ok=True)
        write(out)
        print(f"wrote {out}/{{{','.join(SWEEP_FILES)}}}", file=sys.stderr)
    for case_name in SYNTHFIG_CASES:
        out = GOLDEN / f"synthfig_{case_name}"
        out.mkdir(exist_ok=True)
        _write_synthfig(case_name, out)
        print(f"wrote {out}/{{{','.join(FIG1_FILES)}}}", file=sys.stderr)
    for case_name in RUN_CASES:
        out = GOLDEN / f"run_{case_name}"
        out.mkdir(exist_ok=True)
        _write_run(case_name, out)
        print(f"wrote {out}", file=sys.stderr)
