"""Byte-for-byte trajectory, sweep and synthfig fixtures.

Each trajectory case runs one trial and writes its rows with
export_trajectory; each sweep case runs one grid and writes heatmap.csv and
separability.csv as the sweep command does; each synthfig case runs the
synthfig command and writes fig1_left.csv and fig1_right.csv. The bytes must equal the CSVs
stored under tests/golden/, under the numpy engine and under the compiled
loop that runs d = 1 synth trials. The run cases also go through the real
entry point, `python -m avagrad_lab.cli` in a child process. The fixtures
were recorded with Python 3.11.7 and numpy 2.4.6; a different numpy build
may round differently. Of the recorded numbers only the MLP's go through
BLAS (its @) and through numpy's CPU-dispatched loops (its exp and log), so
every other fixture holds on any x86-64 CPU, which a test checks under two
other OpenBLAS kernel sets, and the MLP fixtures hold per pair of BLAS
kernel set and numpy dispatch target.
Re-record them only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import criterion9
from avagrad_lab import cli
from avagrad_lab.cli import main
from avagrad_lab.core import RngStream, Schedule, write_csv
from avagrad_lab.optim import HyperParams, Method
from avagrad_lab.mlp import gaussian_blobs, mlp_make
from avagrad_lab.problems import quadratic_make, synth_make
from avagrad_lab.runner import TrialConfig, export_trajectory, run_trial
from avagrad_lab.sweep import GridSpec, default_grid, export_heatmap, run_sweep, separability_index
from engines import child_env, other_cpu_kernels

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


_CRITERION10_INI = (
    "[problem]\nkind = quadratic\ncurvatures = 1.0,2.0\nnoise_std = 0.1\n\n"
    "[run]\nsteps = 100\n\n"
    "[grid]\nalphas = 0.01,0.1\nepsilons = 0.001,0.1\nmethods = adam\nseeds = 0,1\n"
)


def _write_spec_sweep(spec: GridSpec, workers: int, out: Path) -> None:
    """Run a grid and write its two CSVs as the sweep command does."""
    _write_cells(spec, run_sweep(spec, workers=workers, progress=io.StringIO()), out)


def _write_cells(spec: GridSpec, cells, out: Path) -> None:
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
    "criterion9": lambda out: _write_spec_sweep(criterion9.spec(), 2, out),
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


def _main_in_process(argv: list[str], cwd: Path) -> int:
    """cli.main(argv) run from `cwd`, its stdout written to cwd/stdout.txt."""
    before, stdout = os.getcwd(), io.StringIO()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(argv)
    finally:
        os.chdir(before)
    (cwd / "stdout.txt").write_text(stdout.getvalue())
    return code


def _main_in_child(argv: list[str], cwd: Path) -> int:
    """`python -m avagrad_lab.cli` run from `cwd`, its stdout going to cwd/stdout.txt.

    Stdout is block-buffered, so its bytes are written by the flush at exit,
    after the entry point has frozen the heap.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONUNBUFFERED", None)
    with open(cwd / "stdout.txt", "wb") as stdout:
        return subprocess.run([sys.executable, "-m", "avagrad_lab.cli", *argv], cwd=cwd,
                              env=env, stdout=stdout).returncode


def _write_run(name: str, out: Path, run_main=_main_in_process) -> None:
    """Run a run case in `out`; keep its stdout, exit code and trajectories there.
    The echoed paths are relative, so stdout does not name the directory."""
    inputs = RUN_CASES[name]
    for fname, text in inputs.items():
        (out / fname).write_text(text)
    code = run_main(["run", "--config", "run.ini", "--out", "."], out)
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
def test_sweep_matches_golden_bytes(name, tmp_path, request):
    if name == "criterion9":  # criterion 9's 8-worker cells against the 2-worker fixture
        _write_cells(criterion9.spec(), request.getfixturevalue("criterion9_cells"), tmp_path)
    else:
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


def _assert_run_matches_golden(name: str, out: Path) -> None:
    golden = GOLDEN / f"run_{name}"
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    for path in golden.iterdir():
        assert (out / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(RUN_CASES))
@pytest.mark.usefixtures("engine")  # d = 1 synth cases run compiled
def test_run_matches_golden_bytes(name, tmp_path):
    _write_run(name, tmp_path)
    _assert_run_matches_golden(name, tmp_path)


@pytest.mark.parametrize("name", sorted(RUN_CASES))
def test_cli_process_matches_golden_bytes(name, tmp_path):
    _write_run(name, tmp_path, _main_in_child)
    _assert_run_matches_golden(name, tmp_path)


def test_non_mlp_cases_match_under_other_blas_kernels():
    """The trajectory, synthfig and run cases without an MLP, rerun in a child
    process under each of OpenBLAS's Haswell and Sandybridge kernel sets:
    no recorded number but the MLP's goes through BLAS. Each child reports
    the kernel set it ran; one the CPU cannot run is left out."""
    envs = [env for env in other_cpu_kernels() if env[0] == "OPENBLAS_CORETYPE"]
    if not envs:
        pytest.skip("this CPU runs none of the other BLAS kernel sets")
    code = ("import sys, engines, pytest; status = pytest.main(sys.argv[1:]); "
            "print('openblas_core', engines.openblas_core()); sys.exit(status)")
    argv = [__file__, "-q", "-p", "no:cacheprovider",
            "-k", "not mlp and not sweep and not under_other"]  # and not this test
    procs = [subprocess.Popen([sys.executable, "-c", code, *argv], text=True, cwd=REPO,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              env=child_env(name, value)) for name, value in envs]
    for (_, value), proc in zip(envs, procs):
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, (value, out)
        assert out.split()[-2:] in (["openblas_core", value], ["openblas_core", "None"]), out


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
