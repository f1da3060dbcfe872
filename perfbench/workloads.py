"""The benchmark's four workloads: inputs made from the seed, the
`avagrad-lab` commands that consume them, and the checks on their outputs.

Every input file (INI configs, blob CSVs) is generated here from the
workload seed; the program sees only those files and the `--seed` flag.
The step count T of each workload is fixed, so the outputs for a (workload,
seed, T) triple are fixed bytes that `golden.json` records.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

# Criterion-9 shape: 7 x 7 sub-grid of the default axes.
MLP_ALPHAS = "1e-3,1e-2,1e-1,1,10,100,1000"
MLP_EPSILONS = "1e-2,1e-1,1,2,10,20,100"
MLP_WORKERS = 2  # nproc of the 2-core machine the benchmark was defined on


@dataclass(frozen=True)
class Command:
    """One CLI invocation: arguments after `avagrad-lab`, and whether its
    stdout is an output whose bytes are checked."""

    argv: tuple[str, ...]
    stdout_name: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int  # the T of a timed pass
    smoke_steps: int  # the T of a smoke pass
    lanes: int  # trials advanced per step, summed over the commands


# T is chosen so one timed pass takes about 1-2 s on 2 cores: long enough
# that interpreter start is a minor share, short enough for ~10 passes a run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synthfig", steps=20000, smoke_steps=20, lanes=3 * 10),
        Workload("grid_quadratic", steps=40, smoke_steps=2, lanes=21 * 21),
        Workload("mlp_holdout", steps=50, smoke_steps=2, lanes=2 * 7 * 7 * 3),
        Workload("trial_record", steps=2000, smoke_steps=10, lanes=3 + 1),
    )
}


def trial_seeds(seed: int) -> list[int]:
    return [seed, seed + 1, seed + 2]


def _blob_lines(rng: np.random.Generator, n_per_class: int) -> str:
    """Three unit-variance Gaussian classes at radius 1.5 in the plane."""
    lines = []
    for k in range(3):
        theta = 2.0 * math.pi * k / 3
        center = np.array([1.5 * math.cos(theta), 1.5 * math.sin(theta)])
        for x0, x1 in center + rng.standard_normal((n_per_class, 2)):
            lines.append(f"{float(x0)!r},{float(x1)!r},{k}\n")
    return "".join(lines)


def write_inputs(name: str, seed: int, work: Path) -> None:
    """Write the workload's input files into `work` (the commands' cwd)."""
    work.mkdir(parents=True, exist_ok=True)
    if name == "grid_quadratic":
        curv = ",".join(repr(float(c)) for c in np.linspace(1.0, 4.0, 10))
        (work / "grid_quadratic.ini").write_text(
            "[problem]\nkind = quadratic\n"
            f"curvatures = {curv}\nnoise_std = 0.1\n\n"
            "[grid]\ndefault = true\nmethods = delayed_adam\nseeds = 0\nworkers = 1\n"
        )
    elif name == "mlp_holdout":
        rng = np.random.default_rng(seed % 2**64)
        (work / "train.csv").write_text(_blob_lines(rng, 80))
        (work / "holdout.csv").write_text(_blob_lines(rng, 40))
        (work / "mlp_holdout.ini").write_text(
            "[problem]\nkind = mlp\nn_in = 2\nn_hidden = 16\nn_classes = 3\n"
            "dataset = train.csv\nbatch_size = 32\n\n"
            f"[grid]\nalphas = {MLP_ALPHAS}\nepsilons = {MLP_EPSILONS}\n"
            "methods = adam,avagrad\nseeds = 0,1,2\n"
            f"workers = {MLP_WORKERS}\n"
            "metric = holdout_ce\nholdout = holdout.csv\n"
        )
    elif name == "trial_record":
        seeds = ",".join(str(s) for s in trial_seeds(seed))
        (work / "trial_record.ini").write_text(
            "[problem]\nkind = synth\nc = 999\ndelta = 1\n\n"
            "[optimizer]\nmethod = delayed_adam\nalpha = 1e-5\nepsilon = 1e-8\n"
            "beta1 = 0.0\nbeta2 = 0.99\n\n"
            f"[run]\nseeds = {seeds}\nrecord_every = 1\ngrad_metric = full\nw1 = 0.5\n"
        )
    elif name != "synthfig":
        raise ValueError(f"unknown workload {name!r}")


def commands(name: str, seed: int, steps: int, out: str) -> list[Command]:
    """The workload's commands, run in order from the input directory.

    `run` is not given `--seed`, which would replace the config's three
    seeds by one; its seeds come from the generated config instead.
    """
    common = ("--steps", str(steps), "--out", out)
    if name == "synthfig":
        return [Command(("synthfig", "--num-seeds", "10", "--seed", str(seed)) + common)]
    if name in ("grid_quadratic", "mlp_holdout"):
        return [Command(("sweep", "--config", f"{name}.ini", "--seed", str(seed)) + common)]
    if name == "trial_record":
        return [
            Command(("run", "--config", "trial_record.ini") + common),
            Command(("check", "--config", "trial_record.ini", "--seed", str(seed),
                     "--steps", str(steps)), stdout_name="check.stdout"),
        ]
    raise ValueError(f"unknown workload {name!r}")


def output_names(name: str, seed: int) -> list[str]:
    if name == "synthfig":
        return ["fig1_left.csv", "fig1_right.csv"]
    if name in ("grid_quadratic", "mlp_holdout"):
        return ["heatmap.csv", "separability.csv"]
    return [f"trajectory_seed{s}.csv" for s in trial_seeds(seed)] + ["check.stdout"]


def digest_outputs(name: str, seed: int, out: Path) -> dict[str, str | None]:
    """sha256 of each expected output file; None for a missing file."""
    digests = {}
    for fname in output_names(name, seed):
        path = out / fname
        digests[fname] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digests


def heatmap_status_counts(out: Path) -> tuple[int, int]:
    """(cells, cells with status=failed) of a sweep's heatmap.csv."""
    path = out / "heatmap.csv"
    if not path.is_file():
        return 0, 0
    rows = path.read_text().splitlines()[1:]
    return len(rows), sum(1 for r in rows if r.rsplit(",", 1)[-1] == "failed")


def environment_key() -> str:
    """Digests are only comparable on the same interpreter, numpy and CPU
    architecture: MLP matmul results depend on the BLAS build."""
    return (
        f"python{sys.version_info.major}.{sys.version_info.minor}"
        f"-numpy{np.__version__}-{platform.machine()}"
    )


@dataclass
class OutputCheck:
    """Compares each pass's output digests with the recorded ones, or, for a
    (workload, seed, T) with no record, with the first pass of this run."""

    name: str
    seed: int
    golden: dict = field(default_factory=dict)
    first_seen: dict = field(default_factory=dict)
    files: int = 0
    mismatches: int = 0
    # "unrecorded" for a pass with no recorded digests, or "environment-mismatch"
    # when golden.json was recorded in another environment and is not used
    unchecked: str = "unrecorded"
    status: dict = field(default_factory=dict)  # T -> "matched" | unchecked | "mismatch"

    @classmethod
    def load(cls, name: str, seed: int) -> "OutputCheck":
        data = json.loads(GOLDEN_PATH.read_text())
        if data["environment"] != environment_key():
            print(f"# warning: golden.json was recorded in {data['environment']}, this is "
                  f"{environment_key()}; outputs are checked only against this run's first "
                  "pass", file=sys.stderr)
            return cls(name, seed, unchecked="environment-mismatch")
        return cls(name, seed, data["digests"].get(name, {}))

    def expected(self, steps: int) -> dict | None:
        return self.golden.get(str(steps), {}).get(str(self.seed))

    def compare(self, steps: int, digests: dict[str, str | None]) -> int:
        """Record one pass's digests; returns the number of mismatched files."""
        want = self.expected(steps)
        recorded = want is not None
        if want is None:
            want = self.first_seen.setdefault(steps, digests)
        names = set(want) | set(digests)
        bad = sum(1 for n in names if digests.get(n) is None or digests.get(n) != want.get(n))
        self.files += len(names)
        self.mismatches += bad
        if bad:
            self.status[steps] = "mismatch"
        else:
            self.status.setdefault(steps, "matched" if recorded else self.unchecked)
        return bad
