"""Byte-for-byte trajectory fixtures.

Each case runs one trial and writes its rows with export_trajectory; the
bytes must equal the CSV stored under tests/golden/. The fixtures were
recorded with Python 3.11.7 and numpy 2.4.6; a different numpy or BLAS build
may round differently. Re-record them only on purpose, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from avagrad_lab.core import RngStream, Schedule
from avagrad_lab.optim import HyperParams, Method
from avagrad_lab.problems import gaussian_blobs, mlp_make, quadratic_make, synth_make
from avagrad_lab.runner import TrialConfig, export_trajectory, run_trial

GOLDEN = Path(__file__).resolve().parent / "golden"


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


@pytest.mark.parametrize("name", sorted(_cases()))
def test_trajectory_matches_golden_bytes(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    export_trajectory(run_trial(_cases()[name]), path)
    assert path.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", [name for name in _cases() if "diverging" in name])
def test_diverging_cases_diverge(name):
    rec = run_trial(_cases()[name])
    assert rec.status == "diverged"
    assert 10 < rec.steps_done < 1000 and rec.steps_done % 10 != 0  # a flushed final row


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case_name, cfg in _cases().items():
        export_trajectory(run_trial(cfg), GOLDEN / f"{case_name}.csv")
        print(f"wrote {GOLDEN / case_name}.csv", file=sys.stderr)
