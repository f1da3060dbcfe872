"""Smoke tests of the benchmark itself: a tiny-T pass of every workload and
the traced run, on the unmodified program.

    python3 -m pytest perfbench -q

Run from the root of a checkout.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, expected: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    for metric in expected:
        assert metric["name"] in result["metrics"], metric["name"]
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
    assert set(result["metrics"]) == {m["name"] for m in expected}
    assert all(NAME.fullmatch(name) for name in result["metrics"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_smoke(workload):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0",
                 "--smoke")
    check_metrics(result_of(proc), SPEC["end_to_end"])
    # the printed table reports both ratios, and both are zero on correct code
    table = proc.stdout
    for ratio in ("error_ratio", "mismatch_ratio"):
        row = re.search(rf"^\s+{ratio}\s+(\S+)", table, re.M)
        assert row and float(row.group(1)) == 0.0, ratio
    assert "'matched'" in table and "mismatch'" not in table


def test_traced_smoke():
    proc = bench("--workload", "grid_quadratic", "--seed", "0", "--seconds", "1",
                 "--trace", "1", "--smoke")
    result = result_of(proc)
    check_metrics(result, SPEC["per_layer"])
    m = result["metrics"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        modules = sum(m[f"{mod}.self_share.{workload}"]["value"]
                      for mod in ("core", "optim", "problems", "runner", "sweep", "cli"))
        rest = m[f"trace.unattributed_s.{workload}"]["value"] / m[f"trace.wall_s.{workload}"]["value"]
        assert modules + rest == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= rest < 0.05


def test_unseen_seed_is_unrecorded_but_checked():
    proc = bench("--workload", "synthfig", "--seed", "987654", "--seconds", "1", "--smoke")
    check_metrics(result_of(proc), SPEC["end_to_end"])
    assert "'unrecorded'" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "synthfig", "--seed", "0", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
