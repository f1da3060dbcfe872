"""Record the paper's verdicts over base seeds 0-11 in VERDICTS.json.

For each base seed this runs criterion 1's benchmark (Adam, AMSGrad and
delayed Adam on the two-outcome problem, 10 replicas of 10^6 steps) and
criterion 9's MLP holdout sweep (Adam and AvaGrad on a 7 x 7 x 3 grid), and
records criterion 1's claims with the figures they read, and criterion 9's
separability index for each method and AvaGrad's margin over Adam. The file
also names the environment, the digest of the package's source and the wall
time. Two runs on one machine write the same bytes, apart from the wall
time. A change that moves recorded bytes re-runs it and states every margin
that moved. It takes about a minute on a 2-core x86-64 machine:

    PYTHONPATH=src python tests/verdicts.py [--out VERDICTS.json]

Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np
from numpy._core import _multiarray_umath

import avagrad_lab
import criterion1
import criterion9
from avagrad_lab.optim import Method
from avagrad_lab.sweep import run_sweep, separability_index
from engines import openblas_core

SEEDS = range(12)
WORKERS = 2  # a sweep's cells do not depend on the worker count
REPO = Path(__file__).resolve().parent.parent


def environment_key() -> str:
    """Python, numpy, machine, OpenBLAS kernel set and numpy's highest dispatch target."""
    features = _multiarray_umath.__cpu_features__
    dispatch = [f for f in _multiarray_umath.__cpu_dispatch__ if features.get(f)]
    return (f"python{sys.version_info.major}.{sys.version_info.minor}-numpy{np.__version__}"
            f"-{platform.machine()}-openblas_{openblas_core()}"
            f"-dispatch_{dispatch[-1] if dispatch else 'baseline'}")


def source_digest() -> str:
    """SHA-256 of the package's Python and C sources, name and bytes, in name order."""
    digest = hashlib.sha256()
    package = Path(avagrad_lab.__file__).resolve().parent
    for path in sorted([*package.glob("*.py"), *package.glob("*.c")]):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def criterion1_entry(base_seed: int) -> dict:
    out = criterion1.figures(base_seed)
    checks = criterion1.claims(out)
    return {
        "base_seed": base_seed,
        "figures": {method.value: dict(zip(
            ("prefix_w", "prefix_grad_norm_sq", "tail_w", "tail_grad_norm_sq"), values))
            for method, values in out.items()},
        "tail_w_distance_from_w_star": {method.value: abs(values[2] - criterion1.PROBLEM.w_star)
                                        for method, values in out.items()},
        "claims": dict(checks),
        "holds": all(ok for _, ok in checks),
    }


def criterion9_entry(base_seed: int) -> dict:
    cells = run_sweep(criterion9.spec(base_seed), workers=WORKERS, progress=io.StringIO())
    sep = {m: separability_index(cells, m) for m in (Method.AVAGRAD, Method.ADAM)}
    margin = sep[Method.AVAGRAD] - sep[Method.ADAM]
    return {"base_seed": base_seed, "separability": {m.value: s for m, s in sep.items()},
            "margin": margin, "holds": margin > 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(REPO / "VERDICTS.json"), help="output JSON path")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    c1, c9 = [], []
    for seed in SEEDS:
        c1.append(criterion1_entry(seed))
        c9.append(criterion9_entry(seed))
        print(f"base seed {seed}: criterion 1 {'holds' if c1[-1]['holds'] else 'FAILS'},"
              f" criterion 9 margin {c9[-1]['margin']:.3f}", file=sys.stderr)
    margins = [entry["margin"] for entry in c9]
    verdicts = {
        "what": "criterion 1's claims and criterion 9's separability margins at base seeds 0-11",
        "environment": environment_key(),
        "source_sha256": source_digest(),
        "summary": {
            "criterion1_holds": f"{sum(e['holds'] for e in c1)} of {len(c1)}",
            "criterion9_holds": f"{sum(e['holds'] for e in c9)} of {len(c9)}",
            "criterion9_margin_min": min(margins),
            "criterion9_margin_max": max(margins),
        },
        "criterion1": c1,
        "criterion9": c9,
        "wall_s": round(time.perf_counter() - start, 1),
    }
    Path(args.out).write_text(json.dumps(verdicts, indent=1) + "\n")
    print(f"wrote {args.out}: {json.dumps(verdicts['summary'])}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
