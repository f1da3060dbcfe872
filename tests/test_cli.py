import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from avagrad_lab import cli
from avagrad_lab.cli import _FLOAT, _KEYS, main
from avagrad_lab.core import RngStream
from avagrad_lab.problems import gaussian_blobs
from avagrad_lab.runner import run_trials


SYNTH_CONFIG = """\
[problem]
kind = synth
c = 999
delta = 1

[optimizer]
method = delayed_adam
alpha = 1e-3
epsilon = 1e-8
beta1 = 0.0
beta2 = 0.99

[run]
steps = 200
seeds = 0,1
record_every = 50
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_blobs_csv(tmp_path, name, n_per_class=12, seed=5):
    data = gaussian_blobs(n_per_class, 3, 2, 3.0, RngStream(seed))
    path = tmp_path / name
    lines = [
        f"{float(row[0])!r},{float(row[1])!r},{label}"
        for row, label in zip(data.features, data.labels)
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def assert_one_error_line(capsys, word):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0], err


class TestCmdRun:
    def test_run_writes_trajectories_and_summaries(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "out" / "trajectory_seed0.csv").exists()
        assert (tmp_path / "out" / "trajectory_seed1.csv").exists()
        assert out.startswith("# run method=delayed_adam")
        assert out.count("status=finished") == 2

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 1
        assert "absent.ini" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG + "\nlearning_rate = 5\n")
        code = main(["run", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1
        assert "learning_rate" in capsys.readouterr().err

    def test_unknown_section_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG + "\n[extras]\nfoo = 1\n")
        assert main(["run", "--config", cfg]) == 1
        assert "extras" in capsys.readouterr().err

    def test_zero_steps_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--steps", "0"]) == 1
        assert_one_error_line(capsys, "steps")

    def test_unknown_grad_metric_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG + "grad_metric = bogus\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "grad_metric")

    def test_divergence_exits_two(self, tmp_path, capsys):
        text = """\
[problem]
kind = quadratic
curvatures = 1.0

[optimizer]
method = sgd
alpha = 5000

[run]
steps = 500
seeds = 0
w1 = 1.0
"""
        cfg = write_config(tmp_path, text)
        code = main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "status=diverged" in capsys.readouterr().out

    def test_overflowed_gradient_sum_exits_two(self, tmp_path, capsys):
        text = """\
[problem]
kind = quadratic
curvatures = 1.0
noise_std = 5e153

[optimizer]
method = sgd
alpha = 1e-3

[run]
steps = 60
seeds = 0,1,2
grad_metric = batch
w1 = 1.0
"""
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        summaries = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("status=")]
        for seed in (0, 2):
            status, mean, _ = (field.split("=")[1] for field in summaries[seed].split())
            assert status == "diverged" and math.isfinite(float(mean))

    def test_overflowed_weight_sum_exits_two(self, tmp_path, capsys):
        # sgd at alpha = 1e307 sits at the box's edge, where eta = 1, so Z, the
        # sum of alpha * eta, overflows before any other statistic does
        text = """\
[problem]
kind = synth
c = 999
delta = 1

[optimizer]
method = sgd
alpha = 1e307

[run]
steps = 30
seeds = 0,1,2
w1 = 0.5
"""
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        summaries = [line for line in capsys.readouterr().out.splitlines()
                     if line.startswith("status=")]
        assert len(summaries) == 3
        for line in summaries:
            status, mean, z = (field.split("=")[1] for field in line.split())
            assert status == "diverged" and math.isfinite(float(mean))
            assert math.isfinite(float(z))

    def test_non_finite_w1_rejected(self, tmp_path, capsys):
        text = SYNTH_CONFIG.replace("kind = synth\nc = 999\ndelta = 1",
                                    "kind = quadratic\ncurvatures = 1,2")
        cfg = write_config(tmp_path, text + "w1 = nan,1\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "w1")

    @pytest.mark.parametrize("flag", [[], ["--alpha", "-0.5"], ["--alpha", "0"]])
    def test_non_positive_alpha_rejected(self, tmp_path, capsys, flag):
        text = SYNTH_CONFIG if flag else SYNTH_CONFIG.replace("alpha = 1e-3", "alpha = -0.5")
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")] + flag) == 1
        assert_one_error_line(capsys, "alpha")

    def test_non_finite_dataset_feature_rejected(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("0.5,1.0,0\n1e400,0.0,1\n")
        text = f"""\
[problem]
kind = mlp
n_in = 2
n_hidden = 4
n_classes = 2
dataset = {data}

[optimizer]
method = adam

[run]
steps = 5
"""
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "line 2")

    def test_override_echoed_in_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--alpha", "0.5",
              "--method", "adam", "--seed", "7"])
        head = capsys.readouterr().out.splitlines()[0]
        assert "method=adam" in head
        assert "alpha=0.5@constant" in head
        assert "seeds=7" in head

    def test_roundtrip_header_settings_reproduce_output(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        main(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--alpha", "0.002",
              "--seed", "3"])
        head = capsys.readouterr().out.splitlines()[0]
        # parse the echoed settings back into flags
        fields = dict(part.split("=", 1) for part in head[len("# run "):].split())
        assert fields["alpha"] == "0.002@constant"
        main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
              "--alpha", fields["alpha"].split("@")[0],
              "--method", fields["method"],
              "--seed", fields["seeds"],
              "--steps", fields["steps"]])
        a = (tmp_path / "a" / "trajectory_seed3.csv").read_bytes()
        b = (tmp_path / "b" / "trajectory_seed3.csv").read_bytes()
        assert a == b

    def test_env_var_seed_fallback(self, tmp_path, capsys, monkeypatch):
        text = SYNTH_CONFIG.replace("seeds = 0,1\n", "")
        cfg = write_config(tmp_path, text)
        monkeypatch.setenv("AVAGRAD_LAB_SEED", "11")
        main(["run", "--config", cfg, "--out", str(tmp_path / "o")])
        head = capsys.readouterr().out.splitlines()[0]
        assert "seeds=11" in head
        assert (tmp_path / "o" / "trajectory_seed11.csv").exists()

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        # both would write trajectory_seed1.csv
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 1,1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "seeds")
        assert not (tmp_path / "o").exists()

    def test_seeds_run_as_one_batch(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted_run_trials(cfgs):
            calls.append(len(cfgs))
            return run_trials(cfgs)

        monkeypatch.setattr(cli, "run_trials", counted_run_trials)
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 0,1,2"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert calls == [3]

    def test_run_keeps_no_trace(self, tmp_path, capsys, monkeypatch):
        # A trace would hold 48 bytes per seed and step beside the 56 of the rows.
        records = []

        def kept_run_trials(cfgs):
            records[:] = run_trials(cfgs)
            return records

        monkeypatch.setattr(cli, "run_trials", kept_run_trials)
        text = (SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 0,1,2")
                .replace("steps = 200", "steps = 2000")
                .replace("record_every = 50", "record_every = 1"))
        argv = ["run", "--config", write_config(tmp_path, text), "--out", str(tmp_path)]
        assert main(argv) == 0  # a first run imports what numpy loads lazily
        records.clear()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 3 and all(rec.trace is None for rec in records)
        rows = 3 * 2000 * 7 * 8
        assert held < rows + 3 * 2000 * 6 * 8 // 4, (held, rows)

    def test_import_loads_no_process_pool(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        code = ("import sys, avagrad_lab.cli; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_each_seed_matches_its_own_run(self, tmp_path, capsys):
        # a batch with a diverging seed is checked by the golden run fixtures,
        # which were written one seed at a time
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seeds = 0,1", "seeds = 4,5,6"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
        batch = capsys.readouterr().out.splitlines()
        for i, seed in enumerate([4, 5, 6]):
            alone = tmp_path / f"seed{seed}"
            assert main(["run", "--config", cfg, "--out", str(alone), "--seed", str(seed)]) == 0
            assert batch[2 + 2 * i] == capsys.readouterr().out.splitlines()[2]
            name = f"trajectory_seed{seed}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes()


class TestCmdSynthfig:
    def test_smoke_files_and_columns(self, tmp_path):
        code = main(["synthfig", "--out", str(tmp_path), "--steps", "2000",
                     "--num-seeds", "2", "--seed", "1"])
        assert code == 0
        left = (tmp_path / "fig1_left.csv").read_text().splitlines()
        right = (tmp_path / "fig1_right.csv").read_text().splitlines()
        assert left[0] == "t,adam,amsgrad,delayed_adam"
        assert right[0] == "t,adam,amsgrad,delayed_adam"
        assert len(left) == len(right) > 10

    def test_zero_seeds_rejected(self, tmp_path, capsys):
        code = main(["synthfig", "--out", str(tmp_path / "o"), "--steps", "10",
                     "--num-seeds", "0"])
        assert code == 1
        assert_one_error_line(capsys, "--num-seeds")
        assert not (tmp_path / "o").exists()

    def test_deterministic_across_runs(self, tmp_path):
        for sub in ("x", "y"):
            main(["synthfig", "--out", str(tmp_path / sub), "--steps", "3000",
                  "--num-seeds", "2", "--seed", "9"])
        for name in ("fig1_left.csv", "fig1_right.csv"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()


SWEEP_CONFIG = """\
[problem]
kind = quadratic
curvatures = 1.0,4.0
noise_std = 0.1

[run]
steps = 60

[grid]
alphas = 0.01,0.1
epsilons = 0.001,0.1
methods = sgd,adam
seeds = 0,1,2
"""


class TestCmdSweep:
    def test_custom_grid_row_count(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--seed", "0"])
        assert code == 0
        rows = (tmp_path / "out" / "heatmap.csv").read_text().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2 * 3  # methods x alphas x epsilons x seeds
        sep = (tmp_path / "out" / "separability.csv").read_text().splitlines()
        assert sep[0] == "method,separability_index"
        assert len(sep) == 3  # one row per method

    def test_deterministic_and_worker_invariant(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_CONFIG)
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "w1"), "--workers", "1"])
        main(["sweep", "--config", cfg, "--out", str(tmp_path / "w2"), "--workers", "2"])
        assert (tmp_path / "w1" / "heatmap.csv").read_bytes() == \
               (tmp_path / "w2" / "heatmap.csv").read_bytes()

    def test_zero_workers_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG + "workers = 0\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "workers")

    def test_repeated_seeds_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG.replace("seeds = 0,1,2", "seeds = 0,0"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "seeds")

    def test_grid_section_required(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        assert main(["sweep", "--config", cfg]) == 1

    def test_mlp_holdout_sweep(self, tmp_path):
        train = write_blobs_csv(tmp_path, "train.csv", seed=5)
        hold = write_blobs_csv(tmp_path, "hold.csv", seed=6)
        text = f"""\
[problem]
kind = mlp
n_in = 2
n_hidden = 4
n_classes = 3
dataset = {train}
batch_size = 8

[run]
steps = 40

[grid]
alphas = 0.01,0.1
epsilons = 0.001,0.1
methods = adam,avagrad
seeds = 0
metric = holdout_ce
holdout = {hold}
"""
        cfg = write_config(tmp_path, text)
        code = main(["sweep", "--config", cfg, "--out", str(tmp_path / "m")])
        assert code == 0
        rows = (tmp_path / "m" / "heatmap.csv").read_text().splitlines()
        assert len(rows) - 1 == 2 * 2 * 2


class TestCmdCheck:
    def test_synth_check_passes(self, tmp_path, capsys):
        text = SYNTH_CONFIG.replace("steps = 200", "steps = 2000")
        cfg = write_config(tmp_path, text)
        code = main(["check", "--config", cfg, "--seed", "0"])
        out = capsys.readouterr().out
        assert "fd_max_rel_err=" in out
        assert "bias_gap_delayed=0.0e+00" in out or "bias_gap_delayed=0.0" in out
        assert "bound_lhs=" in out and "bound_ok=1" in out
        assert code == 0

    def test_quadratic_check_passes(self, tmp_path, capsys):
        text = """\
[problem]
kind = quadratic
curvatures = 1.0,3.0
noise_std = 0.2

[optimizer]
method = delayed_adam
alpha = 0.01
epsilon = 0.01
beta1 = 0.0

[run]
steps = 500
"""
        cfg = write_config(tmp_path, text)
        code = main(["check", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "fd_max_rel_err=" in out
        assert "bias_gap" not in out  # no enumerable outcomes
        assert "bound" not in out  # no gradient-bound constants

    def test_mlp_check_reports_fd(self, tmp_path, capsys):
        train = write_blobs_csv(tmp_path, "train.csv")
        text = f"""\
[problem]
kind = mlp
n_in = 2
n_hidden = 4
n_classes = 3
dataset = {train}
batch_size = 8

[optimizer]
method = adam
alpha = 0.001
epsilon = 1e-8

[run]
steps = 10
"""
        cfg = write_config(tmp_path, text)
        code = main(["check", "--config", cfg])
        out = capsys.readouterr().out
        assert code == 0
        assert "fd_max_rel_err=" in out

    def test_momentum_config_skips_bound(self, tmp_path, capsys):
        text = SYNTH_CONFIG.replace("beta1 = 0.0", "beta1 = 0.9")
        cfg = write_config(tmp_path, text)
        code = main(["check", "--config", cfg])
        out = capsys.readouterr().out
        assert "bound_skipped=momentum" in out
        assert code == 0


ROOT = Path(__file__).resolve().parent.parent

# A config that `run` (first three sections) and `sweep` (problem, run, grid) accept.
FULL_CONFIG = {
    "problem": {"kind": "quadratic", "curvatures": "1,2", "noise_std": "0.1"},
    "optimizer": {"method": "adam", "alpha": "0.01"},
    "run": {"steps": "5", "seeds": "0"},
    "grid": {"alphas": "0.01,0.1", "epsilons": "1e-3", "methods": "adam"},
}
FLOAT_KEYS = [(s, k) for s, keys in _KEYS.items() for k, t in keys.items() if t is _FLOAT]
LIST_KEYS = [(s, k) for s, keys in _KEYS.items() for k, t in keys.items()
             if t[1].startswith("comma-separated")]


def run_full_config(tmp_path, command, section=None, key=None, value=None):
    config = {s: dict(keys) for s, keys in FULL_CONFIG.items()}
    if section is not None:
        config[section][key] = value
    text = "".join(f"[{s}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()) + "\n"
                   for s, keys in config.items())
    cfg = write_config(tmp_path, text)
    return main([command, "--config", cfg, "--out", str(tmp_path / "o")])


class TestConfigTable:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_full_config_runs(self, tmp_path, command):
        assert run_full_config(tmp_path, command) == 0

    @pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}-{k}" for s, k in FLOAT_KEYS])
    def test_non_finite_float_rejected(self, tmp_path, capsys, section, key):
        command = "sweep" if section == "grid" else "run"
        assert run_full_config(tmp_path, command, section, key, "nan") == 1
        assert_one_error_line(capsys, f"[{section}] {key} must be a finite float")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", LIST_KEYS, ids=[f"{s}-{k}" for s, k in LIST_KEYS])
    def test_empty_list_rejected(self, tmp_path, capsys, section, key):
        command = "sweep" if section == "grid" else "run"
        assert run_full_config(tmp_path, command, section, key, ",") == 1
        assert_one_error_line(capsys, f"[{section}] {key} must be comma-separated")
        assert not (tmp_path / "o").exists()

    def test_unknown_method_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--method", "bogus"]) == 1
        assert_one_error_line(capsys, "--method must be one of")


@pytest.mark.parametrize("path", sorted((ROOT / "demos" / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    command = re.search(r"^# Usage: avagrad-lab (\w+) --config", path.read_text(), re.M)[1]
    assert main([command, "--config", str(path), "--steps", "2", "--out", str(tmp_path)]) == 0


def test_readme_names_every_config_key():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Configuration format", 1)[1].split("```ini\n", 1)[1]
    parts = re.split(r"^\[(\w+)\]", block.split("```", 1)[0], flags=re.M)[1:]
    named = {section: set(re.findall(r"(?<![\w.])(\w+) =", body))
             for section, body in zip(parts[::2], parts[1::2])}
    assert named == {section: set(keys) for section, keys in _KEYS.items()}
