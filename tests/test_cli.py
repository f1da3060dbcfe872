import ast
import atexit
import configparser
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avagrad_lab import _lanes, cli
from avagrad_lab.cli import _KEYS, ConfigError, _parse, main
from avagrad_lab.core import SCHEDULE_KINDS, RngStream, Schedule, mix_seed
from avagrad_lab.mlp import gaussian_blobs
from avagrad_lab.optim import DecayMode, HyperParams, Method
from avagrad_lab.problems import METRICS, quadratic_make, synth_make
from avagrad_lab.runner import GRAD_METRICS, TrialConfig, eval_bound, run_trial, run_trials
from avagrad_lab.sweep import GridSpec, default_grid, export_heatmap, run_sweep


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
    assert_one_error(capsys.readouterr().err, word)


def assert_one_error(stderr, word):
    err = stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and word in err[0], err


def run_python(args, stdout=subprocess.PIPE, **kwargs):
    """Run `python <args>` in a child process that imports this checkout's
    avagrad_lab, with PYTHONUNBUFFERED unset: its stdout is block-buffered, as
    in a pipeline, so output that is never flushed is missing."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout,
                          stderr=subprocess.PIPE, text=True, **kwargs)


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

    def test_bad_env_var_seed_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AVAGRAD_LAB_SEED", "seven")
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("seeds = 0,1\n", ""))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "AVAGRAD_LAB_SEED must be an integer in [0, 2^64), "
                                      "got 'seven'")

    @pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1, 2**64])
    @pytest.mark.parametrize("source", ["--seed", "AVAGRAD_LAB_SEED", "[run] seeds",
                                        "[grid] seeds"])
    def test_seed_outside_64_bits_rejected(self, tmp_path, capsys, monkeypatch, source, seed):
        # the library masks seeds to 64 bits, so -1 and 2^64 would alias 2^64 - 1 and 0
        out = str(tmp_path / "o")
        argv = {
            "--seed": ["synthfig", "--num-seeds", "1", "--seed", str(seed)],
            "AVAGRAD_LAB_SEED": ["synthfig", "--num-seeds", "1"],
            "[run] seeds": ["run", "--config", write_config(
                tmp_path, SYNTH_CONFIG.replace("seeds = 0,1", f"seeds = {seed}"), "run.ini")],
            "[grid] seeds": ["sweep", "--config", write_config(
                tmp_path, SWEEP_CONFIG.replace("seeds = 0,1,2", f"seeds = {seed}"), "grid.ini")],
        }[source]
        monkeypatch.setenv("AVAGRAD_LAB_SEED", str(seed))
        code = main([*argv, "--steps", "2", "--out", out])
        if 0 <= seed < 2**64:
            assert code == 0
        else:
            assert code == 1 and not (tmp_path / "o").exists()
            noun = "comma-separated integers" if "]" in source else "an integer"
            assert_one_error_line(capsys, f"{source} must be {noun} in [0, 2^64), got '{seed}'")

    def test_unparsable_config_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "method = adam\n")  # a key before any section
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "cannot parse")

    def test_inverse_t_beta2_named_in_header(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace(
            "beta2 = 0.99\n", "beta2_schedule = inverse_t\n"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--steps", "3"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert " beta1=0@constant beta2=inverse_t " in header, header

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

    def test_import_loads_no_process_pool(self, tmp_path):
        pools = ("print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                 "if m in sys.modules))")
        assert run_python(["-c", f"import sys, avagrad_lab.cli; {pools}"],
                          check=True).stdout.strip() == "[]"
        # nor does a sweep on two workers
        argv = ["sweep", "--config", write_config(tmp_path, SWEEP_CONFIG),
                "--out", str(tmp_path / "out"), "--workers", "2"]
        code = f"import sys; from avagrad_lab.cli import main; main({argv!r}); {pools}"
        assert run_python(["-c", code], check=True).stdout.splitlines()[-1] == "[]"

    def test_commands_load_no_numpy_random_or_libcrypto(self, tmp_path):
        """With the compiled library every draw a command makes, MLP minibatches
        included, runs in _lanes.c, whose cache file is named without hashlib, so
        no command loads numpy.random or OpenSSL's libcrypto; under the numpy
        engine a quadratic sweep draws its normals through numpy.random, which
        loads hashlib itself."""
        if _lanes.library() is None:
            pytest.skip("no C compiler: the library cannot be built")
        train = write_blobs_csv(tmp_path, "train.csv")
        quadratic = SWEEP_CONFIG.replace("steps = 60", "steps = 60\nseeds = 0,1") + (
            "\n[optimizer]\nmethod = adam\nalpha = 0.01\n")
        mlp = (f"[problem]\nkind = mlp\nn_in = 2\nn_hidden = 4\nn_classes = 3\n"
               f"dataset = {train}\nbatch_size = 8\n\n[optimizer]\nmethod = adam\n\n"
               f"[run]\nsteps = 40\nseeds = 0,1\n\n[grid]\nalphas = 0.01,0.1\n"
               f"epsilons = 0.001,0.1\nmethods = adam,avagrad\nseeds = 0,1\n")
        synth, quadratic, mlp = (write_config(tmp_path, text, name) for text, name in (
            (SYNTH_CONFIG, "synth.ini"), (quadratic, "quadratic.ini"), (mlp, "mlp.ini")))
        out = str(tmp_path / "out")
        loaded = ("print('loaded', sorted(m for m in ('numpy.random', '_hashlib') "
                  "if m in sys.modules))")
        commands = [["synthfig", "--steps", "200", "--out", out],
                    ["run", "--config", synth, "--out", out], ["check", "--config", synth]]
        for cfg in (quadratic, mlp):
            commands += [["sweep", "--config", cfg, "--out", out, "--steps", "1"],
                         ["sweep", "--config", cfg, "--out", out, "--workers", "2"],
                         ["run", "--config", cfg, "--out", out], ["check", "--config", cfg]]
        code = "\n".join(["import sys", "from avagrad_lab.cli import main", *(
            f"assert main({argv!r}) == 0; {loaded}" for argv in commands)])
        lines = run_python(["-c", code], check=True).stdout.splitlines()
        assert [line for line in lines if line.startswith("loaded ")] == [
            "loaded []"] * len(commands)
        # nor do choice draws on each of numpy's branches, a k-draw and an MLP minibatch
        code = "\n".join([
            "import sys", "import numpy as np", "from avagrad_lab.core import RngStream, lane_draws",
            "from avagrad_lab.mlp import LabeledSet, MlpProblem", "rng = RngStream(3)",
            "rng.random(); rng.random(3); rng.normal(); rng.normal((2, 3))",
            "rng.choice(240, 32); rng.choice(10001, 201)",
            "lane_draws([rng], 'choice', 3, (200,), 10001)",
            "data = LabeledSet(np.zeros((240, 1)), np.zeros(240, np.int64))",
            "MlpProblem(1, 1, 1, data, 32).sample(rng)", loaded])
        assert run_python(["-c", code], check=True).stdout.splitlines() == ["loaded []"]
        # the same sweep under the numpy engine does load both
        tests = str(Path(__file__).resolve().parent)
        code = "\n".join([f"import sys; sys.path.insert(0, {tests!r})",
                          "from engines import numpy_engine", "from avagrad_lab.cli import main",
                          loaded, "with numpy_engine():", f"    assert main({commands[3]!r}) == 0",
                          loaded])
        lines = run_python(["-c", code], check=True).stdout.splitlines()
        assert [line for line in lines if line.startswith("loaded ")] == [
            "loaded []", "loaded ['_hashlib', 'numpy.random']"]

    def test_each_command_loads_only_the_modules_it_runs(self, tmp_path):
        """Each command kind, in a process of its own, loads `sweep` only to
        sweep and `mlp` only for an MLP problem or a holdout; none loads the
        stdlib's argument or INI parsers, the gettext and locale modules
        that argparse pulls in, or dataclasses and the copy module it
        imports (numpy loads neither)."""
        train = write_blobs_csv(tmp_path, "train.csv", seed=5)
        hold = write_blobs_csv(tmp_path, "hold.csv", seed=6)
        mlp = (f"[problem]\nkind = mlp\nn_in = 2\nn_hidden = 4\nn_classes = 3\n"
               f"dataset = {train}\nbatch_size = 8\n\n[optimizer]\nmethod = adam\n\n"
               f"[run]\nsteps = 20\nseeds = 0\n\n[grid]\nalphas = 0.01,0.1\n"
               f"epsilons = 0.001,0.1\nmethods = adam\nmetric = holdout_ce\n"
               f"holdout = {hold}\n")
        synth, quadratic, mlp = (write_config(tmp_path, text, name) for text, name in (
            (SYNTH_CONFIG, "synth.ini"), (SWEEP_CONFIG, "quadratic.ini"), (mlp, "mlp.ini")))
        out = str(tmp_path / "out")
        common = ["avagrad_lab", "avagrad_lab._lanes", "avagrad_lab.cli", "avagrad_lab.core",
                  "avagrad_lab.optim", "avagrad_lab.problems", "avagrad_lab.runner"]
        unused = ("argparse", "gettext", "locale", "_locale", "configparser", "dataclasses",
                  "copy")
        cases = [  # argv, the package modules past `common`
            (["synthfig", "--steps", "20", "--num-seeds", "2", "--out", out], []),
            (["run", "--config", synth, "--out", out], []),
            (["check", "--config", synth], []),
            (["sweep", "--config", quadratic, "--out", out], ["avagrad_lab.sweep"]),
            (["run", "--config", mlp, "--out", out], ["avagrad_lab.mlp"]),
            (["sweep", "--config", mlp, "--out", out], ["avagrad_lab.mlp", "avagrad_lab.sweep"]),
        ]
        for argv, extra in cases:
            code = "\n".join([
                "import sys", "from avagrad_lab.cli import main", f"status = main({argv!r})",
                "print(status, sorted(m for m in sys.modules if m.startswith('avagrad_lab')),"
                f" [m for m in {unused!r} if m in sys.modules])"])
            last = run_python(["-c", code], check=True).stdout.splitlines()[-1]
            assert last == f"0 {sorted(common + extra)} []", argv

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

    def test_workers_leave_unflushed_stdout_alone(self, tmp_path):
        # a forked worker must not flush the stdout buffer it copied
        argv = ["sweep", "--config", write_config(tmp_path, SWEEP_CONFIG),
                "--out", str(tmp_path / "out"), "--workers", "2"]
        code = f"print('@pending@', end=''); from avagrad_lab.cli import main; main({argv!r})"
        out = run_python(["-c", code], check=True).stdout
        assert out.startswith("@pending@# sweep") and out.count("@pending@") == 1, out

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

    def test_default_grid_runs_its_axes(self, tmp_path, capsys):
        text = "[problem]\nkind = quadratic\ncurvatures = 1.0,4.0\n\n" \
               "[grid]\ndefault = true\nmethods = adam\n"
        cfg = write_config(tmp_path, text)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o"), "--steps", "1"]) == 0
        rows = [line.split(",") for line in
                (tmp_path / "o" / "heatmap.csv").read_text().splitlines()[1:]]
        assert len(rows) == 441
        alphas, epsilons = default_grid()
        assert sorted({float(row[1]) for row in rows}) == alphas
        assert sorted({float(row[2]) for row in rows}) == epsilons

    def test_default_must_be_a_boolean(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CONFIG + "default = maybe\n")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "error: [grid] default must be a boolean")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("optimizer, run, settings", [
        ("beta1 = 0.5\nweight_decay = 1e-3\ndecay_mode = coupled_l2\n", "init_scale = 0.3\n",
         dict(hp=HyperParams(Schedule.constant(1e-3), 1e-8, Schedule.constant(0.5),
                             weight_decay=1e-3, decay_mode=DecayMode.COUPLED_L2),
              init_scale=0.3)),
        ("", "w1 = 2.0,-1.0\n", dict(w1=np.array([2.0, -1.0]))),
        ("alpha_schedule = inverse_sqrt\nbeta1_schedule = inverse_t\n", "",
         dict(hp=HyperParams(Schedule.inverse_sqrt(1e-3), 1e-8, Schedule.inverse_t()))),
    ], ids=["optimizer-and-init-scale", "w1", "schedules"])
    def test_cells_take_optimizer_and_run_settings(self, tmp_path, optimizer, run, settings):
        """[optimizer] sets each cell's settings, schedules included, as GridSpec's
        hp does, and [run] its start; the grid's axes replace method, alpha and
        epsilon."""
        text = SWEEP_CONFIG.replace("[run]\n", f"[run]\n{run}") + f"\n[optimizer]\n{optimizer}"
        for name, config in (("base", SWEEP_CONFIG), ("set", text)):
            argv = ["sweep", "--config", write_config(tmp_path, config, f"{name}.ini"),
                    "--out", str(tmp_path / name), "--seed", "7"]
            assert main(argv) == 0
        spec = GridSpec(problem=quadratic_make([1.0, 4.0], noise_std=0.1),
                        methods=[Method.SGD, Method.ADAM], alphas=[0.01, 0.1],
                        epsilons=[0.001, 0.1], seeds=[0, 1, 2], T=60, base_seed=7, **settings)
        export_heatmap(run_sweep(spec, progress=io.StringIO()), tmp_path / "spec.csv")
        heatmap = (tmp_path / "set" / "heatmap.csv").read_bytes()
        assert heatmap == (tmp_path / "spec.csv").read_bytes()
        assert heatmap != (tmp_path / "base" / "heatmap.csv").read_bytes()

    def test_holdout_without_a_holdout_metric_rejected(self, tmp_path, capsys):
        train = write_blobs_csv(tmp_path, "train.csv", seed=5)
        hold = write_blobs_csv(tmp_path, "hold.csv", seed=6)
        cfg = write_config(tmp_path, (
            f"[problem]\nkind = mlp\nn_in = 2\nn_hidden = 4\nn_classes = 3\ndataset = {train}\n\n"
            f"[grid]\nalphas = 0.01\nepsilons = 0.1\nmethods = adam\nholdout = {hold}\n"))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, "error: [grid] holdout needs metric holdout_ce or"
                                      " holdout_error, got 'full_objective'")
        assert not (tmp_path / "o").exists()

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

    def test_bound_trial_starts_at_run_w1(self, tmp_path, capsys):
        """check's bound trial, and its constants, start at [run] w1, as run's
        trials do: its line is eval_bound's on a run_trial from there."""
        lines = {}
        for w1 in (0.5, 0.9):
            cfg = write_config(tmp_path, SYNTH_CONFIG.replace("[run]\n", f"[run]\nw1 = {w1}\n"))
            assert main(["check", "--config", cfg, "--seed", "3"]) == 0
            lines[w1] = [line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("bound_lhs=")]
        problem, start = synth_make(999.0, 1.0), np.array([0.9])
        hp = HyperParams(alpha=Schedule.constant(1e-3), epsilon=1e-8,
                         beta1=Schedule.constant(0.0), beta2=Schedule.constant(0.99))
        record = run_trial(TrialConfig(method=Method.DELAYED_ADAM, hp=hp, problem=problem,
                                       T=200, w1=start, seed=mix_seed(3, 4), record_every=2,
                                       capture_trace=True))
        report = eval_bound(record, problem.constants(start), "unconditional")
        assert lines[0.9] == [f"bound_lhs={report.lhs:.6e} bound_rhs={report.rhs:.6e}"
                              f" bound_ok={int(report.lhs <= report.rhs)} variant=unconditional"]
        assert lines[0.5] != lines[0.9]

    def test_w1_of_the_wrong_length_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("[run]\n", "[run]\nw1 = 0.5,0.5\n"))
        assert main(["check", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error(err, "error: [run] w1 must be 1 values, got 2")

    def test_key_of_another_kind_rejected(self, tmp_path, capsys):
        text = SYNTH_CONFIG.replace("delta = 1\n", "delta = 1\ncurvatures = 1.0\nw_star = 3\n")
        cfg = write_config(tmp_path, text)
        assert main(["check", "--config", cfg]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error(err, "error: [problem] kind=synth does not take curvatures, w_star")

    def test_diverged_bound_run_exits_two(self, tmp_path, capsys):
        # the first step's alpha * eta = 1e306 / 1e-8 overflows the iterate
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("alpha = 1e-3", "alpha = 1e306"))
        assert main(["check", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "bias_gap_delayed=" in out and out.splitlines()[-1] == "bound_skipped=diverged"

    def test_overflowing_bound_exits_two_without_warnings(self, tmp_path, capsys):
        # the trial finishes (alpha * eta <= 1e302), but gamma = alpha * sqrt(...)
        # squares past float64's range in the bound's numerator
        cfg = write_config(tmp_path, SYNTH_CONFIG.replace("alpha = 1e-3", "alpha = 1e300")
                           .replace("epsilon = 1e-8", "epsilon = 1e-2"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--config", cfg]) == 2
        out, err = capsys.readouterr()
        assert "bias_gap_delayed=" in out and out.splitlines()[-1] == "bound_skipped=overflow"
        assert err == ""

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
FLOAT_KEYS = [(s, k) for s, keys in _KEYS.items() for k, t in keys.items()
              if t[1].startswith("a finite float")]
LIST_KEYS = [(s, k) for s, keys in _KEYS.items() for k, t in keys.items()
             if t[1].startswith("comma-separated")]


QUADRATIC_SWEEP_CONFIG = """\
[problem]
kind = quadratic
curvatures = 1,2
noise_std = 0.1

[run]
steps = 5

[grid]
alphas = 0.01,0.1
epsilons = 1e-3,1
methods = adam,delayed_adam
"""

# (config text or None, command line without --config and --out, exit status)
ENTRY_CASES = {
    "run": (SYNTH_CONFIG, ["run", "--steps", "40"], 0),
    "run-diverged": (SYNTH_CONFIG.replace("alpha = 1e-3", "alpha = 1e306"), ["run"], 2),
    "synthfig": (None, ["synthfig", "--steps", "200", "--num-seeds", "2"], 0),
    "sweep": (QUADRATIC_SWEEP_CONFIG, ["sweep", "--workers", "2"], 0),
    "check": (SYNTH_CONFIG, ["check", "--steps", "200"], 0),
    "check-failed": (SYNTH_CONFIG.replace("alpha = 1e-3", "alpha = 1e306"), ["check"], 2),
    "config-error": (SYNTH_CONFIG.replace("kind = synth", "kind = cubic"), ["run"], 1),
}


# Child code that runs `python -m avagrad_lab.cli` as runpy does, with argv
# filled in by format(). It empties generation 0, counts the collector's runs,
# and notes them with the collector's state where the package's body returns,
# where cli's module body starts and where main() is called; an atexit
# callback, which script() runs, prints the notes as one JSON line.
STARTUP_PROBE = """\
import atexit, gc, json, os, runpy, sys
runs, notes = [], {{}}
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and runs.append(info["generation"]))
PLACES = {{("return", "<module>", "__init__.py", "avagrad_lab"): "package",
          ("call", "<module>", "cli.py", "__main__"): "entry",
          ("call", "main", "cli.py", "__main__"): "main"}}

def note(frame, event, arg):
    code = frame.f_code
    where = PLACES.get((event, code.co_name, os.path.basename(code.co_filename),
                        frame.f_globals.get("__name__")))
    if where:
        notes[where] = {{"runs": list(runs), "enabled": gc.isenabled(),
                        "frozen": gc.get_freeze_count()}}
    if where == "main":
        sys.setprofile(None)

sys.setprofile(note)
atexit.register(lambda: print(json.dumps(notes)))
sys.argv[1:] = {argv!r}
runpy.run_module("avagrad_lab.cli", run_name="__main__", alter_sys=True)
"""


def entry_argv(cwd, config, argv):
    """The case's command line, run from `cwd` into `cwd/o` (check writes no
    file), its config written there."""
    cwd.mkdir()
    out = [] if argv[0] == "check" else ["--out", "o"]
    if config is None:
        return [*argv, *out]
    (cwd / "config.ini").write_text(config)
    return [*argv, "--config", "config.ini", *out]


def output_files(cwd):
    return {str(p.relative_to(cwd)): p.read_bytes()
            for p in sorted((cwd / "o").rglob("*")) if p.is_file()}


class TestEntryPoint:
    """`python -m avagrad_lab.cli` and the `avagrad-lab` script go through
    cli.script(), which ends the process once main() returns: it runs the
    atexit callbacks, flushes stdout and stderr, and leaves through os._exit,
    skipping module teardown. Under `-m`, cli holds the cyclic collector from
    its first statement, and script() freezes the heap and enables the
    collector just before main(). main() itself, the console script and a
    library import leave the collector and the process alone. A bad command
    line is a configuration error (exit 1, one `error:` line). The golden run
    fixtures also run through the module (tests/test_golden.py)."""

    def test_missing_config_exits_one_with_one_error_line(self, tmp_path):
        out = run_python(["-m", "avagrad_lab.cli", "run", "--config",
                          str(tmp_path / "absent.ini")])
        assert out.returncode == 1 and out.stdout == ""
        assert_one_error(out.stderr, "absent.ini")

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["fit"], "argument command: invalid choice: 'fit'"),
        (["run"], "the following arguments are required: --config"),
        (["run", "--steps", "abc"], "--steps must be an integer >= 1, got 'abc'"),
        (["synthfig", "--workers", "2"], "unrecognized arguments: --workers 2"),
        (["check", "--config", "c.ini", "--out", "o"], "unrecognized arguments: --out o"),
    ], ids=["no-command", "unknown-command", "no-config", "non-integer-steps", "unknown-flag",
            "check-writes-no-file"])
    def test_bad_command_line_exits_one_with_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert_one_error(err, message)

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--help"])
        assert exc.value.code == 0 and "--config CONFIG" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert "--out" not in capsys.readouterr().out  # check writes no file

    def test_main_freezes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        ran = []
        atexit.register(ran.append, "atexit")
        try:
            before = gc.get_freeze_count()
            assert main(["run", "--config", cfg, "--out", str(tmp_path), "--steps", "20"]) == 0
            assert gc.get_freeze_count() == before and ran == []
        finally:
            atexit.unregister(ran.append)

    @pytest.mark.parametrize("case", ENTRY_CASES)
    def test_module_entry_matches_main(self, tmp_path, capsys, monkeypatch, case):
        config, argv, status = ENTRY_CASES[case]
        cwd = tmp_path / "module"
        child = run_python(["-m", "avagrad_lab.cli", *entry_argv(cwd, config, argv)], cwd=cwd)
        module = (child.returncode, child.stdout, child.stderr, output_files(cwd))
        cwd = tmp_path / "main"
        argv = entry_argv(cwd, config, argv)
        monkeypatch.chdir(cwd)
        code = main(argv)
        assert module == (code, *capsys.readouterr(), output_files(cwd))
        assert code == status

    def test_module_entry_runs_atexit_callbacks(self, tmp_path):
        code = ("import atexit, runpy, sys\n"
                "atexit.register(print, 'atexit callback ran')\n"
                "sys.argv[1:] = ['synthfig', '--steps', '20', '--num-seeds', '1', "
                f"'--out', {str(tmp_path)!r}]\n"
                "runpy.run_module('avagrad_lab.cli', run_name='__main__')\n"
                "print('not reached')\n")
        out = run_python(["-c", code])
        assert out.returncode == 0 and out.stderr == ""
        assert out.stdout.splitlines()[-2:] == [
            f"# synthfig steps=20 seeds=1 base_seed=0 out={tmp_path}", "atexit callback ran"]

    @pytest.mark.parametrize("case", ["run", "synthfig", "sweep", "check"])
    def test_module_entry_exits_with_one_thread(self, tmp_path, case):
        # os._exit reports the threads alive, in script() and in the sweep's
        # forked workers, which leave through it too
        config, argv, _ = ENTRY_CASES[case]
        argv = entry_argv(tmp_path / "cwd", config, argv)
        code = ("import os, runpy, sys, threading\n"
                "exit_ = os._exit\n"
                "def report(status):\n"
                "    os.write(1, f'threads={threading.active_count()}\\n'.encode())\n"
                "    exit_(status)\n"
                "os._exit = report\n"
                f"sys.argv[1:] = {argv!r}\n"
                "runpy.run_module('avagrad_lab.cli', run_name='__main__')\n")
        out = run_python(["-c", code], cwd=tmp_path / "cwd")
        assert out.returncode == 0
        reports = [line for line in out.stdout.splitlines() if line.startswith("threads=")]
        assert reports == ["threads=1"] * (2 if case == "sweep" else 1)

    def test_failed_stdout_flush_exits_one_with_one_error_line(self, tmp_path):
        read, write = os.pipe()
        os.close(read)  # a reader that has gone: the flush at exit fails with EPIPE
        try:
            out = run_python(["-m", "avagrad_lab.cli", "synthfig", "--steps", "20",
                              "--num-seeds", "1", "--out", str(tmp_path)], stdout=write)
        finally:
            os.close(write)
        assert out.returncode == 1
        assert_one_error(out.stderr, "cannot write standard output")
        assert (tmp_path / "fig1_right.csv").is_file()

    def test_module_entry_with_stdout_closed_exits_zero(self, tmp_path):
        # a process started with fd 1 closed has sys.stdout None, and print() drops its text
        out = run_python(["-m", "avagrad_lab.cli", "synthfig", "--steps", "20", "--num-seeds",
                          "1", "--out", str(tmp_path)], stdout=None, preexec_fn=lambda: os.close(1))
        assert out.returncode == 0 and out.stderr == ""
        assert (tmp_path / "fig1_right.csv").is_file()

    @pytest.mark.parametrize("case", ["run", "check", "synthfig", "sweep"])
    def test_module_entry_runs_no_collection_before_main(self, tmp_path, case):
        config, argv, status = ENTRY_CASES[case]
        argv = entry_argv(tmp_path / "cwd", config, argv)
        out = run_python(["-c", STARTUP_PROBE.format(argv=argv)], cwd=tmp_path / "cwd")
        assert out.returncode == status, out.stderr
        notes = json.loads(out.stdout.splitlines()[-1])
        package, entry, at_main = (notes[where] for where in ("package", "entry", "main"))
        assert package["runs"] == []  # the package's import loads nothing
        # compiling cli.py, which precedes its first statement, may run young collections
        assert set(entry["runs"]) <= {0}
        assert at_main["runs"] == entry["runs"]
        assert at_main["enabled"] and at_main["frozen"] > 0

    def test_package_import_loads_no_submodule_or_numpy(self):
        code = ("import sys, avagrad_lab\n"
                "print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'numpy' or m.startswith('avagrad_lab.')))\n")
        assert run_python(["-c", code], check=True).stdout == "[]\n"

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_library_import_and_main_leave_the_collector_alone(self, tmp_path, enabled):
        argv = ["synthfig", "--steps", "20", "--num-seeds", "1", "--out", str(tmp_path)]
        code = ("import gc, json\n"
                f"if not {enabled}: gc.disable()\n"
                "gc.freeze()\n"
                "state = lambda: [gc.isenabled(), gc.get_freeze_count()]\n"
                "seen = [state()]\n"
                "import avagrad_lab.cli\n"
                "seen.append(state())\n"
                f"assert avagrad_lab.cli.main({argv!r}) == 0\n"
                "seen.append(state())\n"
                "print(json.dumps(seen))\n")
        seen = json.loads(run_python(["-c", code], check=True).stdout.splitlines()[-1])
        assert seen[0][0] is enabled and seen[0][1] > 0
        assert seen == [seen[0]] * 3

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_console_script_leaves_the_collector_alone(self, tmp_path, enabled):
        # the `avagrad-lab` script imports cli under its own name and calls script()
        argv = ["synthfig", "--steps", "20", "--num-seeds", "1", "--out", str(tmp_path)]
        code = ("import atexit, gc, json, sys\n"
                f"if not {enabled}: gc.disable()\n"
                "state = lambda: [gc.isenabled(), gc.get_freeze_count()]\n"
                "seen = [state()]\n"
                "from avagrad_lab import cli\n"
                "main = cli.main\n"
                "cli.main = lambda: seen.append(state()) or main()\n"
                "atexit.register(lambda: print(json.dumps(seen + [state()])))\n"
                f"sys.argv[1:] = {argv!r}\n"
                "cli.script()\n")
        out = run_python(["-c", code])
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [[enabled, 0]] * 3

    def test_script_entry_point_is_the_module_entry(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml")
                                  .read_text())
        assert pyproject["project"]["scripts"] == {"avagrad-lab": "avagrad_lab.cli:script"}


def run_full_config(tmp_path, command, edits=()):
    """Run FULL_CONFIG with (section, key, value) edits; a value of None drops the key."""
    config = {s: dict(keys) for s, keys in FULL_CONFIG.items()}
    for section, key, value in edits:
        config[section][key] = value
        if value is None:
            del config[section][key]
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
        assert run_full_config(tmp_path, command, [(section, key, "nan")]) == 1
        assert_one_error_line(capsys, f"[{section}] {key} must be a finite float")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key", LIST_KEYS, ids=[f"{s}-{k}" for s, k in LIST_KEYS])
    def test_empty_list_rejected(self, tmp_path, capsys, section, key):
        command = "sweep" if section == "grid" else "run"
        assert run_full_config(tmp_path, command, [(section, key, ",")]) == 1
        assert_one_error_line(capsys, f"[{section}] {key} must be comma-separated")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, edits, message", [
        ("run", [("problem", "kind", None)], "[problem] kind is required"),
        ("run", [("problem", "curvatures", None)],
         "[problem] curvatures is required for kind=quadratic"),
        ("run", [("optimizer", "method", None)], "[optimizer] method is required"),
        ("run", [("run", "w1", "1,2,3")], "[run] w1 must be 2 values, got 3"),
        ("sweep", [("grid", "alphas", None)], "[grid] needs alphas and epsilons"),
        ("sweep", [("grid", "epsilons", None)], "[grid] needs alphas and epsilons"),
        ("sweep", [("grid", "methods", None)], "[grid] methods is required"),
        ("sweep", [("grid", "holdout", "hold.csv")],
         "[grid] holdout only applies to mlp problems"),
        ("sweep", [("grid", "default", "true")],
         "[grid] default = true replaces alphas and epsilons: give one"),
        ("sweep", [("run", "w1", "1,2,3")], "[run] w1 must be 2 values, got 3"),
        ("sweep", [("optimizer", "beta1_schedule", "cosine")],
         "[optimizer] beta1_schedule must be one of constant, inverse_sqrt, inverse_t, "
         "got 'cosine'"),
        ("sweep", [("optimizer", "alpha_schedule", "inverse_t")],
         "[optimizer] alpha_schedule must be one of constant, inverse_sqrt, got 'inverse_t'"),
        ("run", [("problem", "c", "5"), ("problem", "delta", "3"), ("problem", "n_in", "7")],
         "[problem] kind=quadratic does not take c, delta, n_in"),
    ], ids=["no-kind", "no-curvatures", "no-method", "w1-length", "no-alphas", "no-epsilons",
            "no-methods", "holdout-not-mlp", "default-with-axes", "sweep-w1-length",
            "sweep-beta1-schedule", "sweep-alpha-schedule", "key-of-another-kind"])
    def test_incomplete_config_rejected(self, tmp_path, capsys, command, edits, message):
        assert run_full_config(tmp_path, command, edits) == 1
        assert_one_error_line(capsys, f"error: {message}")
        assert not (tmp_path / "o").exists()

    def test_each_problem_key_belongs_to_one_kind(self):
        keys = ["kind", *(key for required, optional in cli._KIND_KEYS.values()
                          for key in required + optional)]
        assert sorted(keys) == sorted(_KEYS["problem"])  # each key exactly once

    def test_unknown_method_flag_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SYNTH_CONFIG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--method", "bogus"]) == 1
        assert_one_error_line(capsys, "--method must be one of")


@pytest.mark.parametrize("path", sorted((ROOT / "demos" / "configs").glob("*.ini")),
                         ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, capsys, path):
    command = re.search(r"^# Usage: avagrad-lab (\w+) --config", path.read_text(), re.M)[1]
    out = [] if command == "check" else ["--out", str(tmp_path)]  # check writes no file
    assert main([command, "--config", str(path), "--steps", "2", *out]) == 0


def test_readme_names_every_config_key():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("### Configuration format", 1)[1].split("```ini\n", 1)[1]
    parts = re.split(r"^\[(\w+)\]", block.split("```", 1)[0], flags=re.M)[1:]
    named = {section: set(re.findall(r"(?<![\w.])(\w+) =", body))
             for section, body in zip(parts[::2], parts[1::2])}
    assert named == {section: set(keys) for section, keys in _KEYS.items()}


# flag -> (a good value, what it parses to, a bad value); a text flag's bad
# value is None: the flag given last, without a value
FLAG_VALUES = {
    "--config": ("config.ini", "config.ini", None), "--out": ("o", "o", None),
    "--seed": ("3", 3, "-1"), "--steps": ("3", 3, "abc"), "--alpha": ("0.01", 0.01, "nan"),
    "--epsilon": ("1e-3", 1e-3, "inf"), "--method": ("adam", Method.ADAM, "bogus"),
    "--workers": ("2", 2, "two"), "--num-seeds": ("2", 2, "1.5"),
}
FLAG_CASES = [(command, flag, key_type) for command, (_, _, flags) in cli._COMMANDS.items()
              for flag, key_type, _ in flags]


class TestFlags:
    """Each command's flags come from one table, cli._COMMANDS, and each value
    is parsed by its flag's key type, so an error names the flag."""

    def test_table_covers_every_flag(self):
        assert {flag for _, flag, _ in FLAG_CASES} == set(FLAG_VALUES)

    @pytest.mark.parametrize("good", [True, False], ids=["good", "bad"])
    @pytest.mark.parametrize("command, flag, key_type", FLAG_CASES,
                             ids=[f"{c}{f}" for c, f, _ in FLAG_CASES])
    def test_each_flag_value_is_typed(self, tmp_path, capsys, monkeypatch, command, flag,
                                      key_type, good):
        monkeypatch.chdir(tmp_path)
        flags = {"--steps": "2"} if command == "check" else {"--steps": "2", "--out": "o"}
        if command == "synthfig":
            flags["--num-seeds"] = "1"
        else:
            write_config(tmp_path, SWEEP_CONFIG if command == "sweep" else SYNTH_CONFIG)
            flags["--config"] = "config.ini"
        raw, value, bad = FLAG_VALUES[flag]
        flags.pop(flag, None)
        argv = [command, *(part for item in flags.items() for part in item), flag]
        if good:
            argv.append(raw)
            assert getattr(cli._parse_argv(argv), flag[2:].replace("-", "_")) == value
            assert main(argv) == 0
        else:
            argv += [] if bad is None else [bad]
            assert main(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and not (tmp_path / "o").exists()
            assert_one_error(err, f"error: argument {flag}: expected one argument" if bad is None
                             else f"error: {flag} must be {key_type[1]}, got {bad!r}")

    def test_equals_form_and_unique_prefixes_parse(self, tmp_path, capsys):
        assert main(["synthfig", "--steps=20", "--num", "2", "--se=4", f"--o={tmp_path}"]) == 0
        assert capsys.readouterr().out == (
            f"# synthfig steps=20 seeds=2 base_seed=4 out={tmp_path}\n")

    def test_ambiguous_prefix_rejected(self, capsys):
        assert main(["synthfig", "--s", "20"]) == 1
        assert_one_error_line(capsys, "ambiguous option: --s could match --seed, --steps")

    def test_help_lists_every_flag(self, capsys):
        for command, (_, _, flags) in cli._COMMANDS.items():
            with pytest.raises(SystemExit) as exc:
                main([command, "-h"])
            out = capsys.readouterr().out
            assert exc.value.code == 0
            assert all(f"{flag} {flag[2:].upper().replace('-', '_')}" in out
                       for flag, _, _ in flags), out
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and all(f"  {command} " in out for command in cli._COMMANDS)


# every flag and key whose type has a range, with a value outside it
RANGED_FLAGS = {"--steps": "0", "--workers": "0", "--num-seeds": "0", "--alpha": "0",
                "--epsilon": "-1e-3", "--seed": "-1"}
RANGED_KEYS = {
    ("problem", "c"): "0.5", ("problem", "delta"): "-1", ("problem", "curvatures"): "1,0",
    ("problem", "noise_std"): "-0.1",
    ("problem", "n_in"): "0", ("problem", "n_hidden"): "-1", ("problem", "n_classes"): "0",
    ("problem", "batch_size"): "0", ("optimizer", "alpha"): "0", ("optimizer", "epsilon"): "0",
    ("optimizer", "beta1"): "1", ("optimizer", "beta2"): "-0.5",
    ("optimizer", "weight_decay"): "-1e-9", ("run", "steps"): "0", ("run", "seeds"): "0,-1",
    ("run", "record_every"): "0", ("grid", "alphas"): "0,1", ("grid", "epsilons"): "-1,1",
    ("grid", "seeds"): "-1", ("grid", "workers"): "0", ("run", "converge_tol"): "-1e-6",
    ("run", "init_scale"): "-0.1",
}
RANGE_NOUN = re.compile(r"(>=? \d|in \[)")


class TestRanges:
    """A value outside its flag's or key's range exits 1 with one error line
    that names that flag or key, before any output is made."""

    def test_table_covers_every_ranged_flag_and_key(self):
        assert set(RANGED_FLAGS) == {flag for _, flag, key_type in FLAG_CASES
                                     if RANGE_NOUN.search(key_type[1])}
        assert set(RANGED_KEYS) == {(s, k) for s, keys in _KEYS.items()
                                    for k, key_type in keys.items()
                                    if RANGE_NOUN.search(key_type[1])}

    @pytest.mark.parametrize("command, flag, key_type",
                             [case for case in FLAG_CASES if case[1] in RANGED_FLAGS],
                             ids=[f"{c}{f}" for c, f, _ in FLAG_CASES if f in RANGED_FLAGS])
    def test_flag_out_of_range_names_the_flag(self, tmp_path, capsys, monkeypatch, command,
                                              flag, key_type):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--out", "o", flag, RANGED_FLAGS[flag]]
        if command != "synthfig":
            argv += ["--config", write_config(
                tmp_path, SWEEP_CONFIG if command == "sweep" else SYNTH_CONFIG)]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "o").exists()
        assert err == f"error: {flag} must be {key_type[1]}, got {RANGED_FLAGS[flag]!r}\n"

    @pytest.mark.parametrize("section, key", RANGED_KEYS, ids=[f"{s}-{k}" for s, k in RANGED_KEYS])
    def test_key_out_of_range_names_the_key(self, tmp_path, capsys, section, key):
        value = RANGED_KEYS[section, key]
        command = "sweep" if section == "grid" else "run"
        assert run_full_config(tmp_path, command, [(section, key, value)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and not (tmp_path / "o").exists()
        assert err == (f"error: [{section}] {key} must be {_KEYS[section][key][1]},"
                       f" got {value!r}\n")

    @pytest.mark.parametrize("command, source", [
        ("run", "--out"), ("synthfig", "--out"), ("sweep", "--out"), ("run", "[run] out_dir"),
        ("sweep", "[run] out_dir")])
    def test_output_path_that_is_a_file_names_its_source(self, tmp_path, capsys, monkeypatch,
                                                         command, source):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("")
        argv = [command, "--steps", "2"]
        if command == "synthfig":
            argv += ["--num-seeds", "1"]
        else:
            text = SWEEP_CONFIG if command == "sweep" else SYNTH_CONFIG
            if source != "--out":
                text = text.replace("[run]\n", "[run]\nout_dir = afile\n")
            argv += ["--config", write_config(tmp_path, text)]
        if source == "--out":
            argv += ["--out", "afile"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {source} afile: cannot make the directory: File exists\n"

def configparser_config(path):
    """The typed config of an INI file as configparser and _parse read it,
    the way the CLI read files before it had its own reader."""
    parser = configparser.ConfigParser()
    with open(path, encoding="utf-8") as fh:
        parser.read_file(fh)
    return {section: {key: _parse(f"[{section}] {key}", _KEYS[section][key], raw.strip())
                      for key, raw in parser[section].items()}
            for section in parser.sections()}


def suite_config_texts():
    """Every string constant in the test files that reads as an INI text, but
    for those with a `%`, which configparser would interpolate."""
    texts = []
    for path in sorted(ROOT.glob("tests/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and re.match(r"\[(problem|optimizer|run|grid)\]\n", node.value)
                    and "%" not in node.value):
                texts.append(node.value)
    return texts


# INI texts outside the reader's subset, with the error each gives
OUTSIDE_SUBSET = {
    "continuation": ("[problem]\nkind = synth\n  c = 999\n", "line 3: indented line"),
    "colon": ("[problem]\nkind: synth\n", "line 2: expected [section] or key = value"),
    "no-equals": ("[problem]\nkind\n", "line 2: expected [section] or key = value"),
    "open-header": ("[problem\nkind = synth\n", "line 1: expected [section] or key = value"),
    "no-section": ("kind = synth\n[problem]\n", "line 1: key outside a section"),
    "repeated-section": ("[problem]\nkind = synth\n[run]\n[problem]\n",
                         "line 4: repeated section"),
    "repeated-key": ("[problem]\nkind = synth\nKIND = quadratic\n",
                     "line 3: repeated key 'kind'"),
    "default-section": ("[DEFAULT]\nsteps = 5\n", "unknown section [DEFAULT]"),
}
SUITE_CONFIGS = [text for text in suite_config_texts()
                 if text not in {text for text, _ in OUTSIDE_SUBSET.values()}]

# values for the generated configs: every choice a key takes, and some that no key does
CONFIG_VALUES = sorted({
    "0", "1", "7", "-2", "0.5", "1e-3", "2, 3", "0,1 ,2", "nan", "1e400", "", "true", "No",
    "ON", "data.csv", "a = b", "x # not a comment", "tr;ain", "c:/d", "[run]",
    "synth", "quadratic", "mlp", "constant", "inverse_sqrt", "sgd,adam", *METRICS,
    *GRAD_METRICS, *SCHEDULE_KINDS, *(m.value for m in Method), *(m.value for m in DecayMode),
})


def _parses(key_type, raw):
    try:
        key_type[0](raw)
    except ValueError:
        return False
    return True


@st.composite
def config_texts(draw):
    """INI text in the reader's subset: the known sections in any order, each
    with some of its keys in mixed case, whitespace around `=` and at line
    ends, LF or CRLF, and comment and blank lines anywhere. A value is one its
    key parses, or now and then any value."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    filler = st.lists(st.sampled_from(["", "# a comment", "; a comment = 1", "  # indented",
                                       "\t", "#[grid]"]), max_size=2)
    space = st.sampled_from(["", " ", "  ", "\t"])
    lines = draw(filler)
    sections = draw(st.permutations(list(_KEYS)))[:draw(st.integers(0, len(_KEYS)))]
    for section in sections:
        lines.append(f"[{section}]" + draw(space))
        for key in draw(st.lists(st.sampled_from(list(_KEYS[section])), unique=True)):
            good = [v for v in CONFIG_VALUES if _parses(_KEYS[section][key], v)]
            value = draw(st.sampled_from(good) if good and draw(st.integers(0, 9))
                         else st.sampled_from(CONFIG_VALUES))
            upper = draw(st.lists(st.booleans(), min_size=len(key), max_size=len(key)))
            key = "".join(c.upper() if up else c for c, up in zip(key, upper))
            lines.append(f"{key}{draw(space)}={draw(space)}{value}{draw(space)}")
            lines += draw(filler)
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def outcome(load, path):
    try:
        return load(path)
    except ConfigError as exc:
        return f"error: {exc}"


class TestIniReader:
    """cli._read_ini reads the INI subset the configs use, to the same typed
    dict that configparser and _parse gave; input outside it gives one
    `error:` line."""

    @pytest.mark.parametrize("path", sorted((ROOT / "demos" / "configs").glob("*.ini")),
                             ids=lambda p: p.name)
    def test_shipped_configs_read_as_configparser_reads_them(self, path):
        assert cli._load_config(str(path)) == configparser_config(path)

    def test_suite_configs_read_as_configparser_reads_them(self, tmp_path):
        assert len(SUITE_CONFIGS) >= 15  # the walk found them
        path = tmp_path / "config.ini"
        for text in SUITE_CONFIGS:
            path.write_text(text)
            assert outcome(cli._load_config, path) == outcome(configparser_config, path), text

    @settings(max_examples=300, deadline=None)
    @given(text=config_texts())
    def test_generated_configs_read_as_configparser_reads_them(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.ini"
            path.write_bytes(text.encode())
            assert outcome(cli._load_config, path) == outcome(configparser_config, path)

    @pytest.mark.parametrize("text, message", OUTSIDE_SUBSET.values(), ids=OUTSIDE_SUBSET)
    def test_outside_the_subset_is_one_error_line(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, message)

    def test_percent_is_read_literally(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        text = ("[problem]\nkind = mlp\nn_in = 2\nn_hidden = 4\nn_classes = 3\n"
                "dataset = tr%ain.csv\n\n[optimizer]\nmethod = adam\n\n[run]\nsteps = 5\n")
        argv = ["run", "--config", write_config(tmp_path, text), "--out", "o"]
        assert main(argv) == 1
        assert_one_error_line(capsys, "No such file or directory: 'tr%ain.csv'")
        write_blobs_csv(tmp_path, "tr%ain.csv")
        assert main(argv) == 0

    def test_non_utf8_config_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "config.ini"
        cfg.write_bytes(b"# r\xe9sum\xe9\n" + SYNTH_CONFIG.encode())
        assert main(["run", "--config", str(cfg)]) == 1
        assert_one_error_line(capsys, f"cannot parse {cfg}: 'utf-8' codec can't decode byte 0xe9")
