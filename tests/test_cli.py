import numpy as np
import pytest

from avagrad_lab.cli import main
from avagrad_lab.core import RngStream
from avagrad_lab.problems import gaussian_blobs


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
