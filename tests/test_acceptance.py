"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The module takes about 15 s on a 2-core x86-64 machine. Criterion 9
scores the MLP holdout sweep, the heaviest check: the `criterion9_cells`
fixture of conftest.py runs it once a session, for it and for its golden
test in test_golden.py. Criterion 1 runs each
of its three methods as one batch of 10 lanes through the compiled d = 1
loop (`_lanes.c`) and takes about 1.1 s. Criterion 8's sweep runs as
lock-step lane blocks in about 1 s.
"""

import io
import math

import numpy as np

from avagrad_lab.cli import main
from avagrad_lab.core import RngStream, Schedule, mix_seed
from avagrad_lab.optim import (
    HyperParams,
    Method,
    init_state,
    normalized_eta,
    step,
)
from avagrad_lab.mlp import gaussian_blobs, mlp_make
from avagrad_lab.problems import fd_check, quadratic_make, synth_make
from avagrad_lab.runner import bias_gap, eval_bound, run_synth_replicas
from avagrad_lab.sweep import (
    GridSpec,
    default_grid,
    export_heatmap,
    run_sweep,
    separability_index,
)

import criterion1
from reference_impl import RefOptimizer


def report(criterion: str, checks: list[tuple[str, bool]]):
    """Print one line per sub-check, then fail the test if any check failed."""
    bad = [label for label, ok in checks if not ok]
    for label, ok in checks:
        print(f"ACCEPTANCE {criterion} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert not bad, f"criterion {criterion} failed: {bad}"


class TestCriterion1SyntheticDivergence:
    """Two-outcome benchmark at full scale: coupled rates stall, delayed rates do not."""

    def test_fig1_reproduction(self):
        out = criterion1.figures(20240)
        adam_w, adam_gs, _, _ = out[Method.ADAM]
        _, ams_gs, _, _ = out[Method.AMSGRAD]
        _, del_gs, del_tail_w, del_tail_gs = out[Method.DELAYED_ADAM]
        print(
            f"\n  adam: prefix_w={adam_w:.4f} prefix_gs={adam_gs:.4f}"
            f" | amsgrad: prefix_gs={ams_gs:.3e}"
            f" | delayed: prefix_gs={del_gs:.3e} tail_w={del_tail_w:.4f} tail_gs={del_tail_gs:.3e}"
        )
        report("1 fig1-reproduction", criterion1.claims(out))


class TestCriterion2StepOracle:
    def test_all_methods_match_reference_on_1000_steps(self):
        checks = []
        for mi, method in enumerate(Method):
            worst = 0.0
            for d in (1, 3, 64):
                rng = np.random.default_rng(mix_seed(99, mi, d) % 2**32)
                hp = HyperParams(
                    alpha=Schedule.constant(0.05),
                    epsilon=1e-7,
                    beta1=Schedule.constant(0.9),
                    beta2=Schedule.constant(0.995),
                    weight_decay=0.01,
                )
                n_seq, seq_len = 25, 40  # 1000 steps per (method, d)
                for s in range(n_seq):
                    state = init_state(method, d)
                    ref = RefOptimizer(method.value, d, alpha=("constant", 0.05),
                                       epsilon=1e-7, beta1=("constant", 0.9),
                                       beta2=("constant", 0.995), weight_decay=0.01,
                                       decay_mode="none")
                    w = rng.normal(size=d)
                    w_ref = [float(x) for x in w]
                    for _ in range(seq_len):
                        g = rng.normal(size=d)
                        w, state, _ = step(state, hp, w, g)
                        w_ref = ref.step(w_ref, [float(x) for x in g])
                        scale = max(1e-300, float(np.max(np.abs(w_ref))))
                        worst = max(worst, float(np.max(np.abs(w - w_ref))) / scale)
            checks.append((f"{method.value} rel err {worst:.2e} <= 1e-12", worst <= 1e-12))
        report("2 step-oracle", checks)


class TestCriterion3AvagradReduction:
    def test_d1_trajectories_match_momentum_sgd(self):
        worst = 0.0
        for seq in range(100):
            eps = [1e-8, 1e-3, 1.0, 100.0][seq % 4]
            hp = HyperParams(
                alpha=Schedule.constant(0.1),
                epsilon=eps,
                beta1=Schedule.constant(0.9),
                beta2=Schedule.constant(0.99),
            )
            rng = np.random.default_rng(1000 + seq)
            s_ava = init_state(Method.AVAGRAD, 1)
            s_mom = init_state(Method.MOMENTUM_SGD, 1)
            w_ava = w_mom = np.array([float(rng.normal())])
            scale = abs(w_mom[0])
            dev = 0.0
            for _ in range(100):
                g = rng.normal(size=1)
                w_ava, s_ava, _ = step(s_ava, hp, w_ava, g)
                w_mom, s_mom, _ = step(s_mom, hp, w_mom, g)
                scale = max(scale, abs(w_mom[0]))
                dev = max(dev, abs(w_ava[0] - w_mom[0]))
            worst = max(worst, dev / max(scale, 1e-300))
        report("3 avagrad-d1-reduction",
               [(f"max deviation {worst:.2e} <= 1e-15 * scale", worst <= 1e-15)])


class TestCriterion4ScaleInvariance:
    def test_normalized_eta_invariant_under_rescaling(self):
        rng = np.random.default_rng(17)
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(1, 40))
            eta = np.abs(rng.normal(size=d)) + 1e-9
            base = normalized_eta(eta)
            for c in (1e-6, 1.0, 1e6):
                out = normalized_eta(c * eta)
                worst = max(worst, float(np.max(np.abs(out - base) / np.abs(base))))
        report("4 normalization-scale-invariance",
               [(f"rel deviation {worst:.2e} <= 1e-14", worst <= 1e-14)])


class TestCriterion5BiasDiagnostic:
    def test_delayed_zero_adam_nonzero(self):
        problem = synth_make(999.0, 1.0)
        hp = HyperParams(
            alpha=Schedule.constant(1e-5),
            epsilon=1e-8,
            beta1=Schedule.constant(0.0),
            beta2=Schedule.constant(0.99),
        )
        worst_delayed = 0.0
        min_adam = math.inf
        for i in range(50):
            rng = RngStream(mix_seed(777, i))
            state = init_state(Method.DELAYED_ADAM, 1)
            state.v = 100.0 * rng.random(1)  # below the stationary v scale (~500)
            state.t = 1 + int(9999 * rng.random())  # in [1, 9999]
            w = rng.random(1)
            gap_d = bias_gap(w, state, hp, problem, "delayed")
            gap_a = bias_gap(w, state, hp, problem, "adam")
            worst_delayed = max(worst_delayed, abs(float(gap_d[0])))
            min_adam = min(min_adam, abs(float(gap_a[0])))
        report("5 bias-diagnostic", [
            (f"delayed gap {worst_delayed:.1e} <= 1e-15", worst_delayed <= 1e-15),
            (f"adam gap magnitude {min_adam:.2e} > 1e-9", min_adam > 1e-9),
        ])


class TestCriterion6RateBound:
    def test_unconditional_bound_and_sqrt_T_scaling(self):
        problem = synth_make(999.0, 1.0)
        w1 = 0.9
        consts = problem.constants(np.array([w1]))
        seeds, base = 20, 4242
        gamma = 1.0

        def run(T):
            alpha = gamma * math.sqrt(
                2.0 * consts.d_gap / (T * consts.m_smooth * consts.g_inf ** 2))
            hp = HyperParams(
                alpha=Schedule.constant(alpha),
                epsilon=1e-2,
                beta1=Schedule.constant(0.0),
                beta2=Schedule.constant(0.99),
            )
            records = run_synth_replicas(
                problem, Method.DELAYED_ADAM, hp, w1=w1, T=T, base_seed=base,
                n_replicas=seeds, record_every=T, capture_trace=True,
            )
            reports = [eval_bound(r, consts, "unconditional") for r in records]
            cond = [eval_bound(r, consts, "conditional") for r in records]
            mean_lhs = float(np.mean([r.lhs for r in reports]))
            rhs = reports[0].rhs  # sample-independent by construction
            assert all(r.rhs == rhs for r in reports)
            return mean_lhs, rhs, float(np.mean([c.lhs for c in cond])), \
                float(np.mean([c.rhs for c in cond]))

        T = 100_000
        lhs1, rhs1, clhs1, crhs1 = run(T)
        lhs4, rhs4, _, _ = run(4 * T)
        shrink = rhs1 / rhs4
        print(
            f"\n  T={T}: mean lhs={lhs1:.4e} rhs={rhs1:.4e} (ratio {rhs1 / lhs1:.3g})"
            f" | conditional (reported): lhs={clhs1:.4e} rhs={crhs1:.4e}"
            f" | rhs(T)/rhs(4T)={shrink:.6f}"
        )
        report("6 rate-bound", [
            (f"20-seed mean lhs <= rhs at T={T}", lhs1 <= rhs1),
            (f"20-seed mean lhs <= rhs at T={4 * T}", lhs4 <= rhs4),
            ("rhs shrinks by 2 +/- 5% when T quadruples", abs(shrink - 2.0) <= 0.1),
        ])


class TestCriterion7GradientCorrectness:
    def test_fd_checks(self):
        rng = RngStream(31415)
        quad = quadratic_make([1.0, 3.0, 0.25, 10.0], 0.3, [0.1, -0.2, 0.3, 0.0])
        worst_quad = 0.0
        for _ in range(20):
            w = rng.normal(quad.dim)
            token = quad.sample(rng)
            worst_quad = max(worst_quad, fd_check(quad, w, token, h=1e-5))

        data = gaussian_blobs(15, 3, 4, 2.0, RngStream(5))
        mlp = mlp_make(4, 6, 3, data, batch_size=8)
        worst_mlp = 0.0
        for _ in range(20):
            w = rng.normal(mlp.dim)
            w /= max(1.0, float(np.linalg.norm(w)))
            token = mlp.sample(rng)
            worst_mlp = max(worst_mlp, fd_check(mlp, w, token, h=1e-5))
        report("7 gradient-correctness", [
            (f"quadratic fd err {worst_quad:.2e} <= 1e-7", worst_quad <= 1e-7),
            (f"mlp fd err {worst_mlp:.2e} <= 1e-5", worst_mlp <= 1e-5),
        ])


class TestCriterion8GridProtocol:
    def test_default_grid_and_worker_invariance(self, tmp_path):
        alphas, epsilons = default_grid()
        checks = [
            ("21 epsilon values spanning 1e-8..100",
             len(epsilons) == 21 and epsilons[0] == 1e-8 and epsilons[-1] == 100.0),
            ("21 alpha values spanning 5e-7..5000",
             len(alphas) == 21 and alphas[0] == 5e-7 and alphas[-1] == 5000.0),
            ("441 combinations", len(alphas) * len(epsilons) == 441),
        ]
        problem = quadratic_make(np.linspace(1.0, 4.0, 10), 0.1, np.zeros(10))
        spec = GridSpec(
            problem=problem,
            methods=[Method.DELAYED_ADAM],
            alphas=alphas,
            epsilons=epsilons,
            seeds=[0],
            T=1000,
            w1=np.ones(10),
        )
        cells1 = run_sweep(spec, workers=1, progress=io.StringIO())
        cells8 = run_sweep(spec, workers=8, progress=io.StringIO())
        p1, p8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
        export_heatmap(cells1, p1)
        export_heatmap(cells8, p8)
        header = p1.read_text().splitlines()[0]
        checks += [
            ("sweep produced 441 cells", len(cells1) == 441),
            ("CSV schema", header == "method,alpha,epsilon,seed,final_metric,status"),
            ("sorted output invariant for workers {1, 8}",
             p1.read_bytes() == p8.read_bytes()),
        ]
        report("8 grid-protocol", checks)


class TestCriterion9Decoupling:
    def test_avagrad_separates_alpha_from_epsilon_on_mlp_sweep(self, criterion9_cells):
        cells = criterion9_cells  # criterion9.spec() with 8 workers, run once a session
        sep_adam = separability_index(cells, Method.ADAM)
        sep_ava = separability_index(cells, Method.AVAGRAD)
        print(f"\n  separability: avagrad={sep_ava:.3f} adam={sep_adam:.3f}")
        report("9 alpha-epsilon-decoupling",
               [(f"avagrad {sep_ava:.3f} > adam {sep_adam:.3f}", sep_ava > sep_adam)])


class TestCriterion10Determinism:
    def test_synthfig_and_sweep_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            code = main(["synthfig", "--out", str(tmp_path / sub), "--steps", "20000",
                         "--num-seeds", "3", "--seed", "123"])
            assert code == 0
        fig_same = all(
            (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
            for n in ("fig1_left.csv", "fig1_right.csv")
        )
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(
            "[problem]\nkind = quadratic\ncurvatures = 1.0,2.0\nnoise_std = 0.1\n\n"
            "[run]\nsteps = 100\n\n"
            "[grid]\nalphas = 0.01,0.1\nepsilons = 0.001,0.1\nmethods = adam\nseeds = 0,1\n"
        )
        for sub in ("sa", "sb"):
            code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / sub),
                         "--seed", "5"])
            assert code == 0
        sweep_same = (tmp_path / "sa" / "heatmap.csv").read_bytes() == \
            (tmp_path / "sb" / "heatmap.csv").read_bytes()
        report("10 determinism", [
            ("synthfig outputs byte-identical", fig_same),
            ("sweep outputs byte-identical", sweep_same),
        ])
