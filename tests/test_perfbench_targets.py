"""The names perfbench's tracer wraps exist on the package, the calls its
micro-benchmarks make still run, and each workload's own inputs and commands
still run and give the outputs golden.json records.

perfbench/tracer.py patches functions by (namespace, attribute) and methods
through each class's own __dict__; a name that a change deletes or moves
breaks only the traced benchmark run, which this suite does not run. The
tables, and perfbench/layers.py's micro-benchmarks, are read from the files'
source; perfbench/workloads.py is loaded from its path without writing
bytecode, so nothing is written under perfbench/.

`cli` binds the names of `sweep` and of the MLP on first use, so the tracer's
setattr on `cli` must still reach the commands: each command calls those
names through `cli`'s globals.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import avagrad_lab
from avagrad_lab import cli  # `sweep` and the MLP load on the tables' first getattr
from avagrad_lab.core import RngStream
from avagrad_lab.mlp import gaussian_blobs, mlp_make
from avagrad_lab.problems import quadratic_make, synth_make
from test_cli import SWEEP_CONFIG, write_blobs_csv, write_config

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
LAYERS = TRACER.with_name("layers.py")
WORKLOADS = TRACER.with_name("workloads.py")


def _table(name: str) -> list:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} has no {name}")


@pytest.mark.parametrize("namespace, attr", [t[:2] for t in _table("FUNCTION_TARGETS")])
def test_function_target_resolves(namespace, attr):
    assert callable(getattr(getattr(avagrad_lab, namespace), attr))


@pytest.mark.parametrize("module, cls_name, method", [
    (module, cls_name, method) for module, cls_name, methods in _table("METHOD_TARGETS")
    for method in methods])
def test_method_target_is_defined_on_its_class(module, cls_name, method):
    cls = getattr(getattr(avagrad_lab, module), cls_name)
    assert callable(cls.__dict__.get(method))


def test_patched_cli_names_are_the_ones_commands_call(tmp_path):
    """As tracer.install does: setattr on `cli`, run the commands, restore."""
    quadratic = write_config(tmp_path, SWEEP_CONFIG, "quadratic.ini")
    mlp = write_config(tmp_path, (
        f"[problem]\nkind = mlp\nn_in = 2\nn_hidden = 3\nn_classes = 3\n"
        f"dataset = {write_blobs_csv(tmp_path, 'train.csv')}\nbatch_size = 4\n\n"
        f"[optimizer]\nmethod = adam\n\n[run]\nsteps = 5\n"), "mlp.ini")
    calls = []

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    saved = [(name, getattr(cli, name)) for name in ("run_sweep", "mlp_make")]
    for name, original in saved:
        setattr(cli, name, recording(name, original))
    try:
        out = str(tmp_path / "out")
        assert cli.main(["sweep", "--config", quadratic, "--out", out]) == 0
        assert cli.main(["run", "--config", mlp, "--out", out]) == 0
    finally:
        for name, original in saved:
            setattr(cli, name, original)
    assert calls == ["run_sweep", "mlp_make"]
    assert [getattr(cli, name) for name, _ in saved] == [fn for _, fn in saved]


def test_lazy_names_resolve_where_they_did():
    from avagrad_lab import MlpProblem, run_sweep
    from avagrad_lab.problems import MlpProblem as problems_mlp
    from avagrad_lab.problems import gaussian_blobs, mlp_make

    assert run_sweep is avagrad_lab.sweep.run_sweep
    assert MlpProblem is problems_mlp is mlp_make is avagrad_lab.mlp.MlpProblem
    assert gaussian_blobs is avagrad_lab.mlp.gaussian_blobs
    with pytest.raises(AttributeError):
        avagrad_lab.problems.no_such_name  # noqa: B018


def _rng_benchmarks() -> dict:
    """layers.py's `micro.time("core.rng_...", unit, fn, ...)` calls, and its
    `micro.time(f"problems.sample_us.{label}", ...)` call, named with a *
    for the label: name -> fn's lambda."""
    found = {}
    for node in ast.walk(ast.parse(LAYERS.read_text(encoding="utf-8"))):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "time"):
            continue
        name = node.args[0]
        if isinstance(name, ast.JoinedStr):  # the constant parts, a * for each field
            name = ast.Constant("".join(v.value if isinstance(v, ast.Constant) else "*"
                                        for v in name.values))
        if isinstance(name, ast.Constant) and name.value.startswith(
                ("core.rng_", "problems.sample_us.")):
            assert isinstance(node.args[2], ast.Lambda), ast.unparse(node)
            found[name.value] = node.args[2]
    return found


RNG_BENCHMARKS = _rng_benchmarks()


def test_rng_benchmarks_are_found():
    assert sorted(RNG_BENCHMARKS) == ["core.rng_choice_us", "core.rng_normal_us",
                                      "core.rng_random_ns_per_draw", "problems.sample_us.*"]


def _run_benchmark(name: str, **names):
    """Evaluate the benchmark's lambda with `names` as its globals, and call it."""
    code = compile(ast.Expression(RNG_BENCHMARKS[name]), str(LAYERS), "eval")
    return eval(code, names)()


@pytest.mark.parametrize("name", [n for n in sorted(RNG_BENCHMARKS) if n.startswith("core.")])
def test_rng_benchmark_runs_on_a_stream(name):
    """Each RngStream call that a core.rng_* micro-benchmark times still runs."""
    _run_benchmark(name, rng=RngStream(3))


@pytest.mark.parametrize("problem", [
    synth_make(999.0, 1.0), quadratic_make(np.linspace(1.0, 4.0, 10), 0.1),
    mlp_make(2, 4, 3, gaussian_blobs(8, 3, 2, 1.5, RngStream(0)), batch_size=5)],
    ids=["synth", "quadratic", "mlp"])
def test_sample_benchmark_runs_on_each_problem(problem):
    """problems.sample_us.*, whose lambda binds the loop's `problem`, still
    runs on each built-in problem, and draws the token that sample does."""
    token = _run_benchmark("problems.sample_us.*", rng=RngStream(3), problem=problem)
    assert np.array_equal(token, problem.sample(RngStream(3)))


def _load_workloads():
    """perfbench/workloads.py as a module, loaded from its path; no bytecode is written."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up while decorating
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_matches_its_golden_outputs(name, tmp_path, capsys, monkeypatch):
    """Each workload's inputs at seed 0 and its commands at the smoke T run
    through cli.main, exit 0, and, in golden.json's environment, give its
    recorded output bytes: a key or flag that a change removes fails here."""
    steps = workloads.WORKLOADS[name].smoke_steps
    workloads.write_inputs(name, 0, tmp_path)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for command in workloads.commands(name, 0, steps, "out"):
        assert cli.main(list(command.argv)) == 0, (command.argv, capsys.readouterr().err)
        stdout = capsys.readouterr().out
        if command.stdout_name is not None:
            (tmp_path / "out" / command.stdout_name).write_text(stdout)
    check = workloads.OutputCheck.load(name, 0)
    assert check.compare(steps, workloads.digest_outputs(name, 0, tmp_path / "out")) == 0
    if json.loads(workloads.GOLDEN_PATH.read_text())["environment"] == workloads.environment_key():
        assert check.status == {steps: "matched"}
