"""The names perfbench's tracer wraps exist on the package.

perfbench/tracer.py patches functions by (namespace, attribute) and methods
through each class's own __dict__; a name that a change deletes or moves
breaks only the traced benchmark run, which this suite does not run. The
tables are read from the file's source, so nothing under perfbench/ is
imported or written.
"""

import ast
from pathlib import Path

import pytest

import avagrad_lab
import avagrad_lab.cli  # noqa: F401  (loads every module the tables name)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
