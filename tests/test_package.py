"""The package's public names: `avagrad_lab` loads each on first use from the
module that defines it (its `_LAZY` table), so the demos' and README's
imports must resolve to the same objects as before."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import avagrad_lab

ROOT = Path(__file__).resolve().parents[1]


def imported_names(source: str) -> set[str]:
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "avagrad_lab"
            for alias in node.names}


def documented_names() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
    names = imported_names(quick_start.split("```", 1)[0])
    for demo in sorted((ROOT / "demos").glob("*.py")):
        names |= imported_names(demo.read_text())
    return sorted(names)


def test_documented_imports_are_found():
    assert len(documented_names()) > 20 and "run_trial" in documented_names()


@pytest.mark.parametrize("name", documented_names())
def test_documented_name_is_its_defining_modules_object(name):
    obj = getattr(avagrad_lab, name)
    module = importlib.import_module(obj.__module__)
    assert getattr(module, name) is obj
    assert name in avagrad_lab._LAZY[module.__name__.rsplit(".", 1)[1]]


def test_all_and_dir_list_exactly_the_lazy_names():
    names = [name for names in avagrad_lab._LAZY.values() for name in names]
    assert len(set(names)) == len(names)
    assert avagrad_lab.__all__ == names
    assert dir(avagrad_lab) == sorted(names)


def test_every_public_name_resolves_to_its_module():
    for module, names in avagrad_lab._LAZY.items():
        loaded = getattr(avagrad_lab, module)
        assert loaded is importlib.import_module(f"avagrad_lab.{module}")
        for name in names:
            assert getattr(avagrad_lab, name) is getattr(loaded, name)


@pytest.mark.parametrize("name", ["no_such_name", "np", "cli_main", "Sweep"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=re.escape(f"has no attribute {name!r}")):
        getattr(avagrad_lab, name)
    assert not hasattr(avagrad_lab, name)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from avagrad_lab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(avagrad_lab.__all__)
