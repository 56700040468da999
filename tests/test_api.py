import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import hamsym

MODULES = ["hamsym"] + [f"hamsym.{m.name}" for m in pkgutil.iter_modules(hamsym.__path__)]

ROOT = Path(__file__).resolve().parent.parent
# the program and the benchmark: a public name needs a caller in one of them
PROGRAM_FILES = sorted((ROOT / "src" / "hamsym").glob("*.py")) + sorted(
    (ROOT / "bench").glob("*.py"))
# wedge is the reference interior_product's antiderivation property is tested against
UNREACHED_ALLOWED = {"wedge"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *`
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _program_words():
    """Every name the program files load, and every word of their strings,
    leaving out docstrings, __all__ lists and the names being defined."""
    words = set()
    for path in PROGRAM_FILES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skipped = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                skipped.add(id(node.value))  # a docstring
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                skipped.update(id(n) for n in ast.walk(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in skipped):
                words.update(re.findall(r"\w+", node.value))
    return words


def test_every_exported_name_has_a_caller():
    # a public name that only its definition and __all__ mention is reached
    # by no command and no benchmark, only by tests: give it a caller or delete it
    words = _program_words()
    unreached = [f"{m}.{n}" for m in MODULES
                 for n in getattr(importlib.import_module(m), "__all__", ())
                 if n not in words and n not in UNREACHED_ALLOWED]
    assert unreached == []
