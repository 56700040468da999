import ast
import importlib
import inspect
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
                 if n not in words]
    assert unreached == []


def test_every_constructor_parameter_has_a_caller():
    # a defaulted constructor parameter that no program call passes is a
    # field set only to its default: make it a plain field or delete it.  A
    # call is `Name(...)` or `module.Name(...)`; one with *args or **kwargs
    # counts for every parameter
    passed = {}  # class name -> parameter names passed, or None for all
    positional = {}  # class name -> most positional arguments in one call
    for path in PROGRAM_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed[name] = None
            elif passed.get(name, ()) is not None:
                passed.setdefault(name, set()).update(k.arg for k in node.keywords)
                positional[name] = max(positional.get(name, 0), len(node.args))
    uncalled = []
    for m in MODULES:
        module = importlib.import_module(m)
        for n in getattr(module, "__all__", ()):
            cls = getattr(module, n)
            if not (isinstance(cls, type) and "__init__" in vars(cls)):
                continue
            params = list(inspect.signature(cls.__init__).parameters.values())[1:]
            for i, p in enumerate(params):
                if p.default is inspect.Parameter.empty or passed.get(n, ()) is None:
                    continue
                by_position = p.kind is not p.KEYWORD_ONLY and i < positional.get(n, 0)
                if not (by_position or p.name in passed.get(n, ())):
                    uncalled.append(f"{m}.{n}({p.name})")
    assert uncalled == []


# (module, qualified name, parameter) triples a caller outside the program
# passes: `main`'s argv is the console-script entry that tests drive, and
# check_symmetry_numeric's run parameters are to be passed from the run the
# verify command takes (ROADMAP item 4: its method and dt)
NO_PROGRAM_CALLER_ALLOWED = {("hamsym.cli", "main", "argv")} | {
    ("hamsym.verify", "check_symmetry_numeric", p)
    for p in ("epsilon", "t_final", "dt", "method")}


def _defined_functions():
    """Every function and method defined in src/hamsym, as (module,
    qualified name, name it is called by, arguments, skipped): the call name
    of `__init__` and `__new__` is the class name, and skipped is 1 for a
    method's self or cls, which a call's argument list does not hold."""
    out = []

    def visit(node, module, where, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, module, f"{where}{child.name}.", child.name)
            elif isinstance(child, ast.FunctionDef):
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                name = cls if child.name in ("__init__", "__new__") else child.name
                out.append((module, where + child.name, name, child.args,
                            int(cls is not None and not static)))
                visit(child, module, f"{where}{child.name}.", None)

    for path in sorted((ROOT / "src" / "hamsym").glob("*.py")):
        module = "hamsym" if path.stem == "__init__" else f"hamsym.{path.stem}"
        visit(ast.parse(path.read_text(encoding="utf-8")), module, "", None)
    return out


def test_every_function_parameter_has_a_caller():
    # a defaulted parameter that no program call passes always takes its
    # default: make it a constant or delete it.  As for constructors, a call
    # is `name(...)` or `obj.name(...)`, matched by name, and one with *args
    # or **kwargs counts for every parameter
    passed = {}  # call name -> parameter names passed by keyword, or None for all
    positional = {}  # call name -> most positional arguments in one call
    for path in PROGRAM_FILES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                passed[name] = None
            elif passed.get(name, ()) is not None:
                passed.setdefault(name, set()).update(k.arg for k in node.keywords)
                positional[name] = max(positional.get(name, 0), len(node.args))
    uncalled = []
    for module, qualname, name, args, skipped in _defined_functions():
        if passed.get(name, ()) is None:
            continue
        ordered = args.posonlyargs + args.args
        first_default = len(ordered) - len(args.defaults)
        defaulted = [(a.arg, i - skipped) for i, a in enumerate(ordered) if i >= first_default]
        defaulted += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                      if d is not None]
        for param, index in defaulted:
            by_position = index is not None and index < positional.get(name, 0)
            if not (by_position or param in passed.get(name, ())
                    or (module, qualname, param) in NO_PROGRAM_CALLER_ALLOWED):
                uncalled.append(f"{module}.{qualname}({param})")
    assert uncalled == []
