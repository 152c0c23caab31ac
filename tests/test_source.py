"""Checks on the library's source text that no linter here makes."""

import ast
import importlib
from pathlib import Path

import pytest

import poisson_eb

SOURCES = sorted(Path(poisson_eb.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Names imported but never read, except on a line marked ``noqa: F401``
    (an import kept for its side effect), as linters treat them."""
    tree, lines = ast.parse(source), source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or "noqa: F401" in lines[
                node.lineno - 1] or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:  # `import a.b` binds a
            bound = alias.name.partition(".")[0] if isinstance(node, ast.Import) else alias.name
            imported[alias.asname or bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported, hence used
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\nfrom math import pi, tau, e\n"
              "__all__ = ['tau']\nprint(pi)\n")
    assert _unused_imports(source) == ["os (line 1)", "e (line 3)"]


def _reads(node: ast.AST) -> set[str]:
    """The names `node` reads, by name or as an attribute (``mixtures._cells``)."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
    return names


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else (
        [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (``_name``, not dunders) of `sources`, a
    {module name: source} map, that no statement but their own definition reads."""
    statements = [(module, node) for module, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_reads(node) for _, node in statements]
    return [f"{module}.{name}" for i, (module, node) in enumerate(statements)
            for name in _defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_package_reads_every_private_name_it_defines():
    assert _unread_private_names({path.stem: path.read_text() for path in SOURCES}) == []


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": ("_USED = 1\n_SPARE, PUBLIC = 2, 3\n__dunder__ = 4\n"
              "def _helper():\n    return _USED\n"
              "def _dead():\n    _dead()\n"
              "class _Gone:\n    pass\n"),
        "b": "from . import a\n\nprint(a._helper())\n",
    }
    assert _unread_private_names(sources) == ["a._SPARE", "a._dead", "a._Gone"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_name_in_all_exists(path):
    # a stale entry breaks only `import *`; the unused-import check counts it as used
    module = importlib.import_module(
        "poisson_eb" if path.stem == "__init__" else f"poisson_eb.{path.stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def _truncated_parameters(source: str) -> list[str]:
    """Calls ``int(p)`` on a parameter ``p`` of the enclosing function or lambda:
    a fractional argument would be truncated where `mixtures._whole`, the one
    whole-number check (itself exempt), refuses it."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                or getattr(fn, "name", "") == "_whole":
            continue
        params = {a.arg for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs}
        found += [f"{getattr(fn, 'name', '<lambda>')}: int({node.args[0].id}) (line {node.lineno})"
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "int" and node.args
                  and isinstance(node.args[0], ast.Name) and node.args[0].id in params]
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_truncates_a_parameter_with_int(path):
    assert _truncated_parameters(path.read_text()) == []


def test_the_check_finds_a_truncated_parameter():
    source = ("def f(k, n=1, *, m):\n    a = int(k)\n    return int(n * 2), int(m)\n"
              "def _whole(value):\n    return int(value)\n"
              "def g(x):\n    y = len(x)\n    return int(y)\n"
              "h = lambda t: int(t)\n")
    assert _truncated_parameters(source) == [
        "f: int(k) (line 2)", "f: int(m) (line 3)", "<lambda>: int(t) (line 9)"]
