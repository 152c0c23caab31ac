"""Checks on the library's source text that no linter here makes."""

import ast
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
