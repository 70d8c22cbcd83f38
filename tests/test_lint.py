"""Static checks on the library source, with the stdlib ast only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "nlcurv"


def unused_imports(text):
    """Names bound by the module-level imports of source text that the
    module never reads, leaving out __future__ imports, names listed in
    __all__ and imports on a line marked # noqa."""
    tree, lines = ast.parse(text), text.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or \
                getattr(node, "module", None) == "__future__" or \
                any("# noqa" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in read)


def test_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport os\nimport sys\n"
            "import numpy as np\nfrom .x import a, b  # noqa: F401\n"
            "from .y import c\n__all__ = ['c']\nprint(np.pi)\n")
    assert unused_imports(text) == ["os", "sys"]


@pytest.mark.parametrize("module", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_module_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
