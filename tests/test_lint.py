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


def private_definitions(tree):
    """(statement index, name) of the module-level names a parsed module
    defines that start with one underscore."""
    found = []
    for at, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            lhs = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            targets = [n.id for t in lhs for n in ast.walk(t)
                       if isinstance(n, ast.Name)]
        else:
            continue
        found += [(at, name) for name in targets
                  if name.startswith("_") and not name.startswith("__")]
    return found


def unread_private_names(texts):
    """(module, name) of the module-level private names, over a package's
    source texts by module, that no module reads, as a name or an
    attribute, outside the statement that defines them."""
    trees = {mod: ast.parse(text) for mod, text in texts.items()}
    reads = {}  # name -> the (module, statement index) places reading it
    for mod, tree in trees.items():
        for at, node in enumerate(tree.body):
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.setdefault(n.id, set()).add((mod, at))
                elif isinstance(n, ast.Attribute):
                    reads.setdefault(n.attr, set()).add((mod, at))
    return sorted((mod, name) for mod, tree in trees.items()
                  for at, name in private_definitions(tree)
                  if not reads.get(name, set()) - {(mod, at)})


def test_finds_an_unread_private_name():
    texts = {"a": ("_A, _B = 1, 2\n_C: int = 3\n__all__ = []\n"
                   "def _star_pass():\n    return _star_forward()\n"
                   "def _star_forward():\n    return _B + _C\n"
                   "def _recurse(n):\n    return _recurse(n - 1)\n"),
             "b": "from . import a\nprint(a._star_pass)\n"}
    assert unread_private_names(texts) == [("a", "_A"), ("a", "_recurse")]


def test_every_private_name_is_read():
    texts = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert len(sum((private_definitions(ast.parse(text))
                    for text in texts.values()), [])) > 100
    assert unread_private_names(texts) == []


def scipy_imports(text):
    """Line numbers of the imports of scipy or a scipy submodule anywhere
    in source text, those inside functions included."""
    def top(name):
        return (name or "").split(".")[0] == "scipy"

    return sorted(node.lineno for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Import)
                  and any(top(alias.name) for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and top(node.module))


def test_finds_a_scipy_import():
    text = ("import numpy as np\nimport os, scipy.sparse\n"
            "from .scipy import x\nlib = 'libscipy_openblas64_'\n"
            "def f():\n    from scipy.special import gamma\n")
    assert scipy_imports(text) == [2, 6]


def test_only_the_oracles_import_scipy():
    # every other command's computation is numpy alone
    assert [p.name for p in sorted(SRC.glob("*.py"))
            if scipy_imports(p.read_text())] == ["oracles.py"]
