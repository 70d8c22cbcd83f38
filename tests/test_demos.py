"""Every name a demo imports from nlcurv exists.

The demos run for seconds to half a minute each, so Tier-1 does not run
them; this parses them instead, and catches a demo that still imports a
retired or renamed name.
"""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).parents[1] / "demos").glob("*.py"))


def _nlcurv_imports(path):
    """(module, name) for each `from nlcurv... import name` in path, and
    (module, None) for each `import nlcurv...`."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "nlcurv":
            yield from ((node.module, a.name) for a in node.names)
        elif isinstance(node, ast.Import):
            yield from ((a.name, None) for a in node.names
                        if a.name.split(".")[0] == "nlcurv")


def test_every_demo_is_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_exist(demo):
    names = list(_nlcurv_imports(demo))
    assert names, f"{demo.name} imports nothing from nlcurv"
    missing = []
    for mod, name in names:
        module = importlib.import_module(mod)  # raises for a missing module
        if name is not None and not hasattr(module, name):
            missing.append(f"{mod}.{name}")
    assert not missing, f"{demo.name} imports missing names {missing}"
