"""Every import in the gpdiag modules is used (no linter runs in CI, so this is the check)."""

import ast
from pathlib import Path

import pytest

import gpdiag

MODULES = sorted(p for p in Path(gpdiag.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of `source`, at module level or inside a function, that no expression of the
    module reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `import a as b` and `from m import a as b` bind `b`
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_import_is_found():
    assert MODULES, "no gpdiag modules found"
    source = ("from __future__ import annotations\nimport math\nimport os.path\nfrom json import dumps as d\n"
              "def f():\n    import configparser\n    return math.pi\n")
    assert unused_imports(source) == ["os", "d", "configparser"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
