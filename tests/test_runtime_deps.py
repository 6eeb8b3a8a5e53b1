"""numpy stays the only runtime dependency: every module of the package
imports only the standard library, numpy and the package itself, and
`pyproject.toml` declares numpy alone."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = sys.stdlib_module_names | {"numpy"}


def absolute_imports(path: Path) -> list[str]:
    """Top-level names of the modules ``path`` imports, relative imports left out."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name.partition(".")[0] for name in names]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "knnmem").glob("*.py")), ids=lambda p: p.name)
def test_package_imports_only_stdlib_and_numpy(path):
    assert [name for name in absolute_imports(path) if name not in ALLOWED] == []


def test_pyproject_depends_on_numpy_only():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", dep).group(0).lower() for dep in project["dependencies"]]
    assert names == ["numpy"]
