import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(directory):
    """The top-level package of every absolute import in the .py files
    under ``directory``."""
    names = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_every_imported_package_is_declared():
    """``pip install ".[test]"`` installs every package that the library
    and its tests import: each one outside the standard library is a
    run-time dependency or in the ``test`` extra."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    project = project["project"]
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group().lower().replace("-", "_")
                for req in [*project["dependencies"],
                            *project["optional-dependencies"]["test"]]}
    imported = (_imported_packages(ROOT / "src") | _imported_packages(ROOT / "tests"))
    third_party = imported - set(sys.stdlib_module_names) - {"dereverb"}
    assert sorted(third_party - declared) == []
