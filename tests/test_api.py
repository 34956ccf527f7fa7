"""The public API holds no name that only its own unit tests call.

Every name that ``posflow/__init__.py`` imports must be used by code in a
module of the package other than ``__init__``, by the benchmark
(``perfbench/``), by ``tools/``, or by the acceptance suite.  A use is a
bare name, an attribute access or a ``from ... import`` of the name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "posflow"


def exported_names() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for a in node.names}


def used_names(paths) -> set[str]:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(a.name for a in node.names)
    return used


def test_every_exported_name_has_a_user():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    assert sorted(exported_names() - used_names(paths)) == []
