"""Proof checks must survive ``python -O``, which strips assert statements."""

import ast
from pathlib import Path

import ortho_lab


def test_package_has_no_assert_statements():
    package = Path(ortho_lab.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
