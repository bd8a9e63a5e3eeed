"""A proof path holds no floating point: no name in the package refers
to a float type, so no float64 shortcut (a BLAS Gram matrix, a float
eigenvalue) can enter an exact computation."""

import ast
from pathlib import Path

import ortho_lab

FLOAT_NAMES = {"float", "float16", "float32", "float64", "float_", "floating"}


def test_package_names_no_float_type():
    package = Path(ortho_lab.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in FLOAT_NAMES)
        or (isinstance(node, ast.Attribute) and node.attr in FLOAT_NAMES)
    ]
    assert found == []
