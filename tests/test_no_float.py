"""A proof path holds no floating point and no Python-int arrays: no name
in the package refers to a float type, so no float64 shortcut (a BLAS
Gram matrix, a float eigenvalue) can enter an exact computation, and
none refers to ``object``, so no array widens to Python ints where int64
would refuse."""

import ast
from pathlib import Path

import ortho_lab

FLOAT_NAMES = {"float", "float16", "float32", "float64", "float_", "floating"}


def package_names(names):
    """file:line of every Name or Attribute in the package named in names."""
    package = Path(ortho_lab.__file__).resolve().parent
    return [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id in names)
        or (isinstance(node, ast.Attribute) and node.attr in names)
    ]


def test_package_names_no_float_type():
    assert package_names(FLOAT_NAMES) == []


def test_package_names_no_object_dtype():
    assert package_names({"object"}) == []
