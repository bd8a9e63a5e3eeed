"""Set facts come from the Walsh transform, so pairwise adjacency scans
do not grow back: in the package, ``adjacent_bits`` is called only from
the functions below."""

import ast
from pathlib import Path

import ortho_lab

ALLOWED = {
    "verify_clique",  # a clique is a set of edges, one per pair
    "verify_colouring",  # one transform per class would cost palette * 2^n
    "exhaustive_tight_sets",  # the backtracking oracle shares nothing with the search
    "small_odd_family",  # rechecks one witness against every member
}


def _callers() -> set[str]:
    package = Path(ortho_lab.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name == "adjacent_bits":
                    found.add(getattr(top, "name", f"{path.name}:{node.lineno}"))
    return found


def test_adjacent_bits_is_called_only_from_the_allowlist():
    assert _callers() <= ALLOWED
