"""Every function and class in the package is reachable by name from the
command-line entry points, so code that no command runs does not grow
back.  Names are matched across modules, which errs towards reachable."""

import ast
from pathlib import Path

import ortho_lab

ROOTS = ("build_parser", "run", "main", "verify")
# the slow backtracking oracle the acceptance gate compares the search with
ALLOWED = {"exhaustive_tight_sets"}


def _name_graph() -> dict[str, set[str]]:
    package = Path(ortho_lab.__file__).resolve().parent
    graph: dict[str, set[str]] = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                used = graph.setdefault(node.name, set())
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        used.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        used.add(sub.attr)
    return graph


def test_every_definition_is_reachable_from_the_cli():
    graph = _name_graph()
    seen = set(ROOTS)
    todo = list(ROOTS)
    while todo:
        for name in graph.get(todo.pop(), ()):
            if name in graph and name not in seen:
                seen.add(name)
                todo.append(name)
    dunder = {name for name in graph if name.startswith("__")}
    assert sorted(set(graph) - seen - dunder - ALLOWED) == []
