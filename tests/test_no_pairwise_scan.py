"""AST guards on the package.

Set facts come from the Walsh transform, so pairwise adjacency scans do
not grow back: ``adjacent_bits`` is called only from the functions in
ALLOWED.  The neighbourhood Gram matrix is read off the adjacency
spectrum by the spectrum that checks it, and the search reads its rank
ledger from that spectrum, so ``neighbourhood_gram_spectrum`` calls
``adjacency_spectrum`` and the sign table ``_sign_row_mask`` is built
only for the product rows and ``gram_identities``.
The tau-eigenspace check promises independence from the transform, so
nothing it calls, directly or through the package, is ``wht``,
``indicator`` or ``adjacency_spectrum``.
A colouring is one colour list from emitter to verifier, so
no function that takes or returns a colouring certificate builds a
``VertexWord``, directly or through the certificate's ``classes``."""

import ast
from pathlib import Path

import ortho_lab

ALLOWED = {
    "sylvester_clique",  # a clique is a set of edges, one per pair
    "exhaustive_tight_sets",  # the backtracking oracle shares nothing with the search
    "small_odd_family",  # rechecks one witness against every member
}

# colour-list helpers whose signatures do not name the certificate
COLOURING_HELPERS = {"word_classes", "_psi_proper"}


def _top_level():
    package = Path(ortho_lab.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            yield path.name, top


def _name(node):
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _callers(callee: str) -> set[str]:
    found = set()
    for file_name, top in _top_level():
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and _name(node.func) == callee:
                found.add(getattr(top, "name", f"{file_name}:{node.lineno}"))
    return found


def test_adjacent_bits_is_called_only_from_the_allowlist():
    assert _callers("adjacent_bits") <= ALLOWED


def test_the_gram_matrix_is_gathered_from_the_adjacency_spectrum():
    assert _callers("_sign_row_mask") == {"_product_rows", "gram_identities"}
    assert "neighbourhood_gram_spectrum" in _callers("adjacency_spectrum")


def test_tau_eigenspace_check_never_reaches_the_transform():
    calls: dict[str, set[str]] = {}
    for _, top in _top_level():
        if isinstance(top, ast.FunctionDef):
            calls[top.name] = {
                _name(node.func) for node in ast.walk(top) if isinstance(node, ast.Call)
            }
    reached, todo = set(), ["verify_tau_eigenspace"]
    while todo:
        for callee in calls.get(todo.pop(), ()):
            if callee not in reached:
                reached.add(callee)
                todo.append(callee)
    assert "connection_set" in reached
    assert not reached & {"wht", "indicator", "adjacency_spectrum"}


def test_colouring_path_builds_no_vertex_words():
    path, builders = set(), set()
    for _, top in _top_level():
        # top-level functions and the methods of top-level classes
        for f in [top] + (top.body if isinstance(top, ast.ClassDef) else []):
            if not isinstance(f, ast.FunctionDef):
                continue
            signature = ast.unparse(f.args) + (ast.unparse(f.returns) if f.returns else "")
            if "ColouringCertificate" in signature or f.name in COLOURING_HELPERS:
                path.add(f.name)
            for node in ast.walk(f):
                if _name(node) == "VertexWord" or (
                    isinstance(node, ast.Attribute) and node.attr == "classes"
                ):
                    builders.add(f.name)
    emitters = {"psi_colouring", "normal_cayley_colouring", "omega_colouring"}
    assert emitters | {"verify_colouring", "decode_colouring", "colouring_payload"} <= path
    assert COLOURING_HELPERS <= path and not path & builders
