"""Dense exact linear algebra on integer matrices.

Every matrix here is a list of rows of Python ints; anything else is
rejected at the boundary.  Elimination is fraction-free Gauss-Jordan
(E. H. Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 22, 1968): each entry stays an
integer minor of the input, every division is exact, and the reduced
form comes out as integer numerators over one common scale.  The rank
needs only the forward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

Matrix = list[list[int]]


@dataclass(frozen=True)
class EchelonResult:
    """Reduced column echelon form R of an integer matrix, held as
    ``matrix == scale * R`` with integer entries and the least positive
    scale that clears R's denominators, plus the rank and the pivot row
    indices (strictly increasing, one per pivot column)."""

    matrix: Matrix
    rank: int
    pivot_rows: list[int]
    scale: int


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    if a and len(v) != len(a[0]):
        raise ValueError("shape mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _check(a: Matrix) -> None:
    cols = len(a[0]) if a else 0
    for row in a:
        if len(row) != cols:
            raise ValueError("ragged rows")
        if any(type(x) is not int for x in row):
            # a Fraction would floor-divide silently below
            raise TypeError("entries must be Python ints")


def _gauss_jordan(a: Matrix, forward: bool = False) -> tuple[Matrix, list[int], int]:
    """Fraction-free Gauss-Jordan elimination.

    Returns (m, pivots, d) with m == d * rref(a) and d the last pivot
    (plus or minus the determinant of the pivot block, 1 if a has rank 0).
    Pivot choice is the first row with a nonzero entry in the current
    column, as in textbook rref, so the pivots are deterministic.  With
    ``forward`` only the rows below each pivot are eliminated (Bareiss's
    forward pass, whose divisions are exact too): the pivots are the
    same, and m is an echelon form but not reduced.
    """
    m = list(a)  # rows are replaced, never mutated
    rows, cols = shape(m)
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        p = next((i for i in range(r, rows) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        prow = m[r]
        pv = prow[c]
        for i in range(r + 1 if forward else 0, rows):
            if i != r:
                f = m[i][c]
                # exact: the quotient is a minor of a
                m[i] = [(pv * x - f * y) // d for x, y in zip(m[i], prow)]
        d = pv
        pivots.append(c)
        r += 1
    return m, pivots, d


def rcef(a: Matrix) -> EchelonResult:
    """Reduced column echelon form, the transpose of rref of the
    transpose: the canonical representative of the column space, with
    strictly increasing pivot rows, each a multiple of a standard basis
    row."""
    _check(a)
    m, pivots, d = _gauss_jordan(transpose(a))
    g = gcd(d, *(x for row in m for x in row))
    sign = 1 if d > 0 else -1
    scaled = [[x * sign // g for x in row] for row in m]
    return EchelonResult(
        matrix=transpose(scaled),
        rank=len(pivots),
        pivot_rows=pivots,
        scale=abs(d) // g,
    )


def rank(a: Matrix) -> int:
    _check(a)
    return len(_gauss_jordan(a, forward=True)[1])
