"""Dense exact linear algebra over the rationals.

Everything here is fractions.Fraction end to end; floats are rejected at
the boundary.  Matrices are lists of row lists.  Sizes stay small enough
(a few hundred columns) that cubic elimination is acceptable; the one
large rank computation in the package goes through a Gram matrix first,
which lands back here as a small square instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

Matrix = list[list[Fraction]]
Vector = list[Fraction]


@dataclass(frozen=True)
class EchelonResult:
    """Reduced column echelon form with its rank and pivot row indices
    (strictly increasing, one per pivot column)."""

    matrix: Matrix
    rank: int
    pivot_rows: list[int] = field(default_factory=list)


def as_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floats are not allowed in exact arithmetic")
    return Fraction(x)


def from_rows(rows: Iterable[Sequence]) -> Matrix:
    out = [[as_fraction(x) for x in row] for row in rows]
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows")
    return out


def shape(a: Matrix) -> tuple[int, int]:
    return len(a), len(a[0]) if a else 0


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_vec(a: Matrix, v: Vector) -> Vector:
    if a and len(v) != len(a[0]):
        raise ValueError("shape mismatch")
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the pivot column indices.

    Pivot choice is the first row with a nonzero entry in the current
    column, which makes the routine deterministic; exact arithmetic has
    no stability concern.
    """
    m = [row[:] for row in a]
    rows, cols = shape(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rcef(a: Matrix) -> EchelonResult:
    """Reduced column echelon form.

    Defined as the transpose of rref of the transpose, so it is the
    canonical representative of the column space: pivot rows strictly
    increase and each pivot row is a standard basis row.
    """
    r, pivots = rref(transpose(a))
    return EchelonResult(matrix=transpose(r), rank=len(pivots), pivot_rows=pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def common_denominator(a: Matrix) -> int:
    """Positive lcm of all entry denominators (1 for an empty matrix)."""
    return lcm(*(x.denominator for row in a for x in row)) if a and a[0] else 1


def int_rows(a: Matrix, scale_by: int) -> list[list[int]]:
    """Rows of scale_by * a as exact ints; raises if anything is non-integral."""
    out = []
    for row in a:
        scaled = [x * scale_by for x in row]
        if any(x.denominator != 1 for x in scaled):
            raise ValueError("scaling does not clear denominators")
        out.append([int(x) for x in scaled])
    return out
