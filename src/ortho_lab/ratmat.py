"""Dense exact linear algebra on integer matrices.

A matrix comes in as a list of rows of Python ints and is converted to an
int64 numpy array once, by ``_matrix``, which rejects anything else.  One
elimination runs on that array, and it is never trusted:

- ``_minor`` eliminates modulo the prime ``PRIME`` in numpy int64 and
  names pivot rows and columns.  Nothing about them is checked there.
- ``rcef`` inverts the pivot block B they name exactly, by fraction-free
  Gauss-Jordan (E. H. Bareiss, "Sylvester's identity and multistep
  integer-preserving Gaussian elimination", Math. Comp. 22, 1968): each
  entry stays an integer minor of B and every division is exact.
  ``rank`` is the rank of the form ``rcef`` builds.

Three exact checks make the whole proof of that form:

- ``_inverse`` succeeds only if B is nonsingular over the integers, so
  the rank of A is at least r, the number of pivots;
- ``_echelon_identity`` gives C[piv] == scale * I and C @ A[piv] ==
  scale * A, so the rank is at most r and C spans the column space;
- the vanishing check, C zero above pivot row k from column k on, makes
  C the reduced form, with increasing, rationally lex-first pivot rows.

The scale is the least one because C is divided by its content.  A prime
that hides a pivot fails a check, and ArithmeticError is raised.

Every array is int64, and every product is exact: a product that could
reach 2^63 is refused with ArithmeticError (``_int64``), never widened.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

Matrix = list[list[int]]

# below 2^31, so a product of two residues stays below 2^62
PRIME = 2**31 - 1


@dataclass(frozen=True)
class EchelonResult:
    """Reduced column echelon form R of an integer matrix, held as
    ``matrix == scale * R``, an int64 array of the input's shape, with
    the least positive scale that clears R's denominators, plus the rank
    and the pivot row indices (strictly increasing, one per pivot
    column).  ``inverse`` is the integer multiple of B^-1 the form was
    built from, for the pivot block B of the input at ``pivot_rows`` and
    ``columns``; it carries no proof of its own."""

    matrix: np.ndarray
    rank: int
    pivot_rows: list[int]
    scale: int
    columns: list[int]
    inverse: np.ndarray


def _matrix(a: Matrix) -> np.ndarray:
    """``a`` as a 2-D int64 array.  Entries that are not Python ints raise
    TypeError; numpy raises ValueError on ragged rows and OverflowError,
    an ArithmeticError, on entries past int64."""
    import numpy as np

    cols = len(a[0]) if a else 0
    for row in a:
        if any(type(x) is not int for x in row):
            # a Fraction would floor-divide silently below
            raise TypeError("entries must be Python ints")
    return np.array(a, dtype=np.int64).reshape(len(a), cols)


def mat_vec(a: np.ndarray, v: np.ndarray) -> list[int]:
    """Exact a @ v, as Python ints."""
    import numpy as np

    a, v = np.asarray(a), np.asarray(v)
    return _dot(a, v[:, None])[:, 0].tolist()


def _int64(bound: int) -> None:
    """Refuse, with ArithmeticError, int64 arithmetic in which a value
    could reach ``bound`` in absolute value, once that is 2^63 or more:
    numpy would wrap it silently."""
    if bound >= 2**63:
        raise ArithmeticError(f"a value could reach {bound}: too large for exact int64 arithmetic")


def _absmax(x: np.ndarray) -> int:
    # not np.abs, which leaves the int64 minimum negative
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Exact x @ y in int64, refused if a partial sum could reach 2^63."""
    import numpy as np

    _int64(_absmax(x) * _absmax(y) * x.shape[1])
    return x.astype(np.int64, copy=False) @ y.astype(np.int64, copy=False)


def _minor(m: np.ndarray) -> tuple[list[int], list[int]]:
    """Pivot rows and columns of Gaussian elimination of the array ``m``
    (from ``_matrix``) modulo the prime PRIME, by column operations.  Each
    step's pivot row is the first row below the last one with a nonzero
    entry in a column that is not yet a pivot, so the pivot rows increase
    and are the lex-first independent rows mod PRIME.  The output is
    untrusted: ``_echelon`` proves the rank from it exactly, or raises."""
    import numpy as np

    work = (m % PRIME).astype(np.int64)
    nrows, ncols = work.shape
    perm = list(range(ncols))
    rows: list[int] = []
    i = -1
    for c in range(min(nrows, ncols)):
        live = np.flatnonzero(work[i + 1 :, c:].any(axis=1))
        if live.size == 0:
            break
        i += 1 + int(live[0])
        k = c + int(np.flatnonzero(work[i, c:])[0])
        work[:, [c, k]] = work[:, [k, c]]
        perm[c], perm[k] = perm[k], perm[c]
        factors = work[i, c + 1 :] * pow(int(work[i, c]), PRIME - 2, PRIME) % PRIME
        below = work[i + 1 :, c + 1 :]
        below -= work[i + 1 :, c, None] * factors
        below %= PRIME
        rows.append(i)
    return rows, perm[: len(rows)]


def _inverse(b: Matrix) -> tuple[Matrix, int]:
    """(m, d) with m == d * B^-1 for a square block B, by fraction-free
    Gauss-Jordan on [B | I]: each entry stays an integer minor and every
    division is exact, and d is the last pivot, plus or minus det B.  A
    column without a pivot raises ArithmeticError, so a return is the
    exact proof that B is nonsingular: the rows and columns ``_minor``
    named for it are independent over the rationals."""
    r = len(b)
    m = [row + [int(t == k) for k in range(r)] for t, row in enumerate(b)]
    d = 1
    for c in range(r):
        p = next((i for i in range(c, r) if m[i][c]), None)
        if p is None:
            raise ArithmeticError("pivot block is singular")
        m[c], m[p] = m[p], m[c]
        prow = m[c]
        pv = prow[c]
        for i in range(r):
            if i != c:
                f = m[i][c]
                m[i] = [(pv * x - f * y) // d for x, y in zip(m[i], prow)]
        d = pv
    return [row[r:] for row in m], d


def _echelon_identity(c: np.ndarray, scale: int, piv: list[int], a: np.ndarray) -> bool:
    """C[piv] == scale * I and C @ A[piv] == scale * A, with exact
    products, where C's columns past the rank r = len(piv) are left out of
    the product: then A has rank at most r and its columns lie in the
    span of C's first r columns."""
    import numpy as np

    r = len(piv)
    eye = scale * np.eye(r, c.shape[1], dtype=c.dtype)
    _int64(_absmax(a) * scale)
    scaled = a.astype(np.int64, copy=False) * scale
    return np.array_equal(c[piv], eye) and np.array_equal(_dot(c[:, :r], a[piv]), scaled)


def rcef(a: Matrix) -> EchelonResult:
    """Reduced column echelon form, the transpose of rref of the
    transpose: the canonical representative of the column space, with
    strictly increasing pivot rows, each a multiple of a standard basis
    row.

    The pivot rows and columns come from the untrusted mod-p elimination
    of ``_minor``.  With d * B^-1 from ``_inverse`` on the pivot block B,
    the result is C = A[:, cols] @ (d * B^-1), divided by its content and
    padded with zero columns to A's width.  Before it is returned, C
    passes the exact checks listed in the module docstring, which prove
    it is the reduced form of A, or ArithmeticError is raised.
    """
    return _echelon(_matrix(a))


def _echelon(full: np.ndarray) -> EchelonResult:
    """``rcef`` of an array from ``_matrix``."""
    import numpy as np

    piv, cols = _minor(full)
    r = len(piv)
    m, d = _inverse(full[np.ix_(piv, cols)].tolist())
    # d * B^-1 over d, both divided by their content and made positive
    g = gcd(d, *(x for row in m for x in row)) * (1 if d > 0 else -1)
    pad = [0] * (full.shape[1] - r)
    inverse = np.array([[x // g for x in row] + pad for row in m], dtype=np.int64)
    inverse = inverse.reshape(r, full.shape[1])
    c = _dot(full[:, cols], inverse)
    scale = d // g
    g = int(np.gcd.reduce(c.ravel(), initial=scale))
    c, scale = c // g, scale // g

    if not (
        _echelon_identity(c, scale, piv, full)
        and not any(c[:p, k:].any() for k, p in enumerate(piv + [len(c)]))
    ):
        raise ArithmeticError("echelon form fails its exact check")
    return EchelonResult(c, r, piv, int(scale), cols, inverse[:, :r])


def rank(a: Matrix) -> int:
    """The rank of ``a``: that of its checked echelon form (see ``rcef``)."""
    return _echelon(_matrix(a)).rank
