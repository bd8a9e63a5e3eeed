"""Eigenvalue data for the orthogonality graph and its quotient.

Both are Cayley graphs on Z_2^n (``graphs.connection_set``), so A's
eigenvalue on the character chi_p is chi_p summed over the connection set
(Babai, JCTB 27, 1979).  That sum depends only on the weight of p, so the
spectrum is one Krawtchouk row, ``weight_row`` (Delsarte, Philips Res.
Rep. Suppl. 10, 1973): the least eigenvalue, the ratio bound, the Gram
coefficients and the spectrum on every character are its entries.  Set
facts read that spectrum through the Walsh transform of an indicator; the
tau-eigenspace is checked apart from the row, by direct character sums.

Sign matrices over pairs are built as one 0/1 numpy table
(``_sign_row_mask``: a row per word, a column per 2-subset, 1 where the
+-1 entry is -1).  Products with the incidence matrix are integer row
sums of that table.  The neighbourhood Gram matrix needs no table: its
columns are characters restricted to Omega's connection set, so each
entry is an adjacency eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING, Optional, Sequence

from . import ratmat
from .graphs import (
    Family,
    GraphKind,
    connection_set,
    degree_of,
    full_mask,
    is_y_canonical,
    omega,
    y_vertices,
)

if TYPE_CHECKING:
    import numpy as np


def weight_row(kind: GraphKind) -> list[int]:
    """A's eigenvalue on a character of each weight, in Python ints.  On
    Omega, chi_p of weight i summed over the differences d, counted by
    s = |d & p|, is K(i) = sum_s (-1)^s C(i, s) C(n-i, n/2-s), checked by
    K(0) = degree and Parseval.  The quotient's position character j is
    chi_(j << 2), and its differences are Omega's with bit 0 clear, so its
    entry i is the mean of the sums at p and p ^ 1, for i <= n - 2."""
    n, half = kind.n, kind.n // 2
    if kind.family is Family.PSI:
        raise ValueError("weight rows exist for the full graph and its quotient")
    row = [
        sum((-1) ** s * comb(i, s) * comb(n - i, half - s) for s in range(min(i, half) + 1))
        for i in range(n + 1)
    ] if n % 2 == 0 else [0] * (n + 1)
    parseval = sum(comb(n, i) * k * k for i, k in enumerate(row))
    if row[0] != degree_of(n) or parseval != row[0] << n:
        raise ArithmeticError(f"weight row {row} fails its degree or Parseval check")
    if kind.family is Family.Y:
        return [(a + b) // 2 for a, b in zip(row, row[1:n])]
    return row


def least_eigenvalue(n: int) -> Fraction:
    """Least adjacency eigenvalue of the full graph for 4 | n: the weight
    row's entry at weight 2, where the tau-eigenspace's characters sit.  A
    row whose minimum lies elsewhere raises ArithmeticError."""
    if n % 4 != 0:
        raise ValueError("least eigenvalue evaluated only for n divisible by 4")
    row = weight_row(omega(n))
    if min(row) != row[2]:
        raise ArithmeticError(f"least eigenvalue {min(row)} is not at weight 2")
    return Fraction(row[2])


@dataclass(frozen=True)
class BoundReport:
    kind: GraphKind
    vertex_count: int
    degree: int
    least_eigenvalue: Fraction
    bound: Fraction
    is_integer: bool
    matches_power_form: bool


def ratio_bound(kind: GraphKind) -> BoundReport:
    """Independence bound v(-tau)/(d-tau), exact, read off the weight row:
    v = 2^(len(row) - 1), d = row[0] and tau = min(row)."""
    if kind.n % 4 != 0:
        raise ValueError("ratio bound evaluated only for n divisible by 4")
    row = weight_row(kind)
    v, d, tau = 1 << (len(row) - 1), row[0], Fraction(min(row))
    bound = v * (-tau) / (d - tau)
    return BoundReport(
        kind=kind,
        vertex_count=v,
        degree=d,
        least_eigenvalue=tau,
        bound=bound,
        is_integer=bound.denominator == 1,
        matches_power_form=bound == Fraction(v, kind.n),
    )


def two_subset_masks(n: int) -> list[int]:
    """Bitmasks of all 2-subsets of [n] in lexicographic pair order."""
    return [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]


# -- the Walsh spectrum --------------------------------------------------------

def wht(vec: Sequence[int]) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform as an int64 numpy butterfly,
    exact: no output exceeds len * max|entry|, and a vector for which that
    could reach 2^63 is refused with ArithmeticError.  Applying it twice
    multiplies by len(vec)."""
    import numpy as np

    m = len(vec)
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    x = np.array(vec, dtype=np.int64)
    ratmat._int64(m * ratmat._absmax(x))
    h = 1
    while h < m:
        a, b = x.reshape(-1, 2, h).transpose(1, 0, 2)
        x = np.stack((a + b, a - b), axis=1).ravel()
        h *= 2
    return x


def vertex_order(kind: GraphKind) -> list[int]:
    """The fixed vertex enumeration used for characteristic vectors:
    canonical words for the quotient, every n-bit word otherwise.  For
    the full graph and the quotient it is a group order (the quotient's
    by the position map of ``y_vertices``), so the transform runs on it
    as is."""
    if kind.family is Family.Y:
        return y_vertices(kind.n)
    return list(range(1 << kind.n))


def indicator(kind: GraphKind, members: Sequence[int]) -> np.ndarray:
    """The 0/1 int64 indicator of a vertex set in vertex_order(kind): the
    word w at position w, or w >> 2 in the quotient.  Duplicates, words
    that are not vertices, the recursive graph and n above 16 are input
    errors."""
    import numpy as np

    n = kind.n
    if kind.family is Family.PSI or n > 16:
        raise ValueError("set transforms need the full graph or the quotient, n <= 16")
    if len(set(members)) != len(members):
        raise ValueError("duplicate vertices")
    shift = 2 if kind.family is Family.Y else 0
    for b in members:
        if not 0 <= b < 1 << n or (shift and not is_y_canonical(b, n)):
            raise ValueError(f"0x{b:x} is not a vertex of this graph")
    z = np.zeros(1 << (n - shift), dtype=np.int64)
    z[np.array(members, dtype=np.int64) >> shift] = 1
    return z


def adjacency_spectrum(kind: GraphKind) -> np.ndarray:
    """A's eigenvalue on every character k: the weight row at k's weight,
    by doubling.  After t steps entry [i, k] is row[i + |k|] for each t-bit
    word k, and each step appends lam[1:] as the words with bit t set."""
    import numpy as np

    if kind.n > 16:
        raise ValueError(f"spectra are gathered for n <= 16, got {kind.n}")
    row = weight_row(kind)
    lam = np.array(row, dtype=np.int64)[:, None]
    for _ in range(len(row) - 1):
        lam = np.concatenate((lam[:-1], lam[1:]), axis=1)
    return lam[0]


def first_addable(kind: GraphKind, members: Sequence[int]) -> Optional[int]:
    """First vertex outside the set adjacent to none of its members, or
    None if the set is maximal.  One convolution: wht(zhat * lambda) is v
    times each vertex's count of member neighbours (exact in int64, since
    |zhat|, |lambda| <= 2^16)."""
    import numpy as np

    z = indicator(kind, members)
    counts = wht(wht(z) * adjacency_spectrum(kind))
    free = np.flatnonzero((counts == 0) & (z == 0))
    return vertex_order(kind)[free[0]] if free.size else None


# -- tau-eigenspace verification ----------------------------------------------

@dataclass(frozen=True)
class TauEigenspaceReport:
    n: int
    tau: Fraction
    columns_checked: int
    max_defect: Fraction
    failing_column: Optional[int]

    @property
    def ok(self) -> bool:
        return self.max_defect == 0


def verify_tau_eigenspace(n: int) -> TauEigenspaceReport:
    """Check A*chi_p == tau*chi_p for every 2-subset p and its complement.
    On a Cayley graph chi_p is an eigenvector with eigenvalue the sum of
    chi_p(d) over the connection set S, that is |S| - 2 #{d in S :
    |d & p| odd}; as |chi_p| = 1 the column's defect is |sum - tau|.
    Deliberately not the weight row, so this check tests the row's entry
    at weight 2, which is tau."""
    if n not in (4, 8):
        raise ValueError("exhaustive eigenspace check only for n in {4, 8}")
    tau = least_eigenvalue(n)
    pairs = two_subset_masks(n)
    masks = pairs + [p ^ full_mask(n) for p in pairs]
    diffs = connection_set(omega(n))
    odd = [sum((m & d).bit_count() & 1 for d in diffs) for m in masks]
    defects = [abs(len(diffs) - 2 * k - tau) for k in odd]
    worst = max(defects)
    return TauEigenspaceReport(
        n=n,
        tau=tau,
        columns_checked=len(masks),
        max_defect=worst,
        failing_column=defects.index(worst) if worst else None,
    )


def equality_condition_check(kind: GraphKind, members: Sequence[int]) -> bool:
    """Exact ratio-bound equality test for a vertex set S with
    characteristic vector z: A(z - (s/v)1) == tau (z - (s/v)1).

    Scaling by v keeps u = v z - s 1 in integers.  A is diagonal in the
    Walsh basis, so the test holds iff the transform of u vanishes wherever
    the spectrum is above its minimum tau.  Holds exactly when S attains
    the bound."""
    z = indicator(kind, members)
    v, s = z.size, len(members)
    lam = adjacency_spectrum(kind)
    return not wht(v * z - s)[lam != lam.min()].any()


# -- neighbourhood sign-matrix identities --------------------------------------

def _sign_row_mask(words: Sequence[int], n: int) -> np.ndarray:
    """The 0/1 sign table of the words: one row per word, one column per
    pair in ``two_subset_masks`` order, and entry 1 iff the word meets the
    pair in one element (the +-1 sign-matrix entry is -1)."""
    import numpy as np

    w = np.asarray(words, dtype=np.int64)
    bits = ((w[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    i, j = np.triu_indices(n, 1)
    return bits[:, i] ^ bits[:, j]


def pair_incidence(n: int) -> np.ndarray:
    """Vertex-pair incidence of the complete graph on [n] as a 0/1 array:
    one row per element, one column per pair in ``two_subset_masks``
    order."""
    import numpy as np

    i, j = np.triu_indices(n, 1)
    v = np.arange(n)[:, None]
    return ((v == i) | (v == j)).astype(np.uint8)


def _sign_incidence_product(table: np.ndarray, n: int) -> np.ndarray:
    """The +-1 sign matrix of a sign table times the transposed incidence
    matrix, in int64: entry (w, v) sums row w over the n - 1 pairs that
    contain v, which is (n-1) - 2 * (their -1 count)."""
    import numpy as np

    counts = [
        table[:, m.astype(bool)].sum(axis=1, dtype=np.int64) for m in pair_incidence(n)
    ]
    return (n - 1) - 2 * np.stack(counts, axis=1)


def _incidence_identities(n: int) -> tuple[np.ndarray, list, bool]:
    """B = pair_incidence(n) in int64, the entries [u, v] where B B^T
    differs from (n-2) I + J, and whether every column of B sums to 2."""
    import numpy as np

    b = pair_incidence(n).astype(np.int64)
    bad = np.argwhere(b @ b.T != (n - 2) * np.eye(n, dtype=np.int64) + 1)
    return b, bad.tolist(), bool((b.sum(axis=0) == 2).all())


@dataclass(frozen=True)
class GramIdentityReport:
    n: int
    product_all_minus_one: bool
    incidence_gram_ok: bool
    incidence_gram_diagonal: int
    incidence_gram_off_diagonal: int
    row_sums_ok: bool
    neighbourhood_row_sum: int
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.product_all_minus_one and self.incidence_gram_ok and self.row_sums_ok


def gram_identities(n: int) -> GramIdentityReport:
    """Entrywise identities tying the neighbourhood sign matrix to the
    complete-graph incidence matrix, for n in {8, 12, 16}:

      * sign-matrix times incidence-transpose is the all-(-1) matrix;
      * the incidence Gram matrix has diagonal n-1 and off-diagonal 1,
        i.e. equals (n-2) I + all-ones;
      * every sign-matrix row sums to -n/2.

    All three are read off the 0/1 sign table of the neighbourhood words
    (a +-1 sum over k entries is k - 2 * their -1 count) and the 0/1
    incidence array, in int64 arrays.  A failure names the first failing
    neighbourhood word, or the first failing incidence Gram entry.
    """
    import numpy as np

    if n not in (8, 12, 16):
        raise ValueError("identities checked for n in {8, 12, 16}")
    neigh = connection_set(omega(n))
    table = _sign_row_mask(neigh, n)
    bad_sum = table.shape[1] - 2 * table.sum(axis=1, dtype=np.int64) != -(n // 2)
    bad_product = _sign_incidence_product(table, n) != -1
    row_sums_ok = not bad_sum.any()
    product_ok = not bad_product.any()
    witness = None
    if not (row_sums_ok and product_ok):
        k = int(np.argmax(bad_sum | bad_product.any(axis=1)))
        if bad_sum[k]:
            witness = ("row_sum", neigh[k])
        else:
            witness = ("product", neigh[k], int(np.argmax(bad_product[k])))
    bad_gram = _incidence_identities(n)[1]
    if witness is None and bad_gram:
        witness = ("incidence_gram", *bad_gram[0])
    return GramIdentityReport(
        n=n,
        product_all_minus_one=product_ok,
        incidence_gram_ok=not bad_gram,
        incidence_gram_diagonal=n - 1,
        incidence_gram_off_diagonal=1,
        row_sums_ok=row_sums_ok,
        neighbourhood_row_sum=-(n // 2),
        witness=witness,
    )


@dataclass(frozen=True)
class GramSpectrumReport:
    n: int
    coefficients: tuple[int, int, int]
    identity_ok: bool
    eigenvalues: tuple[Fraction, Fraction, Fraction]
    multiplicities: tuple[int, int, int]
    multiplicities_ok: bool
    trace: int
    trace_ok: bool
    witness: Optional[tuple]

    @property
    def ok(self) -> bool:
        return self.identity_ok and self.multiplicities_ok and self.trace_ok


def neighbourhood_gram_spectrum(n: int) -> GramSpectrumReport:
    """Gram matrix G of the neighbourhood sign matrix and its eigenvalue
    multiplicities, from the Johnson scheme J(n, 2) (Brouwer, Cohen and
    Neumaier, Distance-Regular Graphs, 1989, section 9.1).

    Checked on every entry: G = c0 I + c1 L + c2 L' (L = pairs sharing a
    point, L' = disjoint pairs) with coefficients from the weight row, that is
    aI + bM + cJ with M = B^T B for B = pair_incidence(n).  Given
    B B^T = (n-2) I + J and column sums 2, G acts as a + b(2n-2) + cN on
    span(1), as a on ker B and as a + b(n-2) on B^T(1-perp), of dimensions
    1, N - r and r - 1 for r = rank(B), computed exactly.

    G itself is read off the adjacency spectrum lambda of Omega, a Cayley
    graph on Z_2^n with connection set S: column p of the sign matrix is
    the character chi_p on S, and chi_p chi_q = chi_(p xor q), so
    G[p, q] = sum over d in S of chi_(p xor q)(d) = lambda(p xor q).
    The word p xor q has weight 0, 2 or 4 as the pairs are equal, meet or
    are disjoint, and lambda there is c0, c1 or c2."""
    import numpy as np

    if n not in (8, 12, 16):
        raise ValueError("spectrum checked for n in {8, 12, 16}")
    npairs = comb(n, 2)
    c0, c1, c2 = weight_row(omega(n))[0:5:2]  # weights 0, 2 and 4
    a, b, c = c0 - 2 * c1 + c2, c1 - c2, c2
    pairs = np.array(two_subset_masks(n))
    gram = adjacency_spectrum(omega(n))[pairs[:, None] ^ pairs]
    inc, bad_inc, columns_ok = _incidence_identities(n)
    want = a * np.eye(npairs, dtype=np.int64) + b * (inc.T @ inc) + c
    bad = [
        (i, j, int(gram[i, j]), int(want[i, j])) for i, j in np.argwhere(gram != want).tolist()
    ]
    r = ratmat.rank(inc.tolist())
    lam1 = Fraction(n, 2 * (n - 1)) * c0
    lam2 = Fraction(n * (n - 2), (n - 1) * (n - 3)) * c0
    eigenvalues = (lam1, lam2, Fraction(0))
    acts = (a + b * (2 * n - 2) + c * npairs, a, a + b * (n - 2))
    mults = (1, npairs - r, r - 1)
    premises = not bad and not bad_inc and columns_ok and r == n
    mult_ok = premises and len(set(acts)) == 3 and acts == eigenvalues
    trace = int(np.trace(gram))
    trace_ok = trace == npairs * c0 == sum(lam * m for lam, m in zip(eigenvalues, mults))
    return GramSpectrumReport(
        n=n,
        coefficients=(c0, c1, c2),
        identity_ok=not bad,
        eigenvalues=eigenvalues,
        multiplicities=mults,
        multiplicities_ok=mult_ok,
        trace=trace,
        trace_ok=trace_ok,
        witness=("entry", *bad[0]) if bad else None,
    )
