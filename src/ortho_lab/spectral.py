"""Eigenvalue data for the orthogonality graph and its quotient.

The least eigenvalue has a closed form when 4 | n, which feeds the ratio
bound.  The tau-eigenspace is spanned by character columns indexed by
2-subsets and (n-2)-subsets; everything here verifies those facts by
direct computation rather than quoting them.

The adjacency operator is never materialized.  Two independent exact
application strategies are provided: a neighbour-streaming scan, and a
Walsh transform diagonalization (the graphs are Cayley graphs on an
elementary abelian 2-group, so the transform diagonalizes adjacency).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

from . import ratmat
from .graphs import (
    Family,
    GraphKind,
    as_bits,
    full_mask,
    y_index_of,
    y_vertices,
    y_word_of_index,
)


def least_eigenvalue(n: int) -> Fraction:
    """Least adjacency eigenvalue of the full graph, -binom(n, n/2)/(n-1).

    The closed form needs 4 | n; other residues are rejected rather than
    given a wrong value.
    """
    if n % 4 != 0:
        raise ValueError("closed form valid only for n divisible by 4")
    return Fraction(-comb(n, n // 2), n - 1)


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
    """Independence bound v(-tau)/(d-tau), exact.

    The quotient inherits half the degree and half the least eigenvalue,
    so its bound is exactly a quarter of the full graph's.
    """
    n = kind.n
    if n % 4 != 0:
        raise ValueError("ratio bound evaluated only for n divisible by 4")
    tau = least_eigenvalue(n)
    if kind.family is Family.OMEGA:
        v, d = 1 << n, comb(n, n // 2)
        power_form = Fraction(1 << n, n)
    elif kind.family is Family.Y:
        v, d = 1 << (n - 2), comb(n, n // 2) // 2
        tau = tau / 2
        power_form = Fraction(1 << (n - 2), n)
    else:
        raise ValueError("bound defined for the full graph and its quotient")
    bound = v * (-tau) / (d - tau)
    return BoundReport(
        kind=kind,
        vertex_count=v,
        degree=d,
        least_eigenvalue=tau,
        bound=bound,
        is_integer=bound.denominator == 1,
        matches_power_form=bound == power_form,
    )


def two_subset_masks(n: int) -> list[int]:
    """Bitmasks of all 2-subsets of [n] in lexicographic pair order."""
    return [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]


def character_column(p_mask: int, vertices: Sequence[int]) -> list[int]:
    """The +-1 column (-1)^(|A n p|) over the given vertex words."""
    return [1 - 2 * ((a & p_mask).bit_count() & 1) for a in vertices]


def character_basis(n: int) -> ratmat.Matrix:
    """Sign matrix over all 2^n vertices whose columns span the
    tau-eigenspace: one column per 2-subset, then one per (n-2)-subset
    (ordered as complements of the 2-subset list).

    For n = 4 the two blocks coincide setwise, so columns repeat; every
    column is still an exact eigenvector.
    """
    if n not in (4, 8):
        raise ValueError("basis materialized only for n in {4, 8}")
    pairs = two_subset_masks(n)
    masks = pairs + [p ^ full_mask(n) for p in pairs]
    verts = range(1 << n)
    cols = [character_column(p, verts) for p in masks]
    return ratmat.from_rows(zip(*cols))


# -- exact adjacency application ----------------------------------------------

def wht(vec: Sequence) -> list:
    """In-place-style Walsh-Hadamard transform; exact on ints/Fractions.
    Unnormalized: applying twice multiplies by len(vec)."""
    v = list(vec)
    m = len(v)
    if m & (m - 1):
        raise ValueError("length must be a power of two")
    h = 1
    while h < m:
        for i in range(0, m, h * 2):
            for j in range(i, i + h):
                a, b = v[j], v[j + h]
                v[j] = a + b
                v[j + h] = a - b
        h *= 2
    return v


def _connection_indicator(kind: GraphKind) -> list[int]:
    n, half = kind.n, kind.n // 2
    if kind.family is Family.OMEGA:
        return [1 if w.bit_count() == half else 0 for w in range(1 << n)]
    if kind.family is Family.Y:
        return [
            1 if y_word_of_index(i, n).bit_count() == half else 0
            for i in range(1 << (n - 2))
        ]
    raise ValueError("adjacency apply supports the full graph and the quotient")


def vertex_order(kind: GraphKind) -> list[int]:
    """The fixed vertex enumeration used for characteristic vectors:
    canonical words for the quotient, every n-bit word otherwise."""
    if kind.family is Family.Y:
        return y_vertices(kind.n)
    return list(range(1 << kind.n))


def apply_adjacency(kind: GraphKind, vec: Sequence) -> list:
    """Exact A*vec via the Walsh transform, entries in vertex_order(kind)."""
    n = kind.n
    if n > 16:
        raise ValueError("exhaustive apply capped at n = 16")
    conn = _connection_indicator(kind)
    if kind.family is Family.Y:
        # reorder from ascending canonical words to group indices
        order = vertex_order(kind)
        if len(vec) != len(order):
            raise ValueError("vector length mismatch")
        pos = {y_index_of(w, n): k for k, w in enumerate(order)}
        grouped = [vec[pos[i]] for i in range(len(order))]
        out = _cayley_apply(grouped, conn)
        return [out[y_index_of(w, n)] for w in order]
    if len(vec) != 1 << n:
        raise ValueError("vector length mismatch")
    return _cayley_apply(list(vec), conn)


def _cayley_apply(vec: list, conn: list[int]) -> list:
    m = len(vec)
    eig = wht(conn)
    hat = wht(vec)
    back = wht([e * x for e, x in zip(eig, hat)])
    out = []
    for x in back:
        if isinstance(x, Fraction):
            out.append(x / m)
            continue
        q, r = divmod(x, m)
        if r:
            raise ArithmeticError("inverse transform not integral")
        out.append(q)
    return out


def _apply_streaming(kind: GraphKind, vec: Sequence) -> list:
    """Independent cross-check: sum the vector over each vertex's
    neighbours directly."""
    n, half = kind.n, kind.n // 2
    if kind.family is Family.OMEGA:
        diffs = [w for w in range(1 << n) if w.bit_count() == half]
        return [sum(vec[a ^ d] for d in diffs) for a in range(1 << n)]
    if kind.family is Family.Y:
        order = vertex_order(kind)
        pos = {w: k for k, w in enumerate(order)}
        diffs = [
            w
            for w in range(1 << n)
            if w.bit_count() == half and not (w & 1)  # canonical differences
        ]
        return [sum(vec[pos[a ^ d]] for d in diffs) for a in order]
    raise ValueError("streaming apply supports the full graph and the quotient")


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
    """Check A*w == tau*w for every character column, by neighbour
    streaming (deliberately not the transform, so the two adjacency
    strategies stay independent witnesses)."""
    if n not in (4, 8):
        raise ValueError("exhaustive eigenspace check only for n in {4, 8}")
    tau = least_eigenvalue(n)
    if tau.denominator != 1:
        raise ArithmeticError(f"least eigenvalue {tau} is not an integer")
    t = tau.numerator
    diffs = _neighbourhood_words(n)
    pairs = two_subset_masks(n)
    masks = pairs + [p ^ full_mask(n) for p in pairs]
    verts = range(1 << n)
    max_defect = 0
    failing = None
    for ci, p in enumerate(masks):
        col = character_column(p, verts)
        for a in verts:
            defect = sum(col[a ^ d] for d in diffs) - t * col[a]
            if defect:
                if abs(defect) > max_defect:
                    max_defect, failing = abs(defect), ci
    return TauEigenspaceReport(
        n=n,
        tau=tau,
        columns_checked=len(masks),
        max_defect=Fraction(max_defect),
        failing_column=failing,
    )


def equality_condition_check(kind: GraphKind, members) -> bool:
    """Exact ratio-bound equality test for a vertex set S with
    characteristic vector z: A(z - (s/v)1) == tau (z - (s/v)1).

    Scaling by v keeps the whole computation in integers.  Holds exactly
    when S attains the bound; fails otherwise.
    """
    n = kind.n
    order = vertex_order(kind)
    pos = {w: k for k, w in enumerate(order)}
    bits = [as_bits(m) for m in members]
    if len(set(bits)) != len(bits):
        raise ValueError("duplicate members")
    z = [0] * len(order)
    for b in bits:
        if b not in pos:
            raise ValueError(f"0x{b:x} is not a vertex of this graph")
        z[pos[b]] = 1
    v = len(order)
    s = len(bits)
    tau = least_eigenvalue(n)
    if kind.family is Family.Y:
        tau = tau / 2
    u = [v * zi - s for zi in z]  # v * (z - (s/v) 1)
    au = apply_adjacency(kind, u)
    return all(a == tau * x for a, x in zip(au, u))


# -- neighbourhood sign-matrix identities --------------------------------------

def _neighbourhood_words(n: int) -> list[int]:
    half = n // 2
    return [w for w in range(1 << n) if w.bit_count() == half]


def _sign_row_mask(a: int, pairs: list[int]) -> int:
    """Bit k set iff the row entry for pair k is -1 (odd intersection)."""
    m = 0
    for k, p in enumerate(pairs):
        if (a & p).bit_count() & 1:
            m |= 1 << k
    return m


def _column_sign_masks(words: Sequence[int], pairs: list[int]) -> list[int]:
    """One mask per pair: bit idx set iff the sign-matrix row of words[idx]
    is -1 in that pair's column."""
    colsign = [0] * len(pairs)
    for idx, a in enumerate(words):
        sm = _sign_row_mask(a, pairs)
        while sm:
            low = sm & -sm
            colsign[low.bit_length() - 1] |= 1 << idx
            sm ^= low
    return colsign


def _vertex_column_masks(n: int, pairs: list[int]) -> list[int]:
    """One mask per element v of [n]: bit k set iff pair k contains v."""
    vert_colmask = []
    for v in range(n):
        m = 0
        for k, p in enumerate(pairs):
            if p >> v & 1:
                m |= 1 << k
        vert_colmask.append(m)
    return vert_colmask


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

    Computed with popcount tricks (a +-1 dot product over k columns is
    k - 2*popcount of the XOR of the sign masks), which is what makes
    the 12870-row case instant.
    """
    if n not in (8, 12, 16):
        raise ValueError("identities checked for n in {8, 12, 16}")
    pairs = two_subset_masks(n)
    npairs = len(pairs)
    neigh = _neighbourhood_words(n)
    vert_colmask = _vertex_column_masks(n, pairs)
    witness = None
    product_ok = True
    row_sums_ok = True
    for a in neigh:
        sm = _sign_row_mask(a, pairs)
        if npairs - 2 * sm.bit_count() != -(n // 2):
            row_sums_ok = False
            witness = witness or ("row_sum", a)
        for v in range(n):
            # entry = sum over pairs containing v of the row sign
            if (n - 1) - 2 * (sm & vert_colmask[v]).bit_count() != -1:
                product_ok = False
                witness = witness or ("product", a, v)
                break
        if not (product_ok and row_sums_ok) and witness:
            break
    gram_ok = True
    for u in range(n):
        for v in range(n):
            got = (vert_colmask[u] & vert_colmask[v]).bit_count()
            want = n - 1 if u == v else 1
            if got != want:
                gram_ok = False
                witness = witness or ("incidence_gram", u, v)
    return GramIdentityReport(
        n=n,
        product_all_minus_one=product_ok,
        incidence_gram_ok=gram_ok,
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
    """Gram matrix of the neighbourhood sign matrix: verify it equals
    c0 I + c1 L + c2 L' (L = pairs sharing a point, L' = disjoint pairs)
    with the closed-form coefficients, then pin each eigenvalue's
    multiplicity by an exact rank computation.
    """
    if n not in (8, 12, 16):
        raise ValueError("spectrum checked for n in {8, 12, 16}")
    half = n // 2
    pairs = two_subset_masks(n)
    npairs = len(pairs)
    neigh = _neighbourhood_words(n)
    rows = len(neigh)
    colsign = _column_sign_masks(neigh, pairs)
    c0 = comb(n, half)
    c1 = c0 - 8 * comb(n - 3, half - 1)
    c2 = c0 - 16 * comb(n - 4, half - 1)
    identity_ok = True
    witness = None
    gram = [[0] * npairs for _ in range(npairs)]
    for i in range(npairs):
        for j in range(i, npairs):
            got = rows - 2 * (colsign[i] ^ colsign[j]).bit_count()
            gram[i][j] = gram[j][i] = got
            if i == j:
                want = c0
            elif (pairs[i] & pairs[j]).bit_count() == 1:
                want = c1
            else:
                want = c2
            if got != want:
                identity_ok = False
                witness = witness or ("entry", i, j, got, want)
    lam1 = Fraction(n, 2 * (n - 1)) * c0
    lam2 = Fraction(n * (n - 2), (n - 1) * (n - 3)) * c0
    eigenvalues = (lam1, lam2, Fraction(0))
    expected_mult = (1, npairs - n, n - 1)
    mults = []
    for lam in eigenvalues:
        shifted = ratmat.from_rows(
            [
                [gram[i][j] - (lam if i == j else 0) for j in range(npairs)]
                for i in range(npairs)
            ]
        )
        mults.append(npairs - ratmat.rank(shifted))
    mult_ok = tuple(mults) == expected_mult and sum(mults) == npairs
    trace = sum(gram[i][i] for i in range(npairs))
    trace_ok = trace == npairs * c0 and trace == sum(
        lam * m for lam, m in zip(eigenvalues, mults)
    )
    return GramSpectrumReport(
        n=n,
        coefficients=(c0, c1, c2),
        identity_ok=identity_ok,
        eigenvalues=eigenvalues,
        multiplicities=tuple(mults),
        multiplicities_ok=mult_ok,
        trace=trace,
        trace_ok=trace_ok,
        witness=witness,
    )
