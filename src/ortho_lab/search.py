"""Kernel-reduction search for tight independent sets in the quotient graph.

The characteristic vector of a bound-attaining independent set containing
the base vertex lies in the column space of the extended character matrix
and vanishes on the base's neighbourhood; the kernel of the neighbourhood
rows equals the row space of the extended complete-graph incidence matrix,
which collapses the candidate space to 2^n vectors.  The echelon form of
the collapsed matrix pins each candidate's coordinates to its entries on
the pivot rows, so candidates are exactly the 0/1 assignments x and the
scan is exhaustive, not heuristic.

The scan itself runs on a scaled integer copy of the echelon matrix in
int64 (entry bounds are checked); survivors are re-verified in exact
rational arithmetic before certification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import ratmat, spectral
from .graphs import (
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    as_bits,
    is_y_canonical,
    y_neighbours_bits,
    y_quotient,
    y_vertices,
)

PIPELINE_DIMS = (8, 12, 16)

_F1 = Fraction(1)
_FM1 = Fraction(-1)


def quotient_sign_matrix(n: int) -> ratmat.Matrix:
    """Rows: canonical quotient vertices ascending; columns: 2-subsets in
    lexicographic order; entry (-1)^(|A n p|).  Well defined on the
    quotient because the sign is complement-invariant for even |p|."""
    if n not in (4,) + PIPELINE_DIMS:
        raise ValueError("sign matrix materialized for n in {4, 8, 12, 16}")
    pairs = spectral.two_subset_masks(n)
    return [
        [_FM1 if (a & p).bit_count() & 1 else _F1 for p in pairs]
        for a in y_vertices(n)
    ]


def neighbourhood_rows(n: int, base: int = 0) -> ratmat.Matrix:
    """The sign-matrix rows of the base vertex's quotient neighbours, with
    the all-ones column appended."""
    if n not in (4,) + PIPELINE_DIMS:
        raise ValueError("neighbourhood rows materialized for n in {4, 8, 12, 16}")
    base = as_bits(base)
    _require_canonical(base, n)
    pairs = spectral.two_subset_masks(n)
    return [
        [_FM1 if (a & p).bit_count() & 1 else _F1 for p in pairs] + [_F1]
        for a in y_neighbours_bits(base, n)
    ]


def incidence_matrix(n: int) -> ratmat.Matrix:
    """Vertex-edge incidence of the complete graph on [n], columns in the
    same 2-subset order as the sign matrices."""
    pairs = spectral.two_subset_masks(n)
    return ratmat.from_rows(
        [[1 if p >> v & 1 else 0 for p in pairs] for v in range(n)]
    )


def _require_canonical(bits: int, n: int) -> None:
    if not is_y_canonical(VertexWord(bits, n)):
        raise ValueError(f"base 0x{bits:x} is not a canonical quotient vertex")


def _product_rows(n: int, base: int) -> ratmat.Matrix:
    """The collapsed matrix: extended sign matrix times transposed extended
    incidence matrix, one row per quotient vertex, one column per element
    of [n].

    Each entry is a +-1 dot product over the pairs containing one vertex,
    evaluated as (n-1) - 2*(popcount of masked sign bits), plus the
    all-ones contribution.  A shifted base permutes rows of the base-0
    matrix, which is how vertex-transitivity enters.
    """
    pairs = spectral.two_subset_masks(n)
    vert_colmask = spectral._vertex_column_masks(n, pairs)
    rows = []
    for a in y_vertices(n):
        r = a ^ base
        sm = spectral._sign_row_mask(r, pairs)
        rows.append(
            [
                Fraction(n - 2 * (sm & vert_colmask[v]).bit_count())
                for v in range(n)
            ]
        )
    return rows


@dataclass(frozen=True)
class KernelReduction:
    n: int
    base: VertexWord
    echelon: ratmat.EchelonResult
    incidence_rank: int
    neighbourhood_rank: int
    kernel_dim: int
    neighbourhood_product_zero: bool


def kernel_reduce(n: int, base: int = 0) -> KernelReduction:
    """Run the rank bookkeeping and produce the echelon matrix that drives
    enumeration.  Aborts if the echelon rank differs from n, since the
    0/1-pinning argument needs exactly n pivot rows."""
    if n not in PIPELINE_DIMS:
        raise ValueError("kernel reduction runs for n in {8, 12, 16}")
    base = as_bits(base)
    _require_canonical(base, n)
    pairs = spectral.two_subset_masks(n)
    npairs = len(pairs)

    inc_ext = [row + [_F1] for row in incidence_matrix(n)]
    incidence_rank = ratmat.rank(inc_ext)

    # rank of the neighbourhood rows via their Gram matrix; exact because
    # rank(A) == rank(A^T A) over the rationals
    neigh = y_neighbours_bits(base, n)
    colsign = spectral._column_sign_masks(neigh, pairs)
    colsign.append(0)  # the all-ones column
    rows = len(neigh)
    gram = ratmat.from_rows(
        [
            [rows - 2 * (ci ^ cj).bit_count() for cj in colsign]
            for ci in colsign
        ]
    )
    neighbourhood_rank = ratmat.rank(gram)
    kernel_dim = (npairs + 1) - neighbourhood_rank

    # the neighbourhood rows of the collapsed matrix must vanish
    product = _product_rows(n, base)
    order = y_vertices(n)
    pos = {w: k for k, w in enumerate(order)}
    product_zero = all(
        all(x == 0 for x in product[pos[a]]) for a in neigh
    )

    echelon = ratmat.rcef(product)
    if echelon.rank != n:
        raise RuntimeError(
            f"echelon rank {echelon.rank} != {n}; construction is broken"
        )
    return KernelReduction(
        n=n,
        base=VertexWord(base, n),
        echelon=echelon,
        incidence_rank=incidence_rank,
        neighbourhood_rank=neighbourhood_rank,
        kernel_dim=kernel_dim,
        neighbourhood_product_zero=product_zero,
    )


@dataclass(frozen=True)
class IndSetCertificate:
    kind: GraphKind
    vertices: tuple[VertexWord, ...]
    size: int
    contains_base: bool
    meets_ratio_bound: bool
    eigenspace_member: bool


@dataclass(frozen=True)
class SearchOutcome:
    n: int
    base: VertexWord
    candidates_total: int
    count_01_valued: int
    count_correct_weight: int
    count_independent: int
    count_containing_base: int
    certificates: tuple[IndSetCertificate, ...]


def check_independent(vertices: Sequence, kind: GraphKind) -> bool:
    """Pairwise non-adjacency scan; duplicates are an input error, not a
    False result."""
    n = kind.n
    bits = [as_bits(v) for v in vertices]
    if len(set(bits)) != len(bits):
        raise ValueError("duplicate vertices")
    for b in bits:
        if b >> n:
            raise ValueError(f"0x{b:x} out of range for n={n}")
        if kind.family is Family.Y:
            _require_canonical(b, n)
    for i, u in enumerate(bits):
        for v in bits[i + 1 :]:
            if adjacent_bits(u, v, n):
                return False
    return True


def certify_indset(kind: GraphKind, vertices: Sequence, base: int = 0) -> IndSetCertificate:
    """Build a certificate, verifying independence and recomputing the
    bound and eigenspace flags from scratch."""
    bits = sorted(as_bits(v) for v in vertices)
    if not check_independent(bits, kind):
        raise ValueError("set is not independent")
    size = len(bits)
    bound = spectral.ratio_bound(kind).bound
    return IndSetCertificate(
        kind=kind,
        vertices=tuple(VertexWord(b, kind.n) for b in bits),
        size=size,
        contains_base=as_bits(base) in set(bits),
        meets_ratio_bound=size == bound,
        eigenspace_member=spectral.equality_condition_check(kind, bits),
    )


def _scan_01_candidates(cint: np.ndarray, scale: int, lo: int, hi: int) -> list[int]:
    """All x in [lo, hi) for which every entry of (scaled echelon) * x is
    0 or the scale; processed in candidate chunks and vertex-row blocks
    with early abandonment of candidates that have already failed."""
    nbits = cint.shape[1]
    nrows = cint.shape[0]
    out: list[int] = []
    for c0 in range(lo, hi, 8192):
        c1 = min(c0 + 8192, hi)
        xs = np.arange(c0, c1, dtype=np.int64)
        bits = ((xs[None, :] >> np.arange(nbits, dtype=np.int64)[:, None]) & 1).astype(
            np.int64
        )
        alive = np.ones(xs.shape[0], dtype=bool)
        for r0 in range(0, nrows, 256):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            z = cint[r0 : r0 + 256] @ bits[:, idx]
            ok = ((z == 0) | (z == scale)).all(axis=0)
            alive[idx[~ok]] = False
        out.extend(int(x) for x in xs[alive])
    return out


def _echelon_candidates(n: int, base: int) -> list[list[int]]:
    """The vertex sets of the 0/1-valued candidates for n in {8, 12, 16}:
    an int64 scan of the scaled echelon matrix, then an exact rational
    re-check of every survivor."""
    cmat = kernel_reduce(n, base).echelon.matrix
    scale = ratmat.common_denominator(cmat)
    cint_rows = ratmat.int_rows(cmat, scale)
    # the int64 scan is exact only if no dot product can overflow
    if max(sum(map(abs, row)) for row in cint_rows) >= 2**62:
        raise ArithmeticError("echelon entries too large for an exact int64 scan")
    cint = np.array(cint_rows, dtype=np.int64)
    order = y_vertices(n)
    out = []
    for x in _scan_01_candidates(cint, scale, 0, 1 << n):
        z = ratmat.mat_vec(cmat, [Fraction(x >> j & 1) for j in range(n)])
        if any(e not in (0, 1) for e in z):
            raise ArithmeticError(f"scan kept candidate {x}, which is not 0/1-valued")
        out.append([order[i] for i, e in enumerate(z) if e == 1])
    return out


def _subset_candidates(n: int, base: int) -> list[list[int]]:
    """Dimension 4 degenerates: the quotient is a complete graph and the
    collapsed matrix loses rank, so candidates are the raw vertex subsets
    instead (there are again exactly 2^n of them); those avoiding the
    base's neighbourhood count as 0/1-valued."""
    _require_canonical(base, n)
    forbidden = set(y_neighbours_bits(base, n))
    allowed = [v for v in y_vertices(n) if v not in forbidden]
    return [
        [v for i, v in enumerate(allowed) if mask >> i & 1]
        for mask in range(1 << len(allowed))
    ]


def enumerate_candidates(
    n: int, base: int = 0, jobs: Optional[int] = None
) -> SearchOutcome:
    """Scan all 2^n candidate vectors and certify the survivors.

    `jobs` is accepted for compatibility and ignored: the scan runs in
    one thread.  An empty certificate list is a result, not a failure.
    """
    base = as_bits(base)
    if n == 4:
        survivors = _subset_candidates(n, base)
    elif n in PIPELINE_DIMS:
        survivors = _echelon_candidates(n, base)
    else:
        raise ValueError("enumeration supported for n in {4, 8, 12, 16}")
    kind = y_quotient(n)
    target = Fraction(1 << (n - 2), n)
    count_weight = 0
    count_indep = 0
    count_base = 0
    certs = []
    for members in survivors:
        if len(members) != target:
            continue
        count_weight += 1
        if not check_independent(members, kind):
            continue
        count_indep += 1
        cert = certify_indset(kind, members, base)
        if cert.contains_base:
            count_base += 1
        certs.append(cert)
    return SearchOutcome(
        n=n,
        base=VertexWord(base, n),
        candidates_total=1 << n,
        count_01_valued=len(survivors),
        count_correct_weight=count_weight,
        count_independent=count_indep,
        count_containing_base=count_base,
        certificates=tuple(certs),
    )


def exhaustive_tight_sets(n: int, base: int = 0) -> list[list[int]]:
    """Independent backtracking oracle: every bound-sized independent set
    of the quotient graph avoiding the base's neighbourhood, in
    lexicographic vertex order.  Exists to cross-check the echelon
    enumeration by a method that shares none of its machinery."""
    if n not in (4, 8):
        raise ValueError("backtracking oracle sized for n in {4, 8}")
    base = as_bits(base)
    _require_canonical(base, n)
    bound = Fraction(1 << (n - 2), n)
    if bound.denominator != 1:
        raise ArithmeticError(f"bound {bound} is not an integer")
    target = int(bound)
    forbidden = set(y_neighbours_bits(base, n))
    cand = [v for v in y_vertices(n) if v not in forbidden]
    k = len(cand)
    adj = [
        sum(
            1 << j
            for j in range(k)
            if j != i and adjacent_bits(cand[i], cand[j], n)
        )
        for i in range(k)
    ]
    out: list[list[int]] = []

    def extend(allowed: int, chosen: list[int], start: int) -> None:
        if len(chosen) == target:
            out.append([cand[i] for i in chosen])
            return
        for i in range(start, k):
            if not (allowed >> i) & 1:
                continue
            if len(chosen) + 1 + ((allowed >> (i + 1)).bit_count()) < target:
                break
            extend(allowed & ~adj[i], chosen + [i], i + 1)

    extend((1 << k) - 1, [], 0)
    return out
