"""Kernel-reduction search for tight independent sets in the quotient graph.

The characteristic vector of a bound-attaining independent set containing
the base vertex lies in the column space of the extended character matrix
and vanishes on the base's neighbourhood; the kernel of the neighbourhood
rows equals the row space of the extended complete-graph incidence matrix,
which collapses the candidate space to 2^n vectors.  Any n independent
rows of the collapsed matrix pin each candidate's coordinates to its
entries on them, so candidates are exactly the 0/1 assignments x and the
scan is exhaustive, not heuristic.

The collapsed matrix comes from the 0/1 sign table of
``spectral._sign_row_mask``, built in one numpy step.  The rank
ledger reads the neighbourhood rank off the Gram spectrum that
``spectral.neighbourhood_gram_spectrum`` checks (a lower bound), and the
incidence rows that the product check puts in the kernel give the upper
bound.  Both eliminations on this path (the incidence rank inside the
spectrum, the echelon form) guess their pivots mod a prime and prove
them exactly.  The echelon form is that of the base's distance-2 layer,
the 1 + C(n, 2) rows of the words within two bits of the base or its
complement, ordered by offset from the base: the same sparse matrix for
every base, of rank n.  The int64 scan sets x a bit at a time and checks
each layer row once its last nonzero column is set.  The layer only
prunes: survivors are re-checked exactly on its form, then read on every
row through its pivot block's checked inverse, and kept if 0/1 there.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Optional, Sequence

from . import ratmat, spectral
from .graphs import (
    GraphKind,
    VertexWord,
    adjacent_bits,
    is_y_canonical,
    neighbours,
    y_canonical_bits,
    y_quotient,
    y_vertices,
)

if TYPE_CHECKING:
    import numpy as np

PIPELINE_DIMS = (8, 12, 16)


def _require_canonical(bits: int, n: int) -> None:
    if not (0 <= bits < 1 << n and is_y_canonical(bits, n)):
        raise ValueError(f"base 0x{bits:x} is not a canonical quotient vertex")


def _product_rows(n: int, base: int) -> np.ndarray:
    """The collapsed matrix in int64: extended sign matrix times transposed
    extended incidence matrix, one row per quotient vertex (row w >> 2 for
    the word w, see ``y_vertices``), one column per element of [n].

    Row a is the sign-table row of a ^ base summed over the pairs
    containing each vertex, plus the all-ones contribution.  A shifted
    base permutes rows of the base-0 matrix, which is how
    vertex-transitivity enters.
    """
    table = spectral._sign_row_mask([a ^ base for a in y_vertices(n)], n)
    return spectral._sign_incidence_product(table, n) + 1


@dataclass(frozen=True)
class KernelReduction:
    n: int
    base: VertexWord
    product: np.ndarray  # _product_rows
    layer: np.ndarray  # the product rows rcef ran on, in its order
    echelon: ratmat.EchelonResult
    incidence_rank: int
    neighbourhood_rank: int
    kernel_dim: int
    neighbourhood_product_zero: bool


def kernel_reduce(n: int, base: int = 0) -> KernelReduction:
    """Run the rank bookkeeping and produce the layer's echelon matrix that
    drives enumeration.  Aborts unless the ledger closes (the checked Gram
    spectrum gives incidence rank n and a neighbourhood kernel of the same
    dimension, and the neighbourhood rows of the product vanish, so the
    kernel is exactly the incidence row space) and the echelon rank is n,
    since the 0/1-pinning argument needs exactly n pivot rows."""
    import numpy as np

    if n not in PIPELINE_DIMS:
        raise ValueError("kernel reduction runs for n in {8, 12, 16}")
    _require_canonical(base, n)
    npairs = comb(n, 2)

    # The neighbourhood rank is that of A_ext, the neighbourhood sign rows
    # A plus an all-ones column, in the base-shifted frame the product
    # uses: its rows at neigh >> 2 are the sign rows of
    # connection_set(y_quotient(n)).  Complementing a word keeps its
    # parity on every pair, so those rows are exactly Omega's, and
    # rank(A_ext) >= rank A = rank G for the Gram matrix G the spectrum
    # checks: the sum of its nonzero multiplicities.  Once product_zero
    # (below) holds, the extended incidence rows lie in A_ext's kernel,
    # so rank(A_ext) <= (npairs + 1) - r for r = rank B = 1 + (the
    # multiplicity of 0).  The ledger demands that the bounds meet.
    spectrum = spectral.neighbourhood_gram_spectrum(n)
    mults = list(zip(spectrum.eigenvalues, spectrum.multiplicities))
    neighbourhood_rank = sum(m for lam, m in mults if lam)
    incidence_rank = 1 + sum(m for lam, m in mults if not lam)
    kernel_dim = (npairs + 1) - neighbourhood_rank

    # the neighbourhood rows of the collapsed matrix must vanish
    neigh = neighbours(y_quotient(n), base)
    product = _product_rows(n, base)
    product_zero = not product[np.array(neigh) >> 2].any()
    if not (
        spectrum.ok and incidence_rank == n and kernel_dim == incidence_rank and product_zero
    ):
        raise ArithmeticError(
            f"rank ledger does not close: Gram spectrum checked {spectrum.ok}, "
            f"incidence rank {incidence_rank}, kernel dimension {kernel_dim}, "
            f"neighbourhood product zero {product_zero}"
        )

    # the rows at u ^ base for u within two bits of 0 or of 1...1, ascending
    near = sorted(y_canonical_bits(1 << i | 1 << j, n) for i, j in combinations(range(n), 2))
    layer = (np.array([0, *near]) ^ base) >> 2
    echelon = ratmat.rcef(product[layer].tolist())
    if echelon.rank != n:
        raise RuntimeError(
            f"echelon rank {echelon.rank} != {n}; construction is broken"
        )
    return KernelReduction(
        n=n,
        base=VertexWord(base, n),
        product=product,
        layer=layer,
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


def check_independent(vertices: Sequence[int], kind: GraphKind) -> bool:
    """Independence read off the Walsh spectrum: with z the set's
    indicator and lambda the adjacency spectrum, sum_k lambda_k zhat_k^2
    = v z^T A z is 2v times the number of edges inside the set.
    Duplicates and non-vertices are input errors, not a False result."""
    z_hat = spectral.wht(spectral.indicator(kind, vertices))
    lam = spectral.adjacency_spectrum(kind)
    return not ratmat._dot(lam[None, :], (z_hat * z_hat)[:, None]).any()


def certify_indset(kind: GraphKind, vertices: Sequence[int], base: int = 0) -> IndSetCertificate:
    """Build a certificate, verifying independence and recomputing the
    bound and eigenspace flags from scratch."""
    bits = sorted(vertices)
    if not check_independent(bits, kind):
        raise ValueError("set is not independent")
    size = len(bits)
    bound = spectral.ratio_bound(kind).bound
    return IndSetCertificate(
        kind=kind,
        vertices=tuple(VertexWord(b, kind.n) for b in bits),
        size=size,
        contains_base=base in bits,
        meets_ratio_bound=size == bound,
        eigenspace_member=spectral.equality_condition_check(kind, bits),
    )


def _scan_01_candidates(cint: np.ndarray, scale: int) -> list[int]:
    """All x below 2^columns, ascending, for which every entry of (scaled
    echelon) * x is 0 or the scale.  Bit k of x is set at level k, and the
    rows whose last nonzero entry is in column k are checked there, in
    blocks of 16 rows on the partial x that passed every earlier row; an
    all-zero row holds for every x."""
    import numpy as np

    nbits = cint.shape[1]
    nonzero = cint != 0
    last = np.where(nonzero.any(axis=1), nbits - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    xs = np.zeros(1, dtype=np.int64)
    for k in range(nbits):
        xs = np.concatenate([xs, xs | 1 << k])
        level = cint[last == k, : k + 1]
        for r0 in range(0, len(level), 16):
            z = level[r0 : r0 + 16] @ (xs >> np.arange(k + 1)[:, None] & 1)
            xs = xs[((z == 0) | (z == scale)).all(axis=0)]
    return xs.tolist()


def _echelon_candidates(n: int, base: int) -> list[list[int]]:
    """The vertex sets of the 0/1-valued candidates for n in {8, 12, 16}:
    an int64 scan of the layer's scaled echelon matrix C, once C has been
    checked against the layer rows it came from, an exact re-check of
    every survivor on C, then an exact reading of each on every product
    row through the checked inverse of the layer's pivot block."""
    import numpy as np

    red = kernel_reduce(n, base)
    ech = red.echelon
    scale = ech.scale
    # rcef returns int64: only a substituted result can raise OverflowError here
    cint = ech.matrix.astype(np.int64, copy=False)
    # every candidate is a 0/1 vector, so no partial sum of the scan's dot
    # products exceeds n times the largest entry
    ratmat._int64(ratmat._absmax(cint) * n)
    if not ratmat._echelon_identity(cint, scale, ech.pivot_rows, red.product[red.layer]):
        raise ArithmeticError("echelon matrix fails its check against the layer rows")
    xs = _scan_01_candidates(cint, scale)
    for x in xs:
        z = ratmat.mat_vec(cint, x >> np.arange(n) & 1)
        if any(e not in (0, scale) for e in z):
            raise ArithmeticError(f"scan kept candidate {x}, which is not 0/1-valued")
    # B @ inverse == d * I makes P[:, columns] @ inverse @ x / d the
    # candidate with values x on the layer's pivot rows
    product = red.product[:, ech.columns]
    check = ratmat._dot(product[red.layer[ech.pivot_rows]], ech.inverse)
    d = int(check[0, 0])
    if not (d and np.array_equal(check, d * np.eye(n, dtype=np.int64))):
        raise ArithmeticError("pivot block inverse fails its exact check")
    bits = np.array(xs, dtype=np.int64) >> np.arange(n)[:, None] & 1
    z = ratmat._dot(product, ratmat._dot(ech.inverse, bits))
    ones = (z == d)[:, ((z == 0) | (z == d)).all(axis=0)]
    # ascending x on the layer's lex-first pivot rows in row order (at
    # n = 8 the whole product's); these mod-p pivots only order the output
    rows = np.sort(red.layer)
    first = rows[ratmat._minor(red.product[rows])[0]]
    order = y_vertices(n)
    survivors = sorted(ones.T, key=lambda col: sum(int(col[r]) << k for k, r in enumerate(first)))
    return [[order[i] for i in np.flatnonzero(col)] for col in survivors]


def _subset_candidates(n: int, base: int) -> list[list[int]]:
    """Dimension 4 degenerates: the quotient is a complete graph and the
    collapsed matrix loses rank, so candidates are the raw subsets of the
    n quotient vertices instead (there are again exactly 2^n of them);
    those avoiding the base's neighbourhood count as 0/1-valued."""
    _require_canonical(base, n)
    forbidden = set(neighbours(y_quotient(n), base))
    vertices = y_vertices(n)
    subsets = (
        [v for i, v in enumerate(vertices) if mask >> i & 1] for mask in range(1 << len(vertices))
    )
    return [s for s in subsets if forbidden.isdisjoint(s)]


def enumerate_candidates(
    n: int, base: int = 0, jobs: Optional[int] = None
) -> SearchOutcome:
    """Scan all 2^n candidate vectors and certify the survivors.

    `jobs` is accepted for compatibility and ignored: the scan runs in
    one thread.  An empty certificate list is a result, not a failure.
    """
    if n == 4:
        survivors = _subset_candidates(n, base)
    elif n in PIPELINE_DIMS:
        survivors = _echelon_candidates(n, base)
    else:
        raise ValueError("enumeration supported for n in {4, 8, 12, 16}")
    kind = y_quotient(n)
    target = spectral.ratio_bound(kind).bound
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
    _require_canonical(base, n)
    bound = spectral.ratio_bound(y_quotient(n)).bound
    if bound.denominator != 1:
        raise ArithmeticError(f"bound {bound} is not an integer")
    target = int(bound)
    forbidden = set(neighbours(y_quotient(n), base))
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
