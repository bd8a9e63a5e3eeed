"""Explicit independent-set families, the transform linking them, lifts
from the quotient to the full graph, and the doubling-chain bound.

Two families: the initial-segment family lives in the quotient graph and
is defined by an intersection condition against the first c coordinates
(c = n/4 - 1); the small-odd family lives in the full graph and consists
of all subsets smaller than n/4 whose size has the opposite parity.
"[c] means the first c elements" is a choice; any fixed c-set gives an
equivalent family under coordinate permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from . import search, spectral
from .graphs import (
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    as_bits,
    full_mask,
    omega,
    y_canonical_bits,
    y_quotient,
    y_vertices,
)


class FamilyName(Enum):
    INITIAL_SEGMENT = "initial_segment"
    SMALL_ODD = "small_odd"


@dataclass(frozen=True)
class FamilyReport:
    family: FamilyName
    kind: GraphKind
    n: int
    parameter: int
    members: tuple[VertexWord, ...]
    raw_count: int
    size: int
    independent: bool
    independence_method: str
    maximal: bool
    maximality_witness: Optional[VertexWord]
    meets_ratio_bound: bool
    quadrupled_size: Optional[int] = None
    quadrupled_meets_bound: Optional[bool] = None


def _find_addable(members: Sequence[int], universe: Sequence[int], n: int):
    """First vertex outside the set adjacent to none of its members, or
    None if the set is maximal.  A witness certifies non-maximality; the
    maximal verdict requires the full scan."""
    mset = set(members)
    for w in universe:
        if w in mset:
            continue
        if not any(adjacent_bits(w, x, n) for x in members):
            return w
    return None


def segment_subsets(n: int) -> list[int]:
    """The qualifying subsets themselves (before quotient
    canonicalization): even size, at least half inside the segment."""
    if n not in (8, 16):
        raise ValueError("segment family defined for n in {8, 16}")
    c = n // 4 - 1
    seg = full_mask(c)
    out = []
    for w in range(1 << n):
        total = w.bit_count()
        if total % 2:
            continue
        inside = (w & seg).bit_count()
        if inside >= total - inside:
            out.append(w)
    return out


def initial_segment_family(n: int) -> FamilyReport:
    raw = segment_subsets(n)
    canon = sorted({y_canonical_bits(w, n) for w in raw})
    kind = y_quotient(n)
    independent = search.check_independent(canon, kind)
    witness = _find_addable(canon, y_vertices(n), n)
    bound = spectral.ratio_bound(kind).bound
    return FamilyReport(
        family=FamilyName.INITIAL_SEGMENT,
        kind=kind,
        n=n,
        parameter=n // 4 - 1,
        members=tuple(VertexWord(b, n) for b in canon),
        raw_count=len(raw),
        size=len(canon),
        independent=independent,
        independence_method="pairwise_scan",
        maximal=witness is None,
        maximality_witness=None if witness is None else VertexWord(witness, n),
        meets_ratio_bound=len(canon) == bound,
    )


def small_odd_family(n: int) -> FamilyReport:
    """All subsets of size below n/4 with size not congruent to n/4 mod 2.
    Any two members differ in fewer than n/2 places, so independence in
    the full graph is forced; it is still scanned where that is cheap."""
    if n % 4 != 0 or not 8 <= n <= 24:
        raise ValueError("small-odd family defined for n in {8, 12, 16, 20, 24}")
    m = n // 4
    sizes = [j for j in range(m) if (j - m) % 2]
    members = [w for w in range(1 << n) if w.bit_count() in sizes]
    kind = omega(n)
    if len(members) <= 2000:
        independent = search.check_independent(members, kind)
        method = "pairwise_scan"
    else:
        # |F xor G| <= |F| + |G| <= 2(m-1) < 2m = n/2
        independent = 2 * (m - 1) < n // 2
        method = "distance_cap"
    witness = _find_addable(members, range(1 << n), n)
    bound = spectral.ratio_bound(kind).bound
    return FamilyReport(
        family=FamilyName.SMALL_ODD,
        kind=kind,
        n=n,
        parameter=m,
        members=tuple(VertexWord(b, n) for b in members),
        raw_count=len(members),
        size=len(members),
        independent=independent,
        independence_method=method,
        maximal=witness is None,
        maximality_witness=None if witness is None else VertexWord(witness, n),
        meets_ratio_bound=len(members) == bound,
        quadrupled_size=4 * len(members),
        quadrupled_meets_bound=4 * len(members) == bound,
    )


@dataclass(frozen=True)
class SymdiffReport:
    n: int
    parameter: int
    image_size: int
    target_size: int
    ok: bool
    witness: Optional[VertexWord]


def symdiff_transform_check(n: int) -> SymdiffReport:
    """XOR every qualifying subset with the segment: the image must be
    exactly the odd subsets of size at most c."""
    if n not in (8, 16):
        raise ValueError("transform check defined for n in {8, 16}")
    c = n // 4 - 1
    seg = full_mask(c)
    image = {w ^ seg for w in segment_subsets(n)}
    target = {
        w
        for w in range(1 << n)
        if w.bit_count() % 2 == 1 and w.bit_count() <= c
    }
    witness = None
    if image != target:
        witness = min(image.symmetric_difference(target))
    return SymdiffReport(
        n=n,
        parameter=c,
        image_size=len(image),
        target_size=len(target),
        ok=image == target,
        witness=None if witness is None else VertexWord(witness, n),
    )


def lift_members(members: Sequence, n: int) -> list[int]:
    """Expand quotient vertices to the full graph: both words of each
    pair, plus both translated by the first-coordinate flip (an odd word,
    so the translates land in the other parity component)."""
    mask = full_mask(n)
    mlist = [as_bits(v) for v in members]
    out = set()
    for x in mlist:
        out.update((x, x ^ mask, x ^ 1, x ^ mask ^ 1))
    if len(out) != 4 * len(mlist):
        raise ValueError("lift collided; input was not a set of quotient vertices")
    return sorted(out)


def lift_to_omega(source, n: Optional[int] = None) -> search.IndSetCertificate:
    """Certify the 4x lift of a quotient independent set in the full
    graph.  Accepts a family report, a quotient certificate, or a bare
    member list (then n is required)."""
    if isinstance(source, FamilyReport):
        if source.kind.family is not Family.Y:
            raise ValueError("only quotient families lift")
        members, n = source.members, source.n
    elif isinstance(source, search.IndSetCertificate):
        if source.kind.family is not Family.Y:
            raise ValueError("only quotient certificates lift")
        members, n = source.vertices, source.kind.n
    else:
        if n is None:
            raise ValueError("n required for a bare member list")
        members = list(source)
    lifted = lift_members(members, n)
    return search.certify_indset(omega(n), lifted)


@dataclass(frozen=True)
class DoublingBoundReport:
    n: int
    m: int
    k: int
    doubling_bound: int
    ratio_bound: Optional[Fraction]
    factor: Optional[int]
    tight_bipartite: bool


def m2k_bound(n: int) -> DoublingBoundReport:
    """Write n = m * 2^k with m odd; repeated halving bounds independence
    by 2^n/2^k.  When 4 | n the eigenvalue bound 2^n/n is better by
    exactly the odd factor m; when k = 1 the doubling bound is tight
    because the graph is bipartite."""
    if n < 2 or n % 2:
        raise ValueError("even n required")
    m, k = n, 0
    while m % 2 == 0:
        m //= 2
        k += 1
    doubling = 1 << (n - k)
    ratio = Fraction(1 << n, n) if n % 4 == 0 else None
    factor = None if ratio is None else int(doubling / ratio)
    return DoublingBoundReport(
        n=n,
        m=m,
        k=k,
        doubling_bound=doubling,
        ratio_bound=ratio,
        factor=factor,
        tight_bipartite=k == 1,
    )
