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
from itertools import combinations
from typing import Optional, Sequence

from . import search, spectral
from .graphs import (
    MAX_N,
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    full_mask,
    omega,
    y_canonical_bits,
    y_quotient,
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
    independence_method: str  # "pairwise_scan": the transform counts each adjacent pair
    maximal: bool
    maximality_witness: Optional[VertexWord]
    meets_ratio_bound: bool
    quadrupled_size: Optional[int] = None
    quadrupled_meets_bound: Optional[bool] = None


def segment_subsets(n: int) -> list[int]:
    """The qualifying subsets themselves (before quotient
    canonicalization): even size, at least half inside the segment."""
    if n not in (8, 16):
        raise ValueError("segment family defined for n in {8, 16}")
    seg = full_mask(n // 4 - 1)
    even = (w for w in range(1 << n) if not w.bit_count() & 1)
    return [w for w in even if 2 * (w & seg).bit_count() >= w.bit_count()]


def quotient_words(words: Sequence[int], n: int) -> list[int]:
    """The canonical quotient vertices of the words, once each, ascending."""
    return sorted({y_canonical_bits(w, n) for w in words})


def initial_segment_family(n: int) -> FamilyReport:
    raw = segment_subsets(n)
    canon = quotient_words(raw, n)
    kind = y_quotient(n)
    independent = search.check_independent(canon, kind)
    witness = spectral.first_addable(kind, canon)
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


def small_odd_words(n: int) -> list[int]:
    """The subsets of size below m = n/4 and of parity not m's, ascending."""
    m = n // 4
    singletons = [1 << i for i in range(n)]
    return sorted(
        sum(subset)
        for size in range(m)
        if (size - m) % 2
        for subset in combinations(singletons, size)
    )


def small_odd_family(n: int) -> FamilyReport:
    """All subsets of size below m = n/4 with size not congruent to m mod 2.
    Two members differ in at most 2(m-1) < n/2 places, so the family is
    independent (also read off the transform for n <= 16, the limit of
    ``spectral.indicator``) and its smallest non-member, 0 for even m and
    1 for odd m, is addable; that witness is rechecked against every
    member."""
    if n % 4 != 0 or not 8 <= n <= 24:
        raise ValueError("small-odd family defined for n in {8, 12, 16, 20, 24}")
    m = n // 4
    members = small_odd_words(n)
    kind = omega(n)
    if n <= 16:
        independent = search.check_independent(members, kind)
        method = "pairwise_scan"
    else:
        # |F xor G| <= |F| + |G| <= 2(m-1) < 2m = n/2
        independent = 2 * (m - 1) < n // 2
        method = "distance_cap"
    witness = m % 2
    if witness in members or any(adjacent_bits(witness, x, n) for x in members):
        raise ArithmeticError(f"closed-form witness 0x{witness:x} is not addable")
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
        maximal=False,
        maximality_witness=VertexWord(witness, n),
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
    exactly the odd subsets of size at most c.  For n in {8, 16}, m = c + 1
    is even, so these are the small-odd family's words."""
    c = n // 4 - 1
    seg = full_mask(c)
    image = {w ^ seg for w in segment_subsets(n)}
    target = set(small_odd_words(n))
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


def lift_members(members: Sequence[int], n: int) -> list[int]:
    """Expand quotient vertices to the full graph: both words of each
    pair, plus both translated by the first-coordinate flip (an odd word,
    so the translates land in the other parity component)."""
    mask = full_mask(n)
    out = set()
    for x in members:
        out.update((x, x ^ mask, x ^ 1, x ^ mask ^ 1))
    if len(out) != 4 * len(members):
        raise ValueError("lift collided; input was not a set of quotient vertices")
    return sorted(out)


def lift_to_omega(report: FamilyReport) -> search.IndSetCertificate:
    """Certify the 4x lift of a quotient family in the full graph."""
    if report.kind.family is not Family.Y:
        raise ValueError("only quotient families lift")
    lifted = lift_members([v.bits for v in report.members], report.n)
    return search.certify_indset(omega(report.n), lifted)


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
    if not 2 <= n <= MAX_N or n % 2:
        raise ValueError(f"even n in 2..{MAX_N} required")
    m, k = n, 0
    while m % 2 == 0:
        m //= 2
        k += 1
    doubling = 1 << (n - k)
    ratio = spectral.ratio_bound(omega(n)).bound if n % 4 == 0 else None
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
