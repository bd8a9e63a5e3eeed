"""Cliques, translate colourings, the recursive colouring, and the
chromatic verdict for every dimension up to 64.

The group is sign multiplication of +-1 words, i.e. XOR on bit words, so
translates of an independent set by the members of a clique are pairwise
disjoint, and when sizes multiply to the vertex count they partition it
into colour classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Sequence

from . import families, search, spectral
from .graphs import (
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    as_bits,
    full_mask,
    omega,
    psi,
    psi_edges,
)


@dataclass(frozen=True)
class CliqueCertificate:
    n: int
    vertices: tuple[VertexWord, ...]
    size: int


def verify_clique(cert: CliqueCertificate) -> bool:
    bits = [v.bits for v in cert.vertices]
    if len(set(bits)) != cert.size or cert.size != len(bits):
        return False
    if cert.size > cert.n:  # pairwise orthogonal words are linearly independent
        return False
    return all(
        adjacent_bits(u, v, cert.n)
        for i, u in enumerate(bits)
        for v in bits[i + 1 :]
    )


def sylvester_clique(k: int) -> CliqueCertificate:
    """n = 2^k pairwise orthogonal words from the doubling construction
    [[M, M], [M, -M]] starting at the single word of length 1."""
    if not 0 <= k <= 6:
        raise ValueError("k must be in 0..6")
    words = [0]
    m = 1
    for _ in range(k):
        mask = full_mask(m)
        words = [w | (w << m) for w in words] + [w | ((w ^ mask) << m) for w in words]
        m *= 2
    cert = CliqueCertificate(
        n=m, vertices=tuple(VertexWord(w, m) for w in sorted(words)), size=len(words)
    )
    if k >= 1 and not verify_clique(cert):
        raise AssertionError("doubling construction produced a non-clique")
    return cert


def translate_disjointness(s_vertices: Sequence, clique: CliqueCertificate) -> bool:
    """True iff the |clique| translates of the set are pairwise disjoint.
    The set must be independent; that is a precondition, not a result."""
    n = clique.n
    bits = [as_bits(v) for v in s_vertices]
    if not search.check_independent(bits, omega(n)):
        raise ValueError("translate test needs an independent set")
    base = set(bits)
    for i, a in enumerate(clique.vertices):
        for b in clique.vertices[i + 1 :]:
            shift = a.bits ^ b.bits
            if any((x ^ shift) in base for x in base):
                return False
    return True


@dataclass(frozen=True)
class ColouringCertificate:
    kind: GraphKind
    classes: tuple[tuple[VertexWord, ...], ...]
    palette_size: int


def verify_colouring(cert: ColouringCertificate) -> bool:
    """Recheck the partition and every class from scratch.  For the
    recursive graph the class check walks the materialized edge stream;
    otherwise each class gets a pairwise non-adjacency scan."""
    kind = cert.kind
    n = kind.n
    seen: set[int] = set()
    total = 0
    for cls in cert.classes:
        for v in cls:
            if v.n != n:
                return False
            seen.add(v.bits)
            total += 1
    if cert.palette_size != len(cert.classes):
        return False
    universe = spectral.vertex_order(kind)
    if total != len(universe) or seen != set(universe):
        return False
    if kind.family is Family.PSI:
        colour = {}
        for ci, cls in enumerate(cert.classes):
            for v in cls:
                colour[v.bits] = ci
        return all(colour[u] != colour[v] for u, v in psi_edges(n))
    return all(
        search.check_independent(cls, kind) for cls in cert.classes if cls
    )


def normal_cayley_colouring(
    s_vertices: Sequence, clique: CliqueCertificate
) -> ColouringCertificate:
    """Colour classes are the translates of the independent set by the
    clique members; sizes must multiply to the vertex count."""
    n = clique.n
    bits = sorted(as_bits(v) for v in s_vertices)
    if len(bits) * clique.size != 1 << n:
        raise ValueError("set size times clique size must equal the vertex count")
    if not translate_disjointness(bits, clique):
        raise ValueError("translates overlap")
    classes = []
    for c in clique.vertices:
        classes.append(tuple(sorted(VertexWord(x ^ c.bits, n) for x in bits)))
    classes.sort(key=lambda cls: cls[0].bits)
    cert = ColouringCertificate(
        kind=omega(n), classes=tuple(classes), palette_size=len(classes)
    )
    if not verify_colouring(cert):
        raise AssertionError("translate classes failed re-verification")
    return cert


def bipartite_colouring(n: int) -> ColouringCertificate:
    """Weight-parity 2-colouring; proper whenever the adjacency distance
    n/2 is odd, i.e. n = 2 mod 4."""
    if n % 4 != 2:
        raise ValueError("parity colouring needs n = 2 mod 4")
    if n > 10:
        raise ValueError("materialized verification capped at n = 10")
    evens = tuple(VertexWord(w, n) for w in range(1 << n) if w.bit_count() % 2 == 0)
    odds = tuple(VertexWord(w, n) for w in range(1 << n) if w.bit_count() % 2 == 1)
    cert = ColouringCertificate(kind=omega(n), classes=(evens, odds), palette_size=2)
    if not verify_colouring(cert):
        raise AssertionError("parity classes failed re-verification")
    return cert


def _psi_colour_map(n: int) -> tuple[dict[int, int], int]:
    if n == 1:
        return {0: 0, 1: 0}, 1
    m = n // 2
    inner, palette = _psi_colour_map(m)
    mask = full_mask(m)
    out = {}
    for w in range(1 << n):
        x = w & mask
        r = x ^ (w >> m)
        # the two sides of a copy pair differ in the lsb of r and are
        # completely joined, so they get disjoint half-palettes
        out[w] = inner[x] + (palette if r & 1 else 0)
    return out, 2 * palette


def psi_colouring(k: int) -> ColouringCertificate:
    """Recursive colouring of the 2^k-dimensional recursive graph with
    exactly 2^k colours, verified against its materialized edge stream.
    For 2^k <= 4 the recursive graph equals the full graph and the
    classes are additionally checked against full-graph adjacency."""
    if not 0 <= k <= 4:
        raise ValueError("materialized verification capped at k = 4")
    n = 1 << k
    cmap, palette = _psi_colour_map(n)
    classes = tuple(
        tuple(VertexWord(w, n) for w in sorted(ws))
        for ws in (
            [w for w in range(1 << n) if cmap[w] == c] for c in range(palette)
        )
    )
    cert = ColouringCertificate(kind=psi(n), classes=classes, palette_size=palette)
    if not verify_colouring(cert):
        raise AssertionError("recursive colouring failed edge verification")
    if n <= 4:
        for cls in classes:
            if not search.check_independent(cls, omega(n)):
                raise AssertionError("classes are not independent in the full graph")
    return cert


@lru_cache(maxsize=None)
def _cached_search(n: int) -> search.SearchOutcome:
    return search.enumerate_candidates(n)


def omega_colouring(n: int) -> ColouringCertificate:
    """A verified proper colouring of the full graph with the minimum
    palette, for the dimensions where one is constructed exactly."""
    if n == 1:
        cert = ColouringCertificate(
            kind=omega(1),
            classes=((VertexWord(0, 1), VertexWord(1, 1)),),
            palette_size=1,
        )
        if not verify_colouring(cert):
            raise AssertionError("single-class colouring failed re-verification")
        return cert
    if n % 4 == 2:
        return bipartite_colouring(n)
    if n == 4:
        inner = psi_colouring(2)
        cert = ColouringCertificate(
            kind=omega(4), classes=inner.classes, palette_size=inner.palette_size
        )
        if not verify_colouring(cert):
            raise AssertionError("recursive classes failed full-graph check")
        return cert
    if n == 8:
        outcome = _cached_search(8)
        first = outcome.certificates[0]  # deterministic: lowest candidate index
        lifted = families.lift_members([v.bits for v in first.vertices], 8)
        return normal_cayley_colouring(lifted, sylvester_clique(3))
    raise ValueError(f"no exact colouring construction for n={n}")


class Verdict(Enum):
    EQUALS_N = "equals_n"
    LESS_THAN_N = "less_than_n"
    GREATER_THAN_N = "greater_than_n"


@dataclass(frozen=True)
class ChiStatusReport:
    n: int
    verdict: Verdict
    chain: tuple[str, ...]
    colouring: Optional[ColouringCertificate]


def chi_status(n: int) -> ChiStatusReport:
    """Verdict on chromatic number versus dimension, with the reasoning
    chain spelled out and, where the answer is `equals`, a verified
    colouring attached."""
    if not 1 <= n <= 64:
        raise ValueError("dimension must be in 1..64")
    if n == 1:
        return ChiStatusReport(
            1,
            Verdict.EQUALS_N,
            (
                "two vertices and no edges: one colour is enough and one is needed",
                "chromatic number 1 equals n",
            ),
            omega_colouring(1),
        )
    if n % 2 == 1:
        return ChiStatusReport(
            n,
            Verdict.LESS_THAN_N,
            (
                "odd dimension: no two words sit at distance n/2, the graph is edgeless",
                "chromatic number 1 is below n",
            ),
            None,
        )
    if n == 2:
        return ChiStatusReport(
            2,
            Verdict.EQUALS_N,
            (
                "the graph is a 4-cycle: weight parity gives a proper 2-colouring",
                "an edge forces at least 2 colours; chromatic number 2 equals n",
            ),
            omega_colouring(2),
        )
    if n % 4 == 2:
        return ChiStatusReport(
            n,
            Verdict.LESS_THAN_N,
            (
                "distance n/2 is odd, so every edge crosses the weight-parity split",
                "the graph is bipartite with edges: chromatic number 2 is below n",
            ),
            None,
        )
    if n in (4, 8):
        return ChiStatusReport(
            n,
            Verdict.EQUALS_N,
            (
                f"{n} pairwise orthogonal words (doubling construction) force at least {n} colours",
                f"a verified proper {n}-colouring shows {n} colours suffice",
            ),
            omega_colouring(n),
        )
    if n & (n - 1):  # divisible by 4 but not a power of two
        bound = Fraction(1 << n, n)
        report = families.m2k_bound(n)
        return ChiStatusReport(
            n,
            Verdict.GREATER_THAN_N,
            (
                f"the ratio bound caps independent sets at 2^{n}/{n} = {bound}, which is not an integer",
                f"(the doubling chain alone gives 2^{n}/{1 << report.k}; the eigenvalue bound is better by the odd factor {report.m})",
                f"an n-colouring would need some class of at least 2^{n}/{n} vertices, impossible",
                f"chromatic number exceeds {n}",
            ),
            None,
        )
    # powers of two from 16 up: descend to the exhausted dimension-16 search
    chain = []
    m = n
    while m > 16:
        chain.append(
            f"an independent set of size 2^{m}/{m} at dimension {m} restricts, through "
            f"the doubling partition, to one of size 2^{m // 2}/{m // 2} at dimension {m // 2}"
        )
        m //= 2
    outcome = _cached_search(16)
    chain.extend(
        (
            f"the dimension-16 quotient search scanned all {outcome.candidates_total} kernel "
            f"candidates and certified {outcome.count_independent} independent sets of size 1024",
            "so the quotient's independence number is at most 1023 and the graph's is at most 4092",
            "a proper 16-colouring of 65536 vertices would need a class of at least 4096",
            f"chromatic number exceeds {n}" if n == 16 else
            f"the dimension-16 obstruction propagates back up: chromatic number exceeds {n}",
        )
    )
    return ChiStatusReport(n, Verdict.GREATER_THAN_N, tuple(chain), None)
