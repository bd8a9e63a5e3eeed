"""The doubling clique, translate colourings, the recursive colouring,
and the chromatic verdict for every dimension up to 64.

A colouring is one colour in 0..palette_size-1 per word, in a tuple
indexed by the word, from emitter to verifier.  The group is sign
multiplication of +-1 words, i.e. XOR on bit words, so every full-graph
colouring that is not the recursive one is built the same way: the
translates of one independent set by a list of shift words, one colour
each.  The parity colouring shifts the even words by 0 and 1; n = 8
shifts a lifted tight set by the words of the doubling clique.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

from . import families, search, spectral
from .graphs import (
    Family,
    GraphKind,
    VertexWord,
    adjacent_bits,
    connection_set,
    double_word,
    full_mask,
    omega,
    psi,
    psi_edges,
    y_quotient,
)


def sylvester_clique(k: int) -> list[int]:
    """The n = 2^k pairwise orthogonal words of the doubling construction
    [[M, M], [M, -M]] from the single word of length 1, ascending; raises
    unless every pair of them is adjacent."""
    if not 0 <= k <= 6:
        raise ValueError("k must be in 0..6")
    words = [0]
    m = 1
    for _ in range(k):
        words = [double_word(w, r, m) for r in (0, full_mask(m)) for w in words]
        m *= 2
    words.sort()
    if not all(adjacent_bits(u, v, m) for i, u in enumerate(words) for v in words[i + 1 :]):
        raise AssertionError("doubling construction produced a non-clique")
    return words


@dataclass(frozen=True)
class ColouringCertificate:
    kind: GraphKind
    colour: tuple[int, ...]  # colour[w] is the colour of the word w
    palette_size: int

    def word_classes(self) -> list[list[int]]:
        """The words of each colour 0..palette_size-1, ascending."""
        classes: list[list[int]] = [[] for _ in range(self.palette_size)]
        for w, c in enumerate(self.colour):
            classes[c].append(w)
        return classes

    @property
    def classes(self) -> tuple[tuple[VertexWord, ...], ...]:
        """The colour classes as vertex words, for the acceptance tests."""
        n = self.kind.n
        return tuple(tuple(VertexWord(w, n) for w in c) for c in self.word_classes())


def verify_colouring(cert: ColouringCertificate) -> bool:
    """Recheck the colouring from scratch.  Only the graphs `colour`
    emits colourings of, the full graph and the recursive graph, are
    accepted, and the colours used must be exactly 0..palette_size-1.
    A graph is its connection set S, so the colouring is proper iff
    colour[u] != colour[u ^ d] for every word u and every d in S.  The
    recursive graph is checked by the doubling recursion instead, which
    at n = 16 is far cheaper than 278 * 2^16 translates."""
    kind = cert.kind
    n = kind.n
    colour = cert.colour
    if kind.family is Family.Y or len(colour) != 1 << n:
        return False
    # read off the set of used colours, so a forged palette size costs nothing
    used = set(colour)
    if (len(used), min(used), max(used)) != (cert.palette_size, 0, cert.palette_size - 1):
        return False
    if kind.family is Family.PSI:
        return _psi_proper(colour, n, list(psi_edges(min(n, 4))))
    return all(colour[u] != colour[u ^ d] for d in connection_set(kind) for u in range(1 << n))


def _psi_proper(colour: Sequence[int], n: int, base_edges: list[tuple[int, int]]) -> bool:
    """True iff no edge of the recursive graph on n-bit words joins two
    words of the same colour, where colour is indexed by word.

    With n = 2m, the word double_word(x, r, m) lies in copy r.  The edges
    are a copy of the dimension-m graph's edges inside every copy r, plus
    a complete join between copy r and copy r-bar for each even r, so the
    colouring is proper iff each such pair of copies uses disjoint colour
    sets and each copy's colouring is proper one level down.  The
    recursion bottoms out at n <= 4 on the streamed edges base_edges."""
    if n <= 4:
        return all(colour[u] != colour[v] for u, v in base_edges)
    m = n // 2
    mask = full_mask(m)
    copies = [
        [colour[double_word(x, r, m)] for x in range(1 << m)] for r in range(1 << m)
    ]
    return all(
        set(copies[r]).isdisjoint(copies[r ^ mask]) for r in range(0, 1 << m, 2)
    ) and all(_psi_proper(c, m, base_edges) for c in copies)


def normal_cayley_colouring(
    s_vertices: Sequence[int], shifts: Sequence[int], n: int
) -> ColouringCertificate:
    """Colour classes are the translates x ^ s of the independent set by
    the shift words s, coloured in the order of their least words.  The
    translates must partition the n-bit words, so sizes must multiply to
    the vertex count and no word may be coloured twice; the result is
    re-verified as a colouring of the full graph."""
    if len(s_vertices) * len(shifts) != 1 << n:
        raise ValueError("set size times shift count must equal the vertex count")
    translates = sorted(([x ^ s for x in s_vertices] for s in shifts), key=min)
    colour = [-1] * (1 << n)
    for ci, words in enumerate(translates):
        for w in words:
            if not 0 <= w < len(colour) or colour[w] >= 0:
                raise ValueError("translates overlap or leave the n-bit words")
            colour[w] = ci
    cert = ColouringCertificate(omega(n), tuple(colour), len(translates))
    if not verify_colouring(cert):
        raise AssertionError("translate classes failed re-verification")
    return cert


def psi_colouring(k: int) -> ColouringCertificate:
    """Recursive colouring of the 2^k-dimensional recursive graph with
    exactly n = 2^k colours, verified by the doubling check.  The two
    sides of a copy pair differ in the lsb of r and are completely
    joined, so each level gives them disjoint half-palettes: the colour
    of w is the XOR-linear map sum_{j<k} 2^j (w_0 xor w_{2^j}), which
    takes bit 0 to n - 1, bit 2^j to 2^j, and every other bit to 0.  The
    list is built by doubling over those bit images."""
    if not 0 <= k <= 4:
        raise ValueError("materialized colourings capped at k = 4")
    n = 1 << k
    colour = [0]
    for i in range(n):
        image = n - 1 if i == 0 else i if i & (i - 1) == 0 else 0
        colour += [c ^ image for c in colour]
    cert = ColouringCertificate(kind=psi(n), colour=tuple(colour), palette_size=n)
    if not verify_colouring(cert):
        raise AssertionError("recursive colouring failed the doubling check")
    return cert


def omega_colouring(n: int) -> ColouringCertificate:
    """A verified proper colouring of the full graph with the minimum
    palette, for the dimensions where one is constructed exactly.  Up to
    n = 4 the recursive graph is the whole graph, so its colouring is
    relabelled and rechecked against full-graph adjacency."""
    if n in (1, 2, 4):
        cert = replace(psi_colouring(n.bit_length() - 1), kind=omega(n))
        if not verify_colouring(cert):
            raise AssertionError("recursive classes failed full-graph check")
        return cert
    if n % 4 == 2:
        # distance n/2 is odd, so the even words are independent
        if n > 10:
            raise ValueError("materialized verification capped at n = 10")
        even = [w for w in range(1 << n) if not w.bit_count() & 1]
        return normal_cayley_colouring(even, [0, 1], n)
    if n == 8:
        members = families.quotient_words(families.segment_subsets(8), 8)
        return normal_cayley_colouring(families.lift_members(members, 8), sylvester_clique(3), 8)
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
        sylvester_clique(n.bit_length() - 1)  # raises unless pairwise orthogonal
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
        bound = spectral.ratio_bound(omega(n)).bound
        if bound.denominator == 1:
            raise AssertionError(f"the ratio bound {bound} does not rule out a {n}-colouring")
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
    outcome = search.enumerate_candidates(m)
    bound = spectral.ratio_bound(y_quotient(m)).bound
    # no set meets the ratio bound, so the quotient misses it by at least one
    quotient_alpha = bound - 1
    # two parity components, each covering the quotient twice (antipodal pairs)
    graph_alpha = 4 * quotient_alpha
    # pigeonhole: m colours on 2^m vertices leave some class this large
    class_size = (1 << m) // m
    if not (
        bound.denominator == 1
        and outcome.count_independent == 0
        and outcome.count_containing_base == 0
        and graph_alpha < class_size
    ):
        raise AssertionError(f"the dimension-{m} search does not rule out a {m}-colouring")
    chain.extend(
        (
            f"the dimension-{m} quotient search scanned all {outcome.candidates_total} kernel "
            f"candidates and certified {outcome.count_independent} independent sets of size {bound}",
            f"so the quotient's independence number is at most {quotient_alpha} "
            f"and the graph's is at most {graph_alpha}",
            f"a proper {m}-colouring of {1 << m} vertices would need a class of at least {class_size}",
            f"chromatic number exceeds {n}" if n == m else
            f"the dimension-{m} obstruction propagates back up: chromatic number exceeds {n}",
        )
    )
    return ChiStatusReport(n, Verdict.GREATER_THAN_N, tuple(chain), None)
