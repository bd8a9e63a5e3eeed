"""Implicit representation of the orthogonality graph and its relatives.

Vertices are n-bit words: bit i set means coordinate i+1 of the
corresponding sign vector is -1, equivalently element i+1 belongs to the
subset.  Adjacency never materializes a matrix; everything is popcount
arithmetic on words.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator, Optional

MAX_N = 64


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_N:
        raise ValueError(f"dimension must be in 1..{MAX_N}, got {n}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


@dataclass(frozen=True, order=True)
class VertexWord:
    """An n-bit word encoding a sign vector / subset of [n]."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError(f"bits 0x{self.bits:x} out of range for n={self.n}")

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def complement(self) -> "VertexWord":
        return VertexWord(self.bits ^ full_mask(self.n), self.n)

    def translate(self, other: "VertexWord") -> "VertexWord":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return VertexWord(self.bits ^ other.bits, self.n)

    def to_subset(self) -> tuple[int, ...]:
        """Elements of [n] (1-based) whose coordinate is -1."""
        return tuple(i + 1 for i in range(self.n) if (self.bits >> i) & 1)

    def hex(self) -> str:
        return format(self.bits, f"0{(self.n + 3) // 4}x")

    @classmethod
    def from_subset(cls, elems, n: int) -> "VertexWord":
        bits = 0
        for e in elems:
            if not 1 <= e <= n:
                raise ValueError(f"element {e} outside [{n}]")
            bits |= 1 << (e - 1)
        return cls(bits, n)

    @classmethod
    def from_hex(cls, s: str, n: int) -> "VertexWord":
        return cls(int(s, 16), n)


def as_bits(v) -> int:
    """The raw word of a vertex given as a VertexWord or as an int."""
    return v.bits if isinstance(v, VertexWord) else int(v)


class Family(Enum):
    OMEGA = "omega"
    Y = "y"
    PSI = "psi"


@dataclass(frozen=True)
class GraphKind:
    family: Family
    n: int

    def __post_init__(self) -> None:
        _check_n(self.n)
        if self.family is Family.Y and self.n % 4 != 0:
            raise ValueError("the quotient graph needs n divisible by 4")
        if self.family is Family.PSI and self.n & (self.n - 1):
            raise ValueError("the recursive graph is defined for n a power of two")


def omega(n: int) -> GraphKind:
    return GraphKind(Family.OMEGA, n)


def y_quotient(n: int) -> GraphKind:
    return GraphKind(Family.Y, n)


def psi(n: int) -> GraphKind:
    return GraphKind(Family.PSI, n)


class ParityClass(Enum):
    EDGELESS = "edgeless"
    BIPARTITE = "bipartite"
    TWO_ISOMORPHIC_COMPONENTS = "two_isomorphic_components"


@dataclass(frozen=True)
class GraphStats:
    n: int
    vertex_count: int
    edge_count: int
    degree: int
    parity_class: Optional[ParityClass]
    component_count: int


def orthogonal(u: VertexWord, v: VertexWord) -> bool:
    """True iff the sign vectors of u and v are orthogonal."""
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: {u.n} vs {v.n}")
    return adjacent_bits(u.bits, v.bits, u.n)


def adjacent_bits(a: int, b: int, n: int) -> bool:
    """Adjacency on raw words: Hamming distance exactly n/2 (false for odd n)."""
    return n % 2 == 0 and (a ^ b).bit_count() == n // 2


def degree_of(n: int) -> int:
    """Vertex degree: the number of words at distance n/2."""
    return comb(n, n // 2) if n % 2 == 0 else 0


def _connection_rank(n: int) -> int:
    # GF(2) rank of the span of the distance-n/2 words.  A small explicit
    # generating set suffices: the first-half-window word and all its
    # one-in/one-out swaps, whose pairwise sums produce every weight-2 word.
    if n % 2:
        return 0
    h = n // 2
    gens = [full_mask(h)]
    for i in range(h):
        for j in range(h, n):
            gens.append(gens[0] ^ (1 << i) ^ (1 << j))
    rank = 0
    basis: list[int] = []
    for g in gens:
        for b in basis:
            g = min(g, g ^ b)
        if g:
            basis.append(g)
            basis.sort(reverse=True)
            rank += 1
    return rank


def psi_degree(n: int) -> int:
    """Degree of the recursive graph: each doubling adds the complete join
    to the partner copy on top of the inner degree."""
    if n & (n - 1):
        raise ValueError("recursive graph needs n a power of two")
    return 0 if n == 1 else psi_degree(n // 2) + (1 << (n // 2))


def structure_report(kind: GraphKind) -> GraphStats:
    """Exact vertex/edge/degree counts and the parity classification."""
    n = kind.n
    if kind.family is Family.PSI:
        vc = 1 << n
        comps = vc if n == 1 else 1 << (n // 2 - 1)
        return GraphStats(n, vc, psi_edge_count(n), psi_degree(n), None, comps)
    if kind.family is Family.Y:
        deg = degree_of(n) // 2
        vc = 1 << (n - 2)
        return GraphStats(n, vc, vc * deg // 2, deg, None, 1)
    deg = degree_of(n)
    vc = 1 << n
    if n % 2 == 1:
        return GraphStats(n, vc, 0, 0, ParityClass.EDGELESS, vc)
    edges = (1 << (n - 1)) * deg
    components = vc >> _connection_rank(n)
    if components != (1 if n % 4 == 2 else 2):
        raise ArithmeticError(f"GF(2) rank gives {components} components for n={n}")
    if n % 4 == 2:
        return GraphStats(n, vc, edges, deg, ParityClass.BIPARTITE, 1)
    return GraphStats(n, vc, edges, deg, ParityClass.TWO_ISOMORPHIC_COMPONENTS, 2)


def y_canonical_bits(bits: int, n: int) -> int:
    """Representative of the pair {x, complement(x)}: the member with bit 0 clear."""
    return bits if not (bits & 1) else bits ^ full_mask(n)


def y_canonical(v: VertexWord) -> VertexWord:
    n = v.n
    if n % 4 != 0:
        raise ValueError("quotient vertices need n divisible by 4")
    if v.weight % 2 != 0:
        raise ValueError("quotient vertices have even weight")
    return VertexWord(y_canonical_bits(v.bits, n), n)


def is_y_canonical(v: VertexWord) -> bool:
    return v.n % 4 == 0 and v.weight % 2 == 0 and not (v.bits & 1)


def y_vertices(n: int) -> list[int]:
    """All canonical quotient vertices for dimension n, ascending as integers."""
    if n % 4 != 0:
        raise ValueError("quotient vertices need n divisible by 4")
    return [a for a in range(1 << n) if a.bit_count() % 2 == 0 and not (a & 1)]


def y_index_of(bits: int, n: int) -> int:
    """Coordinates of a canonical quotient vertex in the (n-2)-dimensional
    group: bits 1..n-2 of the word (the top bit is the parity of those)."""
    return (bits >> 1) & ((1 << (n - 2)) - 1)


def y_word_of_index(i: int, n: int) -> int:
    """Inverse of y_index_of; XOR-linear, so the quotient graph is a Cayley
    graph on the index group."""
    return (i << 1) | ((i.bit_count() & 1) << (n - 1))


def y_adjacent(u: VertexWord, v: VertexWord) -> bool:
    """Quotient adjacency; well defined because distance n/2 to one member of a
    pair implies distance n/2 to the other when 4 | n."""
    if u.n != v.n:
        raise ValueError(f"dimension mismatch: {u.n} vs {v.n}")
    if not (is_y_canonical(u) and is_y_canonical(v)):
        raise ValueError("quotient adjacency needs canonical vertices")
    return adjacent_bits(u.bits, v.bits, u.n)


def y_neighbours_bits(base: int, n: int) -> list[int]:
    """Canonical neighbours of a canonical vertex, ascending."""
    h = n // 2
    return sorted(
        y_canonical_bits(base ^ w, n)
        for w in range(1 << n)
        if w.bit_count() == h and not ((base ^ w) & 1)
    )


@dataclass(frozen=True)
class AntipodalReport:
    n: int
    ok: bool
    witness: Optional[tuple[int, int]]

    def __bool__(self) -> bool:
        return self.ok


def antipodal_structure_check(n: int) -> AntipodalReport:
    """Check that neighbourhoods are closed under negation and nothing is
    adjacent to its own negation.

    Adjacency depends only on the XOR of a pair, so scanning all difference
    words covers every vertex pair exactly once up to translation.
    """
    if not 1 <= n <= 16:
        raise ValueError("exhaustive check capped at n = 16")
    mask = full_mask(n)
    if adjacent_bits(0, mask, n):
        return AntipodalReport(n, False, (0, mask))
    for w in range(1 << n):
        if adjacent_bits(0, w, n) != adjacent_bits(0, w ^ mask, n):
            return AntipodalReport(n, False, (0, w))
    return AntipodalReport(n, True, None)


# -- the doubling construction -------------------------------------------------

def double_word(x: int, r: int, n: int) -> int:
    """The 2n-bit word formed by x followed by the entrywise product of x and r."""
    return x | ((x ^ r) << n)


@dataclass(frozen=True)
class DoubleCoverReport:
    n: int
    copies: int
    partition_ok: bool
    copies_isomorphic: bool
    joins_complete: bool

    def __bool__(self) -> bool:
        return self.partition_ok and self.copies_isomorphic and self.joins_complete


def double_cover_partition(n: int) -> DoubleCoverReport:
    """Verify that the doubled graph splits into 2^(n-1) joined copy pairs.

    (a) the images of x -> double_word(x, r) over all r partition the doubled
    vertex set; (b) each image induces a copy of the n-dimensional graph;
    (c) the images for r and its complement are completely joined.
    """
    if 2 * n > 16:
        raise ValueError("exhaustive check capped at doubled dimension 16")
    n2 = 2 * n
    h2 = n2 // 2
    seen = bytearray(1 << n2)
    for r in range(1 << n):
        for x in range(1 << n):
            w = double_word(x, r, n)
            if seen[w]:
                return DoubleCoverReport(n, 0, False, False, False)
            seen[w] = 1
    partition_ok = all(seen)
    # Induced adjacency inside a copy depends only on the difference word:
    # double_word(x, r) ^ double_word(y, r) == d | (d << n) with d = x ^ y.
    copies_ok = True
    for d in range(1 << n):
        doubled = d | (d << n)
        if (doubled.bit_count() == h2) != adjacent_bits(d, 0, n):
            copies_ok = False
            break
    # Cross pairs between copy r and copy ~r differ by d | (~d << n),
    # which always has weight n.
    joins_ok = True
    mask = full_mask(n)
    for d in range(1 << n):
        cross = d | ((d ^ mask) << n)
        if cross.bit_count() != h2:
            joins_ok = False
            break
    return DoubleCoverReport(n, 1 << (n - 1), partition_ok, copies_ok, joins_ok)


# -- the recursive spanning subgraph -------------------------------------------

def psi_edge_count(n: int) -> int:
    """Edge count of the recursive graph: each doubling contributes, per copy
    pair, two recursive halves plus a complete join."""
    if n & (n - 1):
        raise ValueError("recursive graph needs n a power of two")
    if n == 1:
        return 0
    m = n // 2
    return (1 << (m - 1)) * (2 * psi_edge_count(m) + (1 << (2 * m)))


def omega_edge_count(n: int) -> int:
    return (1 << (n - 1)) * degree_of(n) if n % 2 == 0 else 0


def psi_edges(n: int) -> Iterator[tuple[int, int]]:
    """Stream the edges of the recursive graph on n-bit words, n a power of two."""
    if n & (n - 1):
        raise ValueError("recursive graph needs n a power of two")
    if n == 1:
        return
    m = n // 2
    inner = list(psi_edges(m))
    for r in range(1 << m):
        if r & 1:
            continue  # one copy pair per {r, complement(r)}
        rc = r ^ full_mask(m)
        for u, v in inner:
            yield double_word(u, r, m), double_word(v, r, m)
            yield double_word(u, rc, m), double_word(v, rc, m)
        for x in range(1 << m):
            a = double_word(x, r, m)
            for y in range(1 << m):
                yield a, double_word(y, rc, m)


@dataclass(frozen=True)
class PsiRow:
    n: int
    vertex_count: int
    psi_edges: int
    omega_edges: int
    ratio: Fraction


def psi_stats(k: int) -> list[PsiRow]:
    """Edge counts of the recursive graph against the full graph for n = 2^j,
    j = 1..k, with exact ratios."""
    if not 1 <= k <= 8:
        raise ValueError("k must be in 1..8")
    rows = []
    for j in range(1, k + 1):
        n = 1 << j
        pe = psi_edge_count(n)
        oe = omega_edge_count(n)
        rows.append(PsiRow(n, 1 << n, pe, oe, Fraction(pe, oe)))
    return rows
