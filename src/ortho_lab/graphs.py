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
from typing import Iterator

import numpy as np

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


def adjacent_bits(a: int, b: int, n: int) -> bool:
    """Adjacency on raw words: Hamming distance exactly n/2 (false for odd n)."""
    return n % 2 == 0 and (a ^ b).bit_count() == n // 2


def popcounts(n: int) -> np.ndarray:
    """The popcount of every n-bit word, indexed by the word, by doubling."""
    c = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        c = np.concatenate((c, c + 1))
    return c


def half_weight_words(n: int) -> list[int]:
    """The words at distance n/2 from 0, ascending: the connection set of
    the full graph (empty for odd n).  Its even members are the
    quotient's connection set, the even word d at position d >> 2."""
    if n % 2:
        return []
    return np.flatnonzero(popcounts(n) == n // 2).tolist()


def degree_of(n: int) -> int:
    """Vertex degree: the number of words at distance n/2."""
    return comb(n, n // 2) if n % 2 == 0 else 0


def y_canonical_bits(bits: int, n: int) -> int:
    """Representative of the pair {x, complement(x)}: the member with bit 0 clear."""
    return bits if not (bits & 1) else bits ^ full_mask(n)


def is_y_canonical(bits: int, n: int) -> bool:
    return n % 4 == 0 and bits.bit_count() % 2 == 0 and not (bits & 1)


def y_vertices(n: int) -> list[int]:
    """All canonical quotient vertices for dimension n, ascending as integers.

    The canonical words (bit 0 clear, even weight) form an XOR subgroup of
    dimension n - 2, and w -> w >> 2 maps it bijectively onto the (n-2)-bit
    words: bits 0 and 1 are fixed by bit 0 being clear and by the parity of
    bits 2..n-1.  The map is XOR-linear, and since the dropped bits are
    determined by the kept ones it is also increasing, so a word's position
    in this list is w >> 2.  The list is thus in group order, and the
    quotient is a Cayley graph on these positions.  It is generated from
    that map: position i holds i << 2 with bit 1 set to the parity of i.
    """
    if n % 4 != 0:
        raise ValueError("quotient vertices need n divisible by 4")
    return [(i << 2) | (i.bit_count() & 1) << 1 for i in range(1 << (n - 2))]


def y_neighbours_bits(base: int, n: int) -> list[int]:
    """Neighbours of a canonical vertex, ascending.  A canonical word
    XOR an even connection word keeps bit 0 clear and even weight, so
    the even half-weight words are the quotient's differences."""
    return sorted(base ^ d for d in half_weight_words(n) if not d & 1)


# -- the doubling construction -------------------------------------------------

def double_word(x: int, r: int, n: int) -> int:
    """The 2n-bit word formed by x followed by the entrywise product of x and r."""
    return x | ((x ^ r) << n)


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
