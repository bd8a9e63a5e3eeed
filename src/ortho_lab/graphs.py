"""The orthogonality graph and its relatives, each as a connection set.

Vertices are n-bit words: bit i set means coordinate i+1 of the
corresponding sign vector is -1, equivalently element i+1 belongs to the
subset.  Sign multiplication is XOR, and each graph here is a Cayley
graph on it: `connection_set` lists its differences, and the neighbour
lists, the recursive graph's edge stream, the colouring checks and the
direct sign checks of ``spectral`` read that one list; the spectra read
``spectral.weight_row`` instead.  No adjacency matrix is ever built, and
every bit count is ``int.bit_count``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb
from typing import Iterator

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


# -- connection sets -----------------------------------------------------------

def double_word(x: int, r: int, n: int) -> int:
    """The 2n-bit word formed by x followed by the entrywise product of x and r."""
    return x | ((x ^ r) << n)


def connection_set(kind: GraphKind) -> list[int]:
    """The graph's differences, ascending: u ~ v iff u ^ v is a member.

    The full graph's are the words of weight n/2 (none for odd n), and
    the quotient's are those with bit 0 clear, which keep a canonical
    word canonical (4 | n makes their weight even).  The recursive
    graph's double from the empty S_1: with n = 2m, S_n holds
    double_word(d, 0, m) for d in S_m (an edge inside copy r) and
    double_word(z, m-bar, m) for every m-bit z (the complete join of
    copies r and r-bar)."""
    n = kind.n
    if n > 16:
        raise ValueError(f"connection sets are listed for n <= 16, got {n}")
    if kind.family is Family.PSI:
        s, m = [], 1
        while m < n:
            s = [double_word(d, 0, m) for d in s] + [
                double_word(z, full_mask(m), m) for z in range(1 << m)
            ]
            m *= 2
        return sorted(s)
    step = 2 if kind.family is Family.Y else 1
    return [d for d in range(0, 1 << n, step) if d.bit_count() == n // 2] if n % 2 == 0 else []


def neighbours(kind: GraphKind, base: int) -> list[int]:
    return sorted(base ^ d for d in connection_set(kind))


def psi_edges(n: int) -> Iterator[tuple[int, int]]:
    """Stream the edges (a, b), a < b, of the recursive graph on n-bit words."""
    s = connection_set(psi(n))
    yield from ((a, a ^ d) for a in range(1 << n) for d in s if a < a ^ d)


def psi_edge_count(n: int) -> int:
    """2^(n-1) |S_n| for n = 2^k, where |S_n| = |S_m| + 2^m sums 2^(2^j) over j < k."""
    k = n.bit_length() - 1
    if n < 1 or n != 1 << k:
        raise ValueError(f"the recursive graph needs n a power of two, at least 1; got {n}")
    return (1 << (n - 1)) * sum(1 << (1 << j) for j in range(k))


def omega_edge_count(n: int) -> int:
    return (1 << (n - 1)) * degree_of(n) if n % 2 == 0 else 0


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
