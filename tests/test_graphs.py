"""Vertex encoding, adjacency, connection sets, quotient maps, and
recursive-graph counts, against brute-force filters and the doubling
recursions the connection sets replaced."""

import random
from fractions import Fraction
from math import comb

import pytest

from ortho_lab import certificates, graphs
from ortho_lab.graphs import (
    Family,
    VertexWord,
    adjacent_bits,
    connection_set,
    double_word,
    full_mask,
    neighbours,
    omega,
    psi,
    y_quotient,
)


# --- vertex words -------------------------------------------------------------

def test_vertex_word_hex_round_trip():
    # the hex of a bare word, as colouring payloads write it
    assert certificates.word(0xAB, 8) == {"bits": "ab", "n": 8}
    assert certificates.word(5, 12) == {"bits": "005", "n": 12}


def test_vertex_word_rejects_out_of_range():
    with pytest.raises(ValueError):
        VertexWord(16, 4)
    with pytest.raises(ValueError):
        VertexWord(-1, 4)
    with pytest.raises(ValueError):
        VertexWord(0, 0)


def test_graph_kind_validation():
    with pytest.raises(ValueError):
        y_quotient(6)  # quotient needs 4 | n
    with pytest.raises(ValueError):
        psi(12)  # recursive graph needs a power of two
    assert omega(6).n == 6
    assert psi(16).family is Family.PSI


# --- adjacency ----------------------------------------------------------------

def test_odd_dimension_has_no_edges():
    for n in (3, 5, 7):
        words = range(1 << n)
        assert not any(
            adjacent_bits(u, v, n) for u in words for v in words if u < v
        )


def test_degree_matches_central_binomial():
    for n in (4, 6, 8):
        d = sum(1 for v in range(1 << n) if adjacent_bits(0, v, n))
        assert d == comb(n, n // 2)
        assert graphs.degree_of(n) == d


def test_adjacency_is_translation_invariant():
    rng = random.Random(7)
    n = 8
    for _ in range(200):
        u, v, t = (rng.randrange(1 << n) for _ in range(3))
        assert adjacent_bits(u, v, n) == adjacent_bits(u ^ t, v ^ t, n)


def test_bipartite_parity_has_no_intra_class_edge():
    n = 6
    evens = [w for w in range(1 << n) if w.bit_count() % 2 == 0]
    assert not any(
        adjacent_bits(u, v, n) for u in evens for v in evens if u < v
    )


# --- quotient canonicalization ------------------------------------------------

def test_y_canonical_picks_one_per_antipodal_pair():
    n = 8
    mask = (1 << n) - 1
    for w in range(1 << n):
        if w.bit_count() % 2:
            continue
        c = graphs.y_canonical_bits(w, n)
        assert c == graphs.y_canonical_bits(w ^ mask, n)
        assert c in (w, w ^ mask)
        assert c.bit_count() % 2 == 0 and not (c & 1)
    # the quotient is well defined: a word and its complement have the
    # same neighbours, so adjacency does not depend on the representative
    for w in range(1 << n):
        assert adjacent_bits(0, w, n) == adjacent_bits(0, w ^ mask, n)


def test_y_vertices_count_and_canonicity():
    for n in (4, 8, 12):
        vs = graphs.y_vertices(n)
        assert len(vs) == 1 << (n - 2)
        assert all(graphs.is_y_canonical(v, n) for v in vs)
        assert vs == sorted(vs)


def test_y_position_map_is_xor_linear():
    # a canonical word w sits at position w >> 2, and the canonical words
    # are closed under XOR, so positions are group coordinates
    for n in (4, 8, 12):
        vs = graphs.y_vertices(n)
        assert all(vs[w >> 2] == w for w in vs)
        words = set(vs)
        rng = random.Random(n)
        pairs = [(u, v) for u in vs for v in vs] if n < 12 else [
            (rng.choice(vs), rng.choice(vs)) for _ in range(2000)
        ]
        for u, v in pairs:
            assert u ^ v in words
            assert (u ^ v) >> 2 == (u >> 2) ^ (v >> 2)


# the filters these are derived from, kept as oracles

def y_vertices_by_filter(n):
    return [a for a in range(1 << n) if a.bit_count() % 2 == 0 and not (a & 1)]


def y_neighbours_by_filter(base, n):
    return sorted(
        graphs.y_canonical_bits(base ^ w, n)
        for w in range(1 << n)
        if w.bit_count() == n // 2 and not ((base ^ w) & 1)
    )


def test_omega_connection_set_is_the_filter():
    for n in range(1, 17):
        want = [w for w in range(1 << n) if adjacent_bits(0, w, n)]
        assert connection_set(omega(n)) == want
        assert len(want) == graphs.degree_of(n)


def test_y_vertices_match_the_filter():
    for n in (4, 8, 12, 16):
        assert graphs.y_vertices(n) == y_vertices_by_filter(n)


def test_y_neighbours_match_the_filter():
    rng = random.Random(16)
    for n, bases in (
        (8, graphs.y_vertices(8)),
        (12, rng.sample(graphs.y_vertices(12), 8)),
        (16, rng.sample(graphs.y_vertices(16), 3)),
    ):
        for base in bases:
            assert neighbours(y_quotient(n), base) == y_neighbours_by_filter(base, n)


def test_y_neighbours_are_canonical_and_counted():
    nb = neighbours(y_quotient(8), 0)
    assert len(nb) == 35
    assert all(graphs.is_y_canonical(b, 8) for b in nb)
    assert nb == sorted(nb)


def test_y_quotient_of_4_is_complete():
    vs = graphs.y_vertices(4)
    assert vs == [0, 6, 10, 12]
    assert all(
        adjacent_bits(u, v, 4)
        for u in vs
        for v in vs
        if u != v
    )


# --- recursive graph ----------------------------------------------------------

# the recursions the connection set replaced, kept as slow oracles

def psi_edges_by_recursion(n):
    """A copy of the dimension-m graph inside each copy r of the doubling
    partition, plus a complete join of copies r and r-bar."""
    if n == 1:
        return
    m = n // 2
    inner = list(psi_edges_by_recursion(m))
    for r in range(0, 1 << m, 2):  # one copy pair per {r, complement(r)}
        rc = r ^ full_mask(m)
        for u, v in inner:
            yield double_word(u, r, m), double_word(v, r, m)
            yield double_word(u, rc, m), double_word(v, rc, m)
        for x in range(1 << m):
            a = double_word(x, r, m)
            for y in range(1 << m):
                yield a, double_word(y, rc, m)


def psi_edge_count_by_recursion(n):
    if n == 1:
        return 0
    m = n // 2
    return (1 << (m - 1)) * (2 * psi_edge_count_by_recursion(m) + (1 << (2 * m)))


def test_psi_edges_match_brute_force_for_small_n():
    for n in (1, 2, 4):
        edges = list(graphs.psi_edges(n))
        assert len(edges) == graphs.psi_edge_count(n)
        assert len(edges) == len({tuple(sorted(e)) for e in edges})


def test_psi_edges_match_the_recursion():
    for n in (1, 2, 4, 8):
        edges = list(graphs.psi_edges(n))
        assert all(a < b for a, b in edges) and len(set(edges)) == len(edges)
        assert set(edges) == {tuple(sorted(e)) for e in psi_edges_by_recursion(n)}


def test_psi_edge_count_matches_the_recursion():
    for k in range(9):
        assert graphs.psi_edge_count(1 << k) == psi_edge_count_by_recursion(1 << k)


def test_psi_connection_set_sizes():
    sizes = [len(connection_set(psi(1 << k))) for k in range(5)]
    assert sizes == [0, 2, 6, 22, 278]
    for k, size in enumerate(sizes):
        assert (1 << ((1 << k) - 1)) * size == graphs.psi_edge_count(1 << k)
    for n in range(2, 17, 2):
        assert graphs.degree_of(n) == len(connection_set(omega(n)))


def test_psi_refuses_dimensions_that_are_not_powers_of_two():
    for n in (0, -4):
        with pytest.raises(ValueError, match="power of two, at least 1"):
            graphs.psi_edge_count(n)
        with pytest.raises(ValueError, match=r"dimension must be in 1\.\.64"):
            list(graphs.psi_edges(n))
    for n in (3, 12):
        with pytest.raises(ValueError, match="power of two"):
            graphs.psi_edge_count(n)
        with pytest.raises(ValueError, match="power of two"):
            list(graphs.psi_edges(n))


def test_connection_sets_are_listed_only_to_n_16():
    with pytest.raises(ValueError, match="n <= 16"):
        connection_set(omega(18))
    with pytest.raises(ValueError, match="n <= 16"):
        list(graphs.psi_edges(32))


def test_psi_edge_counts_frozen():
    assert [graphs.psi_edge_count(n) for n in (1, 2, 4, 8, 16)] == [
        0,
        4,
        48,
        2816,
        9109504,
    ]


def test_psi_edges_are_real_edges_at_n_4():
    # at n=4 the recursive construction reproduces the full graph exactly
    got = set(graphs.psi_edges(4))
    want = {
        (u, v)
        for u in range(16)
        for v in range(u + 1, 16)
        if adjacent_bits(u, v, 4)
    }
    assert got == want


def test_psi_stats_table():
    rows = graphs.psi_stats(6)
    assert [r.n for r in rows] == [2, 4, 8, 16, 32, 64]
    by_n = {r.n: r for r in rows}
    assert by_n[4].ratio == Fraction(1)
    assert by_n[8].ratio == Fraction(11, 35)
    assert by_n[16].ratio == Fraction(139, 6435)
    ratios = [r.ratio for r in rows if r.n >= 4]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_omega_edge_count_closed_form():
    for n in (2, 4, 6, 8):
        want = sum(
            1
            for u in range(1 << n)
            for v in range(u + 1, 1 << n)
            if adjacent_bits(u, v, n)
        )
        assert graphs.omega_edge_count(n) == want
