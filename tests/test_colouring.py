"""Cliques, translate colourings, and the chromatic-number verdicts."""

import dataclasses
import functools
import random
from fractions import Fraction

import pytest

from ortho_lab import colouring, families, ratmat, search, spectral
from ortho_lab.colouring import Verdict
from ortho_lab.graphs import (
    adjacent_bits,
    double_word,
    full_mask,
    omega,
    psi,
    psi_edges,
)


# --- the doubling clique ------------------------------------------------------

def test_sylvester_cliques_through_k6():
    for k in range(7):
        n = 1 << k
        words = colouring.sylvester_clique(k)
        assert len(words) == n and words == sorted(set(words))
        assert all(0 <= w < 1 << n for w in words)
        assert all(adjacent_bits(u, v, n) for i, u in enumerate(words) for v in words[i + 1 :])
    with pytest.raises(ValueError):
        colouring.sylvester_clique(7)


# --- colourings ---------------------------------------------------------------

def test_normal_cayley_colouring_n8():
    # the search's first n = 8 tight set is the initial-segment family, so
    # the colouring built from the family is the one the search gave
    first = search.enumerate_candidates(8).certificates[0]
    members = [v.bits for v in families.initial_segment_family(8).members]
    assert [v.bits for v in first.vertices] == members == [0, 126, 190, 222, 238, 246, 250, 252]
    lifted = families.lift_members(members, 8)
    cert = colouring.normal_cayley_colouring(lifted, colouring.sylvester_clique(3), 8)
    assert cert.palette_size == 8
    assert all(cert.colour.count(c) == 32 for c in range(8))
    assert colouring.verify_colouring(cert)
    assert cert == colouring.omega_colouring(8)


def test_normal_cayley_colouring_size_mismatch():
    with pytest.raises(ValueError, match="vertex count"):
        colouring.normal_cayley_colouring([0], colouring.sylvester_clique(3), 8)
    with pytest.raises(ValueError, match="vertex count"):
        colouring.normal_cayley_colouring(list(range(32)), [0, 1], 8)


def test_bipartite_colouring():
    # the parity colouring is the even words shifted by 0 and 1; it is
    # proper exactly when the adjacency distance n/2 is odd
    for n in (2, 6, 10):
        cert = colouring.omega_colouring(n)
        assert cert.colour == tuple(w.bit_count() & 1 for w in range(1 << n))
        assert (cert.kind, cert.palette_size) == (omega(n), 2)
        assert colouring.verify_colouring(cert)
    with pytest.raises(ValueError, match="capped at n = 10"):
        colouring.omega_colouring(14)
    even = [w for w in range(256) if not w.bit_count() & 1]
    with pytest.raises(AssertionError, match="re-verification"):
        colouring.normal_cayley_colouring(even, [0, 1], 8)


def test_omega_colouring_8_runs_no_search(monkeypatch):
    # the n = 8 colouring is the lifted initial-segment family's translates,
    # so it needs no kernel search and no exact elimination
    want = colouring.omega_colouring(8).colour

    def refuse(*args, **kwargs):
        raise RuntimeError("the n = 8 colouring ran a search")

    monkeypatch.setattr(search, "kernel_reduce", refuse)
    monkeypatch.setattr(ratmat, "rcef", refuse)
    assert colouring.omega_colouring(8).colour == want
    assert colouring.chi_status(8).colouring.colour == want


def test_psi_colouring_small_orders():
    for k in range(5):
        cert = colouring.psi_colouring(k)
        assert cert.palette_size == 1 << k
        assert cert.kind == psi(1 << k)
        assert colouring.verify_colouring(cert)


def psi_colour_map(n):
    """The recursion the closed-form Psi colouring replaced, kept as its
    oracle: one level gives the two sides of each copy pair, which differ
    in the lsb of r, disjoint half-palettes."""
    if n == 1:
        return [0, 0], 1
    m = n // 2
    inner, palette = psi_colour_map(m)
    mask = full_mask(m)
    out = []
    for w in range(1 << n):
        x = w & mask
        r = x ^ (w >> m)
        out.append(inner[x] + (palette if r & 1 else 0))
    return out, 2 * palette


def test_psi_colouring_is_rechecked(monkeypatch):
    monkeypatch.setattr(colouring, "verify_colouring", lambda cert: False)
    with pytest.raises(AssertionError, match="doubling check"):
        colouring.psi_colouring(2)


def test_psi_colouring_is_the_recursion_and_linear():
    for k in range(5):
        n = 1 << k
        cert = colouring.psi_colouring(k)
        assert (list(cert.colour), cert.palette_size) == psi_colour_map(n)
        if n <= 8:
            c = cert.colour
            assert all(c[a ^ b] == c[a] ^ c[b] for a in range(1 << n) for b in range(1 << n))


def test_doubling_check_matches_the_edge_stream():
    # the streamed edges are the slow exact oracle for the doubling check
    rng = random.Random(6)
    outcomes = set()
    for k in (1, 2, 3):
        n = 1 << k
        edges = list(psi_edges(n))
        real = list(colouring.psi_colouring(k).colour)
        palette = list(range(n))
        rng.shuffle(palette)
        colourings = [[palette[c] for c in real]]
        for w in range(1 << n):
            for c in range(n):
                if c != real[w]:
                    colourings.append(real[:w] + [c] + real[w + 1 :])
        for _ in range(100):
            p = rng.randint(1, n)
            colourings.append([rng.randrange(p) for _ in range(1 << n)])
        for colour in colourings:
            proper = all(colour[u] != colour[v] for u, v in edges)
            # renumber the colours used as 0..p-1, so every colour is used
            used = sorted(set(colour))
            dense = tuple(used.index(c) for c in colour)
            cert = colouring.ColouringCertificate(psi(n), dense, len(used))
            assert colouring.verify_colouring(cert) is proper
            outcomes.add(proper)
    assert outcomes == {True, False}


def test_doubling_check_rejects_recoloured_psi_16():
    rng = random.Random(16)
    real = colouring.psi_colouring(4).colour
    assert colouring.verify_colouring(colouring.ColouringCertificate(psi(16), real, 16))
    inner = list(psi_edges(8))
    for i in range(5):
        x, r = rng.randrange(256), rng.randrange(256)
        if i % 2:
            # across the complete join between copies r and r-bar
            w, u = double_word(x, r, 8), double_word(rng.randrange(256), r ^ 0xFF, 8)
        else:
            # along an edge of the dimension-8 graph inside copy r
            a, b = rng.choice(inner)
            w, u = double_word(a, r, 8), double_word(b, r, 8)
        assert adjacent_bits(w, u, 16)
        colour = list(real)
        colour[w] = colour[u]
        cert = colouring.ColouringCertificate(psi(16), tuple(colour), 16)
        assert not colouring.verify_colouring(cert)


def proper_by_class_scan(colour, n):
    """The pairwise scan the translation check replaced, kept as its slow
    oracle: no two words of one class are adjacent."""
    classes = {}
    for w, c in enumerate(colour):
        classes.setdefault(c, []).append(w)
    return not any(
        adjacent_bits(u, w, n)
        for cls in classes.values()
        for i, u in enumerate(cls)
        for w in cls[i + 1 :]
    )


def test_translation_check_matches_the_class_scan():
    rng = random.Random(8)
    colourings = {}
    real = list(colouring.omega_colouring(4).colour)
    colourings[4] = [real] + [
        real[:w] + [c] + real[w + 1 :] for w in range(16) for c in range(4) if c != real[w]
    ]
    real = list(colouring.omega_colouring(8).colour)
    colourings[8] = [real]
    for _ in range(100):
        colour = list(real)
        for w in rng.sample(range(256), rng.randint(1, 3)):
            colour[w] = rng.randrange(8)
        colourings[8].append(colour)
    for n, flips in ((6, range(64)), (10, rng.sample(range(1024), 6))):
        real = list(colouring.omega_colouring(n).colour)
        colourings[n] = [real] + [real[:w] + [1 - real[w]] + real[w + 1 :] for w in flips]
    for n in (4, 6, 8):
        # classes {u, u ^ d}: improper exactly along the one difference d
        colourings[n] += [[min(u, u ^ d) for u in range(1 << n)] for d in range(1, 1 << n)]
    outcomes = set()
    for n, cases in colourings.items():
        for colour in cases:
            proper = proper_by_class_scan(colour, n)
            rank = {c: i for i, c in enumerate(sorted(set(colour)))}
            dense = tuple(rank[c] for c in colour)
            cert = colouring.ColouringCertificate(omega(n), dense, len(rank))
            assert colouring.verify_colouring(cert) is proper
            outcomes.add(proper)
    assert outcomes == {True, False}


def test_omega_colouring_dimensions():
    assert colouring.omega_colouring(1).palette_size == 1
    assert colouring.omega_colouring(6).palette_size == 2
    c4 = colouring.omega_colouring(4)
    assert c4.palette_size == 4 and c4.kind == omega(4)
    assert colouring.verify_colouring(c4)
    c8 = colouring.omega_colouring(8)
    assert c8.palette_size == 8
    with pytest.raises(ValueError):
        colouring.omega_colouring(12)


def test_verify_colouring_rejects_broken_partition():
    cert = colouring.omega_colouring(4)
    colour, p = cert.colour, cert.palette_size
    for wrong, palette in (
        (colour[1:], p),  # the wrong length
        ((-1,) + colour[1:], p),
        ((p,) + colour[1:], p),  # a colour beyond the palette
        (colour, p + 1),  # an unused colour
    ):
        broken = colouring.ColouringCertificate(cert.kind, wrong, palette)
        assert not colouring.verify_colouring(broken)


def test_verify_colouring_rejects_merged_classes():
    cert = colouring.omega_colouring(8)
    merged = tuple(max(c - 1, 0) for c in cert.colour)  # colours 0 and 1 become 0
    broken = colouring.ColouringCertificate(cert.kind, merged, cert.palette_size - 1)
    assert not colouring.verify_colouring(broken)


# --- verdicts -----------------------------------------------------------------

def test_chi_status_verdict_sweep():
    equals, greater, less = [], [], []
    for n in range(1, 65):
        rep = colouring.chi_status(n)
        assert rep.chain, n
        {
            Verdict.EQUALS_N: equals,
            Verdict.GREATER_THAN_N: greater,
            Verdict.LESS_THAN_N: less,
        }[rep.verdict].append(n)
    assert equals == [1, 2, 4, 8]
    assert greater == [n for n in range(1, 65) if n % 4 == 0 and n not in (4, 8)]
    assert len(less) == 64 - len(equals) - len(greater)


def test_chi_status_attaches_colouring_exactly_when_equal():
    for n in (1, 2, 4, 8):
        rep = colouring.chi_status(n)
        assert rep.colouring is not None
        assert colouring.verify_colouring(rep.colouring)
    assert colouring.chi_status(6).colouring is None
    assert colouring.chi_status(12).colouring is None


def test_chi_status_4_checks_its_clique(monkeypatch):
    # the lower bound "4 pairwise orthogonal words" rests on a checked
    # clique, and so does the bound of 8 words at n = 8
    monkeypatch.setattr(colouring, "adjacent_bits", lambda u, v, n: False)
    for n in (4, 8):
        with pytest.raises(AssertionError, match="non-clique"):
            colouring.chi_status(n)


def test_chi_status_16_cites_the_exhausted_search():
    rep = colouring.chi_status(16)
    assert rep.verdict is Verdict.GREATER_THAN_N
    joined = " ".join(rep.chain)
    assert "65536" in joined
    assert "4092" in joined and "4096" in joined


@functools.cache
def search16():
    return search.enumerate_candidates(16)


def test_chi_status_16_needs_an_empty_search(monkeypatch):
    # each count alone refutes the verdict, and so do both
    for changes in (
        {"count_independent": 1},
        {"count_containing_base": 1},
        {"count_independent": 1, "count_containing_base": 1},
    ):
        tight = dataclasses.replace(search16(), **changes)
        monkeypatch.setattr(search, "enumerate_candidates", lambda n, tight=tight: tight)
        with pytest.raises(AssertionError):
            colouring.chi_status(16)


@pytest.mark.parametrize(
    "bound", (Fraction(2049, 2), Fraction(1025)), ids=("fractional", "too-large")
)
def test_chi_status_16_needs_an_integral_quotient_bound_below_1025(monkeypatch, bound):
    # 2049/2 leaves 4 * 2047/2 < 4096 but is no integer; 1025 would leave
    # the graph room for a class of 4 * 1024 = 4096 words
    outcome = search16()
    monkeypatch.setattr(search, "enumerate_candidates", lambda n: outcome)
    true_bound = spectral.ratio_bound
    monkeypatch.setattr(
        spectral, "ratio_bound", lambda kind: dataclasses.replace(true_bound(kind), bound=bound)
    )
    with pytest.raises(AssertionError, match="does not rule out"):
        colouring.chi_status(16)


def test_chi_status_12_needs_a_fractional_bound(monkeypatch):
    # the 4 | n, non-power-of-two verdict rests on the computed ratio bound
    # not being an integer
    true_bound = spectral.ratio_bound

    def integral(kind):
        return dataclasses.replace(true_bound(kind), bound=Fraction(341))

    monkeypatch.setattr(spectral, "ratio_bound", integral)
    with pytest.raises(AssertionError):
        colouring.chi_status(12)


def test_chi_status_64_descends_to_16():
    rep = colouring.chi_status(64)
    assert rep.verdict is Verdict.GREATER_THAN_N
    joined = " ".join(rep.chain)
    assert "dimension 32" in joined and "dimension 16" in joined


def test_chi_status_rejects_out_of_range():
    with pytest.raises(ValueError):
        colouring.chi_status(0)
    with pytest.raises(ValueError):
        colouring.chi_status(65)
