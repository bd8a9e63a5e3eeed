"""Kernel reduction and the tight-independent-set enumeration."""

from fractions import Fraction
from math import comb

import pytest

from ortho_lab import ratmat, search
from ortho_lab.graphs import (
    VertexWord,
    omega,
    y_canonical_bits,
    y_quotient,
    y_vertices,
)


# --- matrices -----------------------------------------------------------------

def test_quotient_sign_matrix_shape_and_entries():
    m = search.quotient_sign_matrix(8)
    assert (len(m), len(m[0])) == (64, 28)
    assert all(x in (-1, 1) for row in m for x in row)


def test_neighbourhood_rows_shape():
    m = search.neighbourhood_rows(8)
    assert (len(m), len(m[0])) == (35, 29)
    # appended ones column
    assert all(row[-1] == 1 for row in m)


def test_incidence_matrix_rank():
    # unsigned incidence of a complete graph: full rank (odd cycles exist)
    b = search.incidence_matrix(8)
    assert (len(b), len(b[0])) == (8, 28)
    assert ratmat.rank(b) == 8


def test_kernel_reduce_n8():
    red = search.kernel_reduce(8)
    assert red.incidence_rank == 8
    assert red.neighbourhood_rank == comb(8, 2) - 7
    assert red.kernel_dim == 8
    assert red.neighbourhood_product_zero
    assert red.echelon.rank == 8
    assert list(red.echelon.pivot_rows) == [0, 1, 2, 3, 4, 8, 16, 32]


def test_kernel_reduce_rejects_degenerate_dimension():
    with pytest.raises(ValueError):
        search.kernel_reduce(4)


# --- independence checking ----------------------------------------------------

def test_check_independent_detects_edges():
    assert search.check_independent([0b0000, 0b0111], omega(4))
    assert not search.check_independent([0b0000, 0b0011], omega(4))


def test_check_independent_rejects_duplicates_and_bad_words():
    with pytest.raises(ValueError):
        search.check_independent([0, 0], omega(4))
    with pytest.raises(ValueError):
        search.check_independent([1 << 4], omega(4))
    with pytest.raises(ValueError):
        search.check_independent([1], y_quotient(8))  # not canonical


def test_certify_indset_flags():
    cert = search.certify_indset(y_quotient(8), [0, 126])
    assert cert.size == 2
    assert cert.contains_base
    assert not cert.meets_ratio_bound
    with pytest.raises(ValueError):
        search.certify_indset(y_quotient(8), [0, 0b11110000])  # adjacent pair


# --- enumeration --------------------------------------------------------------

def test_enumerate_n4_brute_force_route():
    out = search.enumerate_candidates(4)
    assert out.candidates_total == 16
    # the empty subset and the base alone avoid the base's neighbourhood
    assert out.count_01_valued == 2
    assert out.count_correct_weight == out.count_independent == 1
    assert out.count_containing_base == 1
    assert len(out.certificates) == 1
    assert [v.bits for v in out.certificates[0].vertices] == [0]
    assert out.certificates[0].meets_ratio_bound


def test_enumerate_n8_matches_backtracking_oracle():
    out = search.enumerate_candidates(8)
    assert out.candidates_total == 256
    assert out.count_01_valued == 9
    assert out.count_correct_weight == 8
    assert out.count_independent == 8
    assert out.count_containing_base == 8
    assert len(out.certificates) == 8
    for cert in out.certificates:
        assert cert.size == 8
        assert cert.contains_base
        assert cert.meets_ratio_bound
        assert cert.eigenspace_member
    got = sorted(tuple(v.bits for v in c.vertices) for c in out.certificates)
    oracle = sorted(tuple(s) for s in search.exhaustive_tight_sets(8))
    assert got == oracle


def test_enumerate_n8_first_certificate_is_frozen():
    out = search.enumerate_candidates(8)
    assert [v.bits for v in out.certificates[0].vertices] == [
        0, 126, 190, 222, 238, 246, 250, 252,
    ]


def test_enumerate_base_invariance():
    base = 0b1100
    out = search.enumerate_candidates(8, base=base)
    assert len(out.certificates) == 8
    assert all(c.contains_base for c in out.certificates)
    # translating the base-0 answer by the base reproduces the base-b answer
    plain = search.enumerate_candidates(8)
    translated = sorted(
        tuple(sorted(y_canonical_bits(v.bits ^ base, 8) for v in c.vertices))
        for c in plain.certificates
    )
    got = sorted(tuple(v.bits for v in c.vertices) for c in out.certificates)
    assert translated == got


def test_enumerate_n12_has_no_tight_sets():
    # the bound 2^10/3 is not an integer, so no set can meet it
    out = search.enumerate_candidates(12)
    assert out.candidates_total == 4096
    assert out.certificates == ()
    assert out.count_correct_weight == 0
    assert out.count_01_valued >= 1  # the empty selection always survives


def test_enumerate_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        search.enumerate_candidates(20)


def test_representative_choice_does_not_matter():
    # applying an even translation (a graph automorphism) to every tight set
    # permutes the certificate list
    out = search.enumerate_candidates(8)
    sets = {tuple(v.bits for v in c.vertices) for c in out.certificates}
    t = 0b01100110  # even weight: maps the quotient to itself
    for s in sets:
        image = tuple(sorted(y_canonical_bits(x ^ t, 8) for x in s))
        assert search.check_independent(image, y_quotient(8))


def test_exhaustive_oracle_small_case():
    # in the complete quotient at n=4 the only tight set through the base
    # is the base alone
    assert search.exhaustive_tight_sets(4) == [[0]]
