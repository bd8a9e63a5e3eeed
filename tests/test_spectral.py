"""Eigenvalue bounds, character eigenvectors, and Gram-matrix identities."""

import random
from fractions import Fraction
from math import comb

import pytest

from ortho_lab import spectral
from ortho_lab.graphs import omega, psi, y_quotient


# --- closed-form eigenvalue and bound -----------------------------------------

def test_least_eigenvalue_values():
    assert spectral.least_eigenvalue(4) == -2
    assert spectral.least_eigenvalue(8) == -10
    assert spectral.least_eigenvalue(12) == -84
    assert spectral.least_eigenvalue(16) == -858
    with pytest.raises(ValueError):
        spectral.least_eigenvalue(6)


def test_ratio_bound_closed_form():
    for n in range(4, 65, 4):
        rep = spectral.ratio_bound(omega(n))
        assert rep.bound == Fraction(1 << n, n)
        assert rep.matches_power_form
        assert rep.is_integer == (n & (n - 1) == 0)


def test_ratio_bound_quotient_is_a_quarter():
    for n in (4, 8, 12, 16):
        full = spectral.ratio_bound(omega(n))
        quot = spectral.ratio_bound(y_quotient(n))
        assert quot.bound * 4 == full.bound
        assert quot.least_eigenvalue * 2 == full.least_eigenvalue
    assert spectral.ratio_bound(y_quotient(8)).bound == 8
    assert spectral.ratio_bound(y_quotient(16)).bound == 1024


# --- transforms and adjacency application -------------------------------------

def test_wht_is_an_involution_up_to_scale():
    rng = random.Random(21)
    vec = [rng.randint(-50, 50) for _ in range(64)]
    twice = spectral.wht(spectral.wht(vec))
    assert twice == [64 * x for x in vec]


def test_wht_requires_power_of_two_length():
    with pytest.raises(ValueError):
        spectral.wht([1, 2, 3])


def test_apply_adjacency_on_all_ones_gives_degree():
    for kind in (omega(4), omega(6), omega(8), y_quotient(8)):
        ones = [1] * len(spectral.vertex_order(kind))
        out = spectral.apply_adjacency(kind, ones)
        d = comb(kind.n, kind.n // 2)
        if kind.family.value == "y":
            d //= 2
        assert out == [d] * len(ones)
    # the recursive graph has every word as a vertex, but no Cayley apply
    assert spectral.vertex_order(psi(4)) == list(range(16))
    with pytest.raises(ValueError):
        spectral.apply_adjacency(psi(4), [1] * 16)


def test_adjacency_strategies_agree_on_random_vectors():
    rng = random.Random(22)
    for kind in (omega(4), omega(6), omega(8), y_quotient(4), y_quotient(8), y_quotient(12)):
        size = len(spectral.vertex_order(kind))
        for _ in range(3):
            vec = [rng.randint(-9, 9) for _ in range(size)]
            fast = spectral.apply_adjacency(kind, vec)
            slow = spectral._apply_streaming(kind, vec)
            assert fast == slow


# --- tau eigenspace -----------------------------------------------------------

def test_tau_eigenspace_column_exact():
    for n, cols in ((4, 12), (8, 56)):
        rep = spectral.verify_tau_eigenspace(n)
        assert rep.ok
        assert rep.columns_checked == cols
        assert rep.max_defect == 0
        assert rep.failing_column is None


def test_non_eigenvector_is_detected():
    # a single-vertex indicator is never a tau eigenvector
    kind = omega(4)
    e0 = [1] + [0] * 15
    out = spectral.apply_adjacency(kind, e0)
    tau = spectral.least_eigenvalue(4)
    assert out != [tau * x for x in e0]


def test_equality_condition_for_tight_and_loose_sets():
    tight = [0, 126, 190, 222, 238, 246, 250, 252]
    assert spectral.equality_condition_check(y_quotient(8), tight)
    assert not spectral.equality_condition_check(y_quotient(8), [0])
    with pytest.raises(ValueError):
        spectral.equality_condition_check(y_quotient(8), [0, 0])


# --- Gram identities ----------------------------------------------------------

def test_gram_identities_n8():
    rep = spectral.gram_identities(8)
    assert rep.ok
    assert rep.product_all_minus_one
    assert rep.incidence_gram_diagonal == 7
    assert rep.incidence_gram_off_diagonal == 1
    assert rep.neighbourhood_row_sum == -4
    assert rep.witness is None


def test_gram_identities_rejects_unsupported_n():
    with pytest.raises(ValueError):
        spectral.gram_identities(4)


def test_neighbourhood_gram_spectrum_n8():
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.coefficients == (70, -10, 6)
    assert tuple(rep.eigenvalues) == (40, 96, 0)
    assert rep.multiplicities == (1, 20, 7)
    assert rep.trace == 1960
    assert rep.identity_ok and rep.multiplicities_ok and rep.trace_ok and rep.ok
    # eigenvalue multiplicity accounting closes: 1 + 20 + 7 = C(8,2)
    assert sum(rep.multiplicities) == comb(8, 2)
    assert sum(m * v for m, v in zip(rep.multiplicities, rep.eigenvalues)) == rep.trace
