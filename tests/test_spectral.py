"""Eigenvalue bounds, character eigenvectors, and Gram-matrix identities."""

import random
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from ortho_lab import families, ratmat, search, spectral
from ortho_lab.graphs import Family, connection_set, omega, psi, y_quotient, y_vertices

from test_sign_table import record_gram


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


def transform_spectrum(kind):
    """The transform of the connection set's indicator, whose entry k is
    A's eigenvalue on character k: the oracle for the gathered row."""
    return spectral.wht(spectral.indicator(kind, connection_set(kind)))


def test_tau_is_the_least_eigenvalue():
    # the ratio bound holds only with the least eigenvalue, not just any one
    for n in (4, 8, 12, 16):
        assert int(transform_spectrum(omega(n)).min()) == spectral.least_eigenvalue(n)
    for n in (8, 12, 16):
        kind = y_quotient(n)
        least = int(transform_spectrum(kind).min())
        assert least == spectral.ratio_bound(kind).least_eigenvalue


def test_adjacency_spectrum_is_the_transform():
    # odd n included: Omega_n has no edges there, and its row is all zeros
    kinds = [omega(n) for n in range(1, 17)] + [y_quotient(n) for n in (4, 8, 12, 16)]
    for kind in kinds:
        assert spectral.adjacency_spectrum(kind).tolist() == transform_spectrum(kind).tolist()


def test_adjacency_spectrum_refuses_n_above_16_before_any_array(monkeypatch):
    # the array is doubled from the weight row, so the row comes first
    def no_array(kind):
        raise AssertionError("the weight row was built before the refusal")

    monkeypatch.setattr(spectral, "weight_row", no_array)
    for kind in (omega(18), y_quotient(20), omega(64)):
        with pytest.raises(ValueError):
            spectral.adjacency_spectrum(kind)


def test_weight_row_matches_the_closed_forms():
    # the formulas the row replaced: tau = -C(n, n/2)/(n-1) at weight 2,
    # and the quotient with half the degree and half of tau
    for n in range(4, 65, 4):
        tau = Fraction(-comb(n, n // 2), n - 1)
        assert spectral.least_eigenvalue(n) == tau
        row = spectral.weight_row(omega(n))
        assert len(row) == n + 1 and row[0] == comb(n, n // 2) and row[2] == tau
        quot = spectral.weight_row(y_quotient(n))
        assert len(quot) == n - 1 and quot[0] == comb(n, n // 2) // 2
        assert min(quot) == quot[1] == tau / 2
        # the quotient's own Parseval identity, on 2^(n-2) vertices
        assert sum(comb(n - 2, i) * k * k for i, k in enumerate(quot)) == quot[0] << (n - 2)
        rep = spectral.ratio_bound(y_quotient(n))
        v, d = 1 << (n - 2), comb(n, n // 2) // 2
        bound = v * (-tau / 2) / (d - tau / 2)
        assert (rep.kind, rep.vertex_count, rep.degree) == (y_quotient(n), v, d)
        assert (rep.least_eigenvalue, rep.bound) == (tau / 2, bound)
        assert rep.is_integer == (bound.denominator == 1)
        assert rep.matches_power_form == (bound == Fraction(1 << (n - 2), n))
    with pytest.raises(ValueError):
        spectral.weight_row(psi(4))


def test_weight_row_refuses_a_degree_it_does_not_start_at(monkeypatch):
    # a row that passes Parseval but starts off the graph's degree, as the
    # row of another weight's words would
    true_degree = spectral.degree_of
    monkeypatch.setattr(spectral, "degree_of", lambda n: true_degree(n) + 2)
    with pytest.raises(ArithmeticError):
        spectral.weight_row(omega(8))


def test_weight_row_refuses_a_miscount(monkeypatch):
    # one binomial count off by one moves K(1) but not K(0): Parseval fails
    true_comb = spectral.comb
    monkeypatch.setattr(spectral, "comb", lambda a, b: true_comb(a, b) + ((a, b) == (7, 4)))
    for kind in (omega(8), y_quotient(8)):
        with pytest.raises(ArithmeticError):
            spectral.weight_row(kind)


def forge_row(monkeypatch, weight, delta):
    """Substitute a weight row for Omega_8 with delta added at one weight."""
    true_row = spectral.weight_row

    def forged(kind):
        row = true_row(kind)
        if kind == omega(8):
            row[weight] += delta
        return row

    monkeypatch.setattr(spectral, "weight_row", forged)


def test_least_eigenvalue_refuses_a_minimum_off_weight_two(monkeypatch):
    forge_row(monkeypatch, 4, -30)  # K(4) = 6 becomes -24, below K(2) = -10
    with pytest.raises(ArithmeticError):
        spectral.least_eigenvalue(8)


def test_tau_eigenspace_checks_the_rows_tau(monkeypatch):
    forge_row(monkeypatch, 2, -2)  # still the minimum, at weight 2
    assert spectral.least_eigenvalue(8) == -12
    rep = spectral.verify_tau_eigenspace(8)
    assert not rep.ok and rep.max_defect == 2


def test_neighbourhood_gram_spectrum_reads_the_row(monkeypatch):
    # K(4) + 2 moves c2 and every disjoint-pair entry of G alike, so G still
    # has the row's form, but not the eigenvalues that c0 alone gives
    forge_row(monkeypatch, 4, 2)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.coefficients == (70, -10, 8)
    assert rep.identity_ok and not rep.multiplicities_ok and not rep.ok
    with pytest.raises(ArithmeticError):
        search.kernel_reduce(8)


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
    for arg in (vec, np.array(vec, dtype=np.int64), np.array(vec, dtype=object)):
        twice = spectral.wht(spectral.wht(arg))
        assert twice.tolist() == [64 * x for x in arg]
    # entries past int64 are refused, not widened to Python ints
    with pytest.raises(ArithmeticError):
        spectral.wht([x << 70 for x in vec])


def python_wht(vec):
    """The butterfly on Python ints, one pair at a time: the oracle for
    the numpy transform."""
    v = list(vec)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            for j in range(i, i + h):
                v[j], v[j + h] = v[j] + v[j + h], v[j] - v[j + h]
        h *= 2
    return v


def test_wht_matches_python_butterfly():
    rng = random.Random(24)
    cases = [
        [rng.randint(-(10**6), 10**6) for _ in range(size)] for size in (1, 2, 8, 256)
    ]
    for vec in cases:
        assert spectral.wht(vec).tolist() == python_wht(vec)
        assert spectral.wht(np.array(vec, dtype=np.int64)).tolist() == python_wht(vec)
    # every entry fits int64, but the outputs pass 2^63: refused
    near = [2**62 + 1, 2**62 + 3, 2**62 - 5, 2**62 + 7]
    assert max(map(abs, python_wht(near))) >= 2**63
    for arg in (near, np.array(near, dtype=np.int64)):
        with pytest.raises(ArithmeticError):
            spectral.wht(arg)


def test_wht_requires_power_of_two_length():
    with pytest.raises(ValueError):
        spectral.wht([1, 2, 3])


def apply_streaming(kind, vec):
    """A*vec by summing over each vertex's neighbours, in
    vertex_order(kind): the oracle for the Walsh spectrum."""
    n = kind.n
    if kind.family is Family.OMEGA:
        diffs = connection_set(omega(n))
        return [sum(vec[a ^ d] for d in diffs) for a in range(1 << n)]
    diffs = [
        w
        for w in range(1 << n)
        if w.bit_count() == n // 2 and not (w & 1)  # canonical differences
    ]
    # a ^ d is canonical, at position (a ^ d) >> 2
    return [sum(vec[(a ^ d) >> 2] for d in diffs) for a in y_vertices(n)]


def apply_walsh(kind, vec):
    """A*vec through the Walsh spectrum: transform, scale entry k by the
    eigenvalue on character k, transform back and divide by the order."""
    back = spectral.wht(spectral.adjacency_spectrum(kind) * spectral.wht(vec)).tolist()
    out = []
    for x in back:
        q, r = divmod(x, len(vec))
        assert r == 0
        out.append(q)
    return out


def test_apply_adjacency_on_all_ones_gives_degree():
    # character 0 is all ones, so entry 0 of the spectrum is the degree
    for kind in (omega(4), omega(6), omega(8), y_quotient(8)):
        ones = [1] * len(spectral.vertex_order(kind))
        d = comb(kind.n, kind.n // 2) // (2 if kind.family is Family.Y else 1)
        assert spectral.adjacency_spectrum(kind)[0] == d
        assert apply_streaming(kind, ones) == [d] * len(ones)
        assert apply_walsh(kind, ones) == [d] * len(ones)
    # the recursive graph has every word as a vertex, but no Cayley spectrum
    assert spectral.vertex_order(psi(4)) == list(range(16))
    with pytest.raises(ValueError):
        spectral.adjacency_spectrum(psi(4))


def test_adjacency_strategies_agree_on_random_vectors():
    rng = random.Random(22)
    for kind in (omega(4), omega(6), omega(8), y_quotient(4), y_quotient(8), y_quotient(12)):
        size = len(spectral.vertex_order(kind))
        for _ in range(3):
            vec = [rng.randint(-9, 9) for _ in range(size)]
            assert apply_walsh(kind, vec) == apply_streaming(kind, vec)


def test_connection_spectrum_matches_streaming_on_characters():
    # A's eigenvalue on character k is entry k of the transformed
    # connection indicator
    rng = random.Random(22)
    for kind in (omega(4), omega(6), omega(8), y_quotient(4), y_quotient(8), y_quotient(12)):
        spectrum = spectral.adjacency_spectrum(kind).tolist()
        size = len(spectral.vertex_order(kind))
        ks = range(size) if size <= 64 else [0] + rng.sample(range(1, size), 6)
        for k in ks:
            chi = [1 - 2 * ((i & k).bit_count() & 1) for i in range(size)]
            assert apply_streaming(kind, chi) == [spectrum[k] * x for x in chi]


def test_equality_condition_matches_streaming():
    rng = random.Random(23)
    tight = search.exhaustive_tight_sets(8)
    assert len(tight) == 8
    y8, o8 = y_quotient(8), omega(8)
    cases = [(y8, t) for t in tight]
    for t in tight:
        for shift in rng.sample(y_vertices(8), 2):
            cases.append((y8, sorted(x ^ shift for x in t)))
        cases.append((o8, families.lift_members(t, 8)))
    for _ in range(6):
        cases.append((y8, rng.sample(y_vertices(8), rng.randint(1, 12))))
        cases.append((o8, rng.sample(range(256), rng.choice((1, 8, 32)))))
    seen = set()
    for kind, members in cases:
        order = spectral.vertex_order(kind)
        v, s = len(order), len(members)
        tau = spectral.least_eigenvalue(kind.n) / (2 if kind.family is Family.Y else 1)
        u = [v * (w in members) - s for w in order]
        want = apply_streaming(kind, u) == [tau * x for x in u]
        assert spectral.equality_condition_check(kind, members) == want
        seen.add(want)
    assert seen == {True, False}
    # the cap comes before any 2^n-entry vector is built
    with pytest.raises(ValueError):
        spectral.equality_condition_check(omega(64), [0])


# --- tau eigenspace -----------------------------------------------------------

def test_tau_eigenspace_column_exact():
    for n, cols in ((4, 12), (8, 56)):
        rep = spectral.verify_tau_eigenspace(n)
        assert rep.ok
        assert rep.columns_checked == cols
        assert rep.max_defect == 0
        assert rep.failing_column is None


def test_tau_eigenspace_reports_a_short_connection_set(monkeypatch):
    # without one difference every character sum is off tau by exactly 1
    true_set = spectral.connection_set
    monkeypatch.setattr(spectral, "connection_set", lambda kind: true_set(kind)[1:])
    for n in (4, 8):
        rep = spectral.verify_tau_eigenspace(n)
        assert not rep.ok
        assert rep.max_defect == 1
        assert rep.failing_column == 0


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


def test_gram_coefficients_are_the_binomial_differences():
    # the closed forms the row replaced
    for n in (8, 12, 16):
        c0 = comb(n, n // 2)
        c1 = c0 - 8 * comb(n - 3, n // 2 - 1)
        c2 = c0 - 16 * comb(n - 4, n // 2 - 1)
        assert spectral.neighbourhood_gram_spectrum(n).coefficients == (c0, c1, c2)


def test_neighbourhood_gram_spectrum_needs_three_distinct_actions(monkeypatch):
    # an all-zero row gives G = 0, which has the row's form and trace, and
    # acts as 0 on all three spaces: the eigenvalues c0 gives are 0 too
    monkeypatch.setattr(spectral, "weight_row", lambda kind: [0] * (kind.n + 1))
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.eigenvalues == (0, 0, 0)
    assert rep.identity_ok and rep.trace_ok
    assert not rep.multiplicities_ok and not rep.ok


def test_neighbourhood_gram_spectrum_needs_the_incidence_identities(monkeypatch):
    true_identities = spectral._incidence_identities

    def forged(n):
        b, _, columns_ok = true_identities(n)
        return b, [[0, 1]], columns_ok

    monkeypatch.setattr(spectral, "_incidence_identities", forged)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.identity_ok and rep.trace_ok
    assert not rep.multiplicities_ok and not rep.ok


def test_neighbourhood_gram_spectrum_checks_the_trace(monkeypatch):
    def forge(gram):
        gram[0, 0] += 1

    record_gram(monkeypatch, forge)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.trace == 1961
    assert not rep.trace_ok and not rep.ok


def test_neighbourhood_gram_spectrum_names_a_forged_entry(monkeypatch):
    # pairs 3 = {0, 4} and 17 = {2, 7} are disjoint, so the entry is c2 = 6
    def forge(gram):
        gram[3, 17] = gram[17, 3] = 8

    record_gram(monkeypatch, forge)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert not rep.identity_ok and not rep.ok
    assert rep.witness == ("entry", 3, 17, 8, 6)
    assert all(type(x) is int for x in rep.witness[1:])


def test_neighbourhood_gram_spectrum_checks_every_entry(monkeypatch):
    # one entry below the diagonal forged: an upper-triangle check misses it
    def forge(gram):
        gram[17, 3] = 8

    record_gram(monkeypatch, forge)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.witness == ("entry", 17, 3, 8, 6)
    assert not rep.identity_ok and not rep.multiplicities_ok and not rep.ok


def test_neighbourhood_gram_spectrum_gathers_the_adjacency_spectrum(monkeypatch):
    # G[p, q] is the eigenvalue at p ^ q: forging the eigenvalue of the
    # weight-4 word {0, 1, 2, 3} forges G at every two disjoint pairs with
    # that union, the first at pairs 0 = {0, 1} and 13 = {2, 3}
    true_spectrum = spectral.adjacency_spectrum

    def forged(kind):
        lam = true_spectrum(kind)
        lam[0b1111] += 2
        return lam

    assert true_spectrum(omega(8))[0b1111] == 6
    monkeypatch.setattr(spectral, "adjacency_spectrum", forged)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert not rep.identity_ok and not rep.ok
    assert rep.witness == ("entry", 0, 13, 8, 6)
    with pytest.raises(ArithmeticError):
        search.kernel_reduce(8)


def test_neighbourhood_gram_spectrum_needs_the_incidence_rank(monkeypatch):
    true_rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda a: true_rank(a) - 1)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.multiplicities == (1, 21, 6)
    assert not rep.multiplicities_ok and not rep.ok
    # 40 + 21 * 96 is not the trace 28 * 70 = 1960 of G
    assert rep.trace == 1960 and not rep.trace_ok


def move_second_one(b):
    # pair 0 = {0, 1} moves its second 1 from row 1 to row 2: B^T B and
    # B B^T both change, the column sums do not
    b[1, 0], b[2, 0] = 0, 1


def negate_every_row(b):
    # B^T B, B B^T and the rank are unchanged; the column sums are -2
    b *= -1


@pytest.mark.parametrize("forge", (move_second_one, negate_every_row))
def test_neighbourhood_gram_spectrum_checks_the_incidence(monkeypatch, forge):
    true_incidence = spectral.pair_incidence

    def forged(n):
        b = true_incidence(n).astype(np.int64)
        forge(b)
        return b

    monkeypatch.setattr(spectral, "pair_incidence", forged)
    rep = spectral.neighbourhood_gram_spectrum(8)
    assert rep.multiplicities == (1, 20, 7)
    assert not rep.multiplicities_ok and not rep.ok


def test_neighbourhood_gram_spectrum_ranks_only_the_incidence(monkeypatch):
    seen = []
    true_rank = ratmat.rank

    def recording(a):
        seen.append((len(a), len(a[0])))
        return true_rank(a)

    monkeypatch.setattr(ratmat, "rank", recording)
    assert spectral.neighbourhood_gram_spectrum(12).ok
    assert seen == [(12, 66)]
