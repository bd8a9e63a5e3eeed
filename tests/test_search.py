"""Kernel reduction and the tight-independent-set enumeration."""

import dataclasses
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from ortho_lab import ratmat, search, spectral
from ortho_lab.graphs import (
    VertexWord,
    adjacent_bits,
    connection_set,
    neighbours,
    omega,
    y_canonical_bits,
    y_quotient,
    y_vertices,
)


# --- matrices -----------------------------------------------------------------

def test_incidence_matrix_rank():
    # unsigned incidence of a complete graph: full rank (odd cycles exist)
    b = spectral.pair_incidence(8).tolist()
    assert (len(b), len(b[0])) == (8, 28)
    assert ratmat.rank(b) == 8


def test_kernel_reduce_n8():
    red = search.kernel_reduce(8)
    assert red.incidence_rank == 8
    assert red.neighbourhood_rank == comb(8, 2) - 7
    assert red.kernel_dim == 8
    assert red.neighbourhood_product_zero
    assert red.echelon.rank == 8
    # the 29 rows of the distance-2 layer: its pivots are the whole
    # product's lex-first pivot rows
    assert len(red.layer) == 1 + comb(8, 2)
    assert [red.layer[p] for p in red.echelon.pivot_rows] == [0, 1, 2, 3, 4, 8, 16, 32]
    assert red.echelon.scale == 1


@pytest.mark.parametrize("n", (8, 12, 16))
def test_layer_is_the_same_matrix_for_every_base(n):
    # the base's distance-2 layer, in the order of the offsets from the
    # base, is base 0's layer; it has 1 + C(n, 2) rows
    words = y_vertices(n)
    bases = words if n == 8 else random.Random(n).sample(words[1:], 3)
    plain = search.kernel_reduce(n)
    assert len(plain.layer) == 1 + comb(n, 2)
    assert all(min(w.bit_count(), n - w.bit_count()) <= 2 for w in np.array(words)[plain.layer])
    for base in bases:
        red = search.kernel_reduce(n, base)
        assert np.array_equal(red.product[red.layer], plain.product[plain.layer])


def test_kernel_reduce_checks_its_rank_ledger(monkeypatch):
    true_rank = ratmat.rank
    monkeypatch.setattr(ratmat, "rank", lambda a: true_rank(a) - 1)
    with pytest.raises(ArithmeticError, match="rank ledger"):
        search.kernel_reduce(8)
    monkeypatch.undo()

    # the spectrum's multiplicities moved by one between N - r and r - 1,
    # past the spectrum's own checks, and a report whose checks failed:
    # only the ledger can object
    true_spectrum = spectral.neighbourhood_gram_spectrum

    def forged(**changes):
        return lambda n: dataclasses.replace(true_spectrum(n), **changes)

    one, kernel, incidence = true_spectrum(8).multiplicities
    # the +-1 shifts keep the sum N and move the incidence rank; a kernel
    # one larger keeps the incidence rank n, and only the kernel dimension
    # tells
    for mults in (
        (one, kernel + 1, incidence - 1),
        (one, kernel - 1, incidence + 1),
        (one, kernel + 1, incidence),
    ):
        monkeypatch.setattr(spectral, "neighbourhood_gram_spectrum", forged(multiplicities=mults))
        assert spectral.neighbourhood_gram_spectrum(8).ok
        with pytest.raises(ArithmeticError, match="rank ledger"):
            search.kernel_reduce(8)
    for failed in ("identity_ok", "trace_ok"):
        monkeypatch.setattr(spectral, "neighbourhood_gram_spectrum", forged(**{failed: False}))
        with pytest.raises(ArithmeticError, match="rank ledger"):
            search.kernel_reduce(8)


def test_kernel_reduce_needs_the_neighbourhood_rows_to_vanish(monkeypatch):
    true_rows = search._product_rows

    def forged(n, base):
        rows = true_rows(n, base)
        rows[neighbours(y_quotient(n), base)[0] >> 2, 0] = 1
        return rows

    monkeypatch.setattr(search, "_product_rows", forged)
    with pytest.raises(ArithmeticError, match="rank ledger"):
        search.kernel_reduce(8)


def test_kernel_reduce_needs_echelon_rank_n(monkeypatch):
    # the matrix is the true one: only the claimed rank is short
    true_rcef = ratmat.rcef
    monkeypatch.setattr(
        ratmat, "rcef", lambda a: dataclasses.replace(true_rcef(a), rank=len(a[0]) - 1)
    )
    with pytest.raises(RuntimeError, match="echelon rank"):
        search.kernel_reduce(8)


def test_echelon_is_checked_against_the_product_rows(monkeypatch):
    true_rcef = ratmat.rcef

    def perturbed(a):
        res = true_rcef(a)
        bad = res.matrix.astype(object)
        bad[5, 0] += 1  # row 5 is not a pivot row
        return dataclasses.replace(res, matrix=bad)

    monkeypatch.setattr(ratmat, "rcef", perturbed)
    with pytest.raises(ArithmeticError):
        search.enumerate_candidates(8)


# --- the int64 candidate scan -------------------------------------------------

def block_scan(cint, scale):
    """The scan over every product row, kept as the oracle: candidates
    in chunks of 8192, rows in blocks of 32, 64, ... up to 1024, each
    block only on the candidates that passed every earlier one."""
    nrows, nbits = cint.shape
    shifts = np.arange(nbits, dtype=np.int64)[:, None]
    out = []
    for c0 in range(0, 1 << nbits, 8192):
        xs = np.arange(c0, min(c0 + 8192, 1 << nbits), dtype=np.int64)
        bits = (xs[None, :] >> shifts) & 1
        r0, block = 0, 32
        while r0 < nrows and xs.size:
            z = cint[r0 : r0 + block] @ bits
            ok = ((z == 0) | (z == scale)).all(axis=0)
            xs, bits = xs[ok], bits[:, ok]
            r0 += block
            block = min(2 * block, 1024)
        out.extend(xs.tolist())
    return out


def all_rows_candidates(n, base):
    """The search as it ran over all 2^(n-2) product rows: rcef of the
    whole product, the block scan and the exact re-check of every
    survivor, in ascending x on the product's own pivot rows."""
    ech = ratmat.rcef(search._product_rows(n, base).tolist())
    cint = ech.matrix.astype(np.int64)
    order = y_vertices(n)
    out = []
    for x in block_scan(cint, ech.scale):
        z = ratmat.mat_vec(cint, x >> np.arange(n) & 1)
        assert all(e in (0, ech.scale) for e in z)
        out.append([order[i] for i, e in enumerate(z) if e == ech.scale])
    return out


def _oracle_cases():
    rng = random.Random(16)
    return (
        [(8, b) for b in y_vertices(8)]
        + [(12, 0), (12, 0x3C), (12, 0x5A6)]
        + [(16, 0), (16, 0x44CA)]
        + [(16, b) for b in rng.sample(y_vertices(16)[1:], 2)]
    )


@pytest.mark.parametrize("n, base", _oracle_cases())
def test_layer_search_matches_the_all_rows_oracle(n, base):
    # the same member lists in the same order: every base at n = 8, where
    # the order is the certificates' order, and seeded bases above
    assert search._echelon_candidates(n, base) == all_rows_candidates(n, base)


def test_every_product_row_decides_which_layer_survivors_stay(monkeypatch):
    # a layer of only the n pivot rows keeps all 2^n assignments; the
    # exact reading on every product row must drop all but the true ones
    # (their order follows the thinned layer's pivot rows)
    true_reduce = search.kernel_reduce

    def thinned(n, base=0):
        red = true_reduce(n, base)
        layer = red.layer[red.echelon.pivot_rows]
        ech = ratmat.rcef(red.product[layer].tolist())
        return dataclasses.replace(red, layer=layer, echelon=ech)

    true_scan = search._scan_01_candidates
    scanned = []

    def recording(cint, scale):
        scanned.append(true_scan(cint, scale))
        return scanned[-1]

    monkeypatch.setattr(search, "kernel_reduce", thinned)
    monkeypatch.setattr(search, "_scan_01_candidates", recording)
    got = search._echelon_candidates(8, 0x3C)
    assert scanned == [list(range(256))]
    assert sorted(got) == sorted(all_rows_candidates(8, 0x3C))
    assert len(got) == 9


def test_a_forged_pivot_block_inverse_is_refused(monkeypatch):
    # one entry off, or an inverse times a singular factor: the exact
    # check B @ inverse == d * I refuses both before any survivor is read
    true_rcef = ratmat.rcef

    def forge(change):
        def forged(a):
            res = true_rcef(a)
            bad = res.inverse.copy()
            change(bad)
            return dataclasses.replace(res, inverse=bad)
        return forged

    for change in (
        lambda m: m.__setitem__((0, 1), m[0, 1] + 1),
        lambda m: m.__setitem__((slice(None), 0), 0),
    ):
        monkeypatch.setattr(ratmat, "rcef", forge(change))
        with pytest.raises(ArithmeticError, match="inverse"):
            search.enumerate_candidates(8)


def test_scan_survivors_are_rechecked_exactly(monkeypatch):
    true_scan = search._scan_01_candidates
    monkeypatch.setattr(search, "_scan_01_candidates", lambda c, scale: true_scan(c, scale) + [3])
    with pytest.raises(ArithmeticError, match="scan kept candidate 3"):
        search.enumerate_candidates(8)


def brute_force_scan(rows, scale, nbits):
    """Every nbits-bit x whose product with the integer rows has only
    entries 0 and scale, in Python ints."""
    return [
        x
        for x in range(1 << nbits)
        if all(sum(c for j, c in enumerate(row) if x >> j & 1) in (0, scale) for row in rows)
    ]


@pytest.mark.parametrize(
    "n, base", [(8, 0), (8, 0x3C), (8, 0x66), (12, 0), (12, 0x3C), (12, 0x5A6)]
)
def test_scan_matches_brute_force(n, base):
    ech = search.kernel_reduce(n, base).echelon
    cint = ech.matrix.astype(np.int64)
    want = brute_force_scan(ech.matrix.tolist(), ech.scale, n)
    assert search._scan_01_candidates(cint, ech.scale) == want


def test_scan_checks_a_row_whose_last_nonzero_is_the_top_bit():
    # all-zero rows hold for every x; the only other row is checked at
    # the last level, and drops x with bit 4 set and bit 0 clear
    cint = np.zeros((4, 5), dtype=np.int64)
    cint[2, [0, 4]] = [2, -2]
    want = brute_force_scan(cint.tolist(), 2, 5)
    assert want == [x for x in range(32) if x & 0b10001 != 0b10000]
    assert search._scan_01_candidates(cint, 2) == want
    cint[2] = 0
    assert search._scan_01_candidates(cint, 2) == list(range(32))
    # 14 bits: the scale-3 identity rows keep every x below 2^14, and the
    # last row, read at the last level, drops x with bit 12 set and bit
    # 13 clear
    cint = np.zeros((45, 14), dtype=np.int64)
    cint[:14] = 3 * np.eye(14, dtype=np.int64)
    cint[-1, 12:] = [-3, 3]
    want = [x for x in range(1 << 14) if (x >> 12) & 3 != 1]
    assert search._scan_01_candidates(cint, 3) == want


def test_scan_reads_every_row_block():
    # 39 of the 40 rows end at column 2, so level 2 reads them in blocks
    # of 16, 16 and 7; rows 0-2 drop x = 3, 5, 6 and 7, the middle rows
    # keep everything, and only the last row, in the third block, drops 4
    cint = np.zeros((40, 3), dtype=np.int64)
    cint[:3] = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    cint[3:-1, 2] = 1
    cint[-1, 2] = -1
    assert brute_force_scan(cint.tolist(), 1, 3) == [0, 1, 2]
    assert search._scan_01_candidates(cint, 1) == [0, 1, 2]
    cint[-1] = 0
    assert brute_force_scan(cint.tolist(), 1, 3) == [0, 1, 2, 4]
    assert search._scan_01_candidates(cint, 1) == [0, 1, 2, 4]


@pytest.mark.parametrize(
    "entries",
    ([2**63], [-(2**62)], [2**61, 2**61], [2**62 - 1] * 8),
    ids=("beyond-int64", "entry-2^62", "row-sum-2^62", "row-sum-past-int64"),
)
def test_echelon_bound_refuses_rows_an_int64_scan_cannot_hold(monkeypatch, entries):
    # the last case sums past 2^63: an int64 row sum would wrap around
    true_rcef = ratmat.rcef

    def perturbed(a):
        res = true_rcef(a)
        bad = res.matrix.astype(object)
        bad[5, : len(entries)] = entries
        return dataclasses.replace(res, matrix=bad)

    monkeypatch.setattr(ratmat, "rcef", perturbed)
    with pytest.raises(ArithmeticError, match="too large"):
        search.enumerate_candidates(8)


@pytest.mark.parametrize(
    "row, match",
    [([-(2**63)] + [0] * 7, "too large"), ([2**59] * 8, "too large for exact int64")],
    ids=("int64-minimum", "self-check-past-int64"),
)
def test_echelon_checks_stay_exact_at_the_int64_edge(monkeypatch, row, match):
    # np.abs leaves -2^63 negative, so a bound read off it would pass it;
    # 8 * 2^59 = 2^62 fits the scan, but the self-check's products with
    # the product rows could pass 2^63, so the self-check refuses them
    true_rcef = ratmat.rcef

    def perturbed(a):
        res = true_rcef(a)
        bad = res.matrix.astype(object)
        bad[5] = row
        return dataclasses.replace(res, matrix=bad)

    monkeypatch.setattr(ratmat, "rcef", perturbed)
    with pytest.raises(ArithmeticError, match=match):
        search.enumerate_candidates(8)


def test_search_converts_each_matrix_once(monkeypatch):
    # one list-to-array conversion per matrix: the 29 x 8 layer rows and
    # the spectrum's 8 x 28 incidence matrix; rcef's minor and its
    # echelon form reuse the first, the certificates' order reads the
    # product array, and no Gram matrix is eliminated
    seen = []
    true_matrix = ratmat._matrix

    def recording(a):
        m = true_matrix(a)
        seen.append(m.shape)
        return m

    monkeypatch.setattr(ratmat, "_matrix", recording)
    search.enumerate_candidates(8)
    assert sorted(seen) == [(8, 28), (29, 8)]


@pytest.mark.parametrize("n", (8, 12, 16))
def test_neighbourhood_sign_rows_are_omegas(n):
    # the product's neighbourhood rows are the sign rows of the quotient's
    # connection set; complementing a word keeps its parity on every pair,
    # so they are Omega's sign rows, each of which Omega lists twice
    def rows(kind):
        return [r.tobytes() for r in spectral._sign_row_mask(connection_set(kind), n)]

    quotient, full = rows(y_quotient(n)), rows(omega(n))
    assert set(quotient) == set(full)
    assert len(set(quotient)) == len(quotient) == len(full) // 2


@pytest.mark.parametrize("n", (8, 12, 16))
def test_shifted_base_permutes_the_product_rows(n):
    # row a >> 2 of the base-b product is row (a ^ b) >> 2 of the base-0
    # one: every base at n = 8, three seeded ones above
    words = np.array(y_vertices(n))
    bases = words if n == 8 else random.Random(n).sample(words[1:].tolist(), 3)
    plain = search._product_rows(n, 0)
    for base in bases:
        want = plain[(words ^ base) >> 2]
        assert np.array_equal(search._product_rows(n, int(base)), want)


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


def test_n4_candidates_are_every_subset_avoiding_the_neighbourhood():
    # all 2^4 subsets of the four quotient vertices, filtered pairwise
    vertices = y_vertices(4)
    for base in vertices:
        want = [
            list(s)
            for k in range(len(vertices) + 1)
            for s in combinations(vertices, k)
            if not any(adjacent_bits(v, base, 4) for v in s)
        ]
        assert sorted(search._subset_candidates(4, base)) == sorted(want) == [[], [base]]


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
