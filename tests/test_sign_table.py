"""The numpy sign table and everything built from it, and the
neighbourhood Gram matrix read off the Walsh spectrum, against the
per-word popcount builders they replaced, kept here as the slow exact
oracle."""

import dataclasses
import random

import numpy as np
import pytest

from ortho_lab import search, spectral
from ortho_lab.graphs import (
    connection_set,
    neighbours,
    omega,
    y_quotient,
    y_vertices,
)


# --- the per-word oracle ------------------------------------------------------

def sign_row_mask(a, pairs):
    """Bit k set iff the row entry for pair k is -1 (odd intersection)."""
    m = 0
    for k, p in enumerate(pairs):
        if (a & p).bit_count() & 1:
            m |= 1 << k
    return m


def column_sign_masks(words, pairs):
    """One mask per pair: bit idx set iff the sign-matrix row of words[idx]
    is -1 in that pair's column."""
    colsign = [0] * len(pairs)
    for idx, a in enumerate(words):
        sm = sign_row_mask(a, pairs)
        while sm:
            low = sm & -sm
            colsign[low.bit_length() - 1] |= 1 << idx
            sm ^= low
    return colsign


def sign_gram(colsign, rows):
    """Gram matrix of the +-1 columns given by their sign masks over
    `rows` rows: a +-1 dot product is rows - 2*popcount(ci ^ cj)."""
    return [[rows - 2 * (ci ^ cj).bit_count() for cj in colsign] for ci in colsign]


def record_gram(monkeypatch, edit=lambda gram: None):
    """Substitute a spectrum for spectral.adjacency_spectrum whose
    gathers record the spectrum's Gram matrix G, after `edit` has changed
    it in place, and return the list of recorded matrices."""
    seen = []
    true_spectrum = spectral.adjacency_spectrum

    class Gathered:
        def __init__(self, kind):
            self.spectrum = true_spectrum(kind)

        def __getitem__(self, index):
            gram = self.spectrum[index]
            edit(gram)
            seen.append(gram)
            return gram

    monkeypatch.setattr(spectral, "adjacency_spectrum", Gathered)
    return seen


def vertex_column_masks(n, pairs):
    """One mask per element v of [n]: bit k set iff pair k contains v."""
    return [sum(1 << k for k, p in enumerate(pairs) if p >> v & 1) for v in range(n)]


def product_rows(n, base):
    """(n-1) - 2*(popcount of masked sign bits), plus the all-ones column."""
    pairs = spectral.two_subset_masks(n)
    vert_colmask = vertex_column_masks(n, pairs)
    rows = []
    for a in y_vertices(n):
        sm = sign_row_mask(a ^ base, pairs)
        rows.append([n - 2 * (sm & vert_colmask[v]).bit_count() for v in range(n)])
    return rows


def oracle_table(words, n):
    pairs = spectral.two_subset_masks(n)
    masks = [sign_row_mask(a, pairs) for a in words]
    return [[m >> k & 1 for k in range(len(pairs))] for m in masks]


def seeded_bases():
    rng = random.Random(8)
    bases = [(8, b) for b in y_vertices(8)]
    bases += [(12, b) for b in rng.sample(y_vertices(12), 8)]
    return bases + [(16, 0x44CA)]


# --- the table and the product rows -------------------------------------------

def test_sign_table_and_product_rows_match_the_oracle():
    # every canonical base at n = 8, seeded ones at n = 12, one at n = 16
    for n, base in seeded_bases():
        words = [a ^ base for a in y_vertices(n)]
        table = spectral._sign_row_mask(words, n)
        assert table.shape == (len(words), n * (n - 1) // 2)
        assert table.tolist() == oracle_table(words, n), (n, base)
        got = search._product_rows(n, base)
        assert got.dtype == np.int64
        assert got.tolist() == product_rows(n, base), (n, base)


def test_pair_incidence_matches_the_pair_masks():
    for n in (4, 8, 16):
        pairs = spectral.two_subset_masks(n)
        masks = vertex_column_masks(n, pairs)
        assert spectral.pair_incidence(n).tolist() == [
            [m >> k & 1 for k in range(len(pairs))] for m in masks
        ]


# --- the Gram matrices --------------------------------------------------------

@pytest.mark.parametrize("n, base", [(8, 0), (8, 0x3C), (12, 0x3C), (16, 0), (16, 0x44CA)])
def test_extended_neighbourhood_gram_matches_the_oracle(n, base):
    # the extended neighbourhood Gram matrix: the base's neighbourhood
    # rows plus an all-ones column, which is the character of 0.  The
    # neighbourhood is base ^ S for the quotient's connection set S, whose
    # sign rows are Omega's once each, so entry [p, q] is
    # chi_(p^q)(base) * lambda(p ^ q) / 2 for Omega's spectrum lambda
    pairs = spectral.two_subset_masks(n)
    neigh = neighbours(y_quotient(n), base)
    want = sign_gram(column_sign_masks(neigh, pairs) + [0], len(neigh))
    chars = np.array(pairs + [0])
    xor = chars[:, None] ^ chars
    signs = 1 - 2 * np.array([[(x & base).bit_count() & 1 for x in row] for row in xor.tolist()])
    assert (signs * spectral.adjacency_spectrum(omega(n))[xor] // 2).tolist() == want


@pytest.mark.parametrize("n", (8, 12, 16))
def test_spectrum_gram_matches_the_oracle(n, monkeypatch):
    words = connection_set(omega(n))
    want = sign_gram(column_sign_masks(words, spectral.two_subset_masks(n)), len(words))
    seen = record_gram(monkeypatch)
    assert spectral.neighbourhood_gram_spectrum(n).ok
    assert [g.tolist() for g in seen] == [want]


# --- the identities -----------------------------------------------------------

@pytest.mark.parametrize("n", (12, 16))
def test_gram_identities_hold(n):
    rep = spectral.gram_identities(n)
    assert rep.ok and rep.witness is None


def _flipped(true_table, row, cols):
    def table(words, n):
        t = true_table(words, n)
        t[row, cols] ^= 1
        return t

    return table


def test_gram_identities_name_a_failing_row(monkeypatch):
    words = connection_set(omega(8))
    pairs = spectral.two_subset_masks(8)
    true_table = spectral._sign_row_mask
    # one flipped entry moves that row's sum
    monkeypatch.setattr(spectral, "_sign_row_mask", _flipped(true_table, 5, [17]))
    rep = spectral.gram_identities(8)
    assert not rep.ok and not rep.row_sums_ok and not rep.product_all_minus_one
    assert rep.incidence_gram_ok
    assert rep.witness == ("row_sum", words[5])
    # a -1 and a +1 entry swapped keep the row sum, but not the product
    # entries of the vertices in one pair and not the other
    row = sign_row_mask(words[5], pairs)
    one = next(k for k in range(len(pairs)) if row >> k & 1)
    zero = next(k for k in range(len(pairs)) if not row >> k & 1)
    monkeypatch.setattr(spectral, "_sign_row_mask", _flipped(true_table, 5, [one, zero]))
    rep = spectral.gram_identities(8)
    assert not rep.ok and rep.row_sums_ok and not rep.product_all_minus_one
    assert rep.witness[:2] == ("product", words[5])
    assert (pairs[one] ^ pairs[zero]) >> rep.witness[2] & 1


@pytest.mark.parametrize("flag", ("incidence_gram_ok", "row_sums_ok"))
def test_gram_identity_report_needs_every_identity(flag):
    rep = spectral.gram_identities(8)
    assert rep.ok
    assert not dataclasses.replace(rep, **{flag: False}).ok
