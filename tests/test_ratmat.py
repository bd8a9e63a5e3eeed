"""Exact integer matrix kernel: fraction-free elimination against a
Fraction reference."""

import random
from fractions import Fraction
from math import lcm

import pytest

from ortho_lab import ratmat, search, spectral
from ortho_lab.graphs import y_neighbours_bits


# --- the Fraction reference ---------------------------------------------------

def rref(a):
    """Reduced row echelon form over Fraction and the pivot column
    indices; the first row with a nonzero entry in the current column is
    the pivot, as in ratmat."""
    m = [[Fraction(x) for x in row] for row in a]
    rows, cols = len(m), len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(cols):
        p = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def assert_matches_reference(a):
    res = ratmat.rcef(a)
    ref, pivots = rref(ratmat.transpose(a))
    ref = ratmat.transpose(ref)
    assert res.pivot_rows == pivots
    assert res.rank == len(pivots)
    assert res.scale == lcm(*(x.denominator for row in ref for x in row))
    assert res.matrix == [[res.scale * x for x in row] for row in ref]
    assert all(type(x) is int for row in res.matrix for x in row)


def random_rank_deficient(rng, rows, cols, span=5):
    """A (rows x k) times B (k x cols) with k < min(rows, cols)."""
    k = rng.randint(0, min(rows, cols) - 1)
    a = [[rng.randint(-span, span) for _ in range(k)] for _ in range(rows)]
    b = [[rng.randint(-span, span) for _ in range(cols)] for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def random_matrix(rng, rows, cols, span=9):
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


# --- the reference itself -----------------------------------------------------

def test_rref_known_case():
    m, pivots = rref([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert pivots == [0, 1]
    assert m[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert m[1] == [Fraction(0), Fraction(1), Fraction(1)]
    assert all(x == 0 for x in m[2])


def test_rref_is_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        m, pivots = rref(a)
        m2, pivots2 = rref(m)
        assert m2 == m and pivots2 == pivots
        assert pivots == sorted(pivots)


# --- integer elimination against the reference --------------------------------

def test_rcef_known_case_scale():
    # the pivot block's inverse has denominator 6, but row 2 of the
    # reduced form is (1, 1), so the scale is 1
    res = ratmat.rcef([[2, 1], [0, 3], [2, 4]])
    assert res.pivot_rows == [0, 1]
    assert res.scale == 1
    assert res.matrix == [[1, 0], [0, 1], [1, 1]]
    res = ratmat.rcef([[2, 0], [0, 3], [1, 1]])
    assert res.scale == 6
    assert res.matrix == [[6, 0], [0, 6], [3, 2]]


@pytest.mark.parametrize(
    "n, base", [(8, 0), (8, 0x3C), (12, 0), (12, 0x3C), (16, 0x44CA)]
)
def test_rcef_matches_reference_on_product_matrices(n, base):
    assert_matches_reference(search._product_rows(n, base))


def test_rcef_matches_reference_on_random_rank_deficient_matrices():
    rng = random.Random(31)
    for _ in range(300):
        a = random_rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert_matches_reference(a)
        assert ratmat.rank(a) == len(rref(a)[1])


def test_rcef_of_empty_and_zero_matrices():
    assert ratmat.rcef([]) == ratmat.EchelonResult([], 0, [], 1)
    assert ratmat.rcef([[0, 0], [0, 0]]) == ratmat.EchelonResult([[0, 0], [0, 0]], 0, [], 1)
    assert ratmat.rank([]) == 0


@pytest.mark.parametrize("n", (8, 12))
def test_rank_matches_reference_on_gram_matrices(n):
    # kernel_reduce's extended neighbourhood Gram matrix, and the
    # spectrum's Gram matrix G shifted to q*G - p*I for each eigenvalue p/q
    pairs = spectral.two_subset_masks(n)
    neigh = y_neighbours_bits(0, n)
    words = spectral._neighbourhood_words(n)
    grams = [spectral._sign_gram(spectral._column_sign_masks(neigh, pairs) + [0], len(neigh))]
    gram = spectral._sign_gram(spectral._column_sign_masks(words, pairs), len(words))
    for lam in spectral.neighbourhood_gram_spectrum(n).eigenvalues:
        p, q = lam.numerator, lam.denominator
        grams.append(
            [[q * x - (p if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(gram)]
        )
    for g in grams:
        assert ratmat.rank(g) == len(rref(g)[1])


def test_rcef_is_idempotent_and_pivot_rows_increase():
    rng = random.Random(12)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        res = ratmat.rcef(a)
        again = ratmat.rcef(res.matrix)
        assert again.matrix == res.matrix and again.scale == res.scale
        assert res.pivot_rows == sorted(res.pivot_rows)
        assert len(res.pivot_rows) == res.rank
        # pivot entries are the scale with zeros elsewhere in their row
        for j, r in enumerate(res.pivot_rows):
            assert res.matrix[r][j] == res.scale
            assert all(
                res.matrix[r][jj] == 0 for jj in range(len(res.matrix[0])) if jj != j
            )


def test_rcef_preserves_column_space():
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, 5, rng.randint(1, 5))
        res = ratmat.rcef(a)
        joined = [ra + rm for ra, rm in zip(a, res.matrix)]
        assert ratmat.rank(joined) == ratmat.rank(a) == res.rank


def test_rank_of_transpose_matches():
    rng = random.Random(14)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert ratmat.rank(a) == ratmat.rank(ratmat.transpose(a))


def test_mat_vec():
    assert ratmat.mat_vec([[1, 2, 3], [0, 1, 0]], [1, 1, 1]) == [6, 1]
    with pytest.raises(ValueError):
        ratmat.mat_vec([[1, 2]], [1])


# --- the boundary -------------------------------------------------------------

@pytest.mark.parametrize(
    "bad",
    (2.0, Fraction(1, 2), Fraction(2), True),
    ids=("float", "fraction", "whole-fraction", "bool"),
)
def test_rejects_non_int_entries(bad):
    with pytest.raises(TypeError):
        ratmat.rcef([[1, bad], [3, 4]])
    with pytest.raises(TypeError):
        ratmat.rank([[1, 2], [bad, 4]])


def test_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ratmat.rcef([[1, 2], [3]])
    with pytest.raises(ValueError):
        ratmat.rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        ratmat.rank([[1], [2, 3]])
