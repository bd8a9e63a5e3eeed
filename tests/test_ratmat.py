"""Exact rational matrix kernel: elimination and rank."""

import random
from fractions import Fraction

import pytest

from ortho_lab import ratmat


def random_matrix(rng, rows, cols, span=9):
    return ratmat.from_rows(
        [
            [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        ratmat.as_fraction(0.5)
    assert ratmat.as_fraction(3) == Fraction(3)
    assert ratmat.as_fraction(Fraction(1, 7)) == Fraction(1, 7)


def test_from_rows_rejects_float_entries():
    with pytest.raises(TypeError):
        ratmat.from_rows([[1, 2.0]])


def test_from_rows_rejects_ragged_input():
    with pytest.raises(ValueError):
        ratmat.from_rows([[1, 2], [3]])


def test_mat_vec():
    a = ratmat.from_rows([[1, 2, 3], [0, 1, 0]])
    assert ratmat.mat_vec(a, [1, 1, 1]) == [Fraction(6), Fraction(1)]


def test_rref_known_case():
    m, pivots = ratmat.rref(ratmat.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]]))
    assert pivots == [0, 1]
    assert m[0] == [Fraction(1), Fraction(0), Fraction(1)]
    assert m[1] == [Fraction(0), Fraction(1), Fraction(1)]
    assert all(x == 0 for x in m[2])


def test_rref_is_idempotent():
    rng = random.Random(11)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        m, pivots = ratmat.rref(a)
        m2, pivots2 = ratmat.rref(m)
        assert m2 == m and pivots2 == pivots
        assert pivots == sorted(pivots)


def test_rcef_is_idempotent_and_pivot_rows_increase():
    rng = random.Random(12)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        res = ratmat.rcef(a)
        again = ratmat.rcef(res.matrix)
        assert again.matrix == res.matrix
        assert res.pivot_rows == sorted(res.pivot_rows)
        assert len(res.pivot_rows) == res.rank
        # pivot entries are 1 with zeros elsewhere in their row
        for j, r in enumerate(res.pivot_rows):
            assert res.matrix[r][j] == 1
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


def test_common_denominator_and_int_rows():
    a = ratmat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [1, Fraction(5, 6)]])
    d = ratmat.common_denominator(a)
    assert d == 6
    assert ratmat.int_rows(a, d) == [[3, 2], [6, 5]]
    with pytest.raises(ValueError):
        ratmat.int_rows(a, 3)
