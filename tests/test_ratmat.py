"""Exact integer matrix kernel: untrusted mod-p pivots, the echelon form
built from them with a fraction-free pivot-block inverse and checked
exactly, and the rank read from that form, against a Fraction reference.
Forged pivot claims are refused by the exact checks alone."""

import random
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest

from ortho_lab import ratmat, search, spectral
from ortho_lab.graphs import connection_set, neighbours, omega, y_quotient, y_vertices

from test_sign_table import column_sign_masks, sign_gram


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


def transpose(a):
    return [list(col) for col in zip(*a)]


def assert_matches_reference(a):
    res = ratmat.rcef(a)
    ref, pivots = rref(transpose(a))
    ref = transpose(ref)
    assert res.pivot_rows == pivots
    assert res.rank == len(pivots)
    assert res.scale == lcm(*(x.denominator for row in ref for x in row))
    assert res.matrix.dtype == np.int64
    assert res.matrix.shape == (len(a), len(a[0]))
    got = res.matrix.tolist()
    # the transposes lose the rows of a matrix with no columns
    assert got == ([[res.scale * x for x in row] for row in ref] if a[0] else a)
    assert all(type(x) is int for row in got for x in row)


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
    assert res.matrix.tolist() == [[1, 0], [0, 1], [1, 1]]
    res = ratmat.rcef([[2, 0], [0, 3], [1, 1]])
    assert res.scale == 6
    assert res.matrix.tolist() == [[6, 0], [0, 6], [3, 2]]


@pytest.mark.parametrize(
    "n, base", [(8, 0), (8, 0x3C), (12, 0), (12, 0x3C), (16, 0x44CA)]
)
def test_rcef_matches_reference_on_product_matrices(n, base):
    assert_matches_reference(search._product_rows(n, base).tolist())


def test_rcef_matches_reference_on_every_base():
    # the mod-p pivots must be the rational ones for every base the search
    # can be given: all canonical bases at n = 8, seeded ones at n = 12
    rng = random.Random(8)
    bases = [(8, b) for b in y_vertices(8)]
    bases += [(12, b) for b in rng.sample(y_vertices(12), 8)]
    for n, base in bases:
        assert_matches_reference(search._product_rows(n, base).tolist())


def test_rcef_matches_reference_on_random_rank_deficient_matrices():
    rng = random.Random(31)
    for _ in range(300):
        a = random_rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert_matches_reference(a)
        exact = len(rref(a)[1])
        assert ratmat.rank(a) == exact
        assert len(ratmat._minor(ratmat._matrix(a))[0]) == exact


def test_rcef_refuses_past_int64():
    # two columns of entries up to 2^20, or six of entries up to 2^6, keep
    # every product below 2^63 (Hadamard's bound on the minors), so these
    # match the reference in int64
    rng = random.Random(32)
    for _ in range(40):
        assert_matches_reference(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 2), 2**20))
        assert_matches_reference(random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), 2**6))
        a = random_rank_deficient(rng, rng.randint(1, 7), rng.randint(1, 7), 2**20)
        assert len(ratmat._minor(ratmat._matrix(a))[0]) == len(rref(a)[1])
    # entries past int64, and a block whose reduced inverse d * B^-1 / g
    # has entries 2^80 (its 2 x 2 minors), are refused, not widened
    for a in ([[2**63]], [[1, -(2**63) - 1]], [[2**70, 1], [3, 2**64]]):
        with pytest.raises(ArithmeticError):
            ratmat.rcef(a)
    with pytest.raises(ArithmeticError):
        ratmat.rcef([[2**40, 1, 0], [0, 2**40, 1], [1, 0, 2**40]])


def test_rcef_of_empty_and_zero_matrices():
    for a in ([], [[0, 0], [0, 0]]):
        res = ratmat.rcef(a)
        assert res.matrix.shape == (len(a), len(a[0]) if a else 0)
        assert res.matrix.tolist() == a
        assert (res.rank, res.pivot_rows, res.scale) == (0, [], 1)
    assert ratmat.rank([]) == 0


@pytest.mark.parametrize("n", (8, 12))
def test_rank_matches_reference_on_gram_matrices(n):
    # the extended neighbourhood Gram matrix A_ext^T A_ext, and the
    # spectrum's Gram matrix G shifted to q*G - p*I for each eigenvalue p/q
    pairs = spectral.two_subset_masks(n)
    neigh = neighbours(y_quotient(n), 0)
    words = connection_set(omega(n))
    grams = [sign_gram(column_sign_masks(neigh, pairs) + [0], len(neigh))]
    gram = sign_gram(column_sign_masks(words, pairs), len(words))
    spectrum = spectral.neighbourhood_gram_spectrum(n)
    for lam in spectrum.eigenvalues:
        p, q = lam.numerator, lam.denominator
        grams.append(
            [[q * x - (p if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(gram)]
        )
    exact = [len(rref(g)[1]) for g in grams]
    for g, r in zip(grams, exact):
        assert ratmat.rank(g) == r
        assert len(ratmat._minor(ratmat._matrix(g))[0]) == r
    # the shifted ranks are the slow exact oracle for the multiplicities
    # the spectrum derives from the incidence rank
    assert tuple(comb(n, 2) - r for r in exact[1:]) == spectrum.multiplicities


def test_rcef_is_idempotent_and_pivot_rows_increase():
    rng = random.Random(12)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        res = ratmat.rcef(a)
        m = res.matrix.tolist()
        again = ratmat.rcef(m)
        assert again.matrix.tolist() == m and again.scale == res.scale
        assert res.pivot_rows == sorted(res.pivot_rows)
        assert len(res.pivot_rows) == res.rank
        # pivot entries are the scale with zeros elsewhere in their row
        for j, r in enumerate(res.pivot_rows):
            assert m[r][j] == res.scale
            assert all(m[r][jj] == 0 for jj in range(len(m[0])) if jj != j)


def test_rcef_preserves_column_space():
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, 5, rng.randint(1, 5))
        res = ratmat.rcef(a)
        joined = [ra + rm for ra, rm in zip(a, res.matrix.tolist())]
        assert ratmat.rank(joined) == ratmat.rank(a) == res.rank


def test_rank_of_transpose_matches():
    rng = random.Random(14)
    for _ in range(10):
        a = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert ratmat.rank(a) == ratmat.rank(transpose(a))


def test_mat_vec():
    assert ratmat.mat_vec([[1, 2, 3], [0, 1, 0]], [1, 1, 1]) == [6, 1]
    # a product just below 2^63 is exact; one that could reach it, and
    # Python ints past int64, are refused
    assert ratmat.mat_vec(np.array([[2**61] * 3]), np.ones(3, dtype=np.int64)) == [3 * 2**61]
    with pytest.raises(ArithmeticError):
        ratmat.mat_vec(np.array([[2**61] * 4]), np.ones(4, dtype=np.int64))
    big = np.array([[2**70, -1], [3, 2**64]], dtype=object)
    with pytest.raises(ArithmeticError):
        ratmat.mat_vec(big, np.array([1, 2]))
    with pytest.raises(ValueError):
        ratmat.mat_vec([[1, 2]], [1])


# --- the mod-p minor ----------------------------------------------------------

P = ratmat.PRIME


@pytest.mark.parametrize(
    "a",
    (
        [[P]],
        [[P], [1]],
        [[1, 1], [1, 1 + P]],
        [[1, 1], [1, 1 + P], [0, 1]],
        [[1, 1, 0], [1, 1 + P, 0], [0, 0, 1]],
    ),
    ids=("entry-p", "entry-p-above-pivot", "det-p", "det-p-then-pivot", "det-p-block"),
)
def test_unlucky_prime_is_refused(a):
    # over the rationals each matrix has more rank than mod p, or the same
    # rank with an earlier pivot row, so the mod-p pivots give a wrong form:
    # the bound stays a lower bound, and rcef refuses rather than return it
    assert len(ratmat._minor(ratmat._matrix(a))[0]) <= len(rref(a)[1])
    with pytest.raises(ArithmeticError):
        ratmat.rcef(a)
    with pytest.raises(ArithmeticError):
        ratmat.rank(a)


def test_fraction_free_elimination_inverts_only_pivot_blocks(monkeypatch):
    # the one fraction-free routine sees the square pivot blocks: of the
    # incidence and the product rows in the search, of the incidence in
    # the spectrum
    assert not hasattr(ratmat, "_gauss_jordan")
    assert not hasattr(ratmat, "_modp_lu")
    seen = []
    true_inverse = ratmat._inverse

    def recording(b):
        seen.append((len(b), len(b[0])))
        return true_inverse(b)

    monkeypatch.setattr(ratmat, "_inverse", recording)
    search.enumerate_candidates(8)
    assert seen == [(8, 8), (8, 8)]
    seen.clear()
    spectral.neighbourhood_gram_spectrum(8)
    assert seen == [(8, 8)]
    # a block without a pivot in some column is refused, not skipped
    with pytest.raises(ArithmeticError, match="singular"):
        true_inverse([[1, 2, 0], [2, 4, 0], [0, 0, 1]])


# --- forged pivots ------------------------------------------------------------

# rank 2, with pivot rows 0 and 1 and a later row 2 that can stand in for 1
SMALL = [[1, 0, 1], [0, 1, 1], [1, 1, 2]]


def _repeat_row(m, rows, cols):
    return rows[:1] + rows[:-1], cols


def _drop_pivot(m, rows, cols):
    return rows[:-1], cols[:-1]


def _later_row(m, rows, cols):
    """The last pivot row that has a stand-in, a later non-pivot row that
    keeps the rows increasing and the block nonsingular, replaced by it;
    the true claim when no pivot row has one."""
    for k in reversed(range(len(rows))):
        end = rows[k + 1] if k + 1 < len(rows) else len(m)
        for q in range(rows[k] + 1, end):
            trial = rows[:k] + [q] + rows[k + 1 :]
            if len(rref(m[np.ix_(trial, cols)].tolist())[1]) == len(rows):
                return trial, cols
    return rows, cols


def _reversed(m, rows, cols):
    return rows[::-1], cols[::-1]


def _patch_minor(monkeypatch, forge):
    true_minor = ratmat._minor
    monkeypatch.setattr(ratmat, "_minor", lambda m: forge(m, *true_minor(m)))


@pytest.mark.parametrize(
    "forge, message",
    (
        (_repeat_row, "pivot block is singular"),
        (_drop_pivot, "echelon form fails its exact check"),
        (_later_row, "fails its exact check"),
        (_reversed, "echelon form fails its exact check"),
    ),
    ids=("repeated-row", "dropped-pivot", "later-row", "out-of-order"),
)
def test_forged_pivots_are_refused(monkeypatch, forge, message):
    # each claim is well formed (as many rows as columns, all in range):
    # the pivot block's exact inverse refutes a singular one, and the
    # echelon form's exact check refutes a wrong rank or a pivot row that
    # is not lex-first; pivots out of order leave a nonzero entry above a
    # pivot row, which the vanishing check refuses
    incidence = spectral.pair_incidence(8)
    # every row of the 8 x 28 incidence is a pivot, so no later row can
    # stand in for one; its 28 x 8 transpose has rows to spare
    ranked = incidence.T if forge is _later_row else incidence
    _patch_minor(monkeypatch, forge)
    with pytest.raises(ArithmeticError, match=message):
        ratmat.rcef(SMALL)
    with pytest.raises(ArithmeticError, match=message):
        ratmat.rank(ranked.tolist())
    # the spectrum's 8 x 28 incidence rank, then the 64 x 8 product rows
    with pytest.raises(ArithmeticError, match=message):
        search.kernel_reduce(8)


def test_reversed_pivot_columns_give_the_same_form(monkeypatch):
    # the check judges the result, not the route: A[:, cols] @ B^-1 does
    # not depend on the order of the pivot columns
    rng = random.Random(33)
    mats = [SMALL, search._product_rows(8, 0x3C).tolist(), random_matrix(rng, 4, 5, 2**10)]
    mats += [random_rank_deficient(rng, 6, 6) for _ in range(20)]
    want = [ratmat.rcef(a) for a in mats]
    _patch_minor(monkeypatch, lambda m, rows, cols: (rows, cols[::-1]))
    for a, res in zip(mats, want):
        got = ratmat.rcef(a)
        assert got.matrix.dtype == res.matrix.dtype
        assert np.array_equal(got.matrix, res.matrix)
        assert (got.rank, got.pivot_rows, got.scale) == (res.rank, res.pivot_rows, res.scale)


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


def test_int64_boundary():
    # the helper admits every bound int64 holds and refuses the first it
    # does not; rcef holds the largest int64 entry, and refuses the least,
    # -2^63, whose absolute value int64 cannot hold
    ratmat._int64(2**63 - 1)
    with pytest.raises(ArithmeticError):
        ratmat._int64(2**63)
    res = ratmat.rcef([[2**63 - 1]])
    assert (res.rank, res.scale, res.matrix.tolist()) == (1, 1, [[1]])
    with pytest.raises(ArithmeticError):
        ratmat.rcef([[-(2**63)]])


def test_rejects_ragged_rows():
    with pytest.raises(ValueError):
        ratmat.rcef([[1, 2], [3]])
    with pytest.raises(ValueError):
        ratmat.rank([[1, 2], [3]])
    with pytest.raises(ValueError):
        ratmat.rank([[1], [2, 3]])
