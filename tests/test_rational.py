"""Exact rational linear algebra, including the integer normal form."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualqed import rational


def F(mat):
    return [[Fraction(v) for v in row] for row in mat]


def test_identity_and_matmul():
    A = F([[1, 2], [3, 4]])
    eye = rational.identity(2)
    assert rational.matmul(A, eye) == A
    assert rational.matmul(eye, A) == A
    B = F([[0, 1], [1, 0]])
    assert rational.matmul(A, B) == F([[2, 1], [4, 3]])


def test_invert_round_trip():
    A = F([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    Ainv = rational.invert(A)
    assert rational.matmul(A, Ainv) == rational.identity(3)
    assert rational.matmul(Ainv, A) == rational.identity(3)


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        rational.invert(F([[1, 2], [2, 4]]))


def test_rank_and_nullspace():
    A = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rational.rank(A) == 2
    null = rational.nullspace(A)
    assert len(null) == 1
    v = null[0]
    for row in A:
        assert sum(a * x for a, x in zip(row, v)) == 0


def test_rank_rejects_floats():
    with pytest.raises(TypeError):
        rational.rank([[0.5, 1.0], [1.0, 2.0]])


def test_pseudo_inverse_symmetric_zero_sum_kernel():
    # graph Laplacian of a triangle: kernel = constants
    A = F([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    ker = [[Fraction(1)] * 3]
    G = rational.pseudo_inverse_symmetric(A, kernel=ker)
    AG = rational.matmul(A, G)
    # A G = I - J/3 on the zero-sum complement
    n = 3
    for i in range(n):
        for j in range(n):
            want = (Fraction(1) if i == j else Fraction(0)) - Fraction(1, n)
            assert AG[i][j] == want
    # G itself is zero-row-sum
    for row in G:
        assert sum(row) == 0


# --- integer Smith normal form ----------------------------------------------


def assert_valid_snf(A):
    U, D, V = rational.smith_normal_form(A)
    A_ = np.array(A, dtype=object)
    U_, D_, V_ = (np.array(M, dtype=object) for M in (U, D, V))
    assert np.array_equal(U_ @ A_ @ V_, D_)
    # U, V unimodular: integer with integer inverse — check via rational invert
    for M in (U, V):
        Minv = rational.invert(F(M))
        for row in Minv:
            for v in row:
                assert v.denominator == 1
    # D diagonal with a divisibility chain
    rows, cols = D_.shape
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D_[i, j] == 0
    diag = [int(D_[i, i]) for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        elif b != 0:
            assert b % a == 0
    return U, D, V


def test_snf_known_matrix():
    # determinant 624; elementary divisors from gcds of k-minors:
    # d1 = gcd(entries) = 2, d1*d2 = gcd(2x2 minors) = 4, d1*d2*d3 = 624
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    _, D, _ = assert_valid_snf(A)
    diag = [abs(D[i][i]) for i in range(3)]
    assert diag == [2, 2, 156]


def test_snf_rectangular_and_rank_deficient():
    assert_valid_snf([[1, 2, 3], [4, 5, 6]])
    assert_valid_snf([[2, 4], [4, 8], [6, 12]])
    assert_valid_snf([[0, 0], [0, 0]])


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_snf_property_random_integer_matrices(data):
    rows = data.draw(st.integers(1, 4))
    cols = data.draw(st.integers(1, 4))
    A = [
        [data.draw(st.integers(min_value=-9, max_value=9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    assert_valid_snf(A)


def brute_force_in_image(A, v, box=6):
    """Is v = A x solvable over integers?  Exhaustive search in a box."""
    A = np.array(A, dtype=np.int64)
    v = np.array(v, dtype=np.int64)
    cols = A.shape[1]
    for x in itertools.product(range(-box, box + 1), repeat=cols):
        if np.array_equal(A @ np.array(x, dtype=np.int64), v):
            return True
    return False


@st.composite
def small_image_problems(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(1, 2))
    A = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(cols)] for _ in range(rows)]
    v = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(rows)]
    return A, v


@given(problem=small_image_problems())
@example(problem=([[-1, 2], [1, -3]], [-3, -3]))  # needs x = (15, 6)
@settings(max_examples=40, deadline=None)
def test_integer_image_membership_matches_brute_force(problem):
    A, v = problem
    snf = rational.smith_normal_form(A)
    got = rational.in_integer_image(snf, v)
    # The box is complete for these ranges (|entries| <= 3, |v| <= 4, at most
    # two columns): every solvable case has a solution with |x_i| <= 24.
    # Full column rank: an invertible 2x2 row block B gives x = adj(B) v / det B,
    # and each adjugate row has two entries of size <= 3, so |x_i| <= 2*3*4.
    # Rank one (parallel columns p w, q w, or a single column): v = k w with
    # gcd(p, q) | k, and a Bezout solution has |x_i| <= 3*4.
    want = brute_force_in_image(A, v, box=24)
    assert got == want


def test_integer_image_scaled_lattice():
    # image of [[4]] is 4Z
    snf = rational.smith_normal_form([[4]])
    for v in range(-8, 9):
        assert rational.in_integer_image(snf, [v]) == (v % 4 == 0)
