"""Exact rational linear algebra, including the integer normal form."""

import itertools
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualqed import dualmap, greens, rational
from dualqed.lattice import Lattice, cube_flux_matrix, divergence_matrix

from conftest import (
    FORM_GEOMETRIES,
    GEOMETRIES,
    exact_nullspace,
    geometry_id,
    integer_image_mask,
    list_invert,
    list_smith_normal_form,
)


def F(mat):
    return [[Fraction(v) for v in row] for row in mat]


def exact_pseudo_inverse(mat):
    """The exact lane of `greens.pseudo_inverse`, with no kernel rows."""
    return greens.pseudo_inverse(mat, np.zeros((0, np.shape(mat)[1]), dtype=np.int64), exact=True)


def test_exact_array_keeps_int_and_fraction_entries():
    rows = [[1, 2], [3, Fraction(1, 2)]]
    for mat in (rows, np.array(rows, dtype=object)):
        A = rational.exact_array(mat)
        assert A.dtype == object and A.shape == (2, 2)
        assert [type(v) for v in A.flat] == [int, int, int, Fraction]
    ints = rational.exact_array(sp.csr_matrix(np.array([[1, 0], [0, -2]])))
    assert [type(v) for v in ints.flat] == [int] * 4  # Python ints, not numpy scalars
    with pytest.raises(ValueError):
        rational.exact_array([[1, 2], [3]])


def test_identity_and_matmul():
    A = rational.exact_array(F([[1, 2], [3, 4]]))
    eye = np.identity(2, dtype=object)
    assert np.array_equal(A @ eye, A)
    assert np.array_equal(eye @ A, A)
    B = rational.exact_array(F([[0, 1], [1, 0]]))
    assert np.array_equal(A @ B, F([[2, 1], [4, 3]]))


def test_invert_round_trip():
    A = rational.exact_array(F([[2, 1, 0], [1, 3, 1], [0, 1, 4]]))
    Ainv = rational.invert(A)
    assert np.array_equal(A @ Ainv, np.identity(3, dtype=object))
    assert np.array_equal(Ainv @ A, np.identity(3, dtype=object))
    assert all(type(v) is Fraction for v in Ainv.flat)


def test_invert_owns_its_result():
    """The inverse is a fresh n x n array, not a view of the n x 2n augmented
    matrix, so a cached exact table keeps only its own entries alive."""
    Ainv = rational.invert(F([[2, 1], [1, 3]]))
    assert Ainv.shape == (2, 2) and Ainv.base is None


def test_invert_rejects_singular():
    with pytest.raises(ValueError):
        rational.invert(F([[1, 2], [2, 4]]))


def test_rank_and_nullspace():
    A = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rational.rank(A) == 2
    null = exact_nullspace(A)
    assert len(null) == 1
    v = null[0]
    for row in A:
        assert sum(a * x for a, x in zip(row, v)) == 0


def test_rank_rejects_floats():
    with pytest.raises(TypeError):
        rational.rank([[0.5, 1.0], [1.0, 2.0]])


@pytest.mark.parametrize(
    "fn",
    [
        rational.exact_array,
        rational.rank,
        rational.invert,
        exact_pseudo_inverse,
        rational.smith_normal_form,
    ],
    ids=lambda f: f.__name__,
)
@pytest.mark.parametrize(
    "mat",
    [
        sp.csr_matrix(np.array([[0.5, 1.0], [1.0, 2.0]])),
        sp.csr_matrix(np.eye(2)),
        np.eye(2),
        np.array([[1, 2.0]], dtype=object),
        [[Fraction(1), 2.0]],
    ],
    ids=["sparse-float", "sparse-integral-float", "dense-float", "object-float", "list-float"],
)
def test_float_input_is_rejected(fn, mat):
    with pytest.raises(TypeError):
        fn(mat)


# --- sparse elimination against a dense Bareiss oracle -----------------------


def bareiss_rank(mat) -> int:
    """Exact rank by fraction-free Bareiss elimination on a dense object array.

    Each row is scaled by the lcm of its denominators before elimination,
    which leaves the rank unchanged.
    """
    rows = [[Fraction(v) for v in row] for row in mat]
    if not rows or not rows[0]:
        return 0
    scales = [lcm(*(v.denominator for v in row)) for row in rows]
    m = np.array([[int(v * scale) for v in row] for row, scale in zip(rows, scales)], dtype=object)
    n_rows, n_cols = m.shape
    prev_piv, r = 1, 0
    for c in range(n_cols):
        piv_row = next((i for i in range(r, n_rows) if m[i, c] != 0), None)
        if piv_row is None:
            continue
        m[[r, piv_row]] = m[[piv_row, r]]
        piv = m[r, c]
        block = m[r + 1 :, :]
        block[:] = (block * piv - np.outer(block[:, c].copy(), m[r, :])) // prev_piv
        prev_piv = piv
        r += 1
        if r == n_rows:
            break
    return r


def assert_pivot_contract(mat) -> list[tuple[int, dict[int, int]]]:
    """`_eliminate` returns distinct pivot columns in ascending order, each
    pivot row nonzero at its column with its other entries in later columns,
    and primitive (content 1)."""
    rows, _ = rational._integer_rows(mat)
    pivots = rational._eliminate(rows)
    cols = [j for j, _ in pivots]
    assert cols == sorted(set(cols))
    for j, prow in pivots:
        assert min(prow) == j and all(prow.values())
        assert gcd(*prow.values()) == 1
    return pivots


def assert_matches_oracle(mat, dense) -> None:
    """rank and the pivot count of `_eliminate`, whose contract is checked,
    equal the Bareiss oracle; the nullspace from the pivots has n - rank
    vectors, each annihilated exactly."""
    r = rational.rank(mat)
    assert r == len(assert_pivot_contract(mat)) == bareiss_rank(dense)
    n_cols = len(dense[0]) if dense else mat.shape[1]
    null = exact_nullspace(mat)
    assert len(null) == n_cols - r
    for v in null:
        assert len(v) == n_cols and all(isinstance(x, Fraction) for x in v)
        for row in dense:
            assert sum(Fraction(a) * x for a, x in zip(row, v)) == 0


def test_rank_of_fraction_rows_with_a_late_denominator():
    # The second entry of the first row carries the denominator: the old
    # dense kernel rescaled only the entries after it and returned 2.
    A = [[1, Fraction(1, 2)], [2, 1]]
    assert bareiss_rank(A) == 1
    assert rational.rank(A) == 1
    assert_matches_oracle(A, A)


@st.composite
def exact_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    entry = st.integers(-4, 4)
    if draw(st.booleans()):
        entry = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 5))
    sparse = st.one_of(st.just(0), st.just(0), entry)  # mostly zeros, like lattice maps
    mat = [[draw(sparse) for _ in range(cols)] for _ in range(rows)]
    if rows and cols and draw(st.booleans()):
        # duplicate a combination of rows so rank deficiency is common
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        k = draw(st.integers(-2, 2))
        mat[i] = [a + k * b for a, b in zip(mat[i], mat[j])]
    return np.array(mat, dtype=object).reshape(rows, cols)


def non_canonical_csr(ints: np.ndarray) -> sp.csr_matrix:
    """The integer matrix as a CSR that repeats every column of every row:
    entry v is stored as v + 1 and -1, so zeros are pairs that cancel and
    -1 leaves an explicit zero."""
    n_rows, n_cols = ints.shape
    data = np.stack([ints + 1, -np.ones_like(ints)], axis=-1).ravel()
    indices = np.tile(np.repeat(np.arange(n_cols), 2), n_rows)
    return sp.csr_matrix((data, indices, np.arange(n_rows + 1) * 2 * n_cols), shape=ints.shape)


def test_non_canonical_csr_is_read_as_its_canonical_form():
    ints = np.array([[3, 0, 0], [0, 0, -1], [0, 0, 0], [0, 4, 0]])
    mat = non_canonical_csr(ints)
    assert not mat.has_canonical_format
    data = mat.data.copy()
    assert rational._integer_rows(mat) == ([{0: 3}, {2: -1}, {}, {1: 4}], 3)
    assert np.array_equal(mat.data, data) and not mat.has_canonical_format  # the caller's CSR is untouched
    assert rational.rank(mat) == rational.rank(ints) == 3


@given(mat=exact_matrices())
@example(mat=np.zeros((0, 0), dtype=object))
@example(mat=np.zeros((0, 3), dtype=object))
@example(mat=np.zeros((3, 0), dtype=object))
@example(mat=np.zeros((2, 3), dtype=object))
@example(mat=np.array([[0, 1, 0], [0, 0, 0], [0, 2, 0], [0, -1, 0]], dtype=object))  # zero rows and columns
@settings(max_examples=200, deadline=None)
def test_rank_and_nullspace_match_dense_oracle(mat):
    dense = mat.tolist()
    assert_matches_oracle(mat, dense)
    if mat.shape[0]:
        assert_matches_oracle(dense, dense)  # nested lists
    if all(Fraction(v).denominator == 1 for v in mat.flat):
        ints = mat.astype(np.int64)
        assert_matches_oracle(ints, dense)
        assert_matches_oracle(sp.csr_matrix(ints), dense)
        assert_matches_oracle(non_canonical_csr(ints), dense)


def energy_form(lat):
    """emb^T emb built here from the embedding, not read from `dualmap.d_matrix`."""
    emb = dualmap.dual_embedding(lat).matrix
    return (emb.T @ emb).tocsr()


LATTICE_MATRICES = {
    "divergence": divergence_matrix,
    "embedding": lambda lat: dualmap.dual_embedding(lat).matrix,
    "d_matrix": dualmap.d_matrix,
    "A0": energy_form,
    "cube_flux": cube_flux_matrix,
    "constraints": lambda lat: dualmap.constraint_set(lat).matrix,
}
LATTICE_CASES = [
    (name, lat) for lat in GEOMETRIES for name in LATTICE_MATRICES if name != "cube_flux" or lat.dim == 3
]


@pytest.mark.parametrize(
    "name,lat", LATTICE_CASES, ids=[f"{name}-{geometry_id(lat)}" for name, lat in LATTICE_CASES]
)
def test_lattice_matrices_match_dense_oracle(name, lat):
    mat = LATTICE_MATRICES[name](lat)
    assert_matches_oracle(mat, mat.toarray().tolist())


# --- ranks against the lattice's own counts ----------------------------------

# the lattices of the classical_exact benchmark workload (dof and verify-all)
CLASSICAL_EXACT_LATTICES = [Lattice(2, 16, "periodic"), Lattice(2, 8, "periodic"), Lattice(3, 3, "periodic")]
GRAPH_ORACLE_LATTICES = list(
    dict.fromkeys(FORM_GEOMETRIES + CLASSICAL_EXACT_LATTICES + [Lattice(2, 64, "periodic")])
)


@pytest.mark.parametrize("lat", GRAPH_ORACLE_LATTICES, ids=geometry_id)
def test_divergence_rank_is_sites_minus_one(lat):
    """The divergence is the incidence matrix of the lattice graph, which is
    connected: its rank is n_sites - 1, whatever the elimination order."""
    assert rational.rank(divergence_matrix(lat)) == lat.n_sites - 1


@pytest.mark.parametrize("lat", CLASSICAL_EXACT_LATTICES, ids=geometry_id)
def test_embedding_nullity_is_the_independent_constraint_count(lat):
    emb = dualmap.dual_embedding(lat).matrix
    assert emb.shape[1] - rational.rank(emb) == dualmap.constraint_set(lat).n_independent


# --- the dual kernel counted through the embedding ----------------------------

KERNEL_FORMS = {"d_matrix": dualmap.d_matrix, "A0": energy_form}
KERNEL_CASES = [(name, lat) for lat in GEOMETRIES for name in KERNEL_FORMS]


@pytest.mark.parametrize(
    "name,lat", KERNEL_CASES, ids=[f"{name}-{geometry_id(lat)}" for name, lat in KERNEL_CASES]
)
def test_kernel_dimension_matches_exact_elimination(name, lat):
    """D = emb^T emb exactly, so n - rank(emb), the count of the kernel entry,
    equals the nullity that elimination of D itself gives, and the number of
    independent constraint rows."""
    mat = KERNEL_FORMS[name](lat)
    emb = dualmap.dual_embedding(lat).matrix
    assert (mat != emb.T @ emb).nnz == 0
    n = mat.shape[1]
    assert n - rational.rank(emb) == n - rational.rank(mat) == dualmap.constraint_set(lat).n_independent


def test_pseudo_inverse_symmetric_zero_sum_kernel():
    # graph Laplacian of a triangle: kernel = constants
    A = rational.exact_array(F([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]))
    ker = [[Fraction(1)] * 3]
    G = greens.pseudo_inverse(A, ker, exact=True)
    AG = A @ G
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
    # the list elimination it replaced (conftest) takes the same steps
    assert [M.tolist() for M in (U, D, V)] == list(list_smith_normal_form(A))
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


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_invert_equals_the_list_oracle(data):
    n = data.draw(st.integers(1, 5))
    entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    A = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    try:
        want = list_invert(A)
    except ValueError:
        with pytest.raises(ValueError):
            rational.invert(A)
        return
    assert rational.invert(A).tolist() == want


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
    got = integer_image_mask(snf, np.array(v, dtype=object)[:, None])[0]
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
        assert integer_image_mask(snf, np.array([[v]]))[0] == (v % 4 == 0)
