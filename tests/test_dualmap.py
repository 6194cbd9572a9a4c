"""Dual-variable maps: constraints, DOF audits, kernels, and flux classes."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import checks, greens, rational
from dualqed.dualmap import (
    _flux_class_snf,
    constraint_set,
    d_matrix,
    dof_report,
    dual_embedding,
    flux_and_winding_map,
    flux_class_congruences,
    flux_offset_map,
    integer_tree_flow_matrix,
    modified_greens,
    winding_map,
)
from dualqed.lattice import (
    Lattice,
    axis_indicator_matrix,
    cube_flux_matrix,
    curl_link_to_plaq_matrix,
    divergence_matrix,
)

from conftest import (
    EXACT_GEOMETRIES,
    FORM_GEOMETRIES,
    GEOMETRIES,
    GEOMETRIES_2D,
    assert_entries_hold,
    bfs_tree_flow_matrix,
    entry_test,
    exact_nullspace,
    geometry_id,
    in_flux_class,
    integer_image_mask,
    list_modified_greens,
    list_smith_normal_form,
    loop_constraint_set,
    transverse_columns,
)


def closed_form_dof(lat: Lattice) -> int:
    N = lat.N
    if lat.dim == 2:
        return N * N + 1 if lat.periodic else N * N
    return 2 * N**3 + 1 if lat.periodic else 2 * N**3 + 3 * N * N


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_dof_report_matches_closed_form(lat):
    rep = dof_report(lat)
    assert rep["original_physical"] == closed_form_dof(lat)
    assert rep["dual_physical"] == rep["original_physical"]
    assert rep["match"] is True


def test_constraint_kinds():
    assert constraint_set(Lattice(2, 2, "open")).kinds == ()
    assert constraint_set(Lattice(2, 2, "periodic")).kinds == ("total_flux",)
    kinds3 = constraint_set(Lattice(3, 2, "periodic")).kinds
    assert kinds3.count("cube_flux") == 8
    assert sum(k.startswith("slice_sum") for k in kinds3) == 3
    open3 = constraint_set(Lattice(3, 2, "open")).kinds
    assert open3.count("cube_flux") == 8 and len(open3) == 8


@pytest.mark.parametrize("lat", GEOMETRIES + [Lattice(3, 6, bc) for bc in ("open", "periodic")], ids=geometry_id)
def test_constraint_set_equals_the_dense_row_oracle(lat):
    """The sparse build holds the dense row loop's CSR entry by entry."""
    got, want = constraint_set(lat), loop_constraint_set(lat)
    assert (got.kinds, got.n_independent) == (want.kinds, want.n_independent)
    assert got.matrix.shape == want.matrix.shape and got.matrix.dtype == want.matrix.dtype
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got.matrix, name), getattr(want.matrix, name)), name


def test_constraint_set_stays_sparse_at_3d_n12_open():
    """10,368 nonzeros; the dense row loop peaked at 234 MB here."""
    lat = Lattice(3, 12, "open")
    cube_flux_matrix(lat)
    tracemalloc.start()
    try:
        constraint_set.__wrapped__(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_constraints_annihilate_embedded_link_fields(lat, rng):
    """Physical dual vectors (images of real link fields) satisfy every constraint."""
    cons = constraint_set(lat)
    if cons.matrix.shape[0] == 0:
        return
    fw = flux_and_winding_map(lat)
    for _ in range(10):
        E = rng.integers(-3, 4, lat.n_links).astype(float)
        v = fw @ E
        assert np.abs(cons.matrix @ v).max() < 1e-12


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_d_matrix_symmetric_and_kernel_size(lat, rng):
    assert_entries_hold(lat, rng, "interaction_matrix_symmetric", "dual_kernel_matches_constraint_count")
    D = d_matrix(lat).toarray()
    for v in exact_nullspace(d_matrix(lat)):
        prod = [sum(Fraction(int(D[i][j])) * v[j] for j in range(len(v))) for i in range(len(D))]
        assert all(p == 0 for p in prod)


test_quadratic_form_equivalence = entry_test("quadratic_form_equivalence", geometries=GEOMETRIES_2D, draws=50)


@pytest.mark.parametrize("lat", [g for g in GEOMETRIES if not g.periodic], ids=geometry_id)
def test_open_lattice_energy_form_is_curl_curl(lat):
    """Without windings the embedding is the backward curl, so D = C C^T in integers."""
    C = curl_link_to_plaq_matrix(lat).toarray()
    assert np.array_equal(d_matrix(lat).toarray(), C @ C.T)


def test_modified_greens_exact_is_rational_inverse():
    lat = Lattice(2, 2, "open")
    G = modified_greens(lat, exact=True)
    D = d_matrix(lat).toarray()
    # G is the pseudo-inverse of D: D G D = D and G D G = G exactly
    assert np.array_equal(D @ G @ D, D)
    assert np.array_equal(G @ D @ G, G)


test_canonical_pairing_structure = entry_test(
    "canonical_pairing_identity", "canonical_pairing_identity_on_constraint_quotient", geometries=GEOMETRIES_2D
)


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_dual_embedding_reconstructs_transverse_images(lat, rng):
    """Embedding of dual coordinates of F equals the transverse part of F."""
    from dualqed.helmholtz import dual_coordinate_map

    emb = dual_embedding(lat).matrix.toarray()
    T = dual_coordinate_map(lat)
    P = transverse_columns(lat)
    assert np.abs(emb @ T - P).max() < 1e-10


# --- integer structures ------------------------------------------------------


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_tree_flow_solves_gauss_equation(lat):
    T = integer_tree_flow_matrix(lat)
    assert T.dtype == np.int64
    div = divergence_matrix(lat).toarray()
    prod = div @ T
    # div(T rho) = rho - (total charge) * e_root: identity on neutral inputs
    want = np.eye(lat.n_sites, dtype=np.int64)
    want[0, :] -= 1
    assert np.array_equal(prod, want)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_staircase_tree_offsets_share_the_bfs_tree_classes(lat):
    """The staircase tree and the breadth-first tree (conftest) differ by a
    divergence-free integer field per column, so their flux offsets differ
    by vectors of the class lattice D·Z^n.  The trees are the same unless a
    breadth-first path wraps around a torus, which needs N >= 3."""
    T, bfs = integer_tree_flow_matrix(lat), bfs_tree_flow_matrix(lat)
    assert not (divergence_matrix(lat) @ (T - bfs)).any()
    fw = flux_and_winding_map(lat).toarray().astype(np.int64)
    assert integer_image_mask(_flux_class_snf(lat), fw @ (T - bfs)).all()
    assert np.array_equal(T, bfs) == (not lat.periodic or lat.N < 3)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_loop_field_basis_is_divergence_free(lat):
    """The columns of the embedding are plaquette loops and axis lines."""
    B = dual_embedding(lat).matrix.toarray()
    div = divergence_matrix(lat).toarray()
    assert np.abs(div @ B).max() == 0
    n_expected = lat.n_plaqs + lat.n_global_loops
    assert B.shape == (lat.n_links, n_expected)


def test_flux_offset_single_plaquette():
    lat = Lattice(2, 1, "open")
    off = flux_offset_map(lat)
    assert off.shape == (1, 4)
    assert off.tolist() == [[0, 1, -1, -2]]


def test_flux_class_single_plaquette_is_multiples_of_four():
    lat = Lattice(2, 1, "open")
    for v in range(-9, 10):
        assert in_flux_class(lat, [v]) == (v % 4 == 0)


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_flux_vectors_of_integer_fields_live_in_offset_class(lat, rng):
    """[circulation; winding] of any integer link field sits in the class of
    its divergence: the class test accepts v - offset(div E) for every E."""
    fw = flux_and_winding_map(lat).toarray().astype(np.int64)
    div = divergence_matrix(lat).toarray().astype(np.int64)
    off = flux_offset_map(lat)
    for _ in range(15):
        E = rng.integers(-3, 4, lat.n_links)
        v = fw @ E
        rho = div @ E
        assert in_flux_class(lat, v - off @ rho)


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_flux_class_congruences_decide_membership(lat, rng):
    """(W v) divisible by d row by row (zero where d = 0) exactly when v is
    in the class lattice; checked on members and on unit perturbations."""
    w, d = flux_class_congruences(lat)
    assert np.all(d != 1) and np.all(d >= 0)
    D = d_matrix(lat).toarray()
    cases = [D @ rng.integers(-3, 4, D.shape[1]) for _ in range(10)]
    cases += [v + np.eye(len(v), dtype=np.int64)[rng.integers(len(v))] for v in cases]
    cases += [rng.integers(-5, 6, len(cases[0])) for _ in range(20)]
    for v in cases:
        rest = w @ v
        held = np.all(np.where(d > 0, rest % np.maximum(d, 1), rest) == 0)
        assert held == in_flux_class(lat, v)


@pytest.mark.parametrize("lat", [Lattice(2, 6, "periodic"), Lattice(2, 8, "open")], ids=geometry_id)
def test_flux_class_congruences_fit_where_the_smith_u_overflows(lat, rng):
    """U of the Smith form holds entries past int64 here; its kept rows,
    reduced modulo d first, lie in 0 <= w < d, and every class-lattice
    vector D·z passes every congruence in Python-int arithmetic."""
    assert max(abs(x) for row in _flux_class_snf(lat)[0] for x in row) >= 2**63
    w, d = flux_class_congruences(lat)
    congruent = d > 0
    assert np.all((w[congruent] >= 0) & (w[congruent] < d[congruent, None]))
    D = d_matrix(lat).toarray()
    rows = [[int(x) for x in row] for row in w]
    for _ in range(10):
        v = [int(x) for x in D @ rng.integers(-3, 4, D.shape[1])]
        rest = [sum(a * b for a, b in zip(row, v)) for row in rows]
        assert all(r % m == 0 if m else r == 0 for r, m in zip(rest, d.tolist()))


@pytest.mark.parametrize("N, bits", [(9, 52), (10, 66), (12, 92)])
def test_flux_class_congruences_refuse_moduli_past_int64(N, bits):
    """The largest Smith modulus of the 2D open class lattice grows with N.
    Up to 63 bits the congruences come back in int64; past it they are
    refused with a ValueError naming the bit length, not an OverflowError."""
    lat = Lattice(2, N, "open")
    assert max(int(x) for x in _flux_class_snf(lat)[1].diagonal()).bit_length() == bits
    if bits < 64:
        w, d = flux_class_congruences(lat)
        assert w.dtype == d.dtype == np.int64
        return
    with pytest.raises(ValueError, match=f"need a {bits}-bit integer, past the 63 bits of int64"):
        flux_class_congruences(lat)


def test_winding_map_counts_axis_crossings():
    lat = Lattice(2, 2, "periodic")
    w = winding_map(lat).toarray()
    assert w.shape == (2, lat.n_links)
    # indicator weights: a full axis line sums to N in its own direction, 0 across
    from dualqed.lattice import global_loop_links

    for i in range(2):
        line = np.zeros(lat.n_links)
        for ell in global_loop_links(lat, i):
            line[ell] = 1
        got = w @ line
        assert got[i] == lat.N
        assert got[1 - i] == 0


# --- the one dual form against the separate constructions it replaced -------
#
# The flux/winding extractor, the energy form, the loop-field basis and the
# condensed kernel used to be built on their own.  These copies of the old
# constructions pin the single form D = emb^T emb to each of them.

def _separate_flux_and_winding(lat):
    C = curl_link_to_plaq_matrix(lat)
    if lat.periodic:
        return sp.vstack([C, axis_indicator_matrix(lat).T]).tocsr()
    return C.tocsr()


def _separate_loop_basis(lat):
    cols = [curl_link_to_plaq_matrix(lat).toarray().T.astype(np.int64)]
    if lat.periodic:
        cols.append(axis_indicator_matrix(lat).toarray().astype(np.int64))
    return np.hstack(cols)


def _condensed_kernel(lat, exact=False):
    """D+ A0 D+ with D = fw·emb and A0 = emb^T·emb built separately, and the
    kernel of D from its exact nullspace rather than `constraint_set`."""
    emb = dual_embedding(lat).matrix
    D = (_separate_flux_and_winding(lat) @ emb).toarray()
    A0 = (emb.T @ emb).toarray()
    kernel = np.array(exact_nullspace(D), dtype=object).reshape(-1, D.shape[1])
    Dp = greens.pseudo_inverse(sp.csr_matrix(D), kernel, exact)
    return Dp @ A0 @ Dp


@pytest.mark.parametrize("lat", FORM_GEOMETRIES, ids=geometry_id)
def test_dual_form_is_every_separate_construction(lat):
    emb = dual_embedding(lat).matrix.toarray()
    fw = _separate_flux_and_winding(lat).toarray()
    D = d_matrix(lat).toarray()
    assert D.dtype.kind == emb.dtype.kind == fw.dtype.kind == "i"
    assert np.array_equal(fw, emb.T)
    assert np.array_equal(flux_and_winding_map(lat).toarray(), emb.T)
    assert np.array_equal(_separate_loop_basis(lat), emb)
    assert np.array_equal(fw @ emb, D)
    assert np.array_equal(emb.T @ emb, D)


@pytest.mark.parametrize("lat", FORM_GEOMETRIES, ids=geometry_id)
def test_modified_greens_matches_condensed_kernel(lat):
    old = _condensed_kernel(lat)
    assert np.abs(modified_greens(lat) - old).max() <= 1e-14 * np.abs(old).max()


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_exact_modified_greens_matches_condensed_kernel(lat):
    assert np.array_equal(modified_greens(lat, exact=True), _condensed_kernel(lat, exact=True))


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_float_modified_greens_matches_the_exact_table(lat):
    exact = modified_greens(lat, exact=True).astype(float)
    assert np.abs(modified_greens(lat) - exact).max() <= 1e-14 * np.abs(exact).max()


@pytest.mark.parametrize("lat", FORM_GEOMETRIES, ids=geometry_id)
def test_modified_greens_kernel_rows_are_independent_and_span_the_kernel(lat):
    """The constraint rows modified_greens keeps are independent and as many
    as the nullity of D, so P = K^T (K K^T)^-1 K projects onto ker D.  The
    nullity is n - rank(emb), as the kernel entry counts it, and equals the
    one that elimination of D itself gives."""
    cons = constraint_set(lat)
    kept = cons.matrix[cons.matrix.shape[0] - cons.n_independent :]
    assert rational.rank(kept) == kept.shape[0]
    D, emb = d_matrix(lat), dual_embedding(lat).matrix
    assert (D != emb.T @ emb).nnz == 0
    n = D.shape[1]
    assert n - rational.rank(emb) == n - rational.rank(D) == kept.shape[0]


def test_float_modified_greens_is_a_pseudo_inverse_at_3d_n6_open():
    """216 zero singular values of D: an SVD cutoff at rounding level inverted
    one of them and gave entries near 1.4e12, failing three check entries."""
    lat = Lattice(3, 6, "open")
    D = d_matrix(lat).toarray().astype(float)
    Dp = modified_greens(lat)
    assert np.abs(D @ Dp @ D - D).max() <= 1e-12 * np.abs(D).max()
    assert np.abs(Dp @ D @ Dp - Dp).max() <= 1e-12 * np.abs(Dp).max()
    failed = [row["name"] for row in checks.run(lat, seed=0) if not row["passed"]]
    assert failed == []


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=geometry_id)
def test_flux_class_smith_form_matches_loop_basis_span(lat):
    span = _separate_flux_and_winding(lat).toarray().astype(np.int64) @ _separate_loop_basis(lat)
    for cached_m, fresh in zip(_flux_class_snf(lat), rational.smith_normal_form(span), strict=True):
        assert np.array_equal(cached_m, fresh)


@pytest.mark.parametrize("lat", EXACT_GEOMETRIES, ids=geometry_id)
def test_exact_modified_greens_equals_the_list_oracle(lat):
    assert modified_greens(lat, exact=True).tolist() == list_modified_greens(lat)


@pytest.mark.parametrize("lat", GEOMETRIES + [Lattice(2, 6, "periodic")], ids=geometry_id)
def test_flux_class_smith_form_equals_the_list_oracle(lat):
    """The object-array Smith form of D takes the list elimination's steps:
    the same U, D and V, so the flux-class congruences are unchanged."""
    for got, want in zip(_flux_class_snf(lat), list_smith_normal_form(d_matrix(lat)), strict=True):
        assert got.tolist() == want
