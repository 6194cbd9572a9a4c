"""Helmholtz splitting, potential reconstruction, and link shift tables."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from dualqed.dualmap import modified_greens
from dualqed.helmholtz import (
    _dual_coordinates,
    dual_coordinate_map,
    helmholtz_decompose,
    link_shift_table,
    ramp_matrix,
    reconstruct_transverse,
    shift_reconstruction_residual,
    transverse_component_via_shifts,
)
from dualqed.greens import greens_sites
from dualqed.lattice import (
    FieldVector,
    Lattice,
    axis_indicator_matrix,
    curl_link_to_plaq_matrix,
    curl_plaq_to_link_matrix,
    direction_sum_matrix,
    divergence_matrix,
    gradient_matrix,
    laplacian_matrix,
)

from conftest import (
    EXACT_GEOMETRIES,
    GEOMETRIES,
    assert_entries_hold,
    entry_test,
    geometry_id,
    links,
    list_dual_coordinates,
    plaquette_index,
    plaquettes,
    transverse_columns,
)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_decomposition_round_trip_and_orthogonality(lat, rng):
    names = ("helmholtz_round_trip", "transverse_is_divergence_free", "longitudinal_is_curl_free")
    assert_entries_hold(lat, rng, *names, draws=20)
    for _ in range(20):
        dec = helmholtz_decompose(lat, FieldVector(lat, "link", rng.standard_normal(lat.n_links)))
        # longitudinal part is a gradient: orthogonal to the transverse part
        assert abs(dec.longitudinal.values @ dec.transverse.values) < 1e-10


test_potential_reconstructs_transverse_part = entry_test("transverse_reconstruction_from_potential", draws=10)


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_transverse_projector_is_idempotent_symmetric(lat):
    P = transverse_columns(lat)
    assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(P - P.T).max() < 1e-12


def test_ramp_matrix_produces_unit_winding():
    # a pure global loop field decomposes into zero longitudinal part and a
    # transverse part reproduced by ramp potential + winding value
    lat = Lattice(2, 2, "periodic")
    for direction in range(2):
        unit = np.zeros(lat.n_links)
        for idx, (x, i) in enumerate(links(lat)):
            if i == direction:
                unit[idx] = 1.0
        dec = helmholtz_decompose(lat, FieldVector(lat, "link", unit))
        assert np.abs(dec.longitudinal.values).max() < 1e-12
        assert dec.potential.global_values is not None
        assert abs(dec.potential.global_values[direction] - lat.N) < 1e-12  # S/N = N²/N
        rec = reconstruct_transverse(dec.potential)
        assert np.abs(rec.values - unit).max() < 1e-10
    R = ramp_matrix(lat)
    assert R.shape == (lat.n_plaqs, 2)


# --- frozen central-link table on the 3x3 open lattice -----------------------

KNOWN_3X3_SHIFTS = {
    # (corner_x, corner_y) -> exact shift for the central horizontal link
    (0, 2): "1/28",
    (1, 2): "9/112",
    (2, 2): "1/28",
    (0, 1): "1/16",
    (1, 1): "1/4",
    (2, 1): "1/16",
    (0, 0): "-1/28",
    (1, 0): "-23/112",
    (2, 0): "-1/28",
}


def test_central_link_shift_values_3x3_exact():
    lat = Lattice(2, 3, "open")
    table = link_shift_table(lat, (1, 1), 0, exact=True)
    assert table.global_shifts is None
    for corner, want in KNOWN_3X3_SHIFTS.items():
        idx = plaquette_index(lat, corner)
        assert table.exact_shifts[idx] == Fraction(want), corner
    # float table agrees with the exact one
    as_float = np.array([float(v) for v in table.exact_shifts])
    assert np.abs(table.shifts - as_float).max() < 1e-15


def test_shift_multiset_and_runtime_3x3():
    lat = Lattice(2, 3, "open")
    table = link_shift_table(lat, (1, 1), 0, exact=True)
    got = sorted(table.exact_shifts)
    want = sorted(
        Fraction(s)
        for s in ["1/4", "1/16", "1/16", "1/28", "1/28", "9/112", "-1/28", "-1/28", "-23/112"]
    )
    assert got == want


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_every_link_shift_table_reconstructs(lat):
    for x, i in links(lat):
        assert shift_reconstruction_residual(link_shift_table(lat, x, i)) < 1e-10


test_shift_pairing_evaluates_transverse_component = entry_test(
    "shift_pairing_reproduces_transverse_part",
    geometries=[Lattice(2, 2, "open"), Lattice(2, 2, "periodic"), Lattice(2, 3, "open")],
    draws=25,
)


def test_dual_coordinate_map_shapes():
    lat = Lattice(2, 2, "periodic")
    Mmap = dual_coordinate_map(lat)
    assert Mmap.shape[0] == lat.n_plaqs + lat.n_global_loops
    obc = Lattice(2, 2, "open")
    assert dual_coordinate_map(obc).shape[0] == obc.n_plaqs


def test_link_shift_table_rejects_missing_link():
    lat = Lattice(2, 2, "open")
    with pytest.raises((KeyError, ValueError)):
        link_shift_table(lat, (2, 0), 0)  # tail on the right edge, no link


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_decomposition_linearity(seed):
    lat = Lattice(2, 2, "periodic")
    r = np.random.default_rng(seed)
    a, b = r.standard_normal(2)
    F1 = r.standard_normal(lat.n_links)
    F2 = r.standard_normal(lat.n_links)
    d1 = helmholtz_decompose(lat, FieldVector(lat, "link", F1))
    d2 = helmholtz_decompose(lat, FieldVector(lat, "link", F2))
    d12 = helmholtz_decompose(lat, FieldVector(lat, "link", a * F1 + b * F2))
    assert np.abs(d12.transverse.values - a * d1.transverse.values - b * d2.transverse.values).max() < 1e-9
    assert np.abs(d12.phi.values - a * d1.phi.values - b * d2.phi.values).max() < 1e-9


# --- the dual-coordinate map against the per-link decomposition --------------
# The oracle is the per-link formula that shift tables and the shift pairing
# were once built from, one decomposition of a unit link field at a time, with
# its own float copy of the ramp pattern.  Shift tables must equal it bitwise;
# T's columns too, except on 3D open lattices, where the dense pseudo-inverse
# solver meets four curl entries per link and the matrix product sums them in
# another order.

DIFFERENTIAL_GEOMETRIES = GEOMETRIES + [
    Lattice(d, n, bc) for d, n in ((2, 8), (3, 3)) for bc in ("open", "periodic")
]


def _oracle_ramp(lat):
    N = lat.N
    out = np.zeros((lat.n_plaqs, lat.dim))
    if not lat.periodic:
        return out
    for p, plaq in enumerate(plaquettes(lat)):
        if lat.dim == 2:
            y = plaq
            out[p, 0] = y[1] / N**2
            out[p, 1] = -y[0] / N**2
        else:
            y, normal = plaq
            if normal == 2:
                if y[2] == 0:
                    out[p, 0] = y[1] / N**2
                    out[p, 1] = -y[0] / N**2
            elif normal == 1:
                out[p, 0] = -y[2] / N**3
                if y[1] == 0:
                    out[p, 2] = y[0] / N**2
            else:
                out[p, 1] = y[2] / N**3
                out[p, 2] = -y[1] / N**3
    return out


def _oracle_solver(lat):
    if lat.periodic:  # the site table on each same-normal plaquette torus
        return block_diag(*[greens_sites(lat).values] * (lat.n_plaqs // lat.n_sites))
    if lat.dim == 2:  # the modified plaquette Laplacian, inverted from its own stencil
        return np.linalg.inv((-laplacian_matrix(lat, "plaquette")).toarray().astype(float))
    return modified_greens(lat)


def _oracle_shift_tables(lat):
    """(plaquette shifts, global shifts or None) of every link, in link order."""
    solver, ramp = _oracle_solver(lat), _oracle_ramp(lat)
    C, dirsum = curl_link_to_plaq_matrix(lat), direction_sum_matrix(lat)
    tables = []
    for n in range(lat.n_links):
        unit = np.zeros(lat.n_links)
        unit[n] = 1.0
        L = solver @ (C @ unit)
        if lat.periodic:
            S = dirsum @ unit
            tables.append((L + ramp @ S, S / lat.N))
        else:
            tables.append((L, None))
    return tables


@pytest.mark.parametrize("lat", DIFFERENTIAL_GEOMETRIES, ids=geometry_id)
def test_shift_tables_and_dual_map_match_per_link_decomposition(lat):
    tables = _oracle_shift_tables(lat)
    T = dual_coordinate_map(lat)
    reordered = lat.dim == 3 and not lat.periodic
    for n, (x, i) in enumerate(links(lat)):
        L, glob = tables[n]
        table = link_shift_table(lat, x, i)
        assert table.shifts.tobytes() == L.tobytes()
        want = L if glob is None else np.concatenate([L, glob])
        if glob is not None:
            assert table.global_shifts.tobytes() == glob.tobytes()
        else:
            assert table.global_shifts is None
        if reordered:
            assert np.abs(T[:, n] - want).max() <= 1e-16
        else:
            assert T[:, n].tobytes() == want.tobytes()


@pytest.mark.parametrize("lat", DIFFERENTIAL_GEOMETRIES, ids=geometry_id)
def test_transverse_component_via_shifts_matches_per_link_loop(lat, rng):
    tables = _oracle_shift_tables(lat)
    C = curl_link_to_plaq_matrix(lat)
    for _ in range(3):
        F = rng.standard_normal(lat.n_links)
        circulation = C @ F
        winds = axis_indicator_matrix(lat).T @ F if lat.periodic else None
        want = np.array(
            [L @ circulation + (0.0 if glob is None else glob @ winds) for L, glob in tables]
        )
        got = transverse_component_via_shifts(lat, FieldVector(lat, "link", F))
        # one matrix-vector product against one dot product per link: rounding
        # only, bounded relative to the largest component (measured <= 7.3e-16)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("lat", GEOMETRIES, ids=geometry_id)
def test_every_exact_shift_table_reconstructs_the_exact_projection(lat):
    """curl(exact shifts) + axis·(exact globals) == (1 + grad G div) e_n in Fractions."""
    G = greens_sites(lat, exact=True).exact
    grad = gradient_matrix(lat).toarray()
    div = divergence_matrix(lat).toarray()
    curl_back = curl_plaq_to_link_matrix(lat).toarray()
    axis = axis_indicator_matrix(lat).toarray()
    for n, (x, i) in enumerate(links(lat)):
        table = link_shift_table(lat, x, i, exact=True)
        recon = curl_back @ table.exact_shifts
        if lat.periodic:
            recon = recon + axis @ table.exact_global
        target = grad @ (G @ div[:, n])
        target[n] += 1
        assert recon.dtype == target.dtype == object
        assert recon.tolist() == target.tolist(), (x, i)


@pytest.mark.parametrize("lat", EXACT_GEOMETRIES, ids=geometry_id)
def test_exact_shift_tables_equal_the_list_oracle(lat):
    """Every link's exact shift table equals the Fraction-list formula and
    Green's tables it replaced (conftest), entry for entry."""
    for x, i in links(lat):
        table = link_shift_table(lat, x, i, exact=True)
        unit = np.zeros(lat.n_links, dtype=np.int64)
        unit[table.link] = 1
        shifts, loops = list_dual_coordinates(lat, unit)
        assert table.exact_shifts.tolist() == shifts, (x, i)
        assert (None if table.exact_global is None else table.exact_global.tolist()) == loops, (x, i)


def holds_exact_entries(arr: np.ndarray) -> bool:
    return arr.dtype == object and all(type(v) in (int, Fraction) for v in arr.flat)


@pytest.mark.parametrize("lat", EXACT_GEOMETRIES, ids=geometry_id)
def test_exact_tables_hold_no_float_and_refuse_writes(lat):
    """Every entry of the exact tables and exact shift tables is an int or a
    Fraction, and every cached exact array is read-only."""
    shared = [greens_sites(lat, exact=True).exact, modified_greens(lat, exact=True), ramp_matrix(lat, exact=True)]
    for arr in shared:
        assert holds_exact_entries(arr)
        with pytest.raises(ValueError, match="read-only"):
            arr[0, 0] = Fraction(1, 3)
    for x, i in links(lat):
        table = link_shift_table(lat, x, i, exact=True)
        assert holds_exact_entries(table.exact_shifts), (x, i)
        assert table.exact_global is None or holds_exact_entries(table.exact_global), (x, i)


def test_exact_dual_coordinates_refuse_a_float_field():
    """An exact table times a float vector would silently return floats."""
    lat = Lattice(2, 2, "periodic")
    with pytest.raises(TypeError):
        _dual_coordinates(lat, np.eye(lat.n_links), exact=True)


def test_dual_coordinate_map_holds_no_link_by_link_identity():
    """T is the formula applied to a sparse identity, densified after the
    curl: with the Green's table cached, building T on 2D open N=16 (544
    links, 256 plaquettes) peaks below one n_links x n_links float array,
    where the dense identity alone was one."""
    import tracemalloc

    lat = Lattice(2, 16, "open")
    modified_greens(lat)
    tracemalloc.start()
    try:
        T = dual_coordinate_map.__wrapped__(lat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.shape == (lat.n_plaqs, lat.n_links)
    assert peak < lat.n_links**2 * 8
