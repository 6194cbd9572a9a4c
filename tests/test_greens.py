"""Green's tables: frozen values and an independent Fourier oracle."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dualqed import dualmap, greens
from dualqed.greens import (
    _fourier_site_kernel,
    greens_sites,
    greens_table,
)
from dualqed.lattice import Lattice, cell_coordinates, laplacian_matrix

from conftest import (
    EXACT_GEOMETRIES,
    assert_entries_hold,
    geometry_id,
    list_greens_plaquettes_obc,
    list_greens_sites,
    site_index,
    sites,
)


def test_four_cycle_frozen_row():
    # the single-plaquette open lattice is the 4-site cycle graph; its
    # zero-sum inverse Laplacian is known in closed form
    lat = Lattice(2, 1, "open")
    table = greens_sites(lat, exact=True)
    i00 = site_index(lat, (0, 0))
    i01 = site_index(lat, (0, 1))
    i10 = site_index(lat, (1, 0))
    i11 = site_index(lat, (1, 1))
    row = table.exact[i00]
    assert row[i00] == Fraction(5, 16)
    assert row[i01] == Fraction(-1, 16)
    assert row[i10] == Fraction(-1, 16)
    assert row[i11] == Fraction(-3, 16)
    assert sum(row) == 0


def test_periodic_n3_frozen_diagonal():
    lat = Lattice(2, 3, "periodic")
    table = greens_sites(lat, exact=True)
    assert table.exact[0][0] == Fraction(2, 9)
    assert table.normalization == "zero_row_sum"
    assert abs(table.values[0, 0] - 2 / 9) < 1e-15


def longdouble_fourier_oracle(lat: Lattice) -> np.ndarray:
    """Independent extended-precision momentum-sum evaluation (periodic)."""
    N, d = lat.N, lat.dim
    coords = np.array(sites(lat))
    n = len(coords)
    G = np.zeros((n, n), dtype=np.longdouble)
    two_pi = np.longdouble(2) * np.longdouble(np.pi) / N
    for k in np.ndindex(*(N,) * d):
        if all(c == 0 for c in k):
            continue
        denom = sum(np.longdouble(2) - np.longdouble(2) * np.cos(two_pi * c) for c in k)
        for a in range(n):
            for b in range(n):
                disp = (coords[a] - coords[b]) % N
                phase = two_pi * sum(int(kc) * int(rc) for kc, rc in zip(k, disp))
                G[a, b] += np.cos(np.longdouble(phase)) / denom
    return (G / np.longdouble(N**d)).astype(float)


@pytest.mark.parametrize("lat", [Lattice(2, 3, "periodic"), Lattice(2, 4, "periodic")], ids=lambda l: l.label())
def test_periodic_table_matches_extended_precision_oracle(lat):
    got = greens_sites(lat).values
    want = longdouble_fourier_oracle(lat)
    assert np.abs(got - want).max() < 1e-13


def momentum_loop_kernel(lat: Lattice) -> np.ndarray:
    """The site kernel on the displacement grid as the explicit double loop
    over momenta and displacements."""
    N, d = lat.N, lat.dim
    shape = (N,) * d
    g = np.zeros(shape, dtype=float)
    two_pi = 2.0 * np.pi / N
    for k in np.ndindex(shape):
        if all(c == 0 for c in k):
            continue
        denom = sum(2.0 - 2.0 * np.cos(two_pi * c) for c in k)
        for r in np.ndindex(shape):
            phase = two_pi * sum(kc * rc for kc, rc in zip(k, r))
            g[r] += np.cos(phase) / denom
    return g / N**d


@pytest.mark.parametrize(
    "lat",
    [Lattice(2, n, "periodic") for n in (1, 2, 3, 8, 16)] + [Lattice(3, n, "periodic") for n in (2, 3, 4)],
    ids=lambda l: l.label(),
)
def test_fft_site_kernel_matches_momentum_loop(lat):
    got = _fourier_site_kernel(lat)
    assert got.shape == (lat.N,) * lat.dim
    assert np.abs(got - momentum_loop_kernel(lat)).max() <= 1e-13


@pytest.mark.parametrize(
    "lat",
    [Lattice(2, 2, "open"), Lattice(2, 3, "periodic"), Lattice(3, 2, "open"), Lattice(3, 2, "periodic")],
    ids=lambda l: l.label(),
)
def test_site_table_inverts_laplacian_on_zero_sum_complement(lat, rng):
    assert_entries_hold(lat, rng, "greens_site_inverts_laplacian_on_zero_sum")
    G = greens_sites(lat).values
    # symmetric and zero-row-sum
    assert np.abs(G - G.T).max() < 1e-12
    assert np.abs(G.sum(axis=1)).max() < 1e-12


def test_exact_and_float_tables_agree():
    for lat in (Lattice(2, 2, "open"), Lattice(2, 2, "periodic")):
        t_float = greens_sites(lat).values
        t_exact = greens_sites(lat, exact=True)
        as_float = np.array([[float(v) for v in row] for row in t_exact.exact])
        assert np.abs(t_float - as_float).max() < 1e-13


@pytest.mark.parametrize("lat", EXACT_GEOMETRIES, ids=geometry_id)
def test_exact_tables_equal_the_list_oracle(lat):
    """The object-array tables equal the list-of-rows Fraction elimination
    they replaced (conftest), entry for entry."""
    assert greens_sites(lat, exact=True).exact.tolist() == list_greens_sites(lat)
    if lat.dim == 2 and not lat.periodic:
        # D+ of the embedding against the list inverse of the modified Laplacian
        assert greens_table(lat, "plaq_obc", exact=True).exact.tolist() == list_greens_plaquettes_obc(lat)


def test_every_dense_table_is_one_pseudo_inverse_call(monkeypatch):
    """The site table (float open and exact) and D+ (float and exact) each
    come out of `greens.pseudo_inverse`, and the plaq_obc table is D+."""
    formula, returned = greens.pseudo_inverse, []

    def spy(form, kernel, exact=False):
        returned.append(formula(form, kernel, exact))
        return returned[-1]

    monkeypatch.setattr(greens, "pseudo_inverse", spy)
    lat = Lattice(3, 2, "open")
    for exact in (False, True):
        # the uncached builders, so every table is built here
        site = greens_sites.__wrapped__(lat, exact)
        tables = [site.exact if exact else site.values, dualmap.modified_greens.__wrapped__(lat, exact)]
        assert all(t is r for t, r in zip(tables, returned[-2:], strict=True))
    assert len(returned) == 4
    flat = Lattice(2, 2, "open")
    assert greens_table(flat, "plaq_obc").values is dualmap.modified_greens(flat)
    assert greens_table(flat, "modified", exact=True).exact is dualmap.modified_greens(flat, exact=True)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_pseudo_inverse_refuses_past_its_lane_cap_before_allocating(exact):
    """One cap per lane, checked on the form's row count before any dense
    array exists: DENSE_LIMIT rows for floats, EXACT_LIMIT for Fractions."""
    import scipy.sparse as sp

    n = (greens.EXACT_LIMIT if exact else greens.DENSE_LIMIT) + 1
    form, kernel = sp.identity(n, dtype=np.int64, format="csr"), np.zeros((0, n), dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"got {n};"):
            greens.pseudo_inverse(form, kernel, exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8 * 64


def test_float_pseudo_inverse_peaks_at_three_dense_copies():
    """A + P and the inverse minus P are formed in place: on the 961-site 2D
    N=30 open site Laplacian the float lane holds A, P and G at its peak,
    not a fourth n x n array for a sum."""
    lat = Lattice(2, 30, "open")
    form, kernel = -laplacian_matrix(lat, "site"), np.ones((1, lat.n_sites), dtype=np.int64)
    tracemalloc.start()
    try:
        greens.pseudo_inverse(form, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * lat.n_sites**2 * 8


def test_translation_invariance_periodic():
    lat = Lattice(2, 3, "periodic")
    G = greens_sites(lat).values
    coords = sites(lat)
    # G(x, y) depends only on (x - y) mod N
    ref = {}
    for a, xa in enumerate(coords):
        for b, xb in enumerate(coords):
            disp = tuple((ca - cb) % lat.N for ca, cb in zip(xa, xb))
            if disp in ref:
                assert abs(G[a, b] - ref[disp]) < 1e-12
            else:
                ref[disp] = G[a, b]


def test_modified_plaquette_table_is_true_inverse():
    lat = Lattice(2, 3, "open")
    table = greens_table(lat, "plaq_obc", exact=True)
    assert table.normalization == "true_inverse"
    A = (-laplacian_matrix(lat, "plaquette")).toarray().astype(int)
    G = table.exact
    n = lat.n_plaqs
    prod = [[sum(Fraction(A[i][k]) * G[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def test_greens_table_dispatch_and_errors():
    obc = Lattice(2, 2, "open")
    pbc = Lattice(2, 2, "periodic")
    assert greens_table(obc, "site").kind == "site_obc"
    assert greens_table(pbc, "site").kind == "site_pbc"
    with pytest.raises(ValueError):
        greens_table(obc, "site_pbc")
    with pytest.raises(ValueError):
        greens_table(obc, "resistance")
    assert greens_table(obc, "modified").kind == "plaq_obc"
    # D+ is a true inverse, the plaq_obc table, only on 2D open lattices
    for lat in (pbc, Lattice(3, 2, "open"), Lattice(3, 2, "periodic")):
        for kind in ("plaq_obc", "modified"):
            with pytest.raises(ValueError, match="plaq_obc tables are D\\+ on a 2D open lattice"):
                greens_table(lat, kind)


@pytest.mark.parametrize("lat", [Lattice(2, 32, "periodic"), Lattice(3, 10, "periodic")], ids=geometry_id)
def test_torus_site_table_holds_one_dense_array(lat):
    """The float torus table indexes the FFT kernel with one (N, N)
    displacement table per axis: its build peaks near the n x n result
    alone, where (dim, n, n) int64 index arrays took it to 4-6 of them.
    The entries are those the index arrays pick, bit for bit."""
    tracemalloc.start()
    try:
        G = greens_sites.__wrapped__(lat).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * lat.n_sites**2 * 8
    _, x = cell_coordinates(lat, "site")
    assert G.tobytes() == _fourier_site_kernel(lat)[tuple((x[:, :, None] - x[:, None, :]) % lat.N)].tobytes()
