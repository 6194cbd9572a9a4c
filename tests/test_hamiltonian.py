"""Hamiltonian builders: hand-sized matrix oracles, symmetry checks, and the
exact correspondence between the electric and flux descriptions on matched
windows."""

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import hilbert, spectrum
from dualqed.greens import greens_sites
from dualqed.hamiltonian import (
    ModelParams,
    h_dual_thetam,
    h_original,
)
from dualqed.hilbert import HilbertSpec
from dualqed.lattice import Lattice, curl_link_to_plaq_matrix, site_parity

ONE_PLAQ_OPEN = Lattice(2, 1, "open")


def _decode_levels(spec, full_index):
    """Per-factor local indices of a product state, outermost factor first."""
    return np.array(np.unravel_index(int(full_index), spec.dims))


# ---------------------------------------------------------------------------
# Hand-assembled oracles on the single-plaquette open lattice
# ---------------------------------------------------------------------------


def test_electric_gauss_sector_matches_hand_matrix():
    """Pure gauge, cutoff 1, constraint-satisfying sector: a 3x3 matrix.

    The only divergence-free integer fields inside the cutoff are c times
    the single circulation pattern with c in {-1, 0, 1}, so in the c-ordered
    basis the projected Hamiltonian must be

        [[2 g2, -1/(2 g2), 0],
         [-1/(2 g2), 0, -1/(2 g2)],
         [0, -1/(2 g2), 2 g2]]

    (diagonal (g2/2) * 4 c^2; the loop term moves c by one unit only).
    """
    g2 = 1.3
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    basis = hilbert.gauss_sector_basis(spec)
    assert basis.dim == 3

    # order the sector states by their circulation coefficient
    w = curl_link_to_plaq_matrix(lat).toarray()[0]  # signs of the single loop
    coeffs = []
    for idx in basis.indices:
        E = _decode_levels(spec, idx) - spec.cutoff
        c = int(E @ w) // int(w @ w)
        assert np.array_equal(E, c * w), "sector state is not a pure circulation"
        coeffs.append(c)
    assert sorted(coeffs) == [-1, 0, 1]
    order = np.argsort(coeffs)

    H = h_original(spec, ModelParams(g2=g2, t=0.0, m=0.0), basis).toarray().real
    H = H[np.ix_(order, order)]
    x = -1.0 / (2.0 * g2)
    expected = np.array(
        [
            [2.0 * g2, x, 0.0],
            [x, 0.0, x],
            [0.0, x, 2.0 * g2],
        ]
    )
    assert np.abs(H - expected).max() <= 1e-12
    assert np.abs(h_original(spec, ModelParams(g2=g2), basis).toarray().imag).max() == 0.0


def test_flux_rotor_matches_hand_matrix():
    """Pure gauge dual space at cutoff 4: one rotor, 9 states.

    Diagonal (g2/2) * (1/4) * M^2 (the condensed kernel of the one-plaquette
    open lattice is 1/4); the loop term connects M to M +- 4 with weight
    -1/(2 g2).
    """
    g2 = 0.7
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "plaqs_M", cutoff=4)
    assert spec.total_dim == 9

    H = h_dual_thetam(spec, ModelParams(g2=g2, t=0.0)).toarray().real
    Ms = np.arange(-4, 5)
    expected = np.diag(0.5 * g2 * 0.25 * Ms.astype(float) ** 2)
    x = -1.0 / (2.0 * g2)
    for a in range(9):
        for b in range(9):
            if abs(Ms[a] - Ms[b]) == 4:
                expected[a, b] = x
    assert np.abs(H - expected).max() <= 1e-12


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------


HERMITICITY_CASES = [
    (Lattice(2, 1, "open"), "links_E", "staggered_fermion", 2, None),
    (Lattice(2, 1, "open"), "plaqs_M", "staggered_fermion", 4, None),
    (Lattice(2, 2, "periodic"), "plaqs_M", "none", 1, (1.0, -1.0, 0.0, 0.0)),
    (Lattice(2, 1, "open"), "plaqs_M", "hardcore_boson", 2, None),
]


@pytest.mark.parametrize(
    "lat,kind,matter,cutoff,charges",
    HERMITICITY_CASES,
    ids=lambda c: str(c)[:24],
)
def test_builders_produce_hermitian_operators(lat, kind, matter, cutoff, charges):
    spec = HilbertSpec(lat, kind, cutoff=cutoff, matter=matter)
    q = None if charges is None else np.array(charges)
    params = ModelParams(g2=0.9, t=0.6, m=0.25, static_charges=q)
    build = h_original if kind == "links_E" else h_dual_thetam
    H = build(spec, params)
    assert hilbert.hermiticity_defect(H) <= 1e-12
    assert H.shape == (spec.total_dim, spec.total_dim)


@pytest.mark.parametrize(
    "matter,dtype",
    [
        ("none", np.float64),
        ("staggered_fermion", np.float64),
        ("hardcore_boson", np.complex128),
        ("truncated_boson", np.complex128),
    ],
)
def test_only_boson_matter_builds_complex_hamiltonians(matter, dtype):
    """Rotor ladders and fermion operators are real; the boson field carries
    i b^dag, so only boson matter needs complex arithmetic."""
    params = ModelParams(g2=0.9, t=0.6, m=0.25)
    electric = HilbertSpec(ONE_PLAQ_OPEN, "links_E", cutoff=1, matter=matter, n_max=2)
    flux = HilbertSpec(ONE_PLAQ_OPEN, "plaqs_M", cutoff=2, matter=matter, n_max=2)
    for H in (
        h_original(electric, params, hilbert.gauss_sector_basis(electric)),
        h_dual_thetam(flux, params, spectrum.flux_sector_basis(flux)),
    ):
        assert H.dtype == dtype
        if dtype == np.complex128:
            assert np.abs(H.data.imag).max() > 0.1


def test_electric_hamiltonian_commutes_with_every_constraint():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    H = h_original(spec, ModelParams(g2=1.1, t=0.8, m=0.3))
    for s in range(lat.n_sites):
        G = sp.diags(hilbert.gauss_diagonal(hilbert.product_basis(spec), s), dtype=float)
        comm = H @ G - G @ H
        defect = 0.0 if comm.nnz == 0 else float(np.abs(comm.data).max())
        assert defect <= 1e-10, f"constraint at site {s} not conserved"


def test_projected_build_equals_projection_of_full_build():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    basis = hilbert.gauss_sector_basis(spec)
    params = ModelParams(g2=1.1, t=0.8, m=0.3)
    in_sector = h_original(spec, params, basis)
    restricted = h_original(spec, params)[np.ix_(basis.indices, basis.indices)]
    diff = (in_sector - restricted).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12


def test_dual_hamiltonian_conserves_total_charge():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "plaqs_M", cutoff=2, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2))
    total_q = sp.diags(hilbert.charge_diagonals(hilbert.product_basis(spec)).sum(axis=0), dtype=float)
    comm = (H @ total_q - total_q @ H).tocoo()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) <= 1e-12


def test_dual_hamiltonian_conserves_total_flux_on_periodic_lattices():
    """Each link touches two cells with opposite circulation signs, so both
    the loop term and the hopping shift the cell variables with zero total;
    the summed flux is a good quantum number on periodic lattices."""
    lat = Lattice(2, 2, "periodic")
    spec = HilbertSpec(lat, "plaqs_M", cutoff=1, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2))
    total_m = sp.diags(hilbert.gauge_level_diagonals(hilbert.product_basis(spec)).sum(axis=0), dtype=float)
    comm = (H @ total_m - total_m @ H).tocoo()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) <= 1e-12


def test_open_boundary_hopping_changes_total_flux():
    """On open lattices, boundary links touch a single cell, so hopping
    across them moves the summed flux: no conservation is expected."""
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "plaqs_M", cutoff=2, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2))
    total_m = sp.diags(hilbert.gauge_level_diagonals(hilbert.product_basis(spec)).sum(axis=0), dtype=float)
    comm = (H @ total_m - total_m @ H).tocoo()
    assert comm.nnz and np.abs(comm.data).max() > 0.1


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(g2=0.0).validated(ONE_PLAQ_OPEN)
    with pytest.raises(ValueError):
        ModelParams(g2=-1.0).validated(ONE_PLAQ_OPEN)
    with pytest.raises(ValueError):
        ModelParams(static_charges=np.array([1.0, -1.0])).charges(ONE_PLAQ_OPEN)
    with pytest.raises(ValueError):
        ModelParams(static_charges=np.array([1.0, 0.0, 0.0, 0.0])).charges(ONE_PLAQ_OPEN)
    q = ModelParams(static_charges=np.array([1.0, -1.0, 0.0, 0.0])).charges(ONE_PLAQ_OPEN)
    assert q.tolist() == [1.0, -1.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# Exact correspondence between the two descriptions
# ---------------------------------------------------------------------------


def test_window_correspondence_is_a_machine_exact_conjugation():
    """With the flux cutoff four times the electric cutoff, mapping each
    constraint-satisfying product state (occupations, E) to (occupations,
    C E) is a bijection onto the class-matched neutral flux states, and it
    carries one Hamiltonian matrix into the other entry by entry."""
    lat = ONE_PLAQ_OPEN
    params = ModelParams(g2=1.3, t=0.9, m=0.4)
    spec_e = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    spec_m = HilbertSpec(lat, "plaqs_M", cutoff=4, matter="staggered_fermion")
    basis_e = hilbert.gauss_sector_basis(spec_e)
    basis_m = spectrum.flux_sector_basis(spec_m, match_class=True)
    assert basis_e.dim == basis_m.dim

    C = curl_link_to_plaq_matrix(lat).toarray()
    n_sites = lat.n_sites
    mapped = []
    for idx in basis_e.indices:
        locs = _decode_levels(spec_e, idx)
        occ = locs[:n_sites]
        E = locs[n_sites:] - spec_e.cutoff
        M = C @ E  # one plaquette, no windings on open boundaries
        dual_locs = np.concatenate([occ, M + spec_m.cutoff])
        mapped.append(int(np.ravel_multi_index(tuple(dual_locs), spec_m.dims)))
    mapped = np.array(mapped)
    assert len(set(mapped.tolist())) == basis_e.dim
    assert set(mapped.tolist()) == set(basis_m.indices.tolist())

    pos = np.searchsorted(basis_m.indices, mapped)
    assert np.array_equal(basis_m.indices[pos], mapped)

    He = h_original(spec_e, params, basis_e).toarray()
    Hm = h_dual_thetam(spec_m, params, basis_m).toarray()
    Hm_aligned = Hm[np.ix_(pos, pos)]
    assert np.abs(He - Hm_aligned).max() <= 1e-12


def test_static_charge_sectors_agree_across_descriptions():
    """A +1/-1 static pair selects a non-trivial constraint sector; on the
    matched four-to-one window the two descriptions must produce identical
    spectra to rounding."""
    lat = ONE_PLAQ_OPEN
    q = np.array([1.0, -1.0, 0.0, 0.0])
    params = ModelParams(g2=1.1, t=0.0, m=0.0, static_charges=q)
    spec_e = HilbertSpec(lat, "links_E", cutoff=1)
    spec_m = HilbertSpec(lat, "plaqs_M", cutoff=4)
    basis_e = hilbert.gauss_sector_basis(spec_e, static_charges=q)
    basis_m = spectrum.flux_sector_basis(spec_m, static_charges=q, match_class=True)
    assert basis_e.dim > 0
    assert basis_e.dim == basis_m.dim

    ev_e = np.linalg.eigvalsh(h_original(spec_e, params, basis_e).toarray())
    ev_m = np.linalg.eigvalsh(h_dual_thetam(spec_m, params, basis_m).toarray())
    assert np.abs(ev_e - ev_m).max() <= 1e-12


@pytest.mark.parametrize("cutoff,dim", [(1, 9), (2, 25), (3, 49)])
def test_single_plaquette_torus_spectra_agree_at_equal_cutoffs(cutoff, dim):
    """On the 1x1 periodic lattice both links close on the one site, so the
    curl row and the plaquette row of D are all zeros (stored explicitly) and
    the magnetic term is a constant; the two winding rotors carry the two
    link fields one to one, so equal cutoffs give identical spectra."""
    lat = Lattice(2, 1, "periodic")
    params = ModelParams(g2=1.3, t=0.9, m=0.4)
    spec_e = HilbertSpec(lat, "links_E", cutoff=cutoff, matter="staggered_fermion")
    spec_m = HilbertSpec(lat, "plaqs_M", cutoff=cutoff, matter="staggered_fermion")
    basis_e = hilbert.gauss_sector_basis(spec_e)
    basis_m = spectrum.flux_sector_basis(spec_m, match_class=True)
    assert basis_e.dim == basis_m.dim == dim

    ev_e = np.linalg.eigvalsh(h_original(spec_e, params, basis_e).toarray())
    ev_m = np.linalg.eigvalsh(h_dual_thetam(spec_m, params, basis_m).toarray())
    assert np.abs(ev_e - ev_m).max() <= 1e-12


# ---------------------------------------------------------------------------
# Decoupling at zero hopping
# ---------------------------------------------------------------------------


def _staggered_matter_levels(lat, m, g2=None, with_coulomb=False):
    """Spectrum of the matter-only part: staggered mass, optionally plus the
    charge-charge interaction through the site Green table."""
    parities = site_parity(lat)
    G = greens_sites(lat).values
    values = []
    for occ in np.ndindex(*(2,) * lat.n_sites):
        occ = np.array(occ, dtype=float)
        e = m * float(parities @ occ)
        if with_coulomb:
            rho = occ - (parities < 0)
            e += 0.5 * g2 * float(rho @ G @ rho)
        values.append(e)
    return np.array(values)


def test_zero_hopping_spectrum_is_additive_electric():
    """At t = 0 the operator is a sum of a matter-only and a gauge-only
    piece acting on different factors, so the full spectrum is exactly the
    set of pairwise sums of the two partial spectra."""
    lat = ONE_PLAQ_OPEN
    g2, m = 1.3, 0.37
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    H = h_original(spec, ModelParams(g2=g2, t=0.0, m=m)).toarray()
    full = np.sort(np.linalg.eigvalsh(H))

    gauge = HilbertSpec(lat, "links_E", cutoff=1)
    gauge_levels = np.linalg.eigvalsh(h_original(gauge, ModelParams(g2=g2, t=0.0)).toarray())
    matter_levels = _staggered_matter_levels(lat, m)
    sums = np.sort(np.add.outer(matter_levels, gauge_levels).ravel())
    assert full.shape == sums.shape
    assert np.abs(full - sums).max() <= 1e-10


def test_zero_hopping_spectrum_is_additive_dual():
    lat = ONE_PLAQ_OPEN
    g2, m = 1.3, 0.37
    spec = HilbertSpec(lat, "plaqs_M", cutoff=4, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=g2, t=0.0, m=m)).toarray()
    full = np.sort(np.linalg.eigvalsh(H))

    gauge = HilbertSpec(lat, "plaqs_M", cutoff=4)
    gauge_levels = np.linalg.eigvalsh(h_dual_thetam(gauge, ModelParams(g2=g2, t=0.0)).toarray())
    matter_levels = _staggered_matter_levels(lat, m, g2=g2, with_coulomb=True)
    sums = np.sort(np.add.outer(matter_levels, gauge_levels).ravel())
    assert full.shape == sums.shape
    assert np.abs(full - sums).max() <= 1e-10
