"""Hamiltonian builders: hand-sized matrix oracles, symmetry checks, the
exact correspondence between the electric and flux descriptions on matched
windows, and the one sparse assembly against the per-term loop it replaced."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import hamiltonian, hilbert, spectrum
from dualqed.greens import greens_sites
from dualqed.hamiltonian import (
    ModelParams,
    h_dual_thetam,
    h_original,
)
from dualqed.hilbert import HilbertSpec
from dualqed.lattice import Lattice, curl_link_to_plaq_matrix, site_parity

from conftest import GEOMETRIES_2D, digits, gauss_residuals, links, product_basis, shift_site, site_index

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

    H = h_dual_thetam(spec, ModelParams(g2=g2, t=0.0), product_basis(spec)).toarray().real
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
    H = build(spec, params, product_basis(spec))
    assert hilbert.hermiticity_defect(H) <= 1e-12
    assert H.shape == (spec.total_dim, spec.total_dim)


@pytest.mark.parametrize("matter", hilbert.MATTER_KINDS)
def test_every_matter_kind_builds_real_hamiltonians(matter):
    """Rotor ladders, fermion hops and the rotated boson field (a + b^dag)/sqrt(2)
    are all real, so every model is built in float64."""
    params = ModelParams(g2=0.9, t=0.6, m=0.25)
    electric = HilbertSpec(ONE_PLAQ_OPEN, "links_E", cutoff=1, matter=matter, n_max=2)
    flux = HilbertSpec(ONE_PLAQ_OPEN, "plaqs_M", cutoff=2, matter=matter, n_max=2)
    for H in (
        h_original(electric, params, hilbert.gauss_sector_basis(electric)),
        h_dual_thetam(flux, params, spectrum.flux_sector_basis(flux)),
    ):
        assert H.dtype == np.float64


def test_electric_hamiltonian_commutes_with_every_constraint():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    H = h_original(spec, ModelParams(g2=1.1, t=0.8, m=0.3), product_basis(spec))
    residuals = gauss_residuals(product_basis(spec))
    for s in range(lat.n_sites):
        G = sp.diags(residuals[s], dtype=float)
        comm = H @ G - G @ H
        defect = 0.0 if comm.nnz == 0 else float(np.abs(comm.data).max())
        assert defect <= 1e-10, f"constraint at site {s} not conserved"


def test_projected_build_equals_projection_of_full_build():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    basis = hilbert.gauss_sector_basis(spec)
    params = ModelParams(g2=1.1, t=0.8, m=0.3)
    in_sector = h_original(spec, params, basis)
    restricted = h_original(spec, params, product_basis(spec))[np.ix_(basis.indices, basis.indices)]
    diff = (in_sector - restricted).tocoo()
    assert (np.abs(diff.data).max() if diff.nnz else 0.0) <= 1e-12


def test_dual_hamiltonian_conserves_total_charge():
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "plaqs_M", cutoff=2, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2), product_basis(spec))
    total_q = sp.diags(hilbert.charge_diagonals(product_basis(spec)).sum(axis=0), dtype=float)
    comm = (H @ total_q - total_q @ H).tocoo()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) <= 1e-12


def test_dual_hamiltonian_conserves_total_flux_on_periodic_lattices():
    """Each link touches two cells with opposite circulation signs, so both
    the loop term and the hopping shift the cell variables with zero total;
    the summed flux is a good quantum number on periodic lattices."""
    lat = Lattice(2, 2, "periodic")
    spec = HilbertSpec(lat, "plaqs_M", cutoff=1, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2), product_basis(spec))
    total_m = sp.diags(hilbert.rotor_levels(product_basis(spec))[: spec.n_gauge].sum(axis=0), dtype=float)
    comm = (H @ total_m - total_m @ H).tocoo()
    assert (np.abs(comm.data).max() if comm.nnz else 0.0) <= 1e-12


def test_open_boundary_hopping_changes_total_flux():
    """On open lattices, boundary links touch a single cell, so hopping
    across them moves the summed flux: no conservation is expected."""
    lat = ONE_PLAQ_OPEN
    spec = HilbertSpec(lat, "plaqs_M", cutoff=2, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=0.8, t=0.7, m=0.2), product_basis(spec))
    total_m = sp.diags(hilbert.rotor_levels(product_basis(spec))[: spec.n_gauge].sum(axis=0), dtype=float)
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
    for bad in ({"g2": np.nan}, {"g2": np.inf}, {"t": np.nan}, {"m": -np.inf}):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(**bad).validated(ONE_PLAQ_OPEN)
    for q in ([np.nan, 0.0, 0.0, 0.0], [np.inf, -np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(static_charges=np.array(q)).validated(ONE_PLAQ_OPEN)
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
    H = h_original(spec, ModelParams(g2=g2, t=0.0, m=m), product_basis(spec)).toarray()
    full = np.sort(np.linalg.eigvalsh(H))

    gauge = HilbertSpec(lat, "links_E", cutoff=1)
    H_gauge = h_original(gauge, ModelParams(g2=g2, t=0.0), product_basis(gauge))
    gauge_levels = np.linalg.eigvalsh(H_gauge.toarray())
    matter_levels = _staggered_matter_levels(lat, m)
    sums = np.sort(np.add.outer(matter_levels, gauge_levels).ravel())
    assert full.shape == sums.shape
    assert np.abs(full - sums).max() <= 1e-10


def test_zero_hopping_spectrum_is_additive_dual():
    lat = ONE_PLAQ_OPEN
    g2, m = 1.3, 0.37
    spec = HilbertSpec(lat, "plaqs_M", cutoff=4, matter="staggered_fermion")
    H = h_dual_thetam(spec, ModelParams(g2=g2, t=0.0, m=m), product_basis(spec)).toarray()
    full = np.sort(np.linalg.eigvalsh(H))

    gauge = HilbertSpec(lat, "plaqs_M", cutoff=4)
    H_gauge = h_dual_thetam(gauge, ModelParams(g2=g2, t=0.0), product_basis(gauge))
    gauge_levels = np.linalg.eigvalsh(H_gauge.toarray())
    matter_levels = _staggered_matter_levels(lat, m, g2=g2, with_coulomb=True)
    sums = np.sort(np.add.outer(matter_levels, gauge_levels).ravel())
    assert full.shape == sums.shape
    assert np.abs(full - sums).max() <= 1e-10


# ---------------------------------------------------------------------------
# One sparse assembly against the per-term loop it replaced
# ---------------------------------------------------------------------------
# The reference copies the earlier term kernel, which stepped a copy of every
# source configuration and re-ravelled its product index, and the earlier
# assembly, which added each term and its transpose to H in turn.


def _loop_apply_term(basis, cells, steps, hop=None):
    spec = basis.spec
    source = digits(basis).T
    pos = spec.n_matter + np.asarray(cells, dtype=np.int64)
    levels = source[:, pos] + np.asarray(steps, dtype=np.int64)
    (cols,) = np.nonzero(np.all((levels >= 0) & (levels < np.asarray(spec.dims)[pos]), axis=1))
    configs = source[cols]
    configs[:, pos] = levels[cols]
    amps = np.ones(len(cols))
    if hop is not None:
        x, y = hop
        cols, configs, amps = _loop_charge_step(spec, y, -1, cols, configs, amps)
        cols, configs, amps = _loop_charge_step(spec, x, +1, cols, configs, amps)
    keys = np.ravel_multi_index(tuple(configs.T), spec.dims)
    rows = np.searchsorted(basis.indices, keys)
    hit = rows < basis.dim
    hit[hit] = basis.indices[rows[hit]] == keys[hit]
    return sp.csr_matrix((amps[hit], (rows[hit], cols[hit])), shape=(basis.dim, basis.dim))


def _loop_charge_step(spec, site, delta, cols, configs, amps):
    level = configs[:, site]
    if spec.matter == "staggered_fermion":
        (keep,) = np.nonzero((level + delta >= 0) & (level + delta <= 1))
        configs = configs[keep]
        configs[:, site] += delta
        return cols[keep], configs, amps[keep] * (1 - 2 * (configs[:, :site].sum(axis=1) % 2))
    d1 = math.isqrt(spec.dims[site])
    root = np.sqrt(np.arange(d1)) / math.sqrt(2.0)
    n_a, n_b = np.divmod(level, d1)
    branches = []
    for n, step, stride in ((n_a, delta, d1), (n_b, -delta, 1)):
        (keep,) = np.nonzero((n + step >= 0) & (n + step < d1))
        branch = configs[keep]
        branch[:, site] += step * stride
        branches.append((cols[keep], branch, amps[keep] * root[np.maximum(n, n + step)[keep]]))
    return tuple(np.concatenate(part) for part in zip(*branches))


def _loop_sector_hamiltonian(params, basis, diag, loop_rows, hop_rows):
    spec = basis.spec
    lat = spec.lattice
    diag = diag + hamiltonian._mass_diagonal(basis, params.m)
    loop = -1.0 / (2.0 * params.g2)
    terms = [(loop, row, None) for row in hamiltonian._stencil_rows(loop_rows)]
    if spec.matter != "none" and params.t != 0.0:
        for (x, i), row in zip(links(lat), hamiltonian._stencil_rows(hop_rows)):
            hop = (site_index(lat, x), site_index(lat, shift_site(lat, x, i, +1)))
            terms.append((params.t, row, hop))
    H = sp.diags(diag, format="csr", shape=(basis.dim, basis.dim))
    for coeff, (cells, steps), hop in terms:
        A = _loop_apply_term(basis, cells, steps, hop)
        H = H + coeff * (A + A.T)
    return H.tocsr()


# A guard below the default refuses the largest sectors within a fraction of
# a second each; it still admits 2x2 open fermions at c=2 (23,733 states) and
# 2x2 periodic bosons at c=2 (85,200).
ASSEMBLY_GUARD = 2**23


def assembly_cases():
    for lat in GEOMETRIES_2D:
        for kind in hilbert.GAUGE_KINDS:
            for matter in hilbert.MATTER_KINDS:
                for c in (1, 2):
                    yield pytest.param(lat, kind, matter, c, id=f"{lat.label()}-{kind}-{matter}-c{c}")


@pytest.mark.parametrize("lat,kind,matter,cutoff", list(assembly_cases()))
def test_one_assembly_equals_the_per_term_loop(lat, kind, matter, cutoff, monkeypatch):
    """Same sparsity pattern, values within 2e-16 max|H| (duplicates are
    summed in another order), and a canonical, exactly symmetric matrix
    with no stored zero."""
    spec = HilbertSpec(lat, kind, cutoff=cutoff, matter=matter, max_dim=ASSEMBLY_GUARD)
    try:
        basis = hilbert.gauss_sector_basis(spec) if kind == "links_E" else spectrum.flux_sector_basis(spec)
    except hilbert.MemoryGuardError:
        pytest.skip("sector refused by the memory guard")
    build = h_original if kind == "links_E" else h_dual_thetam
    for params in (ModelParams(g2=1.3, t=0.9, m=0.4), ModelParams(g2=0.7, t=-1.1, m=0.0)):
        H = build(spec, params, basis)
        with monkeypatch.context() as patch:
            patch.setattr(hamiltonian, "_sector_hamiltonian", _loop_sector_hamiltonian)
            ref = build(spec, params, basis)
        assert H.has_canonical_format and np.all(H.data != 0)
        assert hilbert.hermiticity_defect(H) == 0.0
        assert H.indptr.dtype == ref.indptr.dtype and H.indices.dtype == ref.indices.dtype
        assert np.array_equal(H.indptr, ref.indptr) and np.array_equal(H.indices, ref.indices)
        assert np.abs(H.data - ref.data).max(initial=0.0) <= 2e-16 * np.abs(ref.data).max(initial=0.0)
