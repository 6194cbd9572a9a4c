"""Product-state bases, sector enumeration, and the term kernel.

The kernel is checked entry by entry against a dense ``np.kron`` reference
with its own local matrices (rotor ladder, fermion annihilator with
Jordan-Wigner strings, rotated boson field), and the sector builders row by
row against a scan of the whole product space; both references live only
here."""

from functools import reduce

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import dualmap
from dualqed.hilbert import (
    MATTER_KINDS,
    BasisMap,
    HilbertSpec,
    MemoryGuardError,
    apply_term,
    charge_diagonals,
    gauss_sector_basis,
    gauge_level_diagonals,
    global_level_diagonals,
    hermiticity_defect,
)
from dualqed.lattice import Lattice, curl_link_to_plaq_matrix
from dualqed.spectrum import flux_sector_basis

from conftest import (
    GEOMETRIES_2D,
    GEOMETRIES_3D,
    gauss_residuals,
    integer_image_mask,
    links,
    product_basis,
    shift_site,
    site_index,
)

# --- the dense reference: local matrices and their kron embedding -------------


def ladder(d):
    """Raising ladder on d rotor levels: one level up, annihilating the top."""
    return np.eye(d, k=-1)


FERMION_C = np.array([[0.0, 1.0], [0.0, 0.0]])  # |empty>, |occupied>


def boson_field(n_max):
    """The rotated site field (a + b^dag)/sqrt(2) on levels n_a * (n_max + 1) + n_b."""
    low = np.diag(np.sqrt(np.arange(1, n_max + 1)), k=1)
    eye = np.eye(n_max + 1)
    return (np.kron(low, eye) + np.kron(eye, low.T)) / np.sqrt(2.0)


def boson_charge(n_max):
    occupations = np.diag(np.arange(n_max + 1, dtype=float))
    eye = np.eye(n_max + 1)
    return np.kron(occupations, eye) - np.kron(eye, occupations)


def dense_product(spec, factors):
    """Reference matrix of factors[0] @ ... @ factors[-1] on the full product space.

    A factor is ``(position, local matrix, fermionic)``, embedded as a kron
    of identities with its local matrix; a fermionic factor carries
    Z = diag(1, -1) on every matter factor left of it.
    """
    out = np.eye(spec.total_dim)
    for pos, local, fermionic in reversed(factors):
        mats = [np.eye(d) for d in spec.dims]
        mats[pos] = local
        if fermionic:
            for k in range(min(pos, spec.n_matter)):
                mats[k] = np.diag([1.0, -1.0])
        out = reduce(np.kron, mats) @ out
    return out


def dense_term(spec, cells, steps, hop=None):
    """Reference matrix of one kernel term: the ladder power of every stencil
    cell, between creator(x) and annihilator(y) for a hop (x, y)."""
    factors = []
    for cell, k in zip(cells, steps):
        pos = spec.n_matter + int(cell)
        step = ladder(spec.dims[pos]) if k > 0 else ladder(spec.dims[pos]).T
        factors.append((pos, np.linalg.matrix_power(step, abs(int(k))), False))
    if hop is not None:
        x, y = hop
        if spec.matter == "staggered_fermion":
            field, fermionic = FERMION_C, True
        else:
            field, fermionic = boson_field(int(np.sqrt(spec.dims[0])) - 1), False
        factors = [(x, field.T, fermionic)] + factors + [(y, field, fermionic)]
    return dense_product(spec, factors)


def term_matrix(basis, cells, steps, hop=None):
    """The sparse matrix of one kernel term, built from its triplets."""
    rows, cols, amps = apply_term(basis, cells, steps, hop)
    return sp.csr_matrix((amps, (rows, cols)), shape=(basis.dim, basis.dim))


def test_rotor_ladder_structure():
    lev = np.diag(np.arange(-2, 3).astype(float))
    up = ladder(5)
    dn = up.T
    # raise increments the level; annihilates the top state
    comm = lev @ up - up @ lev
    assert np.array_equal(comm, up)  # [L, a+] = a+
    assert np.array_equal(lev @ dn - dn @ lev, -dn)  # [L, a] = -a
    top = np.zeros(5)
    top[-1] = 1.0
    assert np.abs(up @ top).max() == 0
    lat = Lattice(2, 1, "open")
    for bad in ({"cutoff": 0}, {"cutoff": -1}, {"cutoff": 1, "global_cutoff": 0}):
        with pytest.raises(ValueError, match="cutoff"):
            HilbertSpec(lat, "plaqs_M", **bad)


def test_fermion_ops_algebra():
    c = FERMION_C
    cd = c.T
    n = np.diag([0.0, 1.0])
    assert np.array_equal(c @ cd + cd @ c, np.eye(2))  # {c, c+} = 1
    assert np.abs(c @ c).max() == 0
    assert np.array_equal(cd @ c, n)


def test_boson_ops_charge_algebra():
    psi = boson_field(2)
    q = boson_charge(2)
    # the site field lowers the charge by exactly one unit: [Q, psi] = -psi
    comm = q @ psi - psi @ q
    assert np.abs(comm + psi).max() < 1e-12
    assert np.abs(q - q.T).max() == 0
    assert psi.dtype == np.float64
    lat = Lattice(2, 1, "open")
    with pytest.raises(ValueError, match="n_max"):
        HilbertSpec(lat, "links_E", cutoff=1, matter="truncated_boson", n_max=0)
    assert HilbertSpec(lat, "links_E", cutoff=1, matter="hardcore_boson", n_max=0).dims[0] == 4


def test_spec_dimensions_and_positions():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    # 4 fermion sites (dim 2) then 4 link rotors (dim 3)
    assert spec.n_matter == 4 and spec.n_gauge == 4 and spec.n_globals == 0
    assert spec.dims == [2] * 4 + [3] * 4
    assert spec.total_dim == 2**4 * 3**4
    pbc = Lattice(2, 2, "periodic")
    dual = HilbertSpec(pbc, "plaqs_M", cutoff=1, global_cutoff=2)
    assert dual.n_gauge == 4 and dual.n_globals == 2
    assert dual.dims == [3] * 4 + [5] * 2


@pytest.mark.parametrize(
    "derived", [{"dims": [3] * 4}, {"n_matter": 4}, {"n_gauge": 4}, {"n_globals": 2}], ids=lambda d: next(iter(d))
)
def test_derived_spec_fields_are_not_parameters(derived):
    """dims and the cell counts follow from the lattice and formulation;
    passing one is an error rather than a value silently overwritten."""
    with pytest.raises(TypeError):
        HilbertSpec(Lattice(2, 2, "periodic"), "plaqs_M", cutoff=1, **derived)


def test_dual_space_rejects_3d():
    with pytest.raises(ValueError):
        HilbertSpec(Lattice(3, 2, "open"), "plaqs_M", cutoff=1)


def test_memory_guard_triggers():
    """The guard bounds what is allocated: the product basis (1,336,336
    states here) and the candidates of the enumeration, not the product
    dimension of a space whose sector is small."""
    lat = Lattice(2, 1, "open")
    small = HilbertSpec(lat, "links_E", cutoff=8, matter="staggered_fermion", max_dim=10**6)
    with pytest.raises(MemoryGuardError):
        product_basis(small)
    assert gauss_sector_basis(small).dim == 97
    tight = HilbertSpec(lat, "links_E", cutoff=8, matter="staggered_fermion", max_dim=97 * 12)
    with pytest.raises(MemoryGuardError):
        gauss_sector_basis(tight)
    assert gauss_sector_basis(HilbertSpec(lat, "links_E", cutoff=8, matter="staggered_fermion")).dim == 97
    # no row prunes the unmatched pure-gauge flux space, so its last step
    # holds all 729 states at 6 levels and 1 row sum each
    torus = Lattice(2, 2, "periodic")
    assert flux_sector_basis(HilbertSpec(torus, "plaqs_M", cutoff=1, max_dim=729 * 7), match_class=False).dim == 729
    with pytest.raises(MemoryGuardError):
        flux_sector_basis(HilbertSpec(torus, "plaqs_M", cutoff=1, max_dim=729 * 7 - 1), match_class=False)
    huge = HilbertSpec(Lattice(2, 8, "periodic"), "links_E", cutoff=1, max_dim=2**200)
    with pytest.raises(MemoryGuardError, match="overflows"):
        gauss_sector_basis(huge)


def test_embed_matches_kron_order():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    step = term_matrix(product_basis(spec), [2], [1]).toarray()
    # manual kron: identity x identity x ladder x identity
    eye3 = np.eye(3)
    want = np.kron(np.kron(np.kron(eye3, eye3), ladder(3)), eye3)
    assert np.abs(step - want).max() == 0


def test_fermion_embedding_anticommutes_across_sites():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    c0 = dense_product(spec, [(0, FERMION_C, True)])
    c1 = dense_product(spec, [(1, FERMION_C, True)])
    assert np.abs(c0 @ c1 + c1 @ c0).max() == 0  # string signs make different sites anticommute
    c1d = dense_product(spec, [(1, FERMION_C.T, True)])
    assert np.abs(c0 @ c1d + c1d @ c0).max() == 0
    # the kernel's hops obey the canonical algebra [c+_a c_b, c+_b c_d] = c+_a c_d,
    # which the string signs decide: hardcore bosons would give c+_a c_d (1 - 2 n_b)
    full = product_basis(spec)
    hop = {pair: term_matrix(full, [], [], pair) for pair in ((0, 1), (1, 3), (0, 3))}
    comm = hop[0, 1] @ hop[1, 3] - hop[1, 3] @ hop[0, 1]
    assert np.abs((comm - hop[0, 3]).toarray()).max() == 0
    assert hop[0, 3].nnz > 0


KERNEL_CASES = [
    (Lattice(2, 1, "open"), "links_E", "staggered_fermion", 1),
    (Lattice(2, 1, "periodic"), "links_E", "staggered_fermion", 1),  # self-hop x = y
    (Lattice(2, 1, "open"), "plaqs_M", "staggered_fermion", 1),
    (Lattice(2, 1, "open"), "plaqs_M", "hardcore_boson", 1),
    (Lattice(2, 1, "periodic"), "plaqs_M", "truncated_boson", 2),  # self-hop, winding rotors
    (Lattice(2, 2, "periodic"), "plaqs_M", "none", 1),  # winding rotors
]


def kernel_terms(spec):
    """(cells, steps, hop) of every loop row and every hop row of the space's
    description, zero steps stored by the lattice maps included."""
    lat = spec.lattice
    if spec.gauge_kind == "links_E":
        loops, hops = curl_link_to_plaq_matrix(lat), np.eye(lat.n_links, dtype=np.int64)
    else:
        loops, hops = dualmap.d_matrix(lat)[: lat.n_plaqs], dualmap.dual_embedding(lat).matrix
    loops, hops = sp.csr_matrix(loops), sp.csr_matrix(hops)
    for p in range(loops.shape[0]):
        yield loops.getrow(p).indices, loops.getrow(p).data, None
    if spec.matter != "none":
        for n, (x, i) in enumerate(links(lat)):
            row = hops.getrow(n)
            yield row.indices, row.data, (site_index(lat, x), site_index(lat, shift_site(lat, x, i, +1)))


@pytest.mark.parametrize("lat,kind,matter,n_max", KERNEL_CASES, ids=lambda c: c.label() if isinstance(c, Lattice) else str(c))
def test_kernel_matches_dense_reference(lat, kind, matter, n_max):
    """Every loop and hop term, entry by entry, on the full basis and on a sector."""
    spec = HilbertSpec(lat, kind, cutoff=1, matter=matter, n_max=n_max)
    full = product_basis(spec)
    sector = gauss_sector_basis(spec) if kind == "links_E" else flux_sector_basis(spec)
    assert 0 < sector.dim < full.dim
    terms = list(kernel_terms(spec))
    assert len(terms) == lat.n_plaqs + (lat.n_links if matter != "none" else 0)
    for cells, steps, hop in terms:
        ref = dense_term(spec, cells, steps, hop)
        built = term_matrix(full, cells, steps, hop)
        assert built.dtype == np.float64
        assert np.array_equal(built.toarray(), ref)
        restricted = ref[np.ix_(sector.indices, sector.indices)]
        assert np.array_equal(term_matrix(sector, cells, steps, hop).toarray(), restricted)


def test_configs_are_the_digits_of_the_indices():
    spec = HilbertSpec(Lattice(2, 2, "periodic"), "plaqs_M", cutoff=1, global_cutoff=2)
    full = product_basis(spec)
    assert full.dim == spec.total_dim
    assert full.configs.shape == (spec.total_dim, len(spec.dims))
    assert np.array_equal(np.ravel_multi_index(tuple(full.configs.T), spec.dims), full.indices)


def test_diagonals_enumerate_levels():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    full = product_basis(spec)
    q = charge_diagonals(full)
    assert q.shape == (4, spec.total_dim)
    assert q.dtype.kind == "i"
    # staggered charge convention: even sites count occupation, odd sites count holes
    assert set(np.unique(q)) <= {-1, 0, 1}
    g = gauge_level_diagonals(full)
    assert g.shape == (4, spec.total_dim)
    assert set(np.unique(g)) == {-1, 0, 1}
    pbc = Lattice(2, 2, "periodic")
    dual = HilbertSpec(pbc, "plaqs_M", cutoff=1)
    glob = global_level_diagonals(product_basis(dual))
    assert glob.shape == (2, dual.total_dim)
    assert glob.dtype.kind == "i"


def test_gauss_sector_counts_single_plaquette():
    lat = Lattice(2, 1, "open")
    # pure gauge, cutoff 1: physical states are uniform-loop fields E = c * loop
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    basis = gauss_sector_basis(spec)
    assert basis.dim == 3  # c in {-1, 0, 1}
    spec2 = HilbertSpec(lat, "links_E", cutoff=2)
    assert gauss_sector_basis(spec2).dim == 5


def test_gauss_operator_annihilates_sector():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    basis = gauss_sector_basis(spec)
    assert basis.dim > 0
    assert np.all(gauss_residuals(basis) == 0)
    assert not np.all(gauss_residuals(product_basis(spec)) == 0, axis=1).any()


def test_gauss_sector_static_charges_are_exact_integers():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    pair = gauss_sector_basis(spec, np.array([1.0, -1.0, 0.0, 0.0]))
    assert pair.dim > 0
    assert np.all(gauss_residuals(pair) == np.array([1, -1, 0, 0])[:, None])
    # no integer configuration balances a half charge
    assert gauss_sector_basis(spec, np.array([0.5, -0.5, 0.0, 0.0])).dim == 0
    assert flux_sector_basis(HilbertSpec(lat, "plaqs_M", cutoff=4), np.array([0.5, -0.5, 0.0, 0.0])).dim == 0


def test_hermiticity_defect():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    op = term_matrix(product_basis(spec), [0], [1])
    assert hermiticity_defect(op) > 0.5  # a bare ladder is not hermitian
    sym = op + op.T
    assert hermiticity_defect(sym) == 0.0


def test_hermiticity_defect_conjugates_complex_entries():
    """The defect is measured against the conjugate transpose: a complex
    hermitian matrix has none, a complex symmetric one does."""
    hermitian = sp.csr_matrix(np.array([[1, 2j], [-2j, 3]]))
    assert hermiticity_defect(hermitian) == 0.0
    assert hermiticity_defect(sp.csr_matrix(np.array([[1, 2j], [2j, 3]]))) == 4.0


# --- the sector builders against the product-space scan they replaced ---------


def scan(spec, masks, block=2**16):
    """The product states selected by each of the boolean rows that
    ``masks(part)`` returns, found by visiting every product state, block by
    block: the reference for the sector builders."""
    found = []
    for start in range(0, spec.total_dim, block):
        idx = np.arange(start, min(start + block, spec.total_dim), dtype=np.int64)
        part = BasisMap(spec, idx, np.stack(np.unravel_index(idx, spec.dims), axis=1))
        found.append([(idx[mask], part.configs[mask]) for mask in masks(part)])
    return [tuple(map(np.concatenate, zip(*parts))) for parts in zip(*found)]


def integral(q):
    return np.array_equal(q, np.round(q))


def gauss_masks(charge_cases):
    def masks(part):
        residuals = gauss_residuals(part)
        return [np.all(residuals == q[:, None], axis=0) & integral(q) for q in charge_cases]

    return masks


def flux_masks(cases):
    def masks(part):
        lat = part.spec.lattice
        dynamical = charge_diagonals(part)
        flux = np.vstack([gauge_level_diagonals(part), global_level_diagonals(part)])
        out = []
        for q, match_class in cases:
            if not integral(q):
                out.append(np.zeros(part.dim, dtype=bool))
                continue
            charges = dynamical + q.astype(np.int64)[:, None]
            member = charges.sum(axis=0) == 0
            if match_class:
                offset = flux - dualmap.flux_offset_map(lat) @ charges
                member &= integer_image_mask(dualmap._flux_class_snf(lat), offset)
            out.append(member)
        return out

    return masks


def static_charge_cases(lat):
    pair = np.zeros(lat.n_sites)
    pair[0], pair[-1] = 1.0, -1.0
    return {"none": np.zeros(lat.n_sites), "pair": pair, "half": pair / 2}


def sector_cases(geometries, kinds, cutoffs=(1, 2, 3), limit=2**22):
    for lat in geometries:
        for kind in kinds:
            if kind == "plaqs_M" and lat.dim != 2:
                continue
            for matter in MATTER_KINDS:
                for c in cutoffs:
                    spec = HilbertSpec(lat, kind, cutoff=c, matter=matter)
                    if spec.total_dim <= limit:
                        yield pytest.param(lat, kind, matter, c, id=f"{lat.label()}-{kind}-{matter}-c{c}")


@pytest.mark.parametrize(
    "lat,kind,matter,cutoff",
    list(sector_cases(GEOMETRIES_2D, ("links_E", "plaqs_M")))
    + list(sector_cases([g for g in GEOMETRIES_3D if g.N == 1], ("links_E",))),
)
def test_sector_builders_equal_the_product_space_scan(lat, kind, matter, cutoff):
    """Row by row, indices and configurations, for every static-charge case
    (none, an integral pair, a half pair) and both class-matching modes."""
    spec = HilbertSpec(lat, kind, cutoff=cutoff, matter=matter)
    charge_cases = list(static_charge_cases(lat).values())
    if kind == "links_E":
        built = [gauss_sector_basis(spec, q) for q in charge_cases]
        reference = scan(spec, gauss_masks(charge_cases))
    else:
        cases = [(q, match) for q in charge_cases for match in (True, False)]
        built = [flux_sector_basis(spec, q, match) for q, match in cases]
        reference = scan(spec, flux_masks(cases))
    for basis, (indices, configs) in zip(built, reference):
        assert basis.indices.dtype == np.int64 and basis.configs.dtype == np.int64
        assert np.array_equal(basis.indices, indices)
        assert np.array_equal(basis.configs, configs)


def test_gauss_sector_of_two_by_two_open_fermions():
    """Beyond any product-space scan: 272,097,792 product states, 2,443 physical ones."""
    lat = Lattice(2, 2, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    basis = gauss_sector_basis(spec)
    assert spec.total_dim == 272_097_792
    assert basis.dim == 2443
    assert np.all(np.diff(basis.indices) > 0)
    assert np.array_equal(np.ravel_multi_index(tuple(basis.configs.T), spec.dims), basis.indices)
    assert np.all(gauss_residuals(basis) == 0)
