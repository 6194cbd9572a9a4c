"""Local operators, product-state bases, and the operator kernel.

The kernel is checked entry by entry against a dense ``np.kron`` reference
with Jordan-Wigner sign strings, which lives only here."""

from functools import reduce

import numpy as np
import pytest

from dualqed.hilbert import (
    HilbertSpec,
    MemoryGuardError,
    apply_product,
    boson_site_ops,
    charge_diagonals,
    fermion_site_ops,
    gauss_operator,
    gauss_sector_basis,
    gauge_level_diagonals,
    global_level_diagonals,
    hermiticity_defect,
    product_basis,
    rotor_ops,
)
from dualqed.lattice import Lattice
from dualqed.spectrum import flux_sector_basis


def dense_product(spec, factors):
    """Reference matrix of factors[0] @ ... @ factors[-1] on the full product space.

    Each factor is a kron of identities with its local matrix; a fermionic
    factor carries Z = diag(1, -1) on every matter factor left of it.
    """
    out = np.eye(spec.total_dim, dtype=complex)
    for pos, op in reversed(factors):
        mats = [np.eye(d) for d in spec.dims]
        mats[pos] = op.matrix.toarray()
        if op.fermion_parity % 2:
            for k in range(min(pos, spec.n_matter)):
                mats[k] = np.diag([1.0, -1.0])
        out = reduce(np.kron, mats) @ out
    return out


def local_ops(spec, pos):
    if pos < spec.n_matter:
        return spec.matter_ops()
    return spec.gauge_ops() if pos < spec.n_matter + spec.n_gauge else spec.global_ops()


def random_products(spec, rng, count=6, length=4):
    for _ in range(count):
        factors = []
        for pos in rng.integers(0, len(spec.dims), length):
            ops = local_ops(spec, int(pos))
            factors.append((int(pos), ops[sorted(ops)[rng.integers(len(ops))]]))
        yield factors


def test_rotor_ops_ladder_structure():
    ops = rotor_ops(2)
    lev = ops["level"].matrix.toarray()
    up = ops["raise"].matrix.toarray()
    dn = ops["lower"].matrix.toarray()
    assert np.array_equal(np.diag(lev), np.arange(-2, 3).astype(float))
    # raise increments the level; annihilates the top state
    comm = lev @ up - up @ lev
    assert np.array_equal(comm, up)  # [L, a+] = a+
    assert np.array_equal(dn, up.T)
    top = np.zeros(5)
    top[-1] = 1.0
    assert np.abs(up @ top).max() == 0
    with pytest.raises(ValueError):
        rotor_ops(0)


def test_fermion_ops_algebra():
    ops = fermion_site_ops()
    c = ops["annihilate"].matrix.toarray()
    cd = ops["create"].matrix.toarray()
    n = ops["number"].matrix.toarray()
    assert np.array_equal(c @ cd + cd @ c, np.eye(2))  # {c, c+} = 1
    assert np.abs(c @ c).max() == 0
    assert np.array_equal(cd @ c, n)
    assert ops["annihilate"].fermion_parity == 1


def test_boson_ops_charge_algebra():
    ops = boson_site_ops(2)
    psi = ops["field"].matrix.toarray()
    q = ops["charge"].matrix.toarray()
    # the site field lowers the charge by exactly one unit: [Q, psi] = -psi
    comm = q @ psi - psi @ q
    assert np.abs(comm + psi).max() < 1e-12
    assert np.abs(q - q.T).max() == 0
    with pytest.raises(ValueError):
        boson_site_ops(0)


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


def test_dual_space_rejects_3d():
    with pytest.raises(ValueError):
        HilbertSpec(Lattice(3, 2, "open"), "plaqs_M", cutoff=1)


def test_memory_guard_triggers():
    lat = Lattice(2, 3, "periodic")
    with pytest.raises(MemoryGuardError):
        HilbertSpec(lat, "links_E", cutoff=8, matter="staggered_fermion", max_dim=10**6)


def test_embed_matches_kron_order():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    ops = rotor_ops(1)
    pos = spec.gauge_pos(2)
    L2 = apply_product(product_basis(spec), [(pos, ops["level"])]).toarray()
    # manual kron: identity x identity x level x identity
    eye3 = np.eye(3)
    lev = ops["level"].matrix.toarray()
    want = np.kron(np.kron(np.kron(eye3, eye3), lev), eye3)
    assert np.abs(L2 - want).max() == 0


def test_fermion_embedding_anticommutes_across_sites():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1, matter="staggered_fermion")
    full = product_basis(spec)
    ops = fermion_site_ops()
    c0 = apply_product(full, [(spec.matter_pos(0), ops["annihilate"])])
    c1 = apply_product(full, [(spec.matter_pos(1), ops["annihilate"])])
    anti = (c0 @ c1 + c1 @ c0).toarray()
    assert np.abs(anti).max() == 0  # string signs make different sites anticommute
    c1d = apply_product(full, [(spec.matter_pos(1), ops["create"])])
    anti_mixed = (c0 @ c1d + c1d @ c0).toarray()
    assert np.abs(anti_mixed).max() == 0


KERNEL_CASES = [
    (Lattice(2, 1, "open"), "links_E", "none", 1),
    (Lattice(2, 1, "open"), "plaqs_M", "staggered_fermion", 1),
    (Lattice(2, 1, "open"), "plaqs_M", "hardcore_boson", 1),
    (Lattice(2, 1, "periodic"), "plaqs_M", "truncated_boson", 2),
    (Lattice(2, 2, "periodic"), "plaqs_M", "none", 1),  # winding rotors
]


@pytest.mark.parametrize("lat,kind,matter,n_max", KERNEL_CASES, ids=lambda c: str(c)[:24])
def test_kernel_matches_dense_reference(lat, kind, matter, n_max):
    """Random operator products, entry by entry, on the full basis and on a sector."""
    spec = HilbertSpec(lat, kind, cutoff=1, matter=matter, n_max=n_max)
    full = product_basis(spec)
    sector = gauss_sector_basis(spec) if kind == "links_E" else flux_sector_basis(spec)
    assert 0 < sector.dim < full.dim
    rng = np.random.default_rng(sum(spec.dims))
    for factors in random_products(spec, rng):
        ref = dense_product(spec, factors)
        assert np.array_equal(apply_product(full, factors).toarray(), ref)
        restricted = ref[np.ix_(sector.indices, sector.indices)]
        assert np.array_equal(apply_product(sector, factors).toarray(), restricted)


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
    for site in range(lat.n_sites):
        assert gauss_operator(basis, site).count_nonzero() == 0
        assert gauss_operator(product_basis(spec), site).count_nonzero() > 0


def test_gauss_sector_static_charges_are_exact_integers():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    pair = gauss_sector_basis(spec, np.array([1.0, -1.0, 0.0, 0.0]))
    assert pair.dim > 0
    for site, q in enumerate([1, -1, 0, 0]):
        assert gauss_operator(pair, site, q).count_nonzero() == 0
    # no integer configuration balances a half charge
    assert gauss_sector_basis(spec, np.array([0.5, -0.5, 0.0, 0.0])).dim == 0
    assert flux_sector_basis(HilbertSpec(lat, "plaqs_M", cutoff=4), np.array([0.5, -0.5, 0.0, 0.0])).dim == 0


def test_hermiticity_defect():
    lat = Lattice(2, 1, "open")
    spec = HilbertSpec(lat, "links_E", cutoff=1)
    ops = rotor_ops(1)
    op = apply_product(product_basis(spec), [(spec.gauge_pos(0), ops["raise"])])
    assert hermiticity_defect(op) > 0.5  # a bare ladder is not hermitian
    sym = op + op.T
    assert hermiticity_defect(sym) == 0.0
