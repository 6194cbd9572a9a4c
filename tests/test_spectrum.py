"""Eigenvalue extraction and the cross-formulation comparison harness."""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from dualqed import dualmap, hilbert, spectrum
from dualqed.hamiltonian import ModelParams, h_dual_thetam, h_original
from dualqed.hilbert import HilbertSpec
from dualqed.lattice import Lattice
from dualqed.spectrum import (
    CompareConfig,
    SpectrumReport,
    cluster_levels,
    compare_formulations,
    flux_sector_basis,
    lowest_eigenvalues,
)

from conftest import (
    GEOMETRIES,
    GEOMETRIES_2D,
    bfs_tree_flow_matrix,
    cell_spectrum,
    digit_values,
    in_flux_class,
    product_basis,
)

ONE_PLAQ_OPEN = Lattice(2, 1, "open")


# ---------------------------------------------------------------------------
# lowest_eigenvalues
# ---------------------------------------------------------------------------


def test_diagonal_matrix_lowest_two():
    rep = lowest_eigenvalues(sp.diags([0.0, 1.0, 2.0]).tocsr(), 2, sector="x", cutoff=7)
    assert rep.eigenvalues == (0.0, 1.0)
    assert rep.method == "dense"
    assert max(rep.residuals) <= 1e-12
    assert rep.sector == "x" and rep.cutoff == 7 and rep.dimension == 3
    d = rep.as_dict()
    assert d["eigenvalues"] == [0.0, 1.0] and d["method"] == "dense"


def test_input_validation():
    good = sp.identity(3, format="csr")
    with pytest.raises(ValueError):
        lowest_eigenvalues(good, 0)
    with pytest.raises(ValueError):
        lowest_eigenvalues(good, 4)
    with pytest.raises(ValueError):
        lowest_eigenvalues(sp.csr_matrix(np.ones((2, 3))), 1)
    ladder = sp.csr_matrix(np.diag([1.0, 1.0], k=1))  # not hermitian
    with pytest.raises(ValueError):
        lowest_eigenvalues(ladder, 1)


def test_complex_hermitian_input_is_solved():
    """Hermitian means equal to the conjugate transpose: a complex hermitian
    matrix is solved, whole or split, and a complex symmetric one is refused."""
    pair = np.array([[1, 1j], [-1j, 2]])
    for H in (pair, sp.block_diag([pair, pair + 0.5 * np.eye(2)], "csr")):
        rep = lowest_eigenvalues(H, 2)
        dense = H.toarray() if sp.issparse(H) else H
        assert np.abs(np.array(rep.eigenvalues) - np.linalg.eigvalsh(dense)[:2]).max() <= 1e-12
        assert max(rep.residuals) <= 1e-12
    with pytest.raises(ValueError, match="not hermitian"):
        lowest_eigenvalues(np.array([[1, 1j], [1j, 2]]), 1)


def test_gauss_sector_pentadiagonal_hand_oracle():
    """Pure gauge, cutoff 2, single open plaquette: the sector is spanned by
    circulation multiples c in {-2..2}; the matrix is pentadiagonal in c with
    diagonal 2 g2 c^2 and couplings -1/(2 g2) between neighbours."""
    g2 = 1.0
    spec = HilbertSpec(ONE_PLAQ_OPEN, "links_E", cutoff=2)
    basis = hilbert.gauss_sector_basis(spec)
    assert basis.dim == 5
    H = h_original(spec, ModelParams(g2=g2, t=0.0), basis)
    rep = lowest_eigenvalues(H, 5)

    c = np.arange(-2, 3, dtype=float)
    hand = np.diag(2.0 * g2 * c**2) - (1.0 / (2.0 * g2)) * (np.eye(5, k=1) + np.eye(5, k=-1))
    expected = np.linalg.eigvalsh(hand)
    assert np.abs(np.array(rep.eigenvalues) - expected).max() <= 1e-12
    assert max(rep.residuals) <= 1e-10


def test_iterative_solver_matches_dense_on_a_large_sparse_matrix():
    rng = np.random.default_rng(7)
    n = 2 * spectrum.DENSE_EIG_LIMIT
    off = sp.random(n, n, density=0.001, random_state=np.random.RandomState(3))
    M = sp.csr_matrix(np.diag(rng.standard_normal(n))) + off + off.T
    rep = lowest_eigenvalues(M, 4, seed=1)
    assert rep.method == "iterative"
    dense = np.sort(np.linalg.eigvalsh(M.toarray()))[:4]
    assert np.abs(np.array(rep.eigenvalues) - dense).max() <= 1e-9
    assert max(rep.residuals) <= 1e-9


def test_reports_are_deterministic():
    rng = np.random.default_rng(11)
    n = 2 * spectrum.DENSE_EIG_LIMIT
    off = sp.random(n, n, density=0.001, random_state=np.random.RandomState(5))
    M = sp.csr_matrix(np.diag(rng.standard_normal(n))) + off + off.T
    a = lowest_eigenvalues(M, 3, seed=2)
    b = lowest_eigenvalues(M, 3, seed=2)
    assert a.eigenvalues == b.eigenvalues  # bit-identical, not merely close
    assert a.residuals == b.residuals


def test_iterative_solver_resolves_degenerate_levels_on_the_torus():
    """The 2x2 periodic pure-gauge Gauss sector at cutoff 2 (1,333 states) is
    above the crossover, but no term changes its winding fluxes, so it splits
    into 145 blocks, each below the crossover.  Its first excited level is
    four-fold degenerate, so the k=3 window ends on a degenerate pair and the
    k=5 window holds the whole cluster; the block solve must find every copy."""
    spec = HilbertSpec(Lattice(2, 2, "periodic"), "links_E", cutoff=2)
    H = h_original(spec, ModelParams(g2=1.3), hilbert.gauss_sector_basis(spec))
    assert H.dtype == np.float64 and H.shape[0] == 1333 >= spectrum.DENSE_EIG_LIMIT
    oracle = scipy.linalg.eigh(H.toarray(), eigvals_only=True)
    for k, multiplicities in ((3, [1, 2]), (5, [1, 4])):
        rep = lowest_eigenvalues(H, k, seed=0)
        assert rep.method == "dense"
        assert np.abs(np.array(rep.eigenvalues) - oracle[:k]).max() <= 1e-10
        assert [m for _, m in cluster_levels(rep.eigenvalues)] == multiplicities
        assert [m for _, m in cluster_levels(oracle[:k])] == multiplicities


def _perturb_solver(monkeypatch):
    """Make the solver return eigenvectors with a 1e-3 random error."""
    solve = spectrum._eigenpairs

    def perturbed(H, k, seed):
        vals, vecs, method = solve(H, k, seed)
        return vals, vecs + 1e-3 * np.random.default_rng(0).standard_normal(vecs.shape), method

    monkeypatch.setattr(spectrum, "_eigenpairs", perturbed)


@pytest.mark.parametrize("path", ["dense", "iterative", "blocks"])
def test_residuals_are_enforced(monkeypatch, path):
    n = 2 * spectrum.DENSE_EIG_LIMIT
    H = sp.diags([np.arange(n, dtype=float), np.full(n - 1, 0.5), np.full(n - 1, 0.5)], [0, 1, -1]).tocsr()
    if path == "dense":
        H = H[:50, :50]
    elif path == "blocks":  # two tridiagonal blocks: the vectors are solved per block and embedded
        H = sp.block_diag([H[:50, :50], H[:30, :30] + sp.identity(30)], format="csr")
    clean = lowest_eigenvalues(H, 3)
    assert clean.method == ("iterative" if path == "iterative" else "dense")
    assert max(clean.residuals) <= spectrum.RESIDUAL_TOL
    _perturb_solver(monkeypatch)
    with pytest.raises(spectrum.ResidualError) as info:
        lowest_eigenvalues(H, 3)
    assert isinstance(info.value, RuntimeError) and not isinstance(info.value, ValueError)


def test_an_operator_too_large_for_its_residuals_is_refused():
    """|Hv - lambda v| of a unit v is at most 2|H| per entry, so the squared
    residual stays finite up to |H| = sqrt(max float / 4n).  A matrix at that
    bound is solved without a warning; twice it is refused with ValueError
    before any solve."""
    import warnings

    n = 4
    edge = np.sqrt(np.finfo(float).max / (4 * n))
    H = sp.diags([np.full(n, 2.0), np.ones(n - 1), np.ones(n - 1)], [0, 1, -1]).tocsr() * (edge / 4)
    assert np.abs(H).sum(axis=1).max() == edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = lowest_eigenvalues(H, 2)
    assert np.isfinite(rep.residuals).all() and max(rep.residuals) <= spectrum.RESIDUAL_TOL * edge
    with pytest.raises(ValueError, match="rescale the couplings"):
        lowest_eigenvalues(H * 2, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--dim", "2", "--N", "1", "--bc", "open", "--cutoff", "2"],
        ["compare", "--dim", "2", "--N", "1", "--bc", "open", "--ratio", "4", "--schedule", "1,2"],
    ],
    ids=["spectrum", "compare"],
)
def test_residual_failure_exits_one(monkeypatch, capsys, argv):
    from dualqed import cli

    assert cli.main(argv) == 0
    capsys.readouterr()
    _perturb_solver(monkeypatch)
    assert cli.main(argv) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "check_failure" and "residual" in error["message"]


def test_ground_energy_is_monotone_in_cutoff():
    """Growing the cutoff enlarges the variational space, so the sector
    ground energy can only go down (within solver rounding)."""
    energies = []
    for cutoff in (1, 2, 3):
        spec = HilbertSpec(ONE_PLAQ_OPEN, "links_E", cutoff=cutoff)
        basis = hilbert.gauss_sector_basis(spec)
        H = h_original(spec, ModelParams(g2=0.8, t=0.0), basis)
        energies.append(lowest_eigenvalues(H, 1).eigenvalues[0])
    assert energies[1] <= energies[0] + 1e-12
    assert energies[2] <= energies[1] + 1e-12


def _direct_report(H, k: int, seed: int) -> SpectrumReport:
    """The report of one ``_eigenpairs`` call on the whole matrix."""
    vals, vecs, method = spectrum._eigenpairs(H, k, seed)
    residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    return SpectrumReport(tuple(map(float, vals)), method, tuple(map(float, residuals)), dimension=H.shape[0])


def _spy_solver(monkeypatch) -> list[int]:
    """Record the dimension of every matrix ``_eigenpairs`` is called on."""
    solve, sizes = spectrum._eigenpairs, []

    def spied(H, k, seed):
        sizes.append(H.shape[0])
        return solve(H, k, seed)

    monkeypatch.setattr(spectrum, "_eigenpairs", spied)
    return sizes


def _sector_matrix(lat, formulation: str, cutoff: int, matter: str = "none", max_dim=hilbert.DEFAULT_MAX_DIM):
    params = ModelParams(g2=1.3, t=0.9, m=0.4)
    if formulation == "electric":
        spec = HilbertSpec(lat, "links_E", cutoff=cutoff, matter=matter, max_dim=max_dim)
        return h_original(spec, params, hilbert.gauss_sector_basis(spec))
    spec = HilbertSpec(lat, "plaqs_M", cutoff=cutoff, matter=matter, max_dim=max_dim)
    return h_dual_thetam(spec, params, flux_sector_basis(spec))


TORUS_SECTORS = [
    (lat, formulation, cutoff)
    for lat in GEOMETRIES
    if lat.periodic
    for formulation in (("electric", "flux") if lat.dim == 2 else ("electric",))
    for cutoff in (1, 2)
]


@pytest.mark.parametrize(
    "lat,formulation,cutoff", TORUS_SECTORS, ids=lambda c: c.label() if isinstance(c, Lattice) else str(c)
)
def test_block_path_matches_dense_oracle(monkeypatch, lat, formulation, cutoff):
    """Pure-gauge torus sectors split into blocks that no term connects (the
    winding fluxes are conserved).  The block solve must give the levels of a
    dense solve of the whole matrix, with the same multiplicities."""
    try:  # a 2^22 guard refuses the slow sectors within a tenth of a second
        H = _sector_matrix(lat, formulation, cutoff, max_dim=2**22)
    except hilbert.MemoryGuardError:
        pytest.skip("sector refused by the guard")
    n = H.shape[0]
    if n > 2 * spectrum.DENSE_EIG_LIMIT:
        # 2D N=3 at cutoff 1, 5,571 states: a dense oracle of it takes about
        # 15 s, so test_split_matrix_matches_the_whole_matrix_solve checks
        # it against one Lanczos solve of the whole matrix instead
        pytest.skip("dense oracle too slow")
    k = min(5, n)
    sizes = _spy_solver(monkeypatch)
    rep = lowest_eigenvalues(H, k, seed=3)
    oracle = scipy.linalg.eigh(H.toarray(), eigvals_only=True)[:k]
    assert connected_components(H, directed=False)[0] > 1 and max(sizes) < n  # solved block by block
    assert rep.method == "dense" and rep.dimension == n
    assert np.abs(np.array(rep.eigenvalues) - oracle).max() <= 1e-10
    assert [m for _, m in cluster_levels(rep.eigenvalues)] == [m for _, m in cluster_levels(oracle)]
    assert max(rep.residuals) <= spectrum.RESIDUAL_TOL


def _connected_matrices():
    """The flux_sector benchmark matrix and the compare_matched cells."""
    yield "flux_sector", _sector_matrix(Lattice(2, 2, "periodic"), "flux", 2, "staggered_fermion")
    for cutoff in (2, 4, 6, 8):
        yield f"electric c={cutoff}", _sector_matrix(ONE_PLAQ_OPEN, "electric", cutoff, "staggered_fermion")
        yield f"flux c={4 * cutoff}", _sector_matrix(ONE_PLAQ_OPEN, "flux", 4 * cutoff, "staggered_fermion")


def test_connected_matrices_take_the_whole_matrix_path(monkeypatch):
    """A connected matrix is solved whole, so its report is bit-identical to
    one ``_eigenpairs`` call on the matrix."""
    for name, H in _connected_matrices():
        direct = _direct_report(H, 3, 7)
        sizes = _spy_solver(monkeypatch)
        rep = lowest_eigenvalues(H, 3, seed=7)
        monkeypatch.undo()
        assert sizes == [H.shape[0]], name
        assert rep == direct, name


def test_split_matrix_matches_the_whole_matrix_solve(monkeypatch):
    """The 3x3 periodic pure-gauge sector at cutoff 1 has 5,571 states in 129
    blocks; solved per block, its levels are those of one Lanczos solve of
    the whole matrix, with the same multiplicities.  Its first excited level
    is four-fold across blocks: at k=5 the per-block solve finds every copy,
    where one Krylov space over the whole matrix finds three."""
    H = _sector_matrix(Lattice(2, 3, "periodic"), "electric", 1)
    whole = _direct_report(H, 3, 7)
    sizes = _spy_solver(monkeypatch)
    rep = lowest_eigenvalues(H, 3, seed=7)
    assert whole.method == "iterative" and max(sizes) < H.shape[0]
    assert np.abs(np.array(rep.eigenvalues) - whole.eigenvalues).max() <= 1e-10
    assert [m for _, m in cluster_levels(rep.eigenvalues)] == [m for _, m in cluster_levels(whole.eigenvalues)]
    assert max(rep.residuals) <= spectrum.RESIDUAL_TOL * max(1.0, abs(H).sum(axis=1).max())
    assert [m for _, m in cluster_levels(lowest_eigenvalues(H, 5, seed=7).eigenvalues)] == [1, 4]


def test_many_small_blocks_are_each_solved_alone(monkeypatch):
    """20 blocks of 400 states, all near the bottom of the spectrum: no solve
    sees more than one block, and the levels are those of a dense solve of
    each block."""
    rng = np.random.default_rng(4)
    blocks = [sp.diags([rng.random(400), np.full(399, 0.5), np.full(399, 0.5)], [0, 1, -1]) for _ in range(20)]
    H = sp.block_diag(blocks, "csr")
    sizes = _spy_solver(monkeypatch)
    rep = lowest_eigenvalues(H, 5)
    oracle = np.sort(np.concatenate([np.linalg.eigvalsh(block.toarray()) for block in blocks]))[:5]
    assert max(sizes) == 400 and rep.method == "dense"
    assert np.abs(np.array(rep.eigenvalues) - oracle).max() <= 1e-12


def test_a_large_block_goes_to_lanczos_alone(monkeypatch):
    """A block of DENSE_EIG_LIMIT states in a split matrix is solved by
    Lanczos on that block only, and the report says so."""
    n = spectrum.DENSE_EIG_LIMIT
    large = sp.diags([np.arange(n, dtype=float), np.full(n - 1, 0.5), np.full(n - 1, 0.5)], [0, 1, -1])
    small = sp.diags([[0.2, 0.7, 1.5], [0.5, 0.5], [0.5, 0.5]], [0, 1, -1])
    H = sp.block_diag([small, large, small + sp.identity(3)], "csr")
    sizes = _spy_solver(monkeypatch)
    rep = lowest_eigenvalues(H, 4, seed=1)
    oracle = np.linalg.eigvalsh(H.toarray())[:4]
    assert n in sizes and max(sizes) == n and rep.method == "iterative"
    assert np.abs(np.array(rep.eigenvalues) - oracle).max() <= 1e-9
    assert max(rep.residuals) <= spectrum.RESIDUAL_TOL * n


def test_block_path_drops_blocks_by_their_gershgorin_bound(monkeypatch):
    """Blocks are solved in Gershgorin order, and the blocks whose bound lies
    above the k-th lowest level found never reach a solver."""
    low = sp.diags([[0.0, 1.0, 2.0], [0.5, 0.5], [0.5, 0.5]], [0, 1, -1])
    H = sp.block_diag([low + 10 * sp.identity(3), sp.identity(1) * 0.25, low, low + 100 * sp.identity(3)], "csr")
    sizes = _spy_solver(monkeypatch)
    rep = lowest_eigenvalues(H, 2)
    oracle = np.linalg.eigvalsh(H.toarray())[:2]
    assert sorted(sizes) == [1, 3] and rep.method == "dense"
    assert np.abs(np.array(rep.eigenvalues) - oracle).max() <= 1e-12


def test_block_path_stops_once_k_one_state_blocks_are_solved(monkeypatch):
    """A diagonal matrix with distinct entries is one-state blocks, each
    asked for min(k, 1) pairs: exactly k are solved, the k lowest entries in
    order, and each vector is the unit vector of its entry."""
    diag = np.random.default_rng(5).permutation(np.arange(12.0))
    sizes = _spy_solver(monkeypatch)
    vals, vecs, method = spectrum._block_eigenpairs(sp.diags(diag).tocsr(), 4, 0, np.abs(diag))
    assert sizes == [1, 1, 1, 1] and method == "dense"
    assert vals.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert np.array_equal(np.abs(vecs), np.eye(12)[:, np.argsort(diag)[:4]])


def test_block_path_breaks_ties_by_block_label():
    """Equal levels in different blocks are taken in block order, so the
    reported vectors are those of the first blocks."""
    pair = sp.csr_matrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
    H = sp.block_diag([pair, pair, pair], "csr")
    vals, vecs, method = spectrum._block_eigenpairs(H, 2, 0, np.asarray(abs(H).sum(axis=1)).ravel())
    assert method == "dense" and np.allclose(vals, [0.5, 0.5])
    assert np.abs(vecs[4:]).max() == 0 and np.abs(vecs[:2, 0]).max() > 0 and np.abs(vecs[2:4, 1]).max() > 0


def test_block_path_solves_the_dense_blocks_it_assembled(monkeypatch):
    """Each solved block reaches the solver as a sparse matrix, equal entry by
    entry to one connected component; the solver builds its dense copy."""
    H = _sector_matrix(Lattice(2, 2, "periodic"), "electric", 2)  # the eigensolve benchmark matrix
    solve, blocks = spectrum._eigenpairs, []

    def spied(block, k, seed):
        blocks.append(block)
        return solve(block, k, seed)

    monkeypatch.setattr(spectrum, "_eigenpairs", spied)
    lowest_eigenvalues(H, 3)
    n_blocks, labels = connected_components(H, directed=False)
    components = [H[labels == label][:, labels == label].toarray() for label in range(n_blocks)]
    assert 0 < len(blocks) < n_blocks
    for block in blocks:
        assert sp.issparse(block)
        assert any(np.array_equal(block.toarray(), component) for component in components)


def test_dense_solve_holds_one_copy_of_the_matrix():
    """A connected matrix below the dense limit is solved on the one
    column-order copy the solver builds and ``eigh`` overwrites: no second
    n x n array is held at the peak."""
    n = 600
    assert n < spectrum.DENSE_EIG_LIMIT
    H = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr")  # a connected chain
    assert lowest_eigenvalues(H, 3).method == "dense"  # also loads what scipy imports lazily
    assert _traced_peak(lowest_eigenvalues, H, 3) <= 1.5 * n**2 * 8


@pytest.mark.parametrize(
    "formulation,matter", [("flux", "staggered_fermion"), ("electric", "none")], ids=["connected", "split"]
)
def test_lowest_eigenvalues_leaves_its_input_unchanged(formulation, matter):
    """The dense solve overwrites only the copy it builds: C- and F-order
    dense, CSR and CSC inputs equal their saved copies after the call, on
    the connected flux_sector and the split eigensolve benchmark matrices."""
    H = _sector_matrix(Lattice(2, 2, "periodic"), formulation, 2, matter)
    dense = H.toarray()
    for given in (dense, np.asfortranarray(dense), H.tocsr(), H.tocsc()):
        saved = given.copy()
        lowest_eigenvalues(given, 3)
        if sp.issparse(given):
            assert given.format == saved.format and (given != saved).nnz == 0
        else:
            assert np.array_equal(given, saved)


# the sector cases of the labeller oracle; 3D has no flux sector
LABEL_CASES = [
    pytest.param(lat, formulation, id=f"{lat.label()}-{formulation}")
    for lat in GEOMETRIES
    for formulation in (("electric", "flux") if lat.dim == 2 else ("electric",))
]


def _assert_labels_match_csgraph(H):
    count, labels = spectrum._component_labels(sp.csr_matrix(H))
    oracle_count, oracle_labels = connected_components(H, directed=False)
    assert count == oracle_count
    assert np.array_equal(labels, oracle_labels)


@pytest.mark.parametrize("lat,formulation", LABEL_CASES)
def test_component_labels_match_csgraph_on_every_sector(lat, formulation):
    """The block labels are those of ``connected_components(H, directed=False)``,
    count and numbering, on every sector of the lattice the guard admits."""
    admitted = 0
    for matter in hilbert.MATTER_KINDS:
        for cutoff in (1, 2):
            try:  # a 2^22 guard refuses the slow sectors within a tenth of a second
                H = _sector_matrix(lat, formulation, cutoff, matter, max_dim=2**22)
            except hilbert.MemoryGuardError:
                continue
            _assert_labels_match_csgraph(H)
            admitted += 1
    if not admitted:
        pytest.skip("every sector refused by the guard")


def test_component_labels_match_csgraph_on_edge_cases():
    """Empty, single-state and diagonal matrices; stored explicit zeros, which
    are edges; one-sided entries; and the 1,201-state chain of the 1x1 open
    flux sector with fermions at cutoff 400."""
    _assert_labels_match_csgraph(sp.csr_matrix((0, 0)))
    _assert_labels_match_csgraph(sp.csr_matrix(np.array([[2.0]])))
    _assert_labels_match_csgraph(sp.diags(np.arange(6.0)).tocsr())
    zeros = sp.csr_matrix((np.array([1.0, 0.0, 0.0, 1.0, 1.0]), (np.array([0, 0, 3, 3, 4]), np.array([0, 3, 0, 3, 4]))), (5, 5))
    assert zeros.nnz == 5 and spectrum._component_labels(zeros)[0] == 4
    _assert_labels_match_csgraph(zeros)
    _assert_labels_match_csgraph(sp.csr_matrix(np.triu(np.ones((4, 4))) - np.eye(4)))
    chain = _sector_matrix(ONE_PLAQ_OPEN, "flux", 400, "staggered_fermion")
    assert chain.shape[0] == 1201
    _assert_labels_match_csgraph(chain)


@pytest.mark.parametrize("seed", range(5))
def test_component_labels_match_csgraph_on_shuffled_forests(seed):
    """Sparse random graphs, many-component and with shuffled state numbers,
    so roots are hooked in every order."""
    rng = np.random.default_rng(seed)
    n = 400
    edges = rng.integers(0, n, size=(2, 300 + 60 * seed))
    perm = rng.permutation(n)
    H = sp.csr_matrix((np.ones(edges.shape[1]), (perm[edges[0]], perm[edges[1]])), (n, n))
    _assert_labels_match_csgraph(H)


def test_cluster_levels_groups_near_degeneracies():
    vals = [1.0 + 5e-10, 0.0, 1.0, 2.0, 1e-12]
    out = cluster_levels(vals)
    assert [mult for _, mult in out] == [2, 2, 1]
    assert abs(out[0][0]) <= 1e-9 and abs(out[1][0] - 1.0) <= 1e-9 and out[2][0] == 2.0


# ---------------------------------------------------------------------------
# flux sectors
# ---------------------------------------------------------------------------


def test_periodic_class_matched_sector_is_tiny():
    """On the periodic 2x2 lattice at flux cutoff 1 the neutral space holds
    every one of the 729 product states, but only 5 sit in the coset of the
    flux-class lattice reachable from integer electric fields."""
    lat = Lattice(2, 2, "periodic")
    spec = HilbertSpec(lat, "plaqs_M", cutoff=1)
    assert spec.total_dim == 729
    assert flux_sector_basis(spec, match_class=False).dim == 729
    basis = flux_sector_basis(spec, match_class=True)
    assert basis.dim == 5

    from dualqed.hamiltonian import h_dual_thetam

    H = h_dual_thetam(spec, ModelParams(g2=1.0, t=0.0), basis)
    ev = np.array(lowest_eigenvalues(H, 5).eigenvalues)
    assert np.abs(ev - np.array([0.0, 1.0, 1.0, 1.0, 1.0])).max() <= 1e-9
    assert [m for _, m in cluster_levels(ev)] == [1, 4]


FLUX_REFERENCE_CASES = [
    (Lattice(2, 1, "open"), "staggered_fermion", 4, None),
    (Lattice(2, 1, "open"), "none", 6, (1.0, 0.0, -1.0, 0.0)),
    (Lattice(2, 2, "periodic"), "none", 1, (1.0, -1.0, 0.0, 0.0)),
    (Lattice(2, 1, "periodic"), "truncated_boson", 2, None),
]


@pytest.mark.parametrize("lat,matter,cutoff,charges", FLUX_REFERENCE_CASES, ids=lambda c: str(c)[:24])
def test_flux_sector_matches_per_state_class_test(lat, matter, cutoff, charges):
    """The one congruence test over all states selects exactly the states the
    per-state loop over the Smith-form membership oracle selects."""
    from dualqed import dualmap

    spec = HilbertSpec(lat, "plaqs_M", cutoff=cutoff, matter=matter, n_max=2)
    q = np.zeros(lat.n_sites, dtype=np.int64) if charges is None else np.array(charges, dtype=np.int64)
    full = product_basis(spec)
    dynamical, flux = digit_values(full)
    rho = dynamical + q[:, None]
    offsets = dualmap.flux_offset_map(lat) @ rho
    want = [
        i
        for i in range(full.dim)
        if rho[:, i].sum() == 0 and in_flux_class(lat, flux[:, i] - offsets[:, i])
    ]
    got = flux_sector_basis(spec, None if charges is None else np.array(charges), match_class=True)
    assert got.indices.tolist() == want
    assert 0 < len(want) < full.dim


@pytest.mark.parametrize("lat", GEOMETRIES_2D, ids=lambda lat: lat.label())
def test_flux_sector_is_the_one_the_bfs_tree_offsets_select(lat, monkeypatch):
    """Every matter kind at c = 1, 2 that the guard admits: the flux sector
    is, row by row, the sector built from the offsets of the breadth-first
    spanning tree (conftest) in place of the staircase tree."""
    fw = dualmap.flux_and_winding_map(lat).toarray().astype(np.int64)
    built = 0
    for matter in hilbert.MATTER_KINDS:
        for cutoff in (1, 2):
            spec = HilbertSpec(lat, "plaqs_M", cutoff=cutoff, matter=matter)
            try:
                basis = flux_sector_basis(spec)
            except hilbert.MemoryGuardError:
                continue
            with monkeypatch.context() as patch:
                patch.setattr(dualmap, "flux_offset_map", lambda lat: fw @ bfs_tree_flow_matrix(lat))
                ref = flux_sector_basis(spec)
            assert np.array_equal(basis.indices, ref.indices), (matter, cutoff)
            built += 1
    assert built


# ---------------------------------------------------------------------------
# comparison harness
# ---------------------------------------------------------------------------


def _ratio4_config(t=0.9, m=0.4):
    return CompareConfig(
        ONE_PLAQ_OPEN,
        ModelParams(g2=1.3, t=t, m=m),
        matter="staggered_fermion",
        cutoff_ratio=4,
    )


def test_matched_windows_agree_to_machine_precision():
    rep = compare_formulations(_ratio4_config(), k=3, schedule=(1, 2))
    for row in rep["cutoffs"]:
        assert row["max_difference"] <= 1e-12, row
        assert row["original"]["dimension"] == row["flux"]["dimension"]
    assert rep["passed"] is True
    assert rep["final_max_difference"] <= 1e-12


def test_matched_windows_agree_without_hopping():
    rep = compare_formulations(_ratio4_config(t=0.0), k=3, schedule=(1, 2))
    assert rep["final_max_difference"] <= 1e-12
    assert rep["passed"] is True


def test_equal_windows_converge_toward_each_other():
    """At equal cutoffs the two descriptions truncate differently, so levels
    differ — but per-level differences shrink as the schedule grows."""
    cfg = CompareConfig(
        ONE_PLAQ_OPEN,
        ModelParams(g2=1.0, t=0.9, m=0.4),
        matter="staggered_fermion",
        cutoff_ratio=1,
    )
    rep = compare_formulations(cfg, k=3, schedule=(2, 4))
    assert rep["cutoffs"][0]["max_difference"] > 1e-3  # genuinely different windows
    assert all(rep["non_increasing_per_level"])
    assert rep["final_max_difference"] < rep["cutoffs"][0]["max_difference"]


def test_comparison_report_is_deterministic_and_json_ready():
    a = compare_formulations(_ratio4_config(), k=2, schedule=(1, 2))
    b = compare_formulations(_ratio4_config(), k=2, schedule=(1, 2))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def _direct_cells(cfg: CompareConfig, schedule) -> dict:
    """{(formulation, cutoff): (H, sector)} built straight from the sector
    constructors and builders, without the comparison harness."""
    params = dict(matter=cfg.matter, n_max=cfg.n_max, max_dim=cfg.max_dim)
    cells = {}
    for cutoff in schedule:
        spec = HilbertSpec(cfg.lattice, "links_E", cutoff=cutoff, **params)
        cells["original", cutoff] = (h_original(spec, cfg.params, hilbert.gauss_sector_basis(spec)), "gauss")
        spec = HilbertSpec(cfg.lattice, "plaqs_M", cutoff=cfg.cutoff_ratio * cutoff, **params)
        cells["flux", cutoff] = (h_dual_thetam(spec, cfg.params, flux_sector_basis(spec)), "neutral+class")
    return cells


@pytest.mark.parametrize("ratio", [1, 4])
@pytest.mark.parametrize("matter", ["none", "staggered_fermion", "hardcore_boson"])
@pytest.mark.parametrize(
    "lat", [Lattice(2, 1, "open"), Lattice(2, 1, "periodic"), Lattice(2, 2, "periodic")], ids=Lattice.label
)
def test_report_rows_equal_directly_built_cells(lat, matter, ratio):
    """Merge oracle: each row of the report holds exactly the spectra of its
    two cells, built and solved outside the harness."""
    # a 2^22 guard refuses the slow N=2 sectors within half a second
    cfg = CompareConfig(lat, ModelParams(g2=1.3, t=0.9, m=0.4), matter=matter, cutoff_ratio=ratio, max_dim=2**22)
    try:
        cells = _direct_cells(cfg, (1, 2))
    except hilbert.MemoryGuardError:
        pytest.skip("sector refused by the guard")
    k = min(3, *(H.shape[0] for H, _ in cells.values()))
    rep = compare_formulations(cfg, k=k, schedule=(1, 2), seed=5)
    assert [row["cutoff"] for row in rep["cutoffs"]] == [1, 2]
    for row in rep["cutoffs"]:
        for form in ("original", "flux"):
            H, sector = cells[form, row["cutoff"]]
            direct = lowest_eigenvalues(H, k, seed=5, sector=sector, cutoff=row["cutoff"])
            assert row[form] == direct.as_dict()


def test_comparison_reads_static_charges_from_the_params():
    """The charges of the params place both cells in the same charged sector,
    so matched windows agree, and the report echoes them."""
    q = (1.0, -1.0, 0.0, 0.0)
    cfg = CompareConfig(ONE_PLAQ_OPEN, ModelParams(static_charges=q), matter="none", cutoff_ratio=4)
    rep = compare_formulations(cfg, k=3, schedule=(2,))
    assert rep["final_max_difference"] <= 1e-12
    assert rep["config"]["static_charges"] == list(q)


def test_sector_hamiltonian_validates_the_params_before_enumerating():
    spec = HilbertSpec(ONE_PLAQ_OPEN, "links_E", cutoff=2, max_dim=1)
    with pytest.raises(hilbert.MemoryGuardError):
        spectrum.sector_hamiltonian(spec, ModelParams())
    with pytest.raises(ValueError, match="neutral"):
        spectrum.sector_hamiltonian(spec, ModelParams(static_charges=(1.0, 0.0, 0.0, 0.0)))


# a 2^22 guard refuses the slow sectors within half a second each
CALLER_GUARD = 2**22
CALLER_CASES = [
    pytest.param(lat, formulation, matter, cutoff, id=f"{lat.label()}-{formulation}-{matter}-c{cutoff}")
    for lat in GEOMETRIES
    if lat.dim == 2
    for formulation in ("electric", "flux")
    for matter in hilbert.MATTER_KINDS
    for cutoff in (1, 2)
]


@pytest.mark.parametrize("lat,formulation,matter,cutoff", CALLER_CASES)
def test_every_caller_reports_the_directly_built_sector(lat, formulation, matter, cutoff, tmp_path):
    """``build`` and ``spectrum`` through the CLI, and a comparison cell,
    report the sector dimension, nonzeros and eigenvalues of the sector and
    Hamiltonian built straight from the sector constructors and builders."""
    from dualqed import cli

    params = ModelParams(g2=1.3, t=0.9, m=0.4)
    kind = "links_E" if formulation == "electric" else "plaqs_M"
    spec = HilbertSpec(lat, kind, cutoff=cutoff, matter=matter, max_dim=CALLER_GUARD)
    try:
        basis = hilbert.gauss_sector_basis(spec) if kind == "links_E" else flux_sector_basis(spec)
    except hilbert.MemoryGuardError:
        pytest.skip("sector refused by the guard")
    H = (h_original if kind == "links_E" else h_dual_thetam)(spec, params, basis)
    k = min(3, basis.dim)
    direct = lowest_eigenvalues(H, k)

    argv = [
        "--dim", "2", "--N", str(lat.N), "--bc", lat.bc, "--formulation", formulation,
        "--matter", matter, "--cutoff", str(cutoff), "--g2", "1.3", "--t", "0.9", "--m", "0.4",
    ]  # fmt: skip
    out = tmp_path / "report.json"
    assert cli.main(["build", *argv, "--out", str(out)]) == 0
    built = json.loads(out.read_text())
    assert (built["sector_dim"], built["nonzeros"]) == (basis.dim, H.nnz)
    assert cli.main(["spectrum", *argv, "--k", str(k), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["eigenvalues"] == list(direct.eigenvalues)

    cfg = CompareConfig(lat, params, matter=matter, max_dim=CALLER_GUARD)
    cell = cell_spectrum(cfg, "original" if kind == "links_E" else "flux", cutoff, k, 0)
    assert (cell.dimension, cell.eigenvalues) == (basis.dim, direct.eigenvalues)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_compare_peak_memory_is_that_of_its_largest_cell():
    """Each formulation's lower cells are narrowed from the top one, the
    larger matrix dropped at every step, and cells keep only their reports:
    a comparison holds no more than its largest cell built on its own."""
    cfg = CompareConfig(
        Lattice(2, 2, "periodic"), ModelParams(g2=1.3, t=0.9, m=0.4), matter="staggered_fermion", cutoff_ratio=1
    )
    compare_formulations(cfg, 3, (1, 2))  # fill the lattice caches first
    cells = [(form, cutoff) for cutoff in (1, 2) for form in ("original", "flux")]
    largest = max(_traced_peak(cell_spectrum, cfg, form, cutoff, 3, 0) for form, cutoff in cells)
    assert _traced_peak(compare_formulations, cfg, 3, (1, 2)) <= 1.1 * largest


NESTED_CASES = [
    pytest.param(lat, matter, sector, ratio, id=f"{lat.label()}-{matter}-{sector}-r{ratio}")
    for lat in GEOMETRIES_2D
    for matter in hilbert.MATTER_KINDS
    for sector in ("physical", "charge")
    for ratio in (1, 4)
]


@pytest.mark.parametrize("lat,matter,sector,ratio", NESTED_CASES)
def test_nested_cells_equal_the_per_cell_oracle(lat, matter, sector, ratio, monkeypatch):
    """Every cell narrowed from the top cutoff's Hamiltonian is, in indptr,
    indices, data and dtype, the one built at its own cutoff, and every row
    equals the reports of that directly built matrix, solved once it has
    passed the entry-by-entry check.  A schedule the guard refuses on a cell
    of its own is refused by the comparison too."""
    cfg = CompareConfig(
        lat, ModelParams(g2=1.3, t=0.9, m=0.4), matter=matter, sector=sector, cutoff_ratio=ratio, max_dim=CALLER_GUARD
    )
    direct = {}
    for form, kind, scale in (("original", "links_E", 1), ("flux", "plaqs_M", ratio)):
        for cutoff in (1, 2):
            spec = HilbertSpec(lat, kind, scale * cutoff, matter=matter, max_dim=CALLER_GUARD)
            try:
                direct[form, cutoff] = spectrum.sector_hamiltonian(spec, cfg.params, cfg.sector == "physical")[1:]
            except hilbert.MemoryGuardError:
                pass
    if not direct:
        pytest.skip("every cell refused by the guard")
    k = min(2, *(H.shape[0] for H, _ in direct.values()))
    oracle = {}
    cells = []
    real_cell = spectrum._cell_spectrum

    def recording_cell(H, label, cutoff, *args):
        cells.append((H, label, cutoff))
        return real_cell(H, label, cutoff, *args)

    monkeypatch.setattr(spectrum, "_cell_spectrum", recording_cell)
    for schedule in ((1, 2), (2, 1, 2), (1,)):
        cells.clear()
        if any((form, c) not in direct for c in schedule for form in ("original", "flux")):
            with pytest.raises(hilbert.MemoryGuardError):
                compare_formulations(cfg, k=k, schedule=schedule, seed=5)
            continue
        rep = compare_formulations(cfg, k=k, schedule=schedule, seed=5)
        descending = sorted(set(schedule), reverse=True)
        assert [c for _, _, c in cells] == descending * 2
        for form, (H, label, cutoff) in zip(["original"] * len(descending) + ["flux"] * len(descending), cells):
            D, direct_label = direct[form, cutoff]
            assert (label, H.dtype) == (direct_label, D.dtype)
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(H, part), getattr(D, part)), (form, cutoff, part)
            if (form, cutoff) not in oracle:
                oracle[form, cutoff] = lowest_eigenvalues(D, k, seed=5, sector=direct_label, cutoff=cutoff).as_dict()
        assert [row["cutoff"] for row in rep["cutoffs"]] == list(schedule)
        for row in rep["cutoffs"]:
            for form in ("original", "flux"):
                assert row[form] == oracle[form, row["cutoff"]]


@pytest.mark.parametrize("schedule", [(1,), (1, 2), (2, 1, 2), (3, 1, 2, 2)])
def test_compare_builds_each_formulation_once(schedule, monkeypatch):
    built = []
    real_build = spectrum.sector_hamiltonian

    def counting_build(spec, *args, **kwargs):
        built.append((spec.gauge_kind, spec.cutoff))
        return real_build(spec, *args, **kwargs)

    monkeypatch.setattr(spectrum, "sector_hamiltonian", counting_build)
    compare_formulations(_ratio4_config(), k=3, schedule=schedule)
    assert built == [("links_E", max(schedule)), ("plaqs_M", 4 * max(schedule))]


def test_comparison_report_shape_and_schema():
    rep = compare_formulations(_ratio4_config(), k=2, schedule=(1, 2))
    assert rep["schedule"] == [1, 2]
    assert rep["k"] == 2
    assert len(rep["cutoffs"]) == 2
    assert len(rep["per_level_differences"]) == 2
    assert len(rep["non_increasing_per_level"]) == 2
    assert len(rep["convergence_slopes"]) == 2
    row = rep["cutoffs"][0]
    assert row["cutoff_flux"] == 4 * row["cutoff_electric"]
    assert row["original"]["sector"] == "gauss"
    assert row["flux"]["sector"] == "neutral+class"
    assert rep["config"]["cutoff_ratio"] == 4

    jsonschema = pytest.importorskip("jsonschema")
    import pathlib

    schema = json.loads(
        (pathlib.Path(__file__).resolve().parents[1] / "schemas" / "comparison_report.schema.json").read_text()
    )
    jsonschema.validate(json.loads(json.dumps(rep)), schema)


def test_charge_sector_mode_keeps_unphysical_copies():
    """Dropping the class match enlarges the flux sector and breaks the
    matched-window agreement: the extra coset copies intrude below."""
    cfg = CompareConfig(
        ONE_PLAQ_OPEN,
        ModelParams(g2=1.3, t=0.9, m=0.4),
        matter="staggered_fermion",
        cutoff_ratio=4,
        sector="charge",
    )
    rep = compare_formulations(cfg, k=3, schedule=(1,))
    row = rep["cutoffs"][0]
    assert row["flux"]["dimension"] > row["original"]["dimension"]
    assert row["max_difference"] > 1e-6
    assert rep["config"]["sector"] == "charge"


def test_config_validation():
    params = ModelParams()
    with pytest.raises(ValueError):
        CompareConfig(Lattice(3, 1, "open"), params)
    with pytest.raises(ValueError):
        CompareConfig(ONE_PLAQ_OPEN, params, sector="bogus")
    with pytest.raises(ValueError):
        CompareConfig(ONE_PLAQ_OPEN, params, cutoff_ratio=0)
    with pytest.raises(ValueError):
        CompareConfig(ONE_PLAQ_OPEN, params, tolerance=0.0)
    with pytest.raises(ValueError):
        compare_formulations(CompareConfig(ONE_PLAQ_OPEN, params), schedule=())
    with pytest.raises(ValueError):
        compare_formulations(CompareConfig(ONE_PLAQ_OPEN, params), schedule=(0, 2))


def test_tolerance_controls_the_verdict():
    strict = CompareConfig(
        ONE_PLAQ_OPEN,
        ModelParams(g2=1.0, t=0.9, m=0.4),
        matter="staggered_fermion",
        cutoff_ratio=1,
        tolerance=1e-15,
    )
    rep = compare_formulations(strict, k=2, schedule=(2,))
    assert rep["passed"] is False
    assert rep["tolerance"] == 1e-15
