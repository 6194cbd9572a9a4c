"""Shared fixtures, the tuple cell enumerations and the loop-built reference
operators, the product-space basis, the per-cell comparison path, and the
acceptance-summary reporter."""

import itertools
from types import MappingProxyType

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import checks, dualmap, hilbert, spectrum
from dualqed.lattice import Lattice, _cyclic, cached, divergence_matrix

# geometries small enough for exhaustive/dense checks
GEOMETRIES_2D = [Lattice(2, n, bc) for n in (1, 2, 3) for bc in ("open", "periodic")]
GEOMETRIES_3D = [Lattice(3, n, bc) for n in (1, 2) for bc in ("open", "periodic")]
GEOMETRIES = GEOMETRIES_2D + GEOMETRIES_3D


def geometry_id(lat: Lattice) -> str:
    return lat.label()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def assert_entries_hold(lat: Lattice, rng, *names: str, draws: int | None = None) -> None:
    """Every named `checks` entry that applies to ``lat`` passes its bound."""
    for check in map(checks.get, names):
        if check.applies(lat):
            assert check.worst(lat, rng, draws) <= check.tol, check.name


def gauss_residuals(basis) -> np.ndarray:
    """(n_sites, dim) integer div E - Q per basis state: the Gauss
    constraint without static charges, for a ``links_E`` basis."""
    div = divergence_matrix(basis.spec.lattice) @ hilbert.gauge_level_diagonals(basis)
    return div - hilbert.charge_diagonals(basis)


def integer_image_mask(snf, vecs: np.ndarray) -> np.ndarray:
    """Which columns of an integer array lie in the integer column lattice A·Z^m.

    `snf` is the (U, D, V) triple of `rational.smith_normal_form` of A; a
    column v is a member iff (U·v)_i is divisible by d_i for i <= rank and
    vanishes beyond.  Arithmetic stays in the dtype of `vecs` (int64, or
    object for Python ints).
    """
    assert vecs.dtype.kind in "iO", "integer image membership needs integer entries"
    u, d, _ = snf
    n_cols = len(d[0]) if d else 0
    w = np.array(u, dtype=vecs.dtype) @ vecs
    divisors = np.array([d[i][i] if i < n_cols else 0 for i in range(len(u))], dtype=vecs.dtype)
    pivots = divisors != 0
    return np.all(w[~pivots] == 0, axis=0) & np.all(w[pivots] % divisors[pivots, None] == 0, axis=0)


def in_flux_class(lat: Lattice, vec) -> bool:
    """Whether an integer flux/winding vector lies in the zero-offset class
    lattice D·Z^n, in Python-int arithmetic."""
    column = np.array([int(x) for x in vec], dtype=object)[:, None]
    return bool(integer_image_mask(dualmap._flux_class_snf(lat), column)[0])


def entry_test(*names: str, geometries=GEOMETRIES, draws: int | None = None):
    """A test of the named `checks` entries on each geometry: unit tests that
    only restated an identity run its entry and keep their old test ids."""

    @pytest.mark.parametrize("lat", geometries, ids=geometry_id)
    def test(lat, rng):
        assert_entries_hold(lat, rng, *names, draws=draws)

    return test


# --- cell enumerations ----------------------------------------------------------
# The cells as first numbered: itertools enumerations of coordinate tuples and
# their {cell: index} maps.  `lattice` names cells by index arithmetic on
# coordinate grids alone; these are the independent oracle the tests read.
# Each enumeration returns a tuple (index -> label); the *_index maps invert
# them, as read-only mappings.  Cached: Lattice is frozen and hashable.


@cached
def sites(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    s = lat.sites_per_side
    return tuple(itertools.product(range(s), repeat=lat.dim))


@cached
def _site_index(lat: Lattice) -> MappingProxyType:
    return MappingProxyType({x: i for i, x in enumerate(sites(lat))})


def site_index(lat: Lattice, x: tuple[int, ...]) -> int:
    if lat.periodic:
        x = tuple(c % lat.N for c in x)
    return _site_index(lat)[x]


@cached
def links(lat: Lattice) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All links (base site, direction), ordered by (direction, site)."""
    out = []
    for i in range(lat.dim):
        for x in sites(lat):
            if lat.periodic or x[i] < lat.N:
                out.append((x, i))
    return tuple(out)


@cached
def _link_index(lat: Lattice) -> MappingProxyType:
    return MappingProxyType({lk: n for n, lk in enumerate(links(lat))})


def link_index(lat: Lattice, x: tuple[int, ...], i: int) -> int:
    if lat.periodic:
        x = tuple(c % lat.N for c in x)
    return _link_index(lat)[(x, i)]


@cached
def plaquettes(lat: Lattice) -> tuple[tuple, ...]:
    """2D: corner tuples.  3D: (corner, normal) pairs ordered by (normal, corner)."""
    if lat.dim == 2:
        return tuple(itertools.product(range(lat.N), repeat=2))
    out = []
    for i in range(3):
        j, k = _cyclic(i)
        ranges = []
        for ax in range(3):
            if ax == i:
                ranges.append(range(lat.sites_per_side if not lat.periodic else lat.N))
            else:
                ranges.append(range(lat.N))
        for x in itertools.product(*ranges):
            out.append((x, i))
    return tuple(out)


@cached
def _plaq_index(lat: Lattice) -> MappingProxyType:
    return MappingProxyType({p: n for n, p in enumerate(plaquettes(lat))})


def plaquette_index(lat: Lattice, x: tuple[int, ...], normal: int | None = None) -> int:
    if lat.dim == 2:
        if lat.periodic:
            x = tuple(c % lat.N for c in x)
        return _plaq_index(lat)[x]
    if normal is None:
        raise ValueError("3D plaquettes need a normal direction")
    if lat.periodic:
        x = tuple(c % lat.N for c in x)
    return _plaq_index(lat)[(x, normal)]


@cached
def cubes(lat: Lattice) -> tuple[tuple[int, ...], ...]:
    if lat.dim == 2:
        return ()
    side = lat.N
    return tuple(itertools.product(range(side), repeat=3))


def shift_site(lat: Lattice, x: tuple[int, ...], axis: int, step: int):
    """Site x + step*e_axis, or None if it falls off an open lattice."""
    y = list(x)
    y[axis] += step
    if lat.periodic:
        y[axis] %= lat.N
        return tuple(y)
    if 0 <= y[axis] <= lat.N:
        return tuple(y)
    return None


def bfs_tree_flow_matrix(lat: Lattice) -> np.ndarray:
    """The integer Gauss solution as first written: a breadth-first spanning
    tree over the tuple enumerations, column x the unit flow from x to the
    root.  `dualmap.integer_tree_flow_matrix` walks a staircase instead."""
    all_sites = sites(lat)
    n = len(all_sites)
    parent: dict[int, tuple[int, int, int] | None] = {0: None}
    order = [0]
    queue = [0]
    while queue:
        s = queue.pop(0)
        x = all_sites[s]
        for axis in range(lat.dim):
            for step in (+1, -1):
                nb = shift_site(lat, x, axis, step)
                if nb is None:
                    continue
                t = site_index(lat, nb)
                if t in parent:
                    continue
                # link always stored at the lower endpoint of the step;
                # root-ward unit flow needs +1 when the link's tail is the child
                if step == +1:
                    ell, sign = link_index(lat, x, axis), -1
                else:
                    ell, sign = link_index(lat, nb, axis), +1
                parent[t] = (s, ell, sign)
                order.append(t)
                queue.append(t)
    if len(order) != n:
        raise RuntimeError("site graph is disconnected")  # pragma: no cover
    T = np.zeros((lat.n_links, n), dtype=np.int64)
    for x_idx in range(1, n):
        t = x_idx
        while parent[t] is not None:
            s, ell, sign = parent[t]
            # unit flow from x toward the root: +1 when the link points
            # child -> parent, i.e. against the BFS step direction
            T[ell, x_idx] += sign
            t = s
    return T


# --- reference operators ------------------------------------------------------
# The lattice maps as first written: one Python loop per cell over the tuple
# enumerations and their index maps above.  `lattice` builds the same matrices
# by index arithmetic on coordinate grids; test_lattice compares the two.


def _loop_csr(rows, cols, vals, shape) -> sp.csr_matrix:
    mat = sp.csr_matrix((np.asarray(vals, dtype=np.int64), (rows, cols)), shape=shape)
    mat.sum_duplicates()
    return mat


def _plaquette_exists(lat: Lattice, x, normal=None) -> bool:
    if lat.periodic:
        return True
    if lat.dim == 2:
        return all(0 <= c < lat.N for c in x)
    j, k = _cyclic(normal)
    return 0 <= x[normal] <= lat.N and 0 <= x[j] < lat.N and 0 <= x[k] < lat.N


def loop_gradient(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for n, (x, i) in enumerate(links(lat)):
        rows += [n, n]
        cols += [site_index(lat, shift_site(lat, x, i, +1)), site_index(lat, x)]
        vals += [1, -1]
    return _loop_csr(rows, cols, vals, (lat.n_links, lat.n_sites))


def loop_divergence(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for n, x in enumerate(sites(lat)):
        for i in range(lat.dim):
            if lat.periodic or x[i] < lat.N:
                rows.append(n)
                cols.append(link_index(lat, x, i))
                vals.append(1)
            back = shift_site(lat, x, i, -1)
            if back is not None and (lat.periodic or back[i] < lat.N):
                rows.append(n)
                cols.append(link_index(lat, back, i))
                vals.append(-1)
    return _loop_csr(rows, cols, vals, (lat.n_sites, lat.n_links))


def loop_plaquette_laplacian(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for p, plaq in enumerate(plaquettes(lat)):
        x, normal = (plaq, None) if lat.dim == 2 else plaq
        rows.append(p)
        cols.append(p)
        vals.append(-2 * lat.dim)
        for ax in range(lat.dim):
            for step in (+1, -1):
                y = list(x)
                y[ax] += step
                if lat.periodic:
                    y[ax] %= lat.N
                elif not _plaquette_exists(lat, y, normal):
                    continue
                rows.append(p)
                cols.append(plaquette_index(lat, tuple(y), normal))
                vals.append(1)
    return _loop_csr(rows, cols, vals, (lat.n_plaqs, lat.n_plaqs))


def loop_curl_link_to_plaq(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for p, plaq in enumerate(plaquettes(lat)):
        if lat.dim == 2:
            x, (j, k) = plaq, (0, 1)
        else:
            x, normal = plaq
            j, k = _cyclic(normal)
        for sgn, base, direction in (
            (+1, x, j),
            (+1, shift_site(lat, x, j, +1), k),
            (-1, shift_site(lat, x, k, +1), j),
            (-1, x, k),
        ):
            rows.append(p)
            cols.append(link_index(lat, base, direction))
            vals.append(sgn)
    return _loop_csr(rows, cols, vals, (lat.n_plaqs, lat.n_links))


def loop_curl_plaq_to_link(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for n, (x, i) in enumerate(links(lat)):
        if lat.dim == 2:
            sgn = +1 if i == 0 else -1
            back_ax = 1 if i == 0 else 0
            terms = [(sgn, x, None), (-sgn, shift_site(lat, x, back_ax, -1), None)]
        else:
            j, k = _cyclic(i)
            terms = [
                (+1, x, k),
                (-1, shift_site(lat, x, j, -1), k),
                (-1, x, j),
                (+1, shift_site(lat, x, k, -1), j),
            ]
        for s, corner, normal in terms:
            if corner is None or not _plaquette_exists(lat, corner, normal):
                continue
            rows.append(n)
            cols.append(plaquette_index(lat, corner, normal))
            vals.append(s)
    return _loop_csr(rows, cols, vals, (lat.n_links, lat.n_plaqs))


def loop_cube_flux(lat: Lattice) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for c, x in enumerate(cubes(lat)):
        for i in range(3):
            rows += [c, c]
            cols += [plaquette_index(lat, shift_site(lat, x, i, +1), i), plaquette_index(lat, x, i)]
            vals += [1, -1]
    return _loop_csr(rows, cols, vals, (lat.n_cubes, lat.n_plaqs))


def loop_axis_indicator(lat: Lattice) -> sp.csr_matrix:
    rows, cols = [], []
    for i in range(lat.dim):
        for step in range(lat.N if lat.periodic else 0):
            rows.append(link_index(lat, tuple(step if ax == i else 0 for ax in range(lat.dim)), i))
            cols.append(i)
    return _loop_csr(rows, cols, [1] * len(rows), (lat.n_links, lat.dim))


def loop_direction_sum(lat: Lattice) -> sp.csr_matrix:
    rows, cols = [], []
    for n, (_, i) in enumerate(links(lat)):
        rows.append(i)
        cols.append(n)
    return _loop_csr(rows, cols, [1] * len(rows), (lat.dim, lat.n_links))


# name (a `lattice._OPERATORS` key, or the builder's name) -> reference builder
LOOP_OPERATORS = {
    "gradient": loop_gradient,
    "divergence": loop_divergence,
    "laplacian_site": lambda lat: (loop_divergence(lat) @ loop_gradient(lat)).tocsr(),
    "laplacian_plaquette": loop_plaquette_laplacian,
    "curl_link_to_plaq": loop_curl_link_to_plaq,
    "curl_plaq_to_link": loop_curl_plaq_to_link,
    "cube_flux": loop_cube_flux,
    "axis_indicator_matrix": loop_axis_indicator,
    "direction_sum_matrix": loop_direction_sum,
}


# --- the product space -----------------------------------------------------------


def product_basis(spec: hilbert.HilbertSpec) -> hilbert.BasisMap:
    """Every product state of the space; refused above ``spec.max_dim`` states."""
    if spec.total_dim > spec.max_dim:
        raise hilbert.MemoryGuardError(
            f"product dimension {spec.total_dim} exceeds guard {spec.max_dim}; "
            "raise max_dim explicitly to proceed"
        )
    indices = np.arange(spec.total_dim, dtype=np.int64)
    return hilbert.BasisMap(spec, indices, np.stack(np.unravel_index(indices, spec.dims), axis=1))


# --- one comparison cell ----------------------------------------------------------
# A comparison cell as first computed: its own sector and Hamiltonian built at
# its own cutoff, then solved.  `spectrum.compare_formulations` builds each
# formulation once and narrows it cutoff by cutoff; the tests read this path as
# the oracle of every cell.


def cell_spectrum(
    config: spectrum.CompareConfig, formulation: str, cutoff: int, k: int, seed: int
) -> spectrum.SpectrumReport:
    electric = formulation == "original"
    spec = hilbert.HilbertSpec(
        config.lattice,
        "links_E" if electric else "plaqs_M",
        cutoff=cutoff if electric else config.cutoff_ratio * cutoff,
        matter=config.matter,
        n_max=config.n_max,
        max_dim=config.max_dim,
    )
    _, H, sector = spectrum.sector_hamiltonian(spec, config.params, match_class=config.sector == "physical")
    return spectrum.lowest_eigenvalues(H, k, seed=seed, sector=sector, cutoff=cutoff)


# --- acceptance report -------------------------------------------------------
# test_acceptance.py records one (criterion, passed, detail) triple per
# criterion; the hook below prints them as one line each at the end of the
# run so the verdicts survive output capture.

ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


def record_acceptance(criterion: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[criterion] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[criterion]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {criterion}: {verdict} — {detail}")
