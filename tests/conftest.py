"""Shared fixtures, the tuple cell enumerations, the loop-built reference
operators and constraint rows, the list-based exact algebra, the
product-space basis, the per-cell comparison path, and the
acceptance-summary reporter."""

import itertools
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest
import scipy.sparse as sp

from dualqed import checks, dualmap, hilbert, rational, spectrum
from dualqed.greens import EXACT_LIMIT
from dualqed.lattice import (
    Lattice,
    _cyclic,
    cached,
    cell_coordinates,
    cube_flux_matrix,
    curl_link_to_plaq_matrix,
    direction_sum_matrix,
    divergence_matrix,
    laplacian_matrix,
)

# geometries small enough for exhaustive/dense checks
GEOMETRIES_2D = [Lattice(2, n, bc) for n in (1, 2, 3) for bc in ("open", "periodic")]
GEOMETRIES_3D = [Lattice(3, n, bc) for n in (1, 2) for bc in ("open", "periodic")]
GEOMETRIES = GEOMETRIES_2D + GEOMETRIES_3D
# those whose cells all fit the exact-rational lane
EXACT_GEOMETRIES = [
    lat for lat in GEOMETRIES if max(lat.n_sites, lat.n_plaqs + lat.n_global_loops) <= EXACT_LIMIT
]


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
    u, d, _ = (np.array(m, dtype=object) for m in snf)
    w = u.astype(vecs.dtype) @ vecs
    divisors = np.zeros(len(u), dtype=vecs.dtype)
    divisors[: min(d.shape)] = d.diagonal()
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


def loop_constraint_set(lat: Lattice) -> dualmap.ConstraintSet:
    """`dualmap.constraint_set` as first written: one dense row per
    constraint, stacked into a dense array."""
    n_plaq = lat.n_plaqs
    n_glob = lat.n_global_loops
    width = n_plaq + n_glob
    rows: list[np.ndarray] = []
    kinds: list[str] = []
    if lat.dim == 2:
        if lat.periodic:
            vec = np.zeros(width, dtype=np.int64)
            vec[:n_plaq] = 1
            rows.append(vec)
            kinds.append("total_flux")
    else:
        K = cube_flux_matrix(lat).toarray()
        for r in range(K.shape[0]):
            vec = np.zeros(width, dtype=np.int64)
            vec[:n_plaq] = K[r]
            rows.append(vec)
            kinds.append("cube_flux")
        if lat.periodic:
            normals, corners = cell_coordinates(lat, "plaquette")
            for i in range(3):
                vec = np.zeros(width, dtype=np.int64)
                vec[:n_plaq] = (normals == i) & (corners[i] == 0)
                rows.append(vec)
                kinds.append(f"slice_sum_{i}")
    if rows:
        mat = sp.csr_matrix(np.array(rows, dtype=np.int64))
        n_indep = rational.rank(mat)
    else:
        mat = sp.csr_matrix((0, width), dtype=np.int64)
        n_indep = 0
    return dualmap.ConstraintSet(lat, tuple(kinds), mat, n_indep)


# --- list-based exact algebra ---------------------------------------------------
# The exact lane as first written: Fraction matrices as lists of rows with
# their own products, Gauss-Jordan inverse, kernel-projector pseudo-inverse
# and Smith form, and the dual-coordinate formula rewritten in Fractions.
# `rational` now runs the float formulas on numpy object arrays; the tests
# read these as the oracle of every exact table.

RationalMatrix = list[list[Fraction]]


def _as_rows(mat) -> RationalMatrix:
    """Coerce a numpy / scipy / nested-list matrix to Fraction rows.

    Float entries raise TypeError (`_exact_entry`), in object arrays too.
    """
    if sp.issparse(mat):
        mat = mat.toarray()
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    return [[Fraction(rational._exact_entry(v)) for v in row] for row in mat]


def identity(n: int) -> RationalMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for p in range(k):
            aip = ai[p]
            if aip == 0:
                continue
            bp = b[p]
            for j in range(m):
                if bp[j]:
                    oi[j] += aip * bp[j]
    return out


def matvec(a: RationalMatrix, v: list[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


def transpose(a: RationalMatrix) -> RationalMatrix:
    return [list(col) for col in zip(*a)]


def list_invert(mat) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination with nonzero pivoting.

    Raises ValueError on a singular input.
    """
    a = _as_rows(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert needs a square matrix")
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular over the rationals")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def exact_nullspace(mat) -> list[list[Fraction]]:
    """Exact rational basis of the right nullspace, one vector per free column,
    by back substitution on the pivots of `rational._eliminate`.

    The vector of free column f is 1 at f and 0 at the other free columns;
    its pivot entries are solved in reverse pivot order.  Free columns are
    taken in ascending order.
    """
    rows, n_cols = rational._integer_rows(mat)
    pivots = rational._eliminate(rows)
    pivot_cols = {j for j, _ in pivots}
    basis = []
    for f in range(n_cols):
        if f in pivot_cols:
            continue
        x = {f: Fraction(1)}
        for j, prow in reversed(pivots):
            s = sum(v * x[k] for k, v in prow.items() if k in x)
            if s:
                x[j] = -s / prow[j]
        vec = [Fraction(0)] * n_cols
        for k, v in x.items():
            vec[k] = v
        basis.append(vec)
    return basis


def list_pseudo_inverse_symmetric(mat, kernel: list[list[Fraction]] | None = None) -> RationalMatrix:
    """Exact Moore-Penrose inverse of a symmetric rational matrix.

    Uses the kernel-projector identity A+ = (A + P)^{-1} - P where P is the
    orthogonal projector onto ker A: A + P is invertible, acts as A on the
    range and as the identity on the kernel, and both summands commute with
    the splitting.  `kernel` may supply a known basis; otherwise it is
    computed.
    """
    a = _as_rows(mat)
    n = len(a)
    if kernel is None:
        kernel = exact_nullspace(a)
    if not kernel:
        return list_invert(a)
    k = transpose([list(v) for v in kernel])  # n x m, columns span the kernel
    ktk = matmul(transpose(k), k)
    proj = matmul(matmul(k, list_invert(ktk)), transpose(k))
    shifted = [[a[i][j] + proj[i][j] for j in range(n)] for i in range(n)]
    inv = list_invert(shifted)
    return [[inv[i][j] - proj[i][j] for j in range(n)] for i in range(n)]


def list_smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix: returns (U, D, V) with U·A·V = D,
    by pivot-shrinking elimination on lists of Python ints."""
    a0 = _as_rows(mat)
    if any(v.denominator != 1 for row in a0 for v in row):
        raise TypeError("smith_normal_form needs integer entries")
    rows = len(a0)
    cols = len(a0[0]) if rows else 0
    a = [[int(v) for v in row] for row in a0]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        # Bring the smallest-magnitude nonzero of the trailing block to (t, t).
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        u[t], u[bi] = u[bi], u[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        for row in v:
            row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True  # nonzero remainder became the new smallest entry
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // piv
                for row in a:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide the whole trailing block for the divisor chain.
        stray = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % piv),
            None,
        )
        if stray is not None:
            i = stray[0]
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        t += 1
    return u, a, v


# The exact Green's tables and Coulomb kernel from the list algebra, built as
# `greens` and `dualmap` build theirs.


@cached
def list_greens_sites(lat: Lattice) -> RationalMatrix:
    A = (-laplacian_matrix(lat, "site")).toarray()
    return list_pseudo_inverse_symmetric(A, kernel=[[Fraction(1)] * lat.n_sites])


@cached
def list_greens_plaquettes_obc(lat: Lattice) -> RationalMatrix:
    return list_invert((-laplacian_matrix(lat, "plaquette")).toarray())


@cached
def list_modified_greens(lat: Lattice) -> RationalMatrix:
    if lat.dim == 2 and not lat.periodic:
        return list_greens_plaquettes_obc(lat)
    return list_pseudo_inverse_symmetric(dualmap.d_matrix(lat).toarray())


@cached
def _ramp_exact(lat: Lattice) -> tuple[tuple[Fraction, ...], ...]:
    """n_plaqs x dim Fractions: column i is the plaquette ramp sourced by S_i.

    Entries are integer multiples of 1/N^2 and 1/N^3; open lattices have no
    ramp and get zeros.
    """
    if not lat.periodic:
        return ((Fraction(0),) * lat.dim,) * lat.n_plaqs
    N = lat.N
    sq, cu = Fraction(1, N**2), Fraction(1, N**3)
    rows = []
    normals, corners = cell_coordinates(lat, "plaquette")
    for normal, y in zip(normals.tolist(), corners.T.tolist()):
        row = [Fraction(0)] * lat.dim
        if lat.dim == 2 or (normal == 2 and y[2] == 0):
            row[0] = y[1] * sq
            row[1] = -y[0] * sq
        elif normal == 1:
            row[0] = -y[2] * cu
            if y[1] == 0:
                row[2] = y[0] * sq
        elif normal == 0:
            row[1] = y[2] * cu
            row[2] = -y[1] * cu
        rows.append(tuple(row))
    return tuple(rows)


def _solve_potential_exact(lat: Lattice, circulation: list[Fraction]) -> list[Fraction]:
    """L_plaq of one circulation in Fractions."""
    if not lat.periodic:
        return matvec(list_modified_greens(lat), circulation)
    G, n = list_greens_sites(lat), lat.n_sites
    return [v for o in range(0, lat.n_plaqs, n) for v in matvec(G, circulation[o : o + n])]


def list_dual_coordinates(lat: Lattice, F: np.ndarray) -> tuple[list[Fraction], list[Fraction] | None]:
    """The dual coordinates of one integer link field in Fractions."""
    circulation = [Fraction(int(v)) for v in curl_link_to_plaq_matrix(lat) @ F]
    L = _solve_potential_exact(lat, circulation)
    if not lat.periodic:
        return L, None
    S = [int(v) for v in direction_sum_matrix(lat) @ F]
    L = [v + sum(r * s for r, s in zip(row, S)) for v, row in zip(L, _ramp_exact(lat))]
    return L, [Fraction(s, lat.N) for s in S]


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
