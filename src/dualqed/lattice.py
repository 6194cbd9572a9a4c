"""Square/cubic lattice cell complexes and integer difference operators.

Geometry conventions used across the package:

- Coordinates are 0-based tuples ``x = (x_1, ..., x_d)`` with ``d`` in {2, 3}.
  Cells are indexed row-major (C order, last coordinate fastest).
- ``N`` counts *elementary plaquettes/cubes per side*: a periodic lattice has
  ``N`` sites per side, an open one ``N + 1`` (its outermost sites bound the
  last cell).
- A link ``(x, i)`` points from site ``x`` to ``x + e_i``; links are ordered
  by (direction, site index).
- A 2D plaquette is labeled by its lower-left corner.  A 3D plaquette
  ``(x, i)`` has normal ``i`` and spans the (j, k) plane with (i, j, k) a
  cyclic permutation of (0, 1, 2); plaquettes are ordered by (normal, corner).
- A cube is labeled by its corner nearest the origin.
- Open boundaries are implemented by *deleting* every term of a periodic
  stencil that refers to an absent cell; no ghost layers.

Forward difference (gradient) maps sites to links, backward difference
(divergence) maps links to sites, and the two curls map links to plaquettes
and back.  All operator matrices are integer CSR and cached per lattice.
Every cached result is read-only: `cached` freezes its arrays once, when
it is computed, and cached lookup tables are mapping proxies, so a write
into a shared result raises instead of corrupting every later caller.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np
import scipy.sparse as sp

CellKind = str  # 'site' | 'link' | 'plaquette' | 'cube'

_BOUNDARY_KINDS = ("periodic", "open")


def _freeze(obj):
    """Mark the arrays of a result read-only: ndarrays, the arrays of sparse
    matrices (sorted first, so scipy never sorts them in place later), and
    the same inside dataclass fields and tuple items."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif sp.issparse(obj):
        obj.sum_duplicates()
        for name in ("data", "indices", "indptr"):
            _freeze(getattr(obj, name, None))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _freeze(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for item in obj:
            _freeze(item)
    return obj


def cached(fn):
    """`functools.lru_cache` whose results are frozen once, when computed: they
    are shared by every caller, the threads of `compare_formulations` included."""

    @functools.lru_cache(maxsize=None)
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _freeze(fn(*args, **kwargs))

    return wrapper


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice geometry: dimension, cells per side, boundary kind."""

    dim: int
    N: int
    bc: str

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be a positive integer, got {self.N!r}")
        if self.bc not in _BOUNDARY_KINDS:
            raise ValueError(f"bc must be one of {_BOUNDARY_KINDS}, got {self.bc!r}")

    @property
    def periodic(self) -> bool:
        return self.bc == "periodic"

    @property
    def sites_per_side(self) -> int:
        return self.N if self.periodic else self.N + 1

    @property
    def n_sites(self) -> int:
        return self.sites_per_side**self.dim

    @property
    def n_links(self) -> int:
        return len(links(self))

    @property
    def n_plaqs(self) -> int:
        return len(plaquettes(self))

    @property
    def n_cubes(self) -> int:
        return len(cubes(self))

    @property
    def n_global_loops(self) -> int:
        """Independent noncontractible loop directions (periodic only)."""
        return self.dim if self.periodic else 0

    def n_cells(self, kind: CellKind) -> int:
        return {
            "site": self.n_sites,
            "link": self.n_links,
            "plaquette": self.n_plaqs,
            "cube": self.n_cubes,
        }[kind]

    def label(self) -> str:
        return f"dim{self.dim}_N{self.N}_{self.bc}"


def _cyclic(i: int) -> tuple[int, int]:
    """Transverse axes (j, k) with (i, j, k) a cyclic permutation of (0,1,2)."""
    return (i + 1) % 3, (i + 2) % 3


# ---------------------------------------------------------------------------
# Cell enumerations.  Each returns a tuple (index -> label); the *_index maps
# invert them, as read-only mappings.  Cached: Lattice is frozen and hashable.
# ---------------------------------------------------------------------------


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


def plaquette_exists(lat: Lattice, x: tuple[int, ...], normal: int | None = None) -> bool:
    if lat.periodic:
        return True
    if lat.dim == 2:
        return all(0 <= c < lat.N for c in x)
    j, k = _cyclic(normal)
    return (
        0 <= x[normal] <= lat.N
        and 0 <= x[j] < lat.N
        and 0 <= x[k] < lat.N
    )


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


def global_loop_links(lat: Lattice, direction: int) -> list[int]:
    """Link indices of the noncontractible axis line in `direction`.

    The line runs through the origin: all transverse coordinates are zero.
    """
    if not lat.periodic:
        return []
    idx = []
    for step in range(lat.N):
        x = tuple(step if ax == direction else 0 for ax in range(lat.dim))
        idx.append(link_index(lat, x, direction))
    return idx


def site_parity(lat: Lattice) -> np.ndarray:
    """Staggered sign (-1)^(x_1 + ... + x_d) per site."""
    return np.array([(-1) ** (sum(x) % 2) for x in sites(lat)], dtype=np.int64)


@cached
def axis_indicator_matrix(lat: Lattice) -> sp.csr_matrix:
    """n_links x dim matrix whose column i marks the direction-i axis line."""
    rows, cols = [], []
    for i in range(lat.dim):
        for n in global_loop_links(lat, i):
            rows.append(n)
            cols.append(i)
    vals = [1] * len(rows)
    return _csr(rows, cols, vals, (lat.n_links, lat.dim))


@cached
def direction_sum_matrix(lat: Lattice) -> sp.csr_matrix:
    """dim x n_links matrix summing link values per direction."""
    rows, cols = [], []
    for n, (_, i) in enumerate(links(lat)):
        rows.append(i)
        cols.append(n)
    vals = [1] * len(rows)
    return _csr(rows, cols, vals, (lat.dim, lat.n_links))


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------


@dataclass
class FieldVector:
    """Values attached to one kind of cell, plus optional global-loop values.

    `global_values` (length dim) rides along with link fields on periodic
    lattices when a decomposition separates out noncontractible loop content,
    and with plaquette fields acting as dual variables.
    """

    lattice: Lattice
    kind: CellKind
    values: np.ndarray
    global_values: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values)
        expected = self.lattice.n_cells(self.kind)
        if self.values.shape != (expected,):
            raise ValueError(
                f"{self.kind} field on {self.lattice.label()} needs shape ({expected},), "
                f"got {self.values.shape}"
            )
        if self.global_values is not None:
            self.global_values = np.asarray(self.global_values)
            if not self.lattice.periodic:
                raise ValueError("global loop values only exist on periodic lattices")
            if self.global_values.shape != (self.lattice.dim,):
                raise ValueError("need one global value per direction")

    def full_values(self) -> np.ndarray:
        """Cell values with global-loop values appended (if any)."""
        if self.global_values is None:
            return self.values
        return np.concatenate([self.values, self.global_values])

    def copy(self) -> "FieldVector":
        return FieldVector(
            self.lattice,
            self.kind,
            self.values.copy(),
            None if self.global_values is None else self.global_values.copy(),
        )


def _require_kind(f: FieldVector, kind: CellKind, op: str):
    if f.kind != kind:
        raise ValueError(f"{op} acts on {kind} fields, got a {f.kind} field")


# ---------------------------------------------------------------------------
# Operator matrices (integer CSR, cached)
# ---------------------------------------------------------------------------


@dataclass
class LinearMap:
    """A named sparse operator between cell spaces of one lattice."""

    name: str
    lattice: Lattice
    domain: str
    codomain: str
    matrix: sp.csr_matrix

    def to_coo_csv(self, path) -> None:
        """Write coordinate triplets with a one-line identifying header."""
        coo = self.matrix.tocoo()
        order = np.lexsort((coo.col, coo.row))
        with open(path, "w") as fh:
            fh.write(
                f"# operator={self.name} dim={self.lattice.dim} N={self.lattice.N} "
                f"bc={self.lattice.bc} shape={self.matrix.shape[0]}x{self.matrix.shape[1]} "
                f"domain={self.domain} codomain={self.codomain}\n"
            )
            fh.write("row,col,value\n")
            for n in order:
                fh.write(f"{coo.row[n]},{coo.col[n]},{coo.data[n]}\n")


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.int64), (rows, cols)), shape=shape
    )


@cached
def gradient_matrix(lat: Lattice) -> sp.csr_matrix:
    """Forward difference, sites -> links: (grad f)_i(x) = f(x+e_i) - f(x)."""
    rows, cols, vals = [], [], []
    for n, (x, i) in enumerate(links(lat)):
        head = shift_site(lat, x, i, +1)
        rows += [n, n]
        cols += [site_index(lat, head), site_index(lat, x)]
        vals += [1, -1]
    return _csr(rows, cols, vals, (lat.n_links, lat.n_sites))


@cached
def divergence_matrix(lat: Lattice) -> sp.csr_matrix:
    """Backward difference, links -> sites: (div F)(x) = sum_i F_i(x) - F_i(x-e_i).

    Built from its own stencil (terms referring to absent links are dropped);
    equals minus the gradient transpose entrywise, which the tests check.
    """
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
    return _csr(rows, cols, vals, (lat.n_sites, lat.n_links))


def plaquette_grid_shape(lat: Lattice, normal: int | None = None) -> tuple[int, ...]:
    """Shape of the regular grid on which same-orientation plaquettes live."""
    if lat.dim == 2:
        return (lat.N, lat.N)
    j, k = _cyclic(normal)
    shape = [0, 0, 0]
    shape[normal] = lat.N if lat.periodic else lat.N + 1
    shape[j] = lat.N
    shape[k] = lat.N
    return tuple(shape)


@cached
def laplacian_matrix(lat: Lattice, kind: CellKind = "site") -> sp.csr_matrix:
    """Lattice Laplacian.

    ``site``: backward-difference of forward-difference; the diagonal is
    -2*dim in the bulk and shrinks at open boundaries as stencil terms drop.

    ``plaquette``: nearest-neighbor Laplacian on each same-orientation
    plaquette grid.  Periodic: ordinary toroidal grid Laplacian
    (componentwise in 3D).  Open: the *modified* operator whose diagonal
    stays -2*dim everywhere while absent-neighbor terms are simply dropped —
    this keeps it nonsingular and is the operator the open-boundary
    transverse potentials invert.
    """
    if kind == "site":
        return (divergence_matrix(lat) @ gradient_matrix(lat)).tocsr()
    if kind != "plaquette":
        raise ValueError(f"no Laplacian for cell kind {kind!r}")
    n = lat.n_plaqs
    rows, cols, vals = [], [], []
    for p, plaq in enumerate(plaquettes(lat)):
        if lat.dim == 2:
            x, normal = plaq, None
        else:
            x, normal = plaq
        rows.append(p)
        cols.append(p)
        vals.append(-2 * lat.dim)
        for ax in range(lat.dim):
            for step in (+1, -1):
                y = list(x)
                y[ax] += step
                if lat.periodic:
                    y[ax] %= lat.N
                    q = tuple(y)
                else:
                    shape = plaquette_grid_shape(lat, normal)
                    if not (0 <= y[ax] < shape[ax]):
                        continue
                    q = tuple(y)
                rows.append(p)
                cols.append(plaquette_index(lat, q, normal))
                vals.append(1)
    mat = _csr(rows, cols, vals, (n, n))
    mat.sum_duplicates()
    return mat


@cached
def curl_link_to_plaq_matrix(lat: Lattice) -> sp.csr_matrix:
    """Circulation around each plaquette: links -> plaquettes.

    Plaquette (x, normal i) with transverse axes (j, k) cyclic picks up
    +F_k(x+e_j) - F_k(x) - F_j(x+e_k) + F_j(x); in 2D this is the familiar
    F_1(x) + F_2(x+e_1) - F_1(x+e_2) - F_2(x).
    """
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
    mat = _csr(rows, cols, vals, (lat.n_plaqs, lat.n_links))
    mat.sum_duplicates()
    return mat


@cached
def curl_plaq_to_link_matrix(lat: Lattice) -> sp.csr_matrix:
    """Backward-difference curl: plaquettes -> links.

    Link (x, i) with (i, j, k) cyclic receives
    L_k(x) - L_k(x-e_j) - [L_j(x) - L_j(x-e_k)], terms referring to absent
    plaquettes dropped on open lattices.  In 2D only the single orientation
    survives: direction-0 links get L(x) - L(x-e_1), direction-1 links get
    L(x-e_0) - L(x).  Equals the transpose of the plaquette circulation map.
    """
    rows, cols, vals = [], [], []
    for n, (x, i) in enumerate(links(lat)):
        if lat.dim == 2:
            # direction 0: +L(x) - L(x - e_1); direction 1: -L(x) + L(x - e_0)
            sgn = +1 if i == 0 else -1
            back_ax = 1 if i == 0 else 0
            terms = [(sgn, x), (-sgn, shift_site(lat, x, back_ax, -1))]
            for s, corner in terms:
                if corner is None or not plaquette_exists(lat, corner):
                    continue
                rows.append(n)
                cols.append(plaquette_index(lat, corner))
                vals.append(s)
            continue
        j, k = _cyclic(i)
        terms = [
            (+1, x, k),
            (-1, shift_site(lat, x, j, -1), k),
            (-1, x, j),
            (+1, shift_site(lat, x, k, -1), j),
        ]
        for s, corner, normal in terms:
            if corner is None or not plaquette_exists(lat, corner, normal):
                continue
            rows.append(n)
            cols.append(plaquette_index(lat, corner, normal))
            vals.append(s)
    mat = _csr(rows, cols, vals, (lat.n_links, lat.n_plaqs))
    mat.sum_duplicates()
    return mat


@cached
def cube_flux_matrix(lat: Lattice) -> sp.csr_matrix:
    """Net outward face flux per elementary cube: plaquettes -> cubes (3D).

    Cube at corner x: sum_i B_i(x + e_i) - B_i(x), the forward divergence of
    a plaquette field read as a face field.
    """
    if lat.dim != 3:
        raise ValueError("cube flux needs a 3D lattice")
    rows, cols, vals = [], [], []
    for c, x in enumerate(cubes(lat)):
        for i in range(3):
            far = shift_site(lat, x, i, +1)
            rows += [c, c]
            cols += [
                plaquette_index(lat, far, i),
                plaquette_index(lat, x, i),
            ]
            vals += [1, -1]
    mat = _csr(rows, cols, vals, (lat.n_cubes, lat.n_plaqs))
    mat.sum_duplicates()
    return mat


# ---------------------------------------------------------------------------
# Field-level wrappers
# ---------------------------------------------------------------------------


def gradient(f: FieldVector) -> FieldVector:
    _require_kind(f, "site", "gradient")
    return FieldVector(f.lattice, "link", gradient_matrix(f.lattice) @ f.values)


def divergence(F: FieldVector) -> FieldVector:
    _require_kind(F, "link", "divergence")
    return FieldVector(F.lattice, "site", divergence_matrix(F.lattice) @ F.values)


def laplacian(f: FieldVector) -> FieldVector:
    if f.kind not in ("site", "plaquette"):
        raise ValueError("laplacian acts on site or plaquette fields")
    return FieldVector(f.lattice, f.kind, laplacian_matrix(f.lattice, f.kind) @ f.values)


def curl_link_to_plaq(F: FieldVector) -> FieldVector:
    _require_kind(F, "link", "curl_link_to_plaq")
    return FieldVector(F.lattice, "plaquette", curl_link_to_plaq_matrix(F.lattice) @ F.values)


def curl_plaq_to_link(L: FieldVector) -> FieldVector:
    _require_kind(L, "plaquette", "curl_plaq_to_link")
    return FieldVector(L.lattice, "link", curl_plaq_to_link_matrix(L.lattice) @ L.values)


def cube_flux(B: FieldVector) -> FieldVector:
    _require_kind(B, "plaquette", "cube_flux")
    return FieldVector(B.lattice, "cube", cube_flux_matrix(B.lattice) @ B.values)


# ---------------------------------------------------------------------------
# Named-operator registry (CSV export surface)
# ---------------------------------------------------------------------------

_OPERATORS = {
    "gradient": (gradient_matrix, "site", "link"),
    "divergence": (divergence_matrix, "link", "site"),
    "laplacian_site": (lambda lat: laplacian_matrix(lat, "site"), "site", "site"),
    "laplacian_plaquette": (
        lambda lat: laplacian_matrix(lat, "plaquette"),
        "plaquette",
        "plaquette",
    ),
    "curl_link_to_plaq": (curl_link_to_plaq_matrix, "link", "plaquette"),
    "curl_plaq_to_link": (curl_plaq_to_link_matrix, "plaquette", "link"),
    "cube_flux": (cube_flux_matrix, "plaquette", "cube"),
}


def operator_names() -> list[str]:
    return sorted(_OPERATORS) + ["dual_embedding", "winding", "d_matrix"]


def operator_map(lat: Lattice, name: str) -> LinearMap:
    """Look up a named operator as a LinearMap (CSV-exportable)."""
    if name in _OPERATORS:
        builder, dom, cod = _OPERATORS[name]
        return LinearMap(name, lat, dom, cod, builder(lat).tocsr())
    # Dual-variable maps live one module up; imported lazily to keep the
    # dependency one-directional at import time.
    from . import dualmap

    if name == "dual_embedding":
        emb = dualmap.dual_embedding(lat)
        return LinearMap(name, lat, "plaquette+global", "link", emb.matrix.tocsr())
    if name == "winding":
        return LinearMap(name, lat, "link", "global", dualmap.winding_map(lat).tocsr())
    if name == "d_matrix":
        dm = dualmap.d_matrix(lat)
        return LinearMap(name, lat, "plaquette+global", "plaquette+global", dm.tocsr())
    raise ValueError(f"unknown operator {name!r}; known: {operator_names()}")
