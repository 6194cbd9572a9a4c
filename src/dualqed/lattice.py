"""Square/cubic lattice cell complexes and integer difference operators.

Geometry conventions used across the package:

- A cell is named by its coordinates ``x = (x_1, ..., x_d)`` (0-based,
  ``d`` in {2, 3}) and, for links and 3D plaquettes, its orientation.
- ``N`` counts *elementary plaquettes/cubes per side*: a periodic lattice has
  ``N`` sites per side, an open one ``N + 1`` (its outermost sites bound the
  last cell).
- A link ``(x, i)`` points from site ``x`` to ``x + e_i``.
- A 2D plaquette is labeled by its lower-left corner.  A 3D plaquette
  ``(x, i)`` has normal ``i`` and spans the (j, k) plane with (i, j, k) a
  cyclic permutation of (0, 1, 2).
- A cube is labeled by its corner nearest the origin.
- Open boundaries are implemented by *deleting* every term of a periodic
  stencil that refers to an absent cell; no ghost layers.

Cells have one numbering.  The cells of one kind and orientation fill a
regular coordinate grid; the grids of a kind follow one another in
orientation order, and a cell's index is its grid's offset plus its
row-major place (last coordinate fastest) in the grid.  So links are ordered
by (direction, base site) and 3D plaquettes by (normal, corner).
`cell_index` maps coordinates to indices and `cell_coordinates` lists every
cell's coordinates in index order.

Forward difference (gradient) maps sites to links, backward difference
(divergence) maps links to sites, and the two curls map links to plaquettes
and back.  All operator matrices are integer CSR and cached per lattice.
Each is built from its own stencil by index arithmetic on the coordinate
grids (`_stencil`), never from another operator.
Every cached result is read-only: `cached` freezes its arrays once, when
it is computed, so a write into a shared result raises instead of
corrupting every later caller.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

CellKind = str  # 'site' | 'link' | 'plaquette' | 'cube'

_BOUNDARY_KINDS = ("periodic", "open")


def _freeze(obj):
    """Mark the arrays of a result read-only: ndarrays, the arrays of sparse
    matrices (sorted first, so scipy never sorts them in place later), and
    the same inside tuple items and dataclass fields.  Exact tables are
    object arrays of immutable int / Fraction entries, so a read-only array
    freezes them whole."""
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
    elif isinstance(obj, tuple):
        for item in obj:
            _freeze(item)
    elif sp.issparse(obj):
        obj.sum_duplicates()
        for name in ("data", "indices", "indptr"):
            _freeze(getattr(obj, name, None))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            _freeze(getattr(obj, f.name))
    return obj


def cached(fn):
    """`functools.lru_cache` whose results are frozen once, when computed: every
    caller gets the same objects, so none may change what the next one reads."""

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
        return self.dim * self.N * self.sites_per_side ** (self.dim - 1)

    @property
    def n_plaqs(self) -> int:
        return self.N**2 if self.dim == 2 else 3 * self.sites_per_side * self.N**2

    @property
    def n_cubes(self) -> int:
        return self.N**3 if self.dim == 3 else 0

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


def global_loop_links(lat: Lattice, direction: int) -> list[int]:
    """Link indices of the noncontractible axis line in `direction`.

    The line runs through the origin: all transverse coordinates are zero.
    """
    if not lat.periodic:
        return []
    x = np.zeros((lat.dim, lat.N), dtype=np.int64)
    x[direction] = np.arange(lat.N)
    return _cell_indices(lat, "link", direction, x).tolist()


def site_parity(lat: Lattice) -> np.ndarray:
    """Staggered sign (-1)^(x_1 + ... + x_d) per site."""
    _, x = cell_coordinates(lat, "site")
    return 1 - 2 * (x.sum(axis=0) % 2)


@cached
def link_sites(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Site indices (base, head) of every link, in link order: link (x, i)
    runs from x to x + e_i.  A periodic N = 1 link starts and ends at its
    one site."""
    direction, x = cell_coordinates(lat, "link")
    head = x + np.eye(lat.dim, dtype=np.int64)[:, direction]
    return _cell_indices(lat, "site", None, x), _cell_indices(lat, "site", None, head)


@cached
def axis_indicator_matrix(lat: Lattice) -> sp.csr_matrix:
    """n_links x dim matrix whose column i marks the direction-i axis line."""
    rows = np.array([global_loop_links(lat, i) for i in range(lat.dim)], dtype=np.int64)
    cols = np.repeat(np.arange(lat.dim), rows.shape[1])
    return _csr(rows.ravel(), cols, np.ones(rows.size), (lat.n_links, lat.dim))


@cached
def direction_sum_matrix(lat: Lattice) -> sp.csr_matrix:
    """dim x n_links matrix summing link values per direction."""
    rows = np.repeat(np.arange(lat.dim), lat.n_links // lat.dim)
    return _csr(rows, np.arange(lat.n_links), np.ones(lat.n_links), (lat.dim, lat.n_links))


# ---------------------------------------------------------------------------
# Index arithmetic on the coordinate grids (the numbering of the module
# docstring).  The orientation of a cell is the direction of a link or the
# normal of a 3D plaquette, and None for every other cell.
# ---------------------------------------------------------------------------


def _orientations(lat: Lattice, kind: CellKind):
    return range(lat.dim) if kind == "link" or (kind == "plaquette" and lat.dim == 3) else (None,)


def _grid_shape(lat: Lattice, kind: CellKind, orientation: int | None) -> tuple[int, ...]:
    """N places along each axis a cell spans, sites_per_side along the others."""
    if kind == "cube" and lat.dim == 2:
        return (0, 0)  # a 2D lattice has no cubes
    if kind == "plaquette":
        spanned = (0, 1) if lat.dim == 2 else _cyclic(orientation)
    else:
        spanned = {"site": (), "link": (orientation,), "cube": (0, 1, 2)}[kind]
    return tuple(lat.N if ax in spanned else lat.sites_per_side for ax in range(lat.dim))


def _cell_indices(lat: Lattice, kind: CellKind, orientation: int | None, x: np.ndarray) -> np.ndarray:
    """Index of the cell of `kind` and `orientation` at each column of the
    (dim, n) coordinate array x: wrapped mod N on a torus, -1 where the cell
    is absent from an open lattice."""
    shape = _grid_shape(lat, kind, orientation)
    offset = (orientation or 0) * math.prod(shape)
    if lat.periodic:
        return offset + np.ravel_multi_index(x, shape, mode="wrap")
    inside = ((x >= 0) & (x < np.array(shape)[:, None])).all(axis=0)
    return np.where(inside, offset + np.ravel_multi_index(x, shape, mode="clip"), -1)


def cell_index(lat: Lattice, kind: CellKind, orientation: int | None, x) -> np.ndarray:
    """Index of the cell of `kind` and `orientation` at coordinates x: one
    cell as a length-dim sequence, or many as the columns of a (dim, n)
    array.  Coordinates wrap mod N on a torus; a cell absent from an open
    lattice raises KeyError.  Any integer is a coordinate, even one past
    int64: it is wrapped, or clamped to just off an open lattice, first."""
    x = np.asarray(x)
    x = (x % lat.N if lat.periodic else np.clip(x, -1, lat.N + 1)).astype(np.int64)
    index = _cell_indices(lat, kind, orientation, x.reshape(lat.dim, -1))
    if (index < 0).any():
        raise KeyError(f"no {kind} at {x.tolist()} (orientation {orientation}) on {lat.label()}")
    return index.reshape(x.shape[1:])


def cell_coordinates(lat: Lattice, kind: CellKind) -> tuple[np.ndarray, np.ndarray]:
    """(orientation, x) of every cell of `kind` in index order: x is the
    (dim, n) coordinate array, orientation one int per cell (0 for kinds
    without one).  The inverse of `cell_index`."""
    grids = [np.indices(_grid_shape(lat, kind, o)).reshape(lat.dim, -1) for o in _orientations(lat, kind)]
    orientation = np.repeat(np.arange(len(grids)), [x.shape[1] for x in grids])
    return orientation, np.concatenate(grids, axis=1)


def _unit_shifts(lat: Lattice) -> np.ndarray:
    """e[i] is the unit step along axis i as a (dim, 1) column, to add to a
    (dim, n) coordinate array."""
    return np.eye(lat.dim, dtype=np.int64)[:, :, None]


def _stencil(lat: Lattice, row_kind: CellKind, col_kind: CellKind, terms) -> sp.csr_matrix:
    """Integer matrix whose row for the row_kind cell at (x, orientation o)
    holds `sign` at the col_kind cell (x + shift, o') for every
    (sign, shift, o') in terms(o); a term whose cell is absent is dropped."""
    rows, cols, signs = [], [], []
    for o in _orientations(lat, row_kind):
        x = np.indices(_grid_shape(lat, row_kind, o)).reshape(lat.dim, -1)
        here = _cell_indices(lat, row_kind, o, x)
        for sign, shift, target in terms(o):
            rows.append(here)
            cols.append(_cell_indices(lat, col_kind, target, x + shift))
            signs.append(sign)
    vals = np.repeat(signs, [c.size for c in cols])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    present = cols >= 0
    shape = (lat.n_cells(row_kind), lat.n_cells(col_kind))
    return _csr(rows[present], cols[present], vals[present], shape)


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

    def coo_csv(self) -> str:
        """Coordinate triplets under a one-line identifying header."""
        coo = self.matrix.tocoo()
        header = (
            f"# operator={self.name} dim={self.lattice.dim} N={self.lattice.N} "
            f"bc={self.lattice.bc} shape={self.matrix.shape[0]}x{self.matrix.shape[1]} "
            f"domain={self.domain} codomain={self.codomain}\n"
            "row,col,value\n"
        )
        rows = (f"{coo.row[n]},{coo.col[n]},{coo.data[n]}\n" for n in np.lexsort((coo.col, coo.row)))
        return header + "".join(rows)


def _csr(rows, cols, vals, shape) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.asarray(vals, dtype=np.int64), (rows, cols)), shape=shape
    )


@cached
def gradient_matrix(lat: Lattice) -> sp.csr_matrix:
    """Forward difference, sites -> links: (grad f)_i(x) = f(x+e_i) - f(x)."""
    e = _unit_shifts(lat)
    return _stencil(lat, "link", "site", lambda i: ((1, e[i], None), (-1, 0, None)))


@cached
def divergence_matrix(lat: Lattice) -> sp.csr_matrix:
    """Backward difference, links -> sites: (div F)(x) = sum_i F_i(x) - F_i(x-e_i).

    Built from its own stencil (terms referring to absent links are dropped);
    equals minus the gradient transpose entrywise, which the tests check.
    """
    e = _unit_shifts(lat)
    return _stencil(lat, "site", "link", lambda _: [t for i in range(lat.dim) for t in ((1, 0, i), (-1, -e[i], i))])


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
    steps = np.concatenate([_unit_shifts(lat), -_unit_shifts(lat)])
    return _stencil(lat, "plaquette", "plaquette", lambda o: [(-2 * lat.dim, 0, o)] + [(1, step, o) for step in steps])


@cached
def curl_link_to_plaq_matrix(lat: Lattice) -> sp.csr_matrix:
    """Circulation around each plaquette: links -> plaquettes.

    Plaquette (x, normal i) with transverse axes (j, k) cyclic picks up
    +F_k(x+e_j) - F_k(x) - F_j(x+e_k) + F_j(x); in 2D this is the familiar
    F_1(x) + F_2(x+e_1) - F_1(x+e_2) - F_2(x).
    """
    e = _unit_shifts(lat)

    def terms(normal):
        j, k = (0, 1) if normal is None else _cyclic(normal)
        return ((1, 0, j), (1, e[j], k), (-1, e[k], j), (-1, 0, k))

    return _stencil(lat, "plaquette", "link", terms)


@cached
def curl_plaq_to_link_matrix(lat: Lattice) -> sp.csr_matrix:
    """Backward-difference curl: plaquettes -> links.

    Link (x, i) with (i, j, k) cyclic receives
    L_k(x) - L_k(x-e_j) - [L_j(x) - L_j(x-e_k)], terms referring to absent
    plaquettes dropped on open lattices.  In 2D only the single orientation
    survives: direction-0 links get L(x) - L(x-e_1), direction-1 links get
    L(x-e_0) - L(x).  Equals the transpose of the plaquette circulation map.
    """
    e = _unit_shifts(lat)

    def terms(i):
        if lat.dim == 2:
            sign = 1 if i == 0 else -1
            return ((sign, 0, None), (-sign, -e[1 - i], None))
        j, k = _cyclic(i)
        return ((1, 0, k), (-1, -e[j], k), (-1, 0, j), (1, -e[k], j))

    return _stencil(lat, "link", "plaquette", terms)


@cached
def cube_flux_matrix(lat: Lattice) -> sp.csr_matrix:
    """Net outward face flux per elementary cube: plaquettes -> cubes (3D).

    Cube at corner x: sum_i B_i(x + e_i) - B_i(x), the forward divergence of
    a plaquette field read as a face field.
    """
    if lat.dim != 3:
        raise ValueError("cube flux needs a 3D lattice")
    e = _unit_shifts(lat)
    return _stencil(lat, "cube", "plaquette", lambda _: [t for i in range(3) for t in ((1, e[i], i), (-1, 0, i))])


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
