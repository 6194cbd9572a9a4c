"""Product-state bases and one term kernel for both descriptions.

Factor layout: matter sites first (row-major site order, so fermion sign
strings are a contiguous prefix), then gauge cells — links for the
electric description (`links_E`), plaquettes followed by the global rotors
for the dual one (`plaqs_M`).  The first factor varies slowest.

A basis (`BasisMap`) is a sorted list of product states, each held only
as its mixed-radix product index; `BasisMap.levels` reads a factor's local
level off it as a digit.  Every level of a factor carries one integer
value, its site charge (matter) or rotor level (gauge, global), and a
sector is a set of integer rows over those values, each held exactly or
modulo an integer.  `sector_basis` enumerates the sector directly, factor
by factor, dropping partial configurations as soon as a row can no longer
hold, so its cost follows the sector rather than the product space.  Every
off-diagonal term of both Hamiltonians is built by one kernel,
`apply_term`: it steps the rotor levels by an integer stencil row,
optionally moves one unit of charge between two matter sites, and finds
each target by index arithmetic (a level step moves the product index by
a multiple of the factor's stride), then looks it up among the basis
indices: a state *is* its index, the lookup-table technique of H. Q. Lin,
PRB 42, 6561 (1990).  It returns the (row, col, amplitude) triplets of the
matrix on the basis; nothing is built on a larger space.

Gauge cells carry truncated rotors: integer levels -cutoff..+cutoff with
ladder steps that *annihilate* at the ends rather than wrap.  On interior
levels a step shifts the level operator by exactly its size, so
commutators with divergence-type constraints come out exactly as in the
untruncated model, which is what the acceptance checks exercise.

Matter species:

- ``staggered_fermion``: one two-level factor per site; the dynamical
  charge is the site occupation minus one on odd-parity sites.  Hops carry
  Jordan-Wigner signs over the row-major site order.
- ``hardcore_boson`` / ``truncated_boson``: particle and antiparticle
  occupations n_a, n_b = 0..n_max per site (hardcore: n_max = 1), held as
  the level n_a * (n_max + 1) + n_b; the charge is n_a - n_b.  The site
  field (a + b^dag)/sqrt(2) carries a full unit of charge.  This is the
  field (a + i b^dag)/sqrt(2) in the phase convention rotated by the
  diagonal unitary W = prod_x i^{n_b(x)}, which commutes with every charge,
  Gauss and flux-class test, so sectors and spectra are unchanged.

Every amplitude is real, so every model is built, and solved, in real
arithmetic.

The memory guard bounds what is allocated, not the product dimension:
`sector_basis` refuses before its candidates would hold more than `max_dim`
int64 entries.  Raise `max_dim` deliberately to go past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lattice import Lattice, divergence_matrix, site_parity

MATTER_KINDS = ("none", "staggered_fermion", "hardcore_boson", "truncated_boson")
GAUGE_KINDS = ("links_E", "plaqs_M")

DEFAULT_MAX_DIM = 2**26


class MemoryGuardError(RuntimeError):
    """A basis build would allocate more than the configured guard."""


# ---------------------------------------------------------------------------
# Space specification
# ---------------------------------------------------------------------------


@dataclass
class HilbertSpec:
    """Factorized Hilbert space for one lattice and formulation."""

    lattice: Lattice
    gauge_kind: str
    cutoff: int
    matter: str = "none"
    n_max: int = 1
    global_cutoff: int | None = None
    max_dim: int = DEFAULT_MAX_DIM

    # derived in __post_init__, not constructor parameters
    dims: list[int] = field(init=False, repr=False)
    n_matter: int = field(init=False, repr=False)
    n_gauge: int = field(init=False, repr=False)
    n_globals: int = field(init=False, repr=False)

    def __post_init__(self):
        if self.gauge_kind not in GAUGE_KINDS:
            raise ValueError(f"gauge_kind must be one of {GAUGE_KINDS}")
        if self.matter not in MATTER_KINDS:
            raise ValueError(f"matter must be one of {MATTER_KINDS}")
        if self.gauge_kind == "plaqs_M" and self.lattice.dim != 2:
            raise ValueError("the compact dual description is built for 2D lattices")
        if self.global_cutoff is None:
            self.global_cutoff = self.cutoff
        if self.cutoff < 1 or self.global_cutoff < 1:
            raise ValueError(f"rotor cutoffs must be >= 1, got cutoff={self.cutoff} global_cutoff={self.global_cutoff}")
        if self.matter == "truncated_boson" and self.n_max < 1:
            raise ValueError(f"boson occupation cap n_max must be >= 1, got {self.n_max}")
        lat = self.lattice
        self.n_matter = 0 if self.matter == "none" else lat.n_sites
        if self.gauge_kind == "links_E":
            self.n_gauge = lat.n_links
            self.n_globals = 0
        else:
            self.n_gauge = lat.n_plaqs
            self.n_globals = lat.n_global_loops
        self.dims = (
            [self._matter_dim()] * self.n_matter
            + [2 * self.cutoff + 1] * self.n_gauge
            + [2 * self.global_cutoff + 1] * self.n_globals
        )

    def _matter_dim(self) -> int:
        if self.matter == "staggered_fermion":
            return 2
        if self.matter == "hardcore_boson":
            return 4
        return (self.n_max + 1) ** 2

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims, dtype=object)) if self.dims else 1


# ---------------------------------------------------------------------------
# Bases: product states as their product indices
# ---------------------------------------------------------------------------


@dataclass
class BasisMap:
    """A sorted selection of product states, held only as their mixed-radix
    product indices (first factor slowest); ``strides``, the C-order radix
    weights of the dims, are derived once, and `levels` reads digits by them."""

    spec: HilbertSpec
    indices: np.ndarray
    strides: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.strides = np.cumprod([1] + self.spec.dims[:0:-1])[::-1]

    @property
    def dim(self) -> int:
        return len(self.indices)

    def levels(self, factor: int, keys: np.ndarray | None = None) -> np.ndarray:
        """The level of ``factor`` in every state, or in the product indices ``keys``."""
        keys = self.indices if keys is None else keys
        return keys // self.strides[factor] % self.spec.dims[factor]


def _factor_values(spec: HilbertSpec) -> list[np.ndarray]:
    """The integer value of every level of every factor: the site charge of
    a matter factor, the rotor level of a gauge or global one."""
    if spec.matter == "staggered_fermion":
        values = [np.arange(2) - int(odd) for odd in site_parity(spec.lattice) < 0]
    elif spec.matter != "none":
        # level n_a * (n_max + 1) + n_b
        occupations = np.arange(math.isqrt(spec._matter_dim()))
        values = [np.subtract.outer(occupations, occupations).ravel()] * spec.n_matter
    else:
        values = []
    return (
        values
        + [np.arange(-spec.cutoff, spec.cutoff + 1)] * spec.n_gauge
        + [np.arange(-spec.global_cutoff, spec.global_cutoff + 1)] * spec.n_globals
    )


def occupation_table(spec: HilbertSpec) -> np.ndarray:
    """Total occupation of every level of a matter factor: n for a fermion
    site, n_a + n_b for a boson site."""
    if spec.matter == "staggered_fermion":
        return np.arange(2)
    n_a, n_b = np.divmod(np.arange(spec._matter_dim()), math.isqrt(spec._matter_dim()))
    return n_a + n_b


def _sweep_order(rows: np.ndarray) -> list[int]:
    """Factor order of the sweep: each row in turn pulls in its unplaced
    factors, so it closes early; factors in no row come last."""
    order: list[int] = []
    for row in rows:
        order += [int(f) for f in np.flatnonzero(row) if f not in order]
    return order + [f for f in range(rows.shape[1]) if f not in order]


def check_product_index(spec: HilbertSpec) -> None:
    """Raise ``MemoryGuardError`` when the product dimension of ``spec``
    overflows the int64 product index a basis keys its states by."""
    if spec.total_dim >= 2**63:
        raise MemoryGuardError(f"product dimension {spec.total_dim} overflows the int64 product index")


def sector_basis(spec: HilbertSpec, rows, targets, moduli) -> BasisMap:
    """Product states whose factor values v satisfy ``rows @ v == targets``,
    exactly where the modulus is 0 and modulo it elsewhere.

    Partial configurations are extended one factor at a time (`_sweep_order`)
    and dropped as soon as they can no longer satisfy a row: an exact row
    whose remaining target lies outside the range the unplaced factors can
    still reach, a congruence row that fails once its last factor is placed.
    So the work follows the sector, not the product space.  Congruence sums
    are held modulo d, so no step wraps int64 for any d below 2^63.  The
    result is sorted by product index, as a scan of the product space would
    give it.  ``MemoryGuardError`` is raised first by ``check_product_index``,
    then before the candidates of a step would hold more than ``spec.max_dim``
    int64 entries, at one trail place per factor and one sum per row each.
    """
    check_product_index(spec)
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(spec.dims))
    moduli = np.asarray(moduli, dtype=np.int64)
    exact = moduli == 0
    targets = np.where(exact, targets, np.mod(targets, np.maximum(moduli, 1)))
    order = _sweep_order(rows)
    values = _factor_values(spec)
    # contrib[k]: (levels, rows) contribution of the k-th factor of the sweep;
    # reach_*[k]: least / greatest sum the factors from sweep position k on add
    contrib = [np.outer(values[f], rows[:, f]) for f in order] + [np.zeros((1, len(rows)), dtype=np.int64)]
    reach_lo = np.cumsum([c.min(axis=0) for c in contrib[::-1]], axis=0)[::-1]
    reach_hi = np.cumsum([c.max(axis=0) for c in contrib[::-1]], axis=0)[::-1]
    if not exact.all():  # congruence rows: Python-int contributions reduced into [-d, 0)
        lift = moduli[~exact].astype(object)
        for c, f in zip(contrib, order):
            c[:, ~exact] = np.outer(values[f].astype(object), rows[~exact, f].astype(object)) % lift - lift
    position = np.argsort(order)
    closes = np.array([position[np.flatnonzero(row)].max(initial=0) for row in rows], dtype=np.int64)
    width = len(order) + len(rows)
    # A candidate is its row sums and its place in the previous step's list;
    # its product index is added up back through those places at the end.
    sums = np.zeros((1, len(rows)), dtype=np.int64)
    trail = []
    for step, f in enumerate(order):
        d, n = spec.dims[f], len(sums)
        if n * d * width > spec.max_dim:
            raise MemoryGuardError(
                f"sector enumeration would hold {n * d} candidates of {width} entries, over the guard "
                f"{spec.max_dim}; raise max_dim explicitly to proceed"
            )
        sums = (sums[:, None, :] + contrib[step][None, :, :]).reshape(n * d, len(rows))
        if not exact.all():  # congruence sums back into [0, d); d = 0 on exact rows
            np.add(sums, moduli, out=sums, where=sums < 0)
        rest = targets - sums
        keep = np.all((rest[:, exact] >= reach_lo[step + 1, exact]) & (rest[:, exact] <= reach_hi[step + 1, exact]), axis=1)
        shut = ~exact & (closes == step)
        (kept,) = np.nonzero(keep & np.all(rest[:, shut] % moduli[shut] == 0, axis=1))
        sums = sums[kept]
        trail.append(kept)
    basis = BasisMap(spec, np.zeros(len(sums), dtype=np.int64))
    at = np.arange(len(sums))
    for step in reversed(range(len(order))):
        at, level = np.divmod(trail[step][at], spec.dims[order[step]])
        basis.indices += level * basis.strides[order[step]]
    # argsort, not an in-place sort: the code the latter pages in adds 0.2-0.4 MB of peak RSS
    basis.indices = basis.indices[np.argsort(basis.indices)]
    return basis


def apply_term(basis: BasisMap, cells, steps, hop: tuple[int, int] | None = None) -> tuple[np.ndarray, ...]:
    """``(rows, cols, amps)`` of one off-diagonal term on a basis; the caller
    adds the mirrored triplets, the transpose.

    Gauge (then global) cell ``cells[j]`` steps its level by ``steps[j]``, all
    in one shift under the box 0 <= level < dim: a ladder annihilates at the
    end of its window, and a stored zero step is the identity.  With
    ``hop = (x, y)`` one unit of charge then moves from matter site y to site
    x, a charge step at y followed by one at x (`_charge_step`).  A step moves
    the product index by step * stride; targets are looked up among the basis
    indices, those outside dropped.
    """
    spec = basis.spec
    pos = spec.n_matter + np.asarray(cells, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    inside = np.ones(basis.dim, dtype=bool)
    for f, step in zip(pos.tolist(), steps.tolist()):
        level = basis.levels(f)
        inside &= (level >= -step) & (level < spec.dims[f] - step)
    (cols,) = np.nonzero(inside)
    keys = basis.indices[cols] + steps @ basis.strides[pos]
    amps = np.ones(len(cols))
    if hop is not None:
        x, y = hop
        cols, keys, amps = _charge_step(basis, y, -1, cols, keys, amps)
        cols, keys, amps = _charge_step(basis, x, +1, cols, keys, amps)
    rows = np.minimum(np.searchsorted(basis.indices, keys), basis.dim - 1)
    hit = basis.indices[rows] == keys
    return rows[hit], cols[hit], amps[hit]


def _charge_step(basis: BasisMap, site: int, delta: int, cols, keys, amps):
    """Add ``delta`` = +1 (creator) or -1 (annihilator) to one site's charge.

    Levels are read from the product indices ``keys``, so a second step at a
    site sees the first.  A fermion occupation steps by delta, with the
    Jordan-Wigner sign of the occupations left of the site: the index bits
    above its digit.  A boson site branches in two, as the field
    (a + b^dag)/sqrt(2) and its adjoint do: n_a steps by delta, or n_b by
    -delta, each with amplitude sqrt(n)/sqrt(2) for the larger occupation n
    of the step.  Branches leaving the site's levels are dropped.
    """
    spec, strides = basis.spec, basis.strides
    level = basis.levels(site, keys)
    if spec.matter == "staggered_fermion":
        (keep,) = np.nonzero(level == (delta < 0))
        keys = keys[keep] + delta * strides[site]
        return cols[keep], keys, amps[keep] * (1.0 - 2.0 * (np.bitwise_count(keys // (2 * strides[site])) & 1))
    d1 = math.isqrt(spec.dims[site])
    root = np.sqrt(np.arange(d1)) / math.sqrt(2.0)
    n_a, n_b = np.divmod(level, d1)
    branches = []
    for n, step, stride in ((n_a, delta, d1 * strides[site]), (n_b, -delta, strides[site])):
        (keep,) = np.nonzero((n + step >= 0) & (n + step < d1))
        branches.append((cols[keep], keys[keep] + step * stride, amps[keep] * root[np.maximum(n, n + step)[keep]]))
    return tuple(np.concatenate(part) for part in zip(*branches))


# ---------------------------------------------------------------------------
# Charges, Gauss constraints, sectors
# ---------------------------------------------------------------------------


def charge_diagonals(basis: BasisMap) -> np.ndarray:
    """(n_sites, dim) integer dynamical charge per site."""
    spec = basis.spec
    if spec.matter == "none":
        return np.zeros((spec.lattice.n_sites, basis.dim), dtype=np.int64)
    values = _factor_values(spec)
    return np.stack([values[s][basis.levels(s)] for s in range(spec.n_matter)])


def rotor_levels(basis: BasisMap) -> np.ndarray:
    """(n_gauge + n_globals, dim) integer rotor level per gauge cell, then
    per global (winding) rotor, each offset by its own cutoff."""
    spec = basis.spec
    cutoffs = [spec.cutoff] * spec.n_gauge + [spec.global_cutoff] * spec.n_globals
    return np.stack([basis.levels(spec.n_matter + j) - c for j, c in enumerate(cutoffs)])


def integral_static_charges(lat: Lattice, static_charges=None) -> np.ndarray | None:
    """Static charges as integers, or None when one is non-integral.

    No integer configuration balances a non-integral charge, so callers
    select an empty sector for None.
    """
    q = np.zeros(lat.n_sites) if static_charges is None else np.asarray(static_charges, dtype=float)
    return q.astype(np.int64) if np.array_equal(q, np.round(q)) else None


def gauss_sector_basis(spec: HilbertSpec, static_charges: np.ndarray | None = None) -> BasisMap:
    """Product states satisfying every Gauss constraint exactly, in integers:
    one row ``[-1 at the site's matter | div]`` per site, with target q."""
    if spec.gauge_kind != "links_E":
        raise ValueError("Gauss constraints act on the electric description")
    lat = spec.lattice
    q = integral_static_charges(lat, static_charges)
    if q is None:
        return BasisMap(spec, np.zeros(0, dtype=np.int64))
    rows = np.hstack([-np.eye(lat.n_sites, spec.n_matter, dtype=np.int64), divergence_matrix(lat).toarray()])
    return sector_basis(spec, rows, q, np.zeros(lat.n_sites, dtype=np.int64))


def hermiticity_defect(op: sp.spmatrix) -> float:
    """Largest entry of |op - op^H|, op^H the conjugate transpose."""
    d = op - op.conj(copy=False).T  # no copy for a real op
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
