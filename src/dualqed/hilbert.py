"""Product-state bases and one operator kernel for both descriptions.

Factor layout: matter sites first (row-major site order, so fermion sign
strings are a contiguous prefix), then gauge cells — links for the
electric description (`links_E`), plaquettes followed by the global rotors
for the dual one (`plaqs_M`).  The first factor varies slowest.

A basis (`BasisMap`) is a sorted list of product states, each held both as
its mixed-radix product index and as its configuration: the integer local
level of every factor.  Every level of a factor carries one integer value,
its site charge (matter) or rotor level (gauge, global), and a sector is a
set of integer rows over those values, each held exactly or modulo an
integer.  `sector_basis` enumerates the sector directly, factor by factor,
dropping partial configurations as soon as a row can no longer hold, so
its cost follows the sector rather than the product space.  Every
operator is built by one kernel, `apply_product`: a product of local
operators acts on the configurations right to left, and each target
state is looked up among the basis indices (the lookup-table
technique of H. Q. Lin, PRB 42, 6561 (1990)).  The result is the sector
matrix directly; no operator is ever built on the whole product space
unless the basis is the whole product space.

Gauge cells carry truncated rotors: integer levels -cutoff..+cutoff with
ladder operators that *annihilate* at the ends rather than wrap.  The
raising ladder steps the level variable up by one: on interior levels
conjugating the level operator by the ladder shifts it, and commutators
with divergence-type constraints come out exactly as in the untruncated
model, which is what the acceptance checks exercise.

Matter species:

- ``staggered_fermion``: one two-level factor per site; the dynamical
  charge is the site occupation minus one on odd-parity sites.
- ``hardcore_boson`` / ``truncated_boson``: particle and antiparticle
  number states per site (hardcore = occupation capped at one); the local
  field mixes particle annihilation with antiparticle creation so that one
  operator carries a full unit of charge.

Every local operator is real except that boson field, whose ``i b^dag``
makes boson models complex.  Matrices take their dtype from their factors,
so all other models are built, and solved, in real arithmetic.

The memory guard bounds what is allocated, not the product dimension:
`product_basis` refuses a space of more than `max_dim` states, and
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


@dataclass
class LocalOp:
    """A small operator on one tensor factor, tagged for fermion strings."""

    name: str
    matrix: sp.csr_matrix
    fermion_parity: int = 0  # 1 for operators that flip fermion number


# ---------------------------------------------------------------------------
# Local operator families
# ---------------------------------------------------------------------------


def rotor_ops(cutoff: int) -> dict[str, LocalOp]:
    """Truncated integer rotor: levels -cutoff..cutoff.

    'level': diagonal level operator.  'raise'/'lower': unit steps that
    annihilate at +cutoff / -cutoff respectively.
    """
    if cutoff < 1:
        raise ValueError("rotor cutoff must be >= 1")
    d = 2 * cutoff + 1
    lev = np.diag(np.arange(-cutoff, cutoff + 1).astype(float))
    up = np.zeros((d, d))
    for k in range(d - 1):
        up[k + 1, k] = 1.0
    return {
        "level": LocalOp("level", sp.csr_matrix(lev)),
        "raise": LocalOp("raise", sp.csr_matrix(up)),
        "lower": LocalOp("lower", sp.csr_matrix(up.T)),
    }


def fermion_site_ops() -> dict[str, LocalOp]:
    """Single staggered-fermion site: basis |empty>, |occupied>."""
    c = np.array([[0.0, 1.0], [0.0, 0.0]])
    n = np.array([[0.0, 0.0], [0.0, 1.0]])
    return {
        "annihilate": LocalOp("annihilate", sp.csr_matrix(c), fermion_parity=1),
        "create": LocalOp("create", sp.csr_matrix(c.T), fermion_parity=1),
        "number": LocalOp("number", sp.csr_matrix(n)),
    }


def boson_site_ops(n_max: int) -> dict[str, LocalOp]:
    """Particle/antiparticle pair per site with occupations 0..n_max each.

    The site field mixes the two species, (a + i b^dag)/sqrt(2), so a single
    application moves the site charge n_a - n_b by one unit; its commutator
    with the charge is canonical even at finite n_max because the truncation
    cuts both species at the same level.
    """
    if n_max < 1:
        raise ValueError("boson occupation cap must be >= 1")
    d1 = n_max + 1
    low = np.zeros((d1, d1))
    for k in range(1, d1):
        low[k - 1, k] = math.sqrt(k)
    eye = np.eye(d1)
    a = np.kron(low, eye)
    b = np.kron(eye, low)
    na = np.kron(np.diag(np.arange(d1, dtype=float)), eye)
    nb = np.kron(eye, np.diag(np.arange(d1, dtype=float)))
    psi = (a + 1j * b.T) / math.sqrt(2.0)
    return {
        "field": LocalOp("field", sp.csr_matrix(psi)),
        "field_dag": LocalOp("field_dag", sp.csr_matrix(psi.conj().T)),
        "charge": LocalOp("charge", sp.csr_matrix(na - nb)),
        "n_total": LocalOp("n_total", sp.csr_matrix(na + nb)),
    }


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

    # filled in __post_init__
    dims: list[int] = field(default_factory=list, repr=False)
    n_matter: int = field(default=0, repr=False)
    n_gauge: int = field(default=0, repr=False)
    n_globals: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.gauge_kind not in GAUGE_KINDS:
            raise ValueError(f"gauge_kind must be one of {GAUGE_KINDS}")
        if self.matter not in MATTER_KINDS:
            raise ValueError(f"matter must be one of {MATTER_KINDS}")
        if self.gauge_kind == "plaqs_M" and self.lattice.dim != 2:
            raise ValueError("the compact dual description is built for 2D lattices")
        if self.global_cutoff is None:
            self.global_cutoff = self.cutoff
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

    # factor addressing -----------------------------------------------------
    def matter_pos(self, site: int) -> int:
        if self.matter == "none":
            raise ValueError("no matter factors in this space")
        return site

    def gauge_pos(self, cell: int) -> int:
        return self.n_matter + cell

    def global_pos(self, direction: int) -> int:
        if self.n_globals == 0:
            raise ValueError("no global rotor factors in this space")
        return self.n_matter + self.n_gauge + direction

    def matter_ops(self) -> dict[str, LocalOp]:
        if self.matter == "staggered_fermion":
            return fermion_site_ops()
        if self.matter == "hardcore_boson":
            return boson_site_ops(1)
        if self.matter == "truncated_boson":
            return boson_site_ops(self.n_max)
        raise ValueError("no matter factors in this space")

    def gauge_ops(self) -> dict[str, LocalOp]:
        return rotor_ops(self.cutoff)

    def global_ops(self) -> dict[str, LocalOp]:
        return rotor_ops(self.global_cutoff)


# ---------------------------------------------------------------------------
# Bases: product states as integer configurations
# ---------------------------------------------------------------------------


@dataclass
class BasisMap:
    """A sorted selection of product states.

    ``indices`` are the mixed-radix product indices (first factor slowest);
    ``configs`` holds the local level of every factor, one row per state.
    """

    spec: HilbertSpec
    indices: np.ndarray
    configs: np.ndarray  # (dim, n_factors) int64

    @property
    def dim(self) -> int:
        return len(self.indices)


def product_basis(spec: HilbertSpec) -> BasisMap:
    """Every product state of the space; refused above ``spec.max_dim`` states."""
    if spec.total_dim > spec.max_dim:
        raise MemoryGuardError(
            f"product dimension {spec.total_dim} exceeds guard {spec.max_dim}; "
            "raise max_dim explicitly to proceed"
        )
    indices = np.arange(spec.total_dim, dtype=np.int64)
    return BasisMap(spec, indices, np.stack(np.unravel_index(indices, spec.dims), axis=1))


def empty_basis(spec: HilbertSpec) -> BasisMap:
    """The basis of no states, for a sector no integer configuration reaches."""
    return BasisMap(spec, np.zeros(0, dtype=np.int64), np.zeros((0, len(spec.dims)), dtype=np.int64))


def _factor_values(spec: HilbertSpec) -> list[np.ndarray]:
    """The integer value of every level of every factor: the site charge of
    a matter factor, the rotor level of a gauge or global one."""
    if spec.matter == "staggered_fermion":
        values = [np.arange(2) - int(odd) for odd in site_parity(spec.lattice) < 0]
    elif spec.matter != "none":
        # level n_a * (n_max + 1) + n_b, the kron order of `boson_site_ops`
        occupations = np.arange(math.isqrt(spec._matter_dim()))
        values = [np.subtract.outer(occupations, occupations).ravel()] * spec.n_matter
    else:
        values = []
    return (
        values
        + [np.arange(-spec.cutoff, spec.cutoff + 1)] * spec.n_gauge
        + [np.arange(-spec.global_cutoff, spec.global_cutoff + 1)] * spec.n_globals
    )


def _sweep_order(rows: np.ndarray) -> list[int]:
    """Factor order of the sweep: each row in turn pulls in its unplaced
    factors, so it closes early; factors in no row come last."""
    order: list[int] = []
    for row in rows:
        order += [int(f) for f in np.flatnonzero(row) if f not in order]
    return order + [f for f in range(rows.shape[1]) if f not in order]


def sector_basis(spec: HilbertSpec, rows, targets, moduli) -> BasisMap:
    """Product states whose factor values v satisfy ``rows @ v == targets``,
    exactly where the modulus is 0 and modulo it elsewhere.

    Partial configurations are extended one factor at a time (`_sweep_order`)
    and dropped as soon as they can no longer satisfy a row: an exact row
    whose remaining target lies outside the range the unplaced factors can
    still reach, a congruence row that fails once its last factor is placed.
    So the work follows the sector, not the product space.  The result is
    sorted by product index, as a scan of the product space would give it.
    ``MemoryGuardError`` is raised before the candidates of a step would
    hold more than ``spec.max_dim`` int64 entries, at one level per factor
    and one sum per row each.
    """
    if spec.total_dim >= 2**63:
        raise MemoryGuardError(f"product dimension {spec.total_dim} overflows the int64 product index")
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, len(spec.dims))
    targets = np.asarray(targets, dtype=np.int64)
    moduli = np.asarray(moduli, dtype=np.int64)
    exact = moduli == 0
    order = _sweep_order(rows)
    values = _factor_values(spec)
    # contrib[k]: (levels, rows) contribution of the k-th factor of the sweep;
    # reach_*[k]: least / greatest sum the factors from sweep position k on add
    contrib = [np.outer(values[f], rows[:, f]) for f in order] + [np.zeros((1, len(rows)), dtype=np.int64)]
    reach_lo = np.cumsum([c.min(axis=0) for c in contrib[::-1]], axis=0)[::-1]
    reach_hi = np.cumsum([c.max(axis=0) for c in contrib[::-1]], axis=0)[::-1]
    position = np.argsort(order)
    closes = np.array([position[np.flatnonzero(row)].max(initial=0) for row in rows], dtype=np.int64)
    width = len(order) + len(rows)
    # A candidate is its row sums and its place in the previous step's list;
    # the levels are read back through those places at the end.
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
        rest = targets - sums
        keep = np.all((rest[:, exact] >= reach_lo[step + 1, exact]) & (rest[:, exact] <= reach_hi[step + 1, exact]), axis=1)
        shut = ~exact & (closes == step)
        (kept,) = np.nonzero(keep & np.all(rest[:, shut] % moduli[shut] == 0, axis=1))
        sums = sums[kept]
        trail.append(kept)
    configs = np.empty((len(sums), len(order)), dtype=np.int64)
    at = np.arange(len(sums))
    for step in reversed(range(len(order))):
        at, configs[:, order[step]] = np.divmod(trail[step][at], spec.dims[order[step]])
    indices = np.ravel_multi_index(tuple(configs.T), spec.dims)
    sort = np.argsort(indices)
    return BasisMap(spec, indices[sort], configs[sort])


def apply_product(basis: BasisMap, factors: list[tuple[int, LocalOp]]) -> sp.csr_matrix:
    """Matrix of an operator product on a basis: S^T A S for the selection S.

    The list reads like the written product: factors[0] acts last.  Each
    factor maps every configuration to the nonzero entries of its local
    column (several for a branching local operator); a fermionic factor
    picks up the sign of the matter occupations left of its position.  The
    target rows are found by ``searchsorted`` on the sorted indices, and
    targets outside the basis are dropped.  The matrix is real unless a
    factor is complex.
    """
    spec = basis.spec
    cols = np.arange(basis.dim)
    configs = basis.configs
    amps = np.ones(basis.dim)
    for pos, op in reversed(factors):
        local = op.matrix.tocsc()
        level = configs[:, pos]
        counts = np.diff(local.indptr)[level]
        src = np.repeat(np.arange(len(level)), counts)
        entry = local.indptr[level][src] + np.arange(len(src)) - np.repeat(np.cumsum(counts) - counts, counts)
        configs = configs[src]
        configs[:, pos] = local.indices[entry]
        amps = amps[src] * local.data[entry]
        cols = cols[src]
        if op.fermion_parity % 2:
            amps = amps * (1 - 2 * (configs[:, : min(pos, spec.n_matter)].sum(axis=1) % 2))
    keys = np.ravel_multi_index(tuple(configs.T), spec.dims)
    rows = np.searchsorted(basis.indices, keys)
    hit = rows < basis.dim
    hit[hit] = basis.indices[rows[hit]] == keys[hit]
    return sp.csr_matrix((amps[hit], (rows[hit], cols[hit])), shape=(basis.dim, basis.dim))


# ---------------------------------------------------------------------------
# Charges, Gauss constraints, sectors
# ---------------------------------------------------------------------------


def charge_diagonals(basis: BasisMap) -> np.ndarray:
    """(n_sites, dim) integer dynamical charge per site."""
    spec = basis.spec
    if spec.matter == "none":
        return np.zeros((spec.lattice.n_sites, basis.dim), dtype=np.int64)
    values = _factor_values(spec)
    return np.stack([values[s][basis.configs[:, s]] for s in range(spec.n_matter)])


def gauge_level_diagonals(basis: BasisMap) -> np.ndarray:
    """(n_gauge, dim) integer rotor level per gauge cell."""
    spec = basis.spec
    return basis.configs[:, spec.n_matter : spec.n_matter + spec.n_gauge].T - spec.cutoff


def global_level_diagonals(basis: BasisMap) -> np.ndarray:
    """(n_globals, dim) integer rotor level per global (winding) rotor."""
    spec = basis.spec
    return basis.configs[:, spec.n_matter + spec.n_gauge :].T - spec.global_cutoff


def integral_static_charges(lat: Lattice, static_charges=None) -> np.ndarray | None:
    """Static charges as integers, or None when one is non-integral.

    No integer configuration balances a non-integral charge, so callers
    select an empty sector for None.
    """
    q = np.zeros(lat.n_sites) if static_charges is None else np.asarray(static_charges, dtype=float)
    return q.astype(np.int64) if np.array_equal(q, np.round(q)) else None


def _gauss_residuals(basis: BasisMap) -> np.ndarray:
    """(n_sites, dim) integer div E - Q, the Gauss constraint without static charges."""
    spec = basis.spec
    if spec.gauge_kind != "links_E":
        raise ValueError("Gauss constraints act on the electric description")
    div = divergence_matrix(spec.lattice) @ gauge_level_diagonals(basis)
    return div - charge_diagonals(basis)


def gauss_diagonal(basis: BasisMap, site: int, static_charge: int = 0) -> np.ndarray:
    """Diagonal of the Gauss constraint at one site: div E - Q - q."""
    return _gauss_residuals(basis)[site] - static_charge


def gauss_sector_basis(spec: HilbertSpec, static_charges: np.ndarray | None = None) -> BasisMap:
    """Product states satisfying every Gauss constraint exactly, in integers:
    one row ``[-1 at the site's matter | div]`` per site, with target q."""
    if spec.gauge_kind != "links_E":
        raise ValueError("Gauss constraints act on the electric description")
    lat = spec.lattice
    q = integral_static_charges(lat, static_charges)
    if q is None:
        return empty_basis(spec)
    rows = np.hstack([-np.eye(lat.n_sites, spec.n_matter, dtype=np.int64), divergence_matrix(lat).toarray()])
    return sector_basis(spec, rows, q, np.zeros(lat.n_sites, dtype=np.int64))


def hermiticity_defect(op: sp.spmatrix) -> float:
    d = op - op.conjugate().T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
