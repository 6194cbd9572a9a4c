"""Product-state bases and one operator kernel for both descriptions.

Factor layout: matter sites first (row-major site order, so fermion sign
strings are a contiguous prefix), then gauge cells — links for the
electric description (`links_E`), plaquettes followed by the global rotors
for the dual one (`plaqs_M`).  The first factor varies slowest.

A basis (`BasisMap`) is a sorted list of product states, each held both as
its mixed-radix product index and as its configuration: the integer local
level of every factor.  Charges, rotor levels and Gauss residuals are
integer functions of the configurations, so sectors are selected by exact
integer tests.  Every operator is built by one kernel, `apply_product`: a
product of local operators acts on the configurations right to left, and
each target state is looked up among the basis indices (the lookup-table
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

A hard product-dimension guard protects against accidentally requesting an
exponentially large space (sector selection still scans the product
space); raise `max_dim` deliberately to go past it.
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
SCAN_BLOCK = 2**16  # product states per block of a sector scan


class MemoryGuardError(RuntimeError):
    """Requested Hilbert space exceeds the configured dimension guard."""


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
        total = 1
        for d in self.dims:
            total *= d
            if total > self.max_dim:
                raise MemoryGuardError(
                    f"Hilbert dimension exceeds guard {self.max_dim}; "
                    "raise max_dim explicitly to proceed"
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


def _product_states(spec: HilbertSpec, start: int, stop: int) -> BasisMap:
    indices = np.arange(start, stop, dtype=np.int64)
    return BasisMap(spec, indices, np.stack(np.unravel_index(indices, spec.dims), axis=1))


def product_basis(spec: HilbertSpec) -> BasisMap:
    """Every product state of the space."""
    return _product_states(spec, 0, spec.total_dim)


def select_states(spec: HilbertSpec, keep) -> BasisMap:
    """Product states on which ``keep(block)`` holds, for blocks of the product basis.

    Scanning block by block bounds the scan's working memory by the block,
    not by the product dimension.
    """
    indices, configs = [], []
    for start in range(0, spec.total_dim, SCAN_BLOCK):
        block = _product_states(spec, start, min(start + SCAN_BLOCK, spec.total_dim))
        mask = keep(block)
        indices.append(block.indices[mask])
        configs.append(block.configs[mask])
    return BasisMap(spec, np.concatenate(indices), np.concatenate(configs))


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
    local = basis.configs[:, : spec.n_matter].T
    if spec.matter == "staggered_fermion":
        return local - (site_parity(spec.lattice) < 0)[:, None]
    table = np.rint(spec.matter_ops()["charge"].matrix.diagonal()).astype(np.int64)
    return table[local]


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


def gauss_operator(basis: BasisMap, site: int, static_charge: int = 0) -> sp.csr_matrix:
    return sp.diags(gauss_diagonal(basis, site, static_charge), format="csr", dtype=np.int64)


def gauss_sector_basis(spec: HilbertSpec, static_charges: np.ndarray | None = None) -> BasisMap:
    """Product states satisfying every Gauss constraint exactly, in integers."""
    if spec.gauge_kind != "links_E":
        raise ValueError("Gauss constraints act on the electric description")
    q = integral_static_charges(spec.lattice, static_charges)
    if q is None:
        return select_states(spec, lambda block: np.zeros(block.dim, dtype=bool))
    return select_states(spec, lambda block: np.all(_gauss_residuals(block) == q[:, None], axis=0))


def hermiticity_defect(op: sp.spmatrix) -> float:
    d = op - op.conjugate().T
    return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())
