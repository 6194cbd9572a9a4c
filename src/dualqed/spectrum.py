"""Eigenvalue extraction and cross-formulation comparison.

Two jobs live here.  ``lowest_eigenvalues`` turns a hermitian operator into a
small sorted spectrum with per-pair residuals.  It works in the operator's
own dtype, float64 for every model the builders make.  Below
``DENSE_EIG_LIMIT`` states it asks a dense solver for the
k lowest pairs only; at and above it, it runs restarted Lanczos (ARPACK,
seeded start vector, no shift-invert).  ``scipy.sparse.linalg``, which holds
ARPACK, is imported in that branch only, so a process that never runs
Lanczos never loads it.  The limit is the crossover measured
at one BLAS thread on 2D lattice sectors: the dense subset is faster up to
683 states, Lanczos from 1,033 on.  Every residual ``|Hv - lambda v|`` must
stay below ``RESIDUAL_TOL * max(1, |H|)``, with ``|H|`` the largest absolute
row sum; a larger one raises ``ResidualError`` instead of being reported.

A matrix that splits is solved block by block.  On a torus without matter no
term changes the winding fluxes, so a pure-gauge sector is block diagonal:
the 2x2 periodic Gauss sector at cutoff 2 has 1,333 states in 145 blocks.
The blocks are the matrix's connected components, labelled in numpy by
hook and shortcut (``_component_labels``) exactly as scipy's csgraph numbers
them, without loading csgraph.  They are visited in order of their
Gershgorin lower bound, each solved by the rule above at its own size, until
a block's bound lies above the k-th lowest level found, so no remaining
block can hold one of the k lowest.  A connected matrix goes to the solver
whole.

``sector_hamiltonian`` is the one place the formulation is chosen: a
``links_E`` space gets the Gauss sector and ``h_original``, a ``plaqs_M``
space the charge-neutral, flux-class matched sector and ``h_dual_thetam``,
each built directly on the sector's integer configurations, with the static
charges of the ``ModelParams``.  The ``build`` and ``spectrum`` commands call
it, and a comparison once per formulation.

``compare_formulations`` is the equivalence harness: over a cutoff schedule
it solves both formulations' sectors and reports per-level eigenvalue
differences with convergence diagnostics.  It builds each formulation once,
at the top cutoff, and feeds every lower cell the nested principal
submatrix on the states within that cutoff, so a comparison needs no more
memory than its largest cell.  Sector matching matters: the flux-variable
Hilbert space splits into integer cosets of the flux-class lattice, only one
of which (per charge configuration) corresponds to integer electric fields.
``flux_sector_basis`` enumerates that coset directly from the exact
congruences (U·v) mod d of the Smith form of the class lattice, together
with charge neutrality; ``sector="charge"`` keeps the plain charge-neutral
space for side-by-side diagnostics of the unphysical copies.

Cutoff conventions: the schedule value is the per-link electric cutoff; the
flux-side rotor cutoff is ``cutoff_ratio`` times it.  Ratio 1 is the level
comparison at equal truncation depth (values converge toward each other as
the schedule grows); ratio 4 aligns the truncation windows exactly on the
single-plaquette lattice, where the two formulations then agree to machine
precision at every cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from . import dualmap, hilbert
from .hamiltonian import ModelParams, h_dual_thetam, h_original
from .hilbert import BasisMap, HilbertSpec
from .lattice import Lattice

# dense below, Lanczos at and above (measured crossover), per connected block
DENSE_EIG_LIMIT = 1000
HERMITICITY_TOL = 1e-10
RESIDUAL_TOL = 1e-9  # relative to max(1, |H|), |H| the largest absolute row sum
CLUSTER_WIDTH = 1e-9


class ResidualError(RuntimeError):
    """An eigenpair's residual exceeds the enforced tolerance."""


@dataclass(frozen=True)
class SpectrumReport:
    """Sorted lowest eigenvalues of one operator with solver diagnostics."""

    eigenvalues: tuple[float, ...]
    method: str  # "dense" | "iterative"
    residuals: tuple[float, ...]
    sector: str = ""
    cutoff: int | None = None
    dimension: int = 0

    def as_dict(self) -> dict:
        return {
            "eigenvalues": list(self.eigenvalues),
            "method": self.method,
            "residuals": list(self.residuals),
            "sector": self.sector,
            "cutoff": self.cutoff,
            "dimension": self.dimension,
        }


def _eigenpairs(H: sp.csr_matrix | np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The k lowest eigenpairs (ascending) and the method that found them.

    H is a sparse matrix, or a dense block already assembled (``_block_eigenpairs``)."""
    n = H.shape[0]
    if n < DENSE_EIG_LIMIT or k >= n - 1:
        vals, vecs = sla.eigh(H if isinstance(H, np.ndarray) else H.toarray(), subset_by_index=[0, k - 1])
        return vals, vecs, "dense"
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    import scipy.sparse.linalg as spla  # loaded only where Lanczos runs

    vals, vecs = spla.eigsh(H, k=k, which="SA", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], "iterative"


def _component_labels(H: sp.csr_matrix) -> tuple[int, np.ndarray]:
    """The connected components of H's graph: (count, label per state).

    Every stored entry is an edge, explicit zeros included, in either
    direction.  Hook and shortcut: each edge joining two trees hangs the
    larger root under the smaller one, then every state jumps to its
    parent's parent until none moves.  A state's parent is never larger
    than the state, so at the end each points at its component's smallest
    state, and components are numbered in the order of those states, as
    ``scipy.sparse.csgraph.connected_components(H, directed=False)`` does.
    """
    n = H.shape[0]
    rows = np.repeat(np.arange(n), np.diff(H.indptr))
    cols = H.indices
    root = np.arange(n)
    while True:
        a, b = root[rows], root[cols]
        crossing = a != b
        if not crossing.any():
            break
        rows, cols, a, b = rows[crossing], cols[crossing], a[crossing], b[crossing]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    is_root = root == np.arange(n)
    return int(is_root.sum()), (np.cumsum(is_root) - 1)[root]


def _block_eigenpairs(
    H: sp.csr_matrix, k: int, seed: int, row_abs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, str]:
    """``_eigenpairs`` of H, solved block by block when H splits.

    H's connected components are its diagonal blocks.  They are visited in
    order of their Gershgorin lower bound min(H_ii - sum_{j != i} |H_ij|)
    (row_abs holds the absolute row sums), ties by block label, and each is
    solved by ``_eigenpairs`` for its lowest min(k, n_b) pairs, so its own
    size picks dense or Lanczos.  The visit stops at the first block whose
    bound lies strictly above the k-th lowest level found so far: no level
    of it or of a later block can be among the k lowest.  The k lowest pairs
    (ties by value, block label, level) are embedded in the full space; the
    method is "iterative" when any solved block used Lanczos.
    """
    n_blocks, labels = _component_labels(H)
    if n_blocks == 1:
        return _eigenpairs(H, k, seed)
    diag = H.diagonal().real
    gershgorin = np.full(n_blocks, np.inf)
    np.minimum.at(gershgorin, labels, diag - (row_abs - np.abs(diag)))
    by_block = np.argsort(labels, kind="stable")  # states grouped by block, in index order
    starts = np.concatenate(([0], np.cumsum(np.bincount(labels))))
    grouped = H[by_block][:, by_block]  # each block a contiguous diagonal slice
    pairs, methods = [], set()  # pairs: the k lowest so far, (value, block label, level, vector, states)
    for block in np.argsort(gershgorin, kind="stable"):
        if len(pairs) == k and gershgorin[block] > pairs[-1][0]:
            break
        span = slice(starts[block], starts[block + 1])
        states, sub = by_block[span], grouped[span, span]
        vals, vecs, method = _eigenpairs(
            sub.toarray() if states.size < DENSE_EIG_LIMIT else sub, min(k, states.size), seed
        )
        methods.add(method)
        pairs += [(vals[level], block, level, vecs[:, level], states) for level in range(vals.size)]
        pairs = sorted(pairs, key=lambda pair: pair[:3])[:k]

    vecs = np.zeros((H.shape[0], k), dtype=np.result_type(*(pair[3] for pair in pairs)))
    for column, (_, _, _, vec, states) in enumerate(pairs):
        vecs[states, column] = vec
    return np.array([pair[0] for pair in pairs]), vecs, "iterative" if "iterative" in methods else "dense"


def lowest_eigenvalues(
    H,
    k: int,
    seed: int = 0,
    sector: str = "",
    cutoff: int | None = None,
) -> SpectrumReport:
    """The k smallest eigenvalues of a hermitian matrix, sorted ascending.

    The solve runs in the matrix's dtype (float64 for every built model).
    A matrix that splits into blocks is solved per block (``_block_eigenpairs``),
    a connected one whole.  A block or matrix below ``DENSE_EIG_LIMIT`` states
    has only its k lowest pairs computed densely; at and above it restarted
    Lanczos runs from a seed-determined start vector, so identical inputs
    give identical reports.  The method is "iterative" when any solve used
    Lanczos.  Residual norms ``|Hv - lambda v|`` on the whole matrix are
    reported per pair, and ``ResidualError`` is raised when one exceeds
    ``RESIDUAL_TOL * max(1, |H|)`` (``|H|`` the largest absolute row sum).

    The k lowest levels can cut a degenerate cluster: only the copies that
    fit within k are reported, so `cluster_levels` counts those and not the
    level's full multiplicity (k=3 reads 2 for the four-fold first excited
    level of the 1,333-state 2D N=2 periodic electric pure-gauge sector at
    cutoff 2).
    """
    if k < 1:
        raise ValueError("need k >= 1")
    H = sp.csr_matrix(H) if not sp.issparse(H) else H.tocsr()
    n = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise ValueError("operator must be square")
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    defect = hilbert.hermiticity_defect(H)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"operator is not hermitian (defect {defect:.3e})")
    row_abs = np.asarray(abs(H).sum(axis=1)).ravel()
    vals, vecs, method = _block_eigenpairs(H, k, seed, row_abs)
    residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    bound = RESIDUAL_TOL * max(1.0, float(row_abs.max()))
    if residuals.max() > bound:
        raise ResidualError(f"{method} eigenpair residual {residuals.max():.3e} exceeds {bound:.3e}")
    return SpectrumReport(
        eigenvalues=tuple(float(v) for v in vals),
        method=method,
        residuals=tuple(float(r) for r in residuals),
        sector=sector,
        cutoff=cutoff,
        dimension=n,
    )


def cluster_levels(values, width: float = CLUSTER_WIDTH) -> list[tuple[float, int]]:
    """Collapse near-degenerate eigenvalues to (mean, multiplicity) pairs."""
    out: list[tuple[float, int]] = []
    for v in sorted(values):
        if out and abs(v - out[-1][0]) <= width * max(1.0, abs(v)):
            mean, mult = out[-1]
            out[-1] = ((mean * mult + v) / (mult + 1), mult + 1)
        else:
            out.append((float(v), 1))
    return out


# --- sector construction -----------------------------------------------------


def flux_sector_basis(
    spec: HilbertSpec,
    static_charges=None,
    match_class: bool = True,
) -> BasisMap:
    """Charge-neutral sector of the flux formulation, optionally class-matched.

    With ``match_class`` the basis keeps only product states whose
    flux/winding vector sits in the coset of the flux-class lattice fixed by
    the state's charge configuration — the image of the integer electric
    fields.  Both conditions are integer rows over the factor values: total
    charge zero, and the congruences ``W·(flux - F·charges)`` of
    `dualmap.flux_class_congruences`, F the flux offset map.  Without
    ``match_class``, all neutral states are kept (the space then contains
    the unphysical coset copies).
    """
    lat = spec.lattice
    q = hilbert.integral_static_charges(lat, static_charges)
    if q is None:
        return hilbert.empty_basis(spec)
    n_flux = spec.n_gauge + spec.n_globals
    rows = [np.concatenate([np.ones(spec.n_matter, dtype=np.int64), np.zeros(n_flux, dtype=np.int64)])]
    targets, moduli = [-q.sum()], [0]
    if match_class:
        w, d = dualmap.flux_class_congruences(lat)
        wf = w @ dualmap.flux_offset_map(lat)
        rows += list(np.hstack([-wf[:, : spec.n_matter], w]))
        targets += list(wf @ q)
        moduli += list(d)
    return hilbert.sector_basis(spec, rows, targets, moduli)


def sector_hamiltonian(
    spec: HilbertSpec, params: ModelParams, match_class: bool = True
) -> tuple[BasisMap, sp.csr_matrix, str]:
    """The physical sector of ``spec``, its Hamiltonian and the sector label.

    This is the one choice between the two formulations: a ``links_E`` space
    gets its Gauss sector and ``h_original`` ("gauss"), a ``plaqs_M`` space
    its charge-neutral sector, class-matched unless ``match_class`` is False,
    and ``h_dual_thetam`` ("neutral+class" or "neutral").  The static charges
    are those of ``params``, which is validated before any enumeration.
    """
    q = params.validated(spec.lattice).charges(spec.lattice)
    if spec.gauge_kind == "links_E":
        basis = hilbert.gauss_sector_basis(spec, q)
        return basis, h_original(spec, params, basis=basis), "gauss"
    basis = flux_sector_basis(spec, q, match_class=match_class)
    return basis, h_dual_thetam(spec, params, basis=basis), "neutral+class" if match_class else "neutral"


# --- the comparison harness --------------------------------------------------


@dataclass(frozen=True)
class CompareConfig:
    """Model + harness settings for a cross-formulation comparison."""

    lattice: Lattice
    params: ModelParams
    matter: str = "staggered_fermion"
    n_max: int = 1
    sector: str = "physical"  # "physical" (class-matched) | "charge"
    cutoff_ratio: int = 1  # flux cutoff = ratio * electric cutoff
    max_dim: int = hilbert.DEFAULT_MAX_DIM
    tolerance: float = 1e-4  # pass/fail threshold on the final max difference

    def __post_init__(self):
        if self.lattice.dim != 2:
            raise ValueError("comparison harness supports dim=2 only")
        if self.sector not in ("physical", "charge"):
            raise ValueError(f"unknown sector mode {self.sector!r}")
        if self.cutoff_ratio < 1:
            raise ValueError("cutoff_ratio must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance}")

    def echo(self) -> dict:
        q = self.params.static_charges
        return {
            "dim": self.lattice.dim,
            "N": self.lattice.N,
            "bc": self.lattice.bc,
            "matter": self.matter,
            "n_max": self.n_max,
            "sector": self.sector,
            "cutoff_ratio": self.cutoff_ratio,
            "static_charges": None if q is None else np.asarray(q, dtype=float).tolist(),
            "g2": self.params.g2,
            "t": self.params.t,
            "m": self.params.m,
            "tolerance": self.tolerance,
        }


def _cell_spectrum(H: sp.csr_matrix, sector: str, cutoff: int, k: int, seed: int) -> SpectrumReport:
    """One (formulation, cutoff) cell's report; the benchmark's tracer times each cell by this name."""
    return lowest_eigenvalues(H, k, seed=seed, sector=sector, cutoff=cutoff)


def compare_formulations(
    config: CompareConfig,
    k: int = 3,
    schedule: tuple[int, ...] = (2, 4, 6, 8),
    seed: int = 0,
) -> dict:
    """Spectra of both formulations over a cutoff schedule, with differences.

    Returns a JSON-ready report: config echo, per-cutoff eigenvalues and
    per-level |difference|, clustered level views, per-level monotonicity of
    the differences across the schedule, and log-ratio convergence slopes.
    Each formulation's sector and Hamiltonian are built once, at the top
    cutoff of the schedule.  Every term is diagonal or a unit rotor step, so
    the cell at a lower cutoff c is the principal submatrix on the states
    whose rotor levels all lie within c, in the same order: the distinct
    cutoffs are walked downward, each narrowing the previous matrix and
    dropping it.  Each cell keeps only its small report, so a comparison
    holds no more than its largest cell, the top one.
    """
    schedule = tuple(int(c) for c in schedule)
    if not schedule or any(c < 1 for c in schedule):
        raise ValueError("schedule must hold positive cutoffs")
    cutoffs = sorted(set(schedule), reverse=True)
    results = {}
    for form, kind, ratio in (("original", "links_E", 1), ("flux", "plaqs_M", config.cutoff_ratio)):
        spec = HilbertSpec(
            config.lattice, kind, ratio * cutoffs[0], matter=config.matter, n_max=config.n_max, max_dim=config.max_dim
        )
        basis, H, sector = sector_hamiltonian(spec, config.params, match_class=config.sector == "physical")
        # each state's largest |level| over the gauge and global rotors, all cut at spec.cutoff
        level = np.abs(basis.configs[:, spec.n_matter :] - spec.cutoff).max(axis=1, initial=0)
        del basis
        for cutoff in cutoffs:
            keep = level <= ratio * cutoff
            if not keep.all():
                H, level = H[keep][:, keep], level[keep]
            results[form, cutoff] = _cell_spectrum(H, sector, cutoff, k, seed)
        del H

    rows = []
    for cutoff in schedule:
        orig = results[("original", cutoff)]
        flux = results[("flux", cutoff)]
        diffs = [abs(a - b) for a, b in zip(orig.eigenvalues, flux.eigenvalues)]
        rows.append(
            {
                "cutoff": cutoff,
                "cutoff_electric": cutoff,
                "cutoff_flux": config.cutoff_ratio * cutoff,
                "original": orig.as_dict(),
                "flux": flux.as_dict(),
                "differences": diffs,
                "max_difference": max(diffs),
                "clusters": {
                    "original": cluster_levels(orig.eigenvalues),
                    "flux": cluster_levels(flux.eigenvalues),
                },
            }
        )

    per_level = [[row["differences"][lvl] for row in rows] for lvl in range(k)]
    slack = 1e-12
    monotone = [all(b <= a + slack for a, b in zip(col, col[1:])) for col in per_level]
    slopes = []
    for col in per_level:
        lvl_slopes = []
        for a, b in zip(col, col[1:]):
            if a > 1e-15 and b > 1e-15:
                lvl_slopes.append(float(np.log(a / b)))
            else:
                lvl_slopes.append(None)
        slopes.append(lvl_slopes)

    return {
        "config": config.echo(),
        "k": k,
        "schedule": list(schedule),
        "seed": seed,
        "cutoffs": rows,
        "per_level_differences": per_level,
        "non_increasing_per_level": monotone,
        "convergence_slopes": slopes,
        "final_max_difference": rows[-1]["max_difference"],
        "tolerance": config.tolerance,
        "passed": bool(rows[-1]["max_difference"] <= config.tolerance),
    }
