"""Eigenvalue extraction and cross-formulation comparison.

Two jobs live here.  ``lowest_eigenvalues`` turns a hermitian operator into a
small sorted spectrum with per-pair residuals.  It works in the operator's
own dtype, so every model without boson matter is solved in real
arithmetic.  Below ``DENSE_EIG_LIMIT`` states it asks a dense solver for the
k lowest pairs only; at and above it, it runs restarted Lanczos (ARPACK,
seeded start vector, no shift-invert).  The limit is the crossover measured
at one BLAS thread on 2D lattice sectors: the dense subset is faster up to
683 states, Lanczos from 1,033 on.  Every residual ``|Hv - lambda v|`` must
stay below ``RESIDUAL_TOL * max(1, |H|)``, with ``|H|`` the largest absolute
row sum; a larger one raises ``ResidualError`` instead of being reported.

``compare_formulations`` is the equivalence harness: it builds the electric
formulation on its Gauss sector and the flux formulation on its
charge-neutral, flux-class matched sector, each directly on the sector's
integer configurations, over a cutoff schedule, and reports per-level
eigenvalue differences with convergence diagnostics.  Sector matching
matters: the flux-variable Hilbert space splits into integer cosets of the
flux-class lattice, only one of which (per charge configuration) corresponds
to integer electric fields.  ``flux_sector_basis`` enumerates that coset
directly from the exact congruences (U·v) mod d of the Smith form of the
class lattice, together with charge neutrality; ``sector="charge"`` keeps
the plain charge-neutral space for side-by-side diagnostics of the
unphysical copies.

Cutoff conventions: the schedule value is the per-link electric cutoff; the
flux-side rotor cutoff is ``cutoff_ratio`` times it.  Ratio 1 is the level
comparison at equal truncation depth (values converge toward each other as
the schedule grows); ratio 4 aligns the truncation windows exactly on the
single-plaquette lattice, where the two formulations then agree to machine
precision at every cutoff.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import dualmap, hilbert
from .hamiltonian import ModelParams, h_dual_thetam, h_original
from .hilbert import BasisMap, HilbertSpec
from .lattice import Lattice

DENSE_EIG_LIMIT = 1000  # dense below, Lanczos at and above; measured crossover
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


def _eigenpairs(H: sp.csr_matrix, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, str]:
    """The k lowest eigenpairs (ascending) and the method that found them."""
    n = H.shape[0]
    if n < DENSE_EIG_LIMIT or k >= n - 1:
        vals, vecs = sla.eigh(H.toarray(), subset_by_index=[0, k - 1])
        return vals, vecs, "dense"
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    vals, vecs = spla.eigsh(H, k=k, which="SA", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order], "iterative"


def lowest_eigenvalues(
    H,
    k: int,
    seed: int = 0,
    sector: str = "",
    cutoff: int | None = None,
) -> SpectrumReport:
    """The k smallest eigenvalues of a hermitian matrix, sorted ascending.

    The solve runs in the matrix's dtype (real unless the model is complex).
    Below ``DENSE_EIG_LIMIT`` only the k lowest pairs of the dense matrix are
    computed; otherwise restarted Lanczos runs from a seed-determined start
    vector, so identical inputs give identical reports.  Residual norms
    ``|Hv - lambda v|`` are reported per pair, and ``ResidualError`` is
    raised when one exceeds ``RESIDUAL_TOL * max(1, |H|)`` (``|H|`` the
    largest absolute row sum).
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
    vals, vecs, method = _eigenpairs(H, k, seed)
    residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
    bound = RESIDUAL_TOL * max(1.0, float(abs(H).sum(axis=1).max()))
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


def electric_sector_basis(spec: HilbertSpec, static_charges=None) -> BasisMap:
    """Gauss-law sector of the electric formulation (default: no static charges)."""
    return hilbert.gauss_sector_basis(spec, static_charges)


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
    static_charges: tuple[float, ...] | None = None
    max_dim: int = hilbert.DEFAULT_MAX_DIM
    tolerance: float = 1e-4  # pass/fail threshold on the final max difference

    def __post_init__(self):
        if self.lattice.dim != 2:
            raise ValueError("comparison harness supports dim=2 only")
        if self.sector not in ("physical", "charge"):
            raise ValueError(f"unknown sector mode {self.sector!r}")
        if self.cutoff_ratio < 1:
            raise ValueError("cutoff_ratio must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def echo(self) -> dict:
        return {
            "dim": self.lattice.dim,
            "N": self.lattice.N,
            "bc": self.lattice.bc,
            "matter": self.matter,
            "n_max": self.n_max,
            "sector": self.sector,
            "cutoff_ratio": self.cutoff_ratio,
            "static_charges": list(self.static_charges) if self.static_charges else None,
            "g2": self.params.g2,
            "t": self.params.t,
            "m": self.params.m,
            "tolerance": self.tolerance,
        }


def _cell_spectrum(config: CompareConfig, formulation: str, cutoff: int, k: int, seed: int) -> SpectrumReport:
    lat = config.lattice
    q = np.asarray(config.static_charges, dtype=float) if config.static_charges else None
    if formulation == "original":
        spec = HilbertSpec(
            lat,
            "links_E",
            cutoff=cutoff,
            matter=config.matter,
            n_max=config.n_max,
            max_dim=config.max_dim,
        )
        basis = electric_sector_basis(spec, q)
        H = h_original(spec, config.params, basis=basis)
        sector = "gauss"
    else:
        spec = HilbertSpec(
            lat,
            "plaqs_M",
            cutoff=config.cutoff_ratio * cutoff,
            matter=config.matter,
            n_max=config.n_max,
            max_dim=config.max_dim,
        )
        basis = flux_sector_basis(spec, q, match_class=config.sector == "physical")
        H = h_dual_thetam(spec, config.params, basis=basis)
        sector = "neutral+class" if config.sector == "physical" else "neutral"
    return lowest_eigenvalues(H, k, seed=seed, sector=sector, cutoff=cutoff)


def compare_formulations(
    config: CompareConfig,
    k: int = 3,
    schedule: tuple[int, ...] = (2, 4, 6, 8),
    seed: int = 0,
    max_workers: int | None = None,
) -> dict:
    """Spectra of both formulations over a cutoff schedule, with differences.

    Returns a JSON-ready report: config echo, per-cutoff eigenvalues and
    per-level |difference|, clustered level views, per-level monotonicity of
    the differences across the schedule, and log-ratio convergence slopes.
    Independent (formulation, cutoff) cells run in a thread pool; the merge
    order is fixed by the schedule, so reports are deterministic.
    """
    schedule = tuple(int(c) for c in schedule)
    if not schedule or any(c < 1 for c in schedule):
        raise ValueError("schedule must hold positive cutoffs")
    cells = [(form, cutoff) for cutoff in schedule for form in ("original", "flux")]
    results: dict[tuple[str, int], SpectrumReport] = {}
    workers = max_workers if max_workers is not None else min(4, len(cells))
    if workers > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_cell_spectrum, config, form, cutoff, k, seed): (form, cutoff)
                for form, cutoff in cells
            }
            for fut in concurrent.futures.as_completed(futures):
                results[futures[fut]] = fut.result()
    else:
        for form, cutoff in cells:
            results[(form, cutoff)] = _cell_spectrum(config, form, cutoff, k, seed)

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
