"""Hamiltonians for the electric description and its dual reformulations.

Both descriptions are a diagonal Coulomb kernel plus integer ladder
stencils read off the lattice maps, and the code says so once: each builder
supplies only its diagonal, computed from the levels of the basis states,
and the integer rows its off-diagonal terms step by.  A term is a
coefficient, a stencil row, and for the hopping the pair of sites one unit
of charge moves between; one shared builder gathers every term's triplets from
`hilbert.apply_term`, with their mirrors, into one sparse assembly, so every
matrix is real and symmetric.

Electric description (``links_E`` spaces):

    H = (g2/2) sum_links E^2  -  1/(2 g2) sum_plaq (loop + loop^dag)
        + t sum_links (psi^dag(x) U psi(x+e))  + h.c.  + mass term,

with the plaquette loop stepping the links by a row of the curl ``C`` and
the hopping stepping one link by a unit row.  Static charges enter only
through the choice of Gauss sector.

Compact dual description (``plaqs_M`` spaces, 2D): the gauge content is one
flux rotor per plaquette plus, on periodic lattices, two winding rotors.
Both Coulomb pieces are diagonal — the matter charge pairs through the site
Green's table, the flux/winding variables through ``D+``, the pseudo-inverse
of the dual form ``D = emb^T emb`` — while the magnetic term steps the
rotors by a row of ``D`` itself and the hopping by a row of the dual
embedding.  That reuse is deliberate: the operator content of the compact
theory is exactly the integer stencil content of the linear maps, so the
two layers cannot drift apart.

The continuous dual description has no independent operator content at the
quadratic level; its defining identities (energy-form equivalence,
shift-table hopping pairing, pairing canonicality, positivity, kernel
dimension) are entries of the `checks` registry that `dualqed verify-all`
runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dualmap, hilbert
from .greens import greens_sites
from .lattice import Lattice, curl_link_to_plaq_matrix, link_sites, site_parity


@dataclass
class ModelParams:
    """Couplings: gauge g2, hopping t, mass m, static site charges."""

    g2: float = 1.0
    t: float = 1.0
    m: float = 0.0
    static_charges: np.ndarray | None = None

    def charges(self, lat: Lattice) -> np.ndarray:
        if self.static_charges is None:
            return np.zeros(lat.n_sites)
        q = np.asarray(self.static_charges, dtype=float)
        if q.shape != (lat.n_sites,):
            raise ValueError(f"static charges need one value per site ({lat.n_sites})")
        if not np.all(np.isfinite(q)):
            raise ValueError("static charges must be finite")
        if abs(q.sum()) > 1e-12:
            raise ValueError("static charges must be neutral in total")
        return q

    def validated(self, lat: Lattice) -> "ModelParams":
        for name in ("g2", "t", "m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.g2 <= 0:
            raise ValueError("g2 must be positive")
        self.charges(lat)
        return self


def _mass_diagonal(basis: hilbert.BasisMap, m: float) -> np.ndarray:
    """Diagonal mass contribution: staggered occupation for fermions, total
    occupation n_a + n_b for bosons."""
    spec = basis.spec
    lat = spec.lattice
    diag = np.zeros(basis.dim)
    weights = m * site_parity(lat) if spec.matter == "staggered_fermion" else np.full(lat.n_sites, m)
    table = hilbert.occupation_table(spec).astype(float)
    for s in range(spec.n_matter):  # no factor without matter
        diag += weights[s] * table[basis.levels(s)]
    return diag


def _stencil_rows(rows) -> list[tuple[np.ndarray, np.ndarray]]:
    """(cells, steps) of every row of a sparse integer stencil matrix,
    explicitly stored zeros included."""
    rows = sp.csr_matrix(rows)
    return [(rows.indices[a:b], rows.data[a:b]) for a, b in zip(rows.indptr[:-1], rows.indptr[1:])]


def _sector_hamiltonian(
    params: ModelParams,
    basis: hilbert.BasisMap,
    diag: np.ndarray,
    loop_rows: sp.csr_matrix,
    hop_rows: sp.csr_matrix,
) -> sp.csr_matrix:
    """Diagonal plus the magnetic and hopping stencil terms, each with its h.c.

    Row p of ``loop_rows`` is the ladder stencil of plaquette p; row n of
    ``hop_rows`` is the stencil the hopping along link n carries while one
    unit of charge moves from the link's head site to its tail site.
    """
    spec = basis.spec
    lat = spec.lattice
    diag = diag + _mass_diagonal(basis, params.m)
    loop = -1.0 / (2.0 * params.g2)
    terms = [(loop, row, None) for row in _stencil_rows(loop_rows)]
    if spec.matter != "none" and params.t != 0.0:
        base, head = link_sites(lat)
        for hop, row in zip(zip(base.tolist(), head.tolist()), _stencil_rows(hop_rows)):
            terms.append((params.t, row, hop))
    rows, cols, vals = _mirrored_triplets(basis, diag, terms)
    H = sp.coo_matrix((vals, (rows, cols)), shape=(basis.dim, basis.dim)).tocsr()
    H.eliminate_zeros()
    return H


def _mirrored_triplets(basis: hilbert.BasisMap, diag: np.ndarray, terms):
    """One COO's rows, cols and values: the diagonal, every term's triplets
    scaled by its coefficient, then their mirrors.  The per-term pieces are
    freed on return, before the caller converts to CSR."""
    at = [np.arange(basis.dim, dtype=np.int32)]
    rows, cols, vals = [], [], []
    for coeff, (cells, steps), hop in terms:
        r, c, a = hilbert.apply_term(basis, cells, steps, hop)
        rows.append(r.astype(np.int32))
        cols.append(c.astype(np.int32))
        vals.append(coeff * a)
    return np.concatenate(at + rows + cols), np.concatenate(at + cols + rows), np.concatenate([diag] + vals + vals)


# ---------------------------------------------------------------------------
# Electric description
# ---------------------------------------------------------------------------


def h_original(spec: hilbert.HilbertSpec, params: ModelParams, basis: hilbert.BasisMap) -> sp.csr_matrix:
    """Electric-description Hamiltonian on a basis of ``spec``."""
    if spec.gauge_kind != "links_E":
        raise ValueError("h_original needs a links_E space")
    params = params.validated(spec.lattice)
    lat = spec.lattice
    # no name holds the (n_links, dim) levels, so they are freed before the assembly
    diag = 0.5 * params.g2 * np.sum(hilbert.rotor_levels(basis) ** 2, axis=0)
    units = sp.identity(lat.n_links, dtype=np.int64, format="csr")
    return _sector_hamiltonian(params, basis, diag, curl_link_to_plaq_matrix(lat), units)


# ---------------------------------------------------------------------------
# Compact dual description
# ---------------------------------------------------------------------------


def _quadratic_diagonal(kernel: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """Diagonal of sum_ab kernel[a,b] X_a X_b for commuting diagonals X."""
    mixed = kernel @ diags
    return np.einsum("ad,ad->d", diags, mixed)


def h_dual_thetam(spec: hilbert.HilbertSpec, params: ModelParams, basis: hilbert.BasisMap) -> sp.csr_matrix:
    """Compact dual Hamiltonian on flux + winding rotors (2D), on a basis of ``spec``."""
    if spec.gauge_kind != "plaqs_M":
        raise ValueError("h_dual_thetam needs a plaqs_M space")
    params = params.validated(spec.lattice)
    lat = spec.lattice
    g2 = params.g2

    diag = 0.5 * g2 * _quadratic_diagonal(dualmap.modified_greens(lat), hilbert.rotor_levels(basis))
    q = params.charges(lat)
    if spec.matter != "none" or np.any(q):
        rho = q[:, None] + hilbert.charge_diagonals(basis)
        diag = diag + 0.5 * g2 * _quadratic_diagonal(greens_sites(lat).values, rho)
    emb = dualmap.dual_embedding(lat).matrix
    return _sector_hamiltonian(params, basis, diag, dualmap.d_matrix(lat)[: lat.n_plaqs], emb)
