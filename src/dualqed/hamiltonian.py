"""Hamiltonians for the electric description and its dual reformulations.

Both descriptions are a diagonal Coulomb kernel plus integer ladder
stencils read off the lattice maps, and the code says so once: each builder
supplies only its diagonal, computed from the basis configurations, and the
integer rows its off-diagonal terms step by.  One shared builder turns
those into the sector matrix with `hilbert.apply_product` and adds the
hermitian conjugates.

Electric description (``links_E`` spaces):

    H = (g2/2) sum_links E^2  -  1/(2 g2) sum_plaq (loop + loop^dag)
        + t sum_links (psi^dag(x) U psi(x+e))  + h.c.  + mass term,

with the plaquette loop stepping the links by a row of the curl ``C`` and
the hopping stepping one link by a unit row.  Static charges enter only
through the choice of Gauss sector.

Compact dual description (``plaqs_M`` spaces, 2D): the gauge content is one
flux rotor per plaquette plus, on periodic lattices, two winding rotors.
Both Coulomb pieces are diagonal — the matter charge pairs through the site
Green's table, the flux/winding variables through the condensed energy
kernel — while the magnetic term steps the rotors by a row of the
interaction matrix ``D`` and the hopping by a row of the dual embedding.
That reuse is deliberate: the operator content of the compact theory is
exactly the integer stencil content of the linear maps, so the two layers
cannot drift apart.

The continuous dual description has no independent operator content at the
quadratic level; its defining identities (energy-form equivalence,
shift-table hopping pairing, pairing canonicality, positivity, kernel
dimension) are entries of the `checks` registry that `dualqed verify-all`
runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import dualmap, hilbert
from .greens import greens_sites
from .lattice import (
    Lattice,
    curl_link_to_plaq_matrix,
    links,
    shift_site,
    site_index,
    site_parity,
)


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
        if abs(q.sum()) > 1e-12:
            raise ValueError("static charges must be neutral in total")
        return q

    def validated(self, lat: Lattice) -> "ModelParams":
        if self.g2 <= 0:
            raise ValueError("g2 must be positive")
        self.charges(lat)
        return self


def _mass_diagonal(basis: hilbert.BasisMap, m: float) -> np.ndarray:
    """Diagonal mass contribution, staggered for fermions."""
    spec = basis.spec
    lat = spec.lattice
    diag = np.zeros(basis.dim)
    if spec.matter == "none":
        return diag
    if spec.matter == "staggered_fermion":
        weights, table = m * site_parity(lat), np.array([0.0, 1.0])
    else:
        weights, table = np.full(lat.n_sites, m), spec.matter_ops()["n_total"].matrix.diagonal()
    for s in range(lat.n_sites):
        diag += weights[s] * table[basis.configs[:, spec.matter_pos(s)]]
    return diag


def _ladder_power(ops: dict[str, hilbert.LocalOp], k: int) -> hilbert.LocalOp:
    """Integer ladder power: raise^k for k>0, lower^|k| for k<0."""
    if k == 0:
        raise ValueError("zero ladder power should be skipped by the caller")
    base = ops["raise"] if k > 0 else ops["lower"]
    mat = base.matrix
    out = mat
    for _ in range(abs(k) - 1):
        out = out @ mat
    return hilbert.LocalOp(f"{base.name}^{abs(k)}", out.tocsr())


def _stencil(spec: hilbert.HilbertSpec, row: sp.csr_matrix) -> list[tuple[int, hilbert.LocalOp]]:
    """Ladder factors stepping every gauge (then global) cell by its row entry.

    Zero entries, which the periodic 1x1 maps store explicitly, act as the
    identity and are skipped.
    """
    gauge, glob = spec.gauge_ops(), spec.global_ops()
    return [
        (spec.n_matter + cell, _ladder_power(gauge if cell < spec.n_gauge else glob, int(k)))
        for cell, k in zip(row.indices, row.data)
        if k != 0
    ]


def _matter_pair(spec: hilbert.HilbertSpec):
    """(creator, annihilator) local ops for the configured matter kind."""
    ops = spec.matter_ops()
    if spec.matter == "staggered_fermion":
        return ops["create"], ops["annihilate"]
    return ops["field_dag"], ops["field"]


def _sector_hamiltonian(
    params: ModelParams,
    basis: hilbert.BasisMap,
    diag: np.ndarray,
    loop_rows: sp.csr_matrix,
    hop_rows: sp.csr_matrix,
) -> sp.csr_matrix:
    """Diagonal plus the magnetic and hopping stencil terms, each with its h.c.

    Row p of ``loop_rows`` is the ladder stencil of plaquette p; row n of
    ``hop_rows`` is the stencil the hopping along link n carries between
    its two matter factors.
    """
    spec = basis.spec
    lat = spec.lattice
    diag = diag + _mass_diagonal(basis, params.m)
    loop = -1.0 / (2.0 * params.g2)
    terms = [(loop, _stencil(spec, loop_rows.getrow(p))) for p in range(loop_rows.shape[0])]
    if spec.matter != "none" and params.t != 0.0:
        create, annihilate = _matter_pair(spec)
        for n, (x, i) in enumerate(links(lat)):
            sx = spec.matter_pos(site_index(lat, x))
            sy = spec.matter_pos(site_index(lat, shift_site(lat, x, i, +1)))
            factors = [(sx, create)] + _stencil(spec, hop_rows.getrow(n)) + [(sy, annihilate)]
            terms.append((params.t, factors))
    H = sp.diags(diag, format="csr", shape=(basis.dim, basis.dim))
    for coeff, factors in terms:
        A = hilbert.apply_product(basis, factors)
        H = H + coeff * (A + A.conjugate().T)
    return H.tocsr()


# ---------------------------------------------------------------------------
# Electric description
# ---------------------------------------------------------------------------


def h_original(
    spec: hilbert.HilbertSpec,
    params: ModelParams,
    basis: hilbert.BasisMap | None = None,
) -> sp.csr_matrix:
    """Electric-description Hamiltonian on a basis (default: the product space)."""
    if spec.gauge_kind != "links_E":
        raise ValueError("h_original needs a links_E space")
    params = params.validated(spec.lattice)
    basis = hilbert.product_basis(spec) if basis is None else basis
    lat = spec.lattice
    levels = hilbert.gauge_level_diagonals(basis)
    diag = 0.5 * params.g2 * np.sum(levels**2, axis=0)
    units = sp.identity(lat.n_links, dtype=np.int64, format="csr")
    return _sector_hamiltonian(params, basis, diag, curl_link_to_plaq_matrix(lat), units)


# ---------------------------------------------------------------------------
# Compact dual description
# ---------------------------------------------------------------------------


def _quadratic_diagonal(kernel: np.ndarray, diags: np.ndarray) -> np.ndarray:
    """Diagonal of sum_ab kernel[a,b] X_a X_b for commuting diagonals X."""
    mixed = kernel @ diags
    return np.einsum("ad,ad->d", diags, mixed)


def h_dual_thetam(
    spec: hilbert.HilbertSpec,
    params: ModelParams,
    basis: hilbert.BasisMap | None = None,
) -> sp.csr_matrix:
    """Compact dual Hamiltonian on flux + winding rotors (2D)."""
    if spec.gauge_kind != "plaqs_M":
        raise ValueError("h_dual_thetam needs a plaqs_M space")
    params = params.validated(spec.lattice)
    basis = hilbert.product_basis(spec) if basis is None else basis
    lat = spec.lattice
    g2 = params.g2

    flux = np.vstack([hilbert.gauge_level_diagonals(basis), hilbert.global_level_diagonals(basis)])
    diag = 0.5 * g2 * _quadratic_diagonal(dualmap.modified_greens(lat), flux)
    q = params.charges(lat)
    if spec.matter != "none" or np.any(q):
        rho = q[:, None] + hilbert.charge_diagonals(basis)
        diag = diag + 0.5 * g2 * _quadratic_diagonal(greens_sites(lat).values, rho)
    emb = dualmap.dual_embedding(lat).matrix
    return _sector_hamiltonian(params, basis, diag, dualmap.d_matrix(lat)[: lat.n_plaqs], emb)
