"""Maps between link fields and redundancy-free dual variables.

The dual description trades the electric link field for one variable per
plaquette plus (periodic lattices) one winding variable per direction.  The
embedding that reconstructs a link field from dual coordinates is the
backward curl extended by axis-line columns:

    E = emb(L) = curl(L) + axis(L_global).

Its transpose reads the conjugate variables of a link field, the plaquette
circulations and the axis winding sums.  One symmetric integer form follows,
D = emb^T emb, and every quadratic object of the dual description reads it:
the electric energy of a potential is L^T D L, the conjugate fluxes of a
potential are D L, the Coulomb kernel on fluxes is its pseudo-inverse D+
(`modified_greens`), and the flux classes are the cosets of D Z^n.  On
plaquette rows D is the negative plaquette-grid Laplacian corrected by
boundary-seam terms, global rows mix the winding variables with the seam
plaquettes, and its kernel is spanned by the constraints of `constraint_set`
— the residual constraint content of the dual description.  No form carries
the coupling constant, which the Hamiltonian layer applies.

Degree-of-freedom audits count independent constraints on both sides of the
duality in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import rational
from .greens import greens_plaquettes_obc
from .lattice import (
    Lattice,
    axis_indicator_matrix,
    cached,
    cell_coordinates,
    cell_index,
    cube_flux_matrix,
    curl_plaq_to_link_matrix,
    divergence_matrix,
)


@dataclass
class DualEmbedding:
    """Link-field reconstruction map from dual coordinates."""

    lattice: Lattice
    matrix: sp.csr_matrix  # n_links x (n_plaqs + n_globals)
    n_plaqs: int
    n_globals: int


@dataclass
class ConstraintSet:
    """Linear constraints satisfied by physical dual-variable states."""

    lattice: Lattice
    kinds: tuple[str, ...]
    matrix: sp.csr_matrix  # n_constraints x (n_plaqs + n_globals)
    n_independent: int


@cached
def dual_embedding(lat: Lattice) -> DualEmbedding:
    """[backward curl | axis-line columns], integer sparse."""
    W = curl_plaq_to_link_matrix(lat)
    if lat.periodic:
        mat = sp.hstack([W, axis_indicator_matrix(lat)]).tocsr()
    else:
        mat = W.tocsr()
    return DualEmbedding(lat, mat, lat.n_plaqs, lat.n_global_loops)


@cached
def winding_map(lat: Lattice) -> sp.csr_matrix:
    """Axis-line winding sums per direction: n_globals x n_links."""
    return axis_indicator_matrix(lat).T.tocsr()


@cached
def flux_and_winding_map(lat: Lattice) -> sp.csr_matrix:
    """emb^T: circulation rows stacked over winding rows, the dual conjugate extractor."""
    return dual_embedding(lat).matrix.T.tocsr()


@cached
def d_matrix(lat: Lattice) -> sp.csr_matrix:
    """The dual form D = emb^T emb, symmetric and integer.

    Acting on a dual potential it returns the conjugate fluxes of the
    embedded link field, as a quadratic form it is the electric energy of
    that field, and its rows double as integer exponent stencils for the
    compact dual Hamiltonian.
    """
    emb = dual_embedding(lat).matrix
    return (emb.T @ emb).tocsr()


@cached
def modified_greens(lat: Lattice, exact: bool = False):
    """Coulomb kernel D+ on (flux, winding) vectors, the pseudo-inverse of D.

    With 2D open boundaries D is minus the modified plaquette Laplacian,
    which is invertible, and D+ is its Green's table (`greens_plaquettes_obc`);
    elsewhere the pseudo-inverse annuls the constraint kernel of D.  The
    open-boundary potential solve of `helmholtz` reads the same matrix.
    ``exact=True`` gives the Fraction matrix as row tuples.
    """
    if lat.dim == 2 and not lat.periodic:
        table = greens_plaquettes_obc(lat, exact=exact)
        return table.exact if exact else table.values
    D = d_matrix(lat).toarray()
    if exact:
        return tuple(map(tuple, rational.pseudo_inverse_symmetric(D)))  # shared: immutable
    return np.linalg.pinv(D.astype(float))


@cached
def constraint_set(lat: Lattice) -> ConstraintSet:
    """Constraints on dual variables: none (2D open), total flux (2D periodic),
    cube fluxes (3D), plus zero-slice sums (3D periodic)."""
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
    return ConstraintSet(lat, tuple(kinds), mat, n_indep)


def dof_report(lat: Lattice) -> dict:
    """Exact-arithmetic degree-of-freedom audit for both descriptions."""
    gauss_rank = rational.rank(divergence_matrix(lat))
    original = lat.n_links - gauss_rank
    cons = constraint_set(lat)
    n_dual = lat.n_plaqs + lat.n_global_loops
    dual = n_dual - cons.n_independent
    return {
        "lattice": lat.label(),
        "dim": lat.dim,
        "N": lat.N,
        "bc": lat.bc,
        "n_sites": lat.n_sites,
        "n_links": lat.n_links,
        "n_plaqs": lat.n_plaqs,
        "n_globals": lat.n_global_loops,
        "gauss_rank": gauss_rank,
        "original_physical": original,
        "n_dual_variables": n_dual,
        "n_constraints_raw": cons.matrix.shape[0],
        "n_constraints_independent": cons.n_independent,
        "dual_physical": dual,
        "match": original == dual,
    }


# --- integer flux-class structure -------------------------------------------
#
# A link field with integer values and divergence rho maps to the flux/winding
# vector  v = emb^T E.  Over all integer solutions at fixed rho, v ranges over
# one coset of the integer lattice generated by the flux/winding images of the
# elementary divergence-free fields.  Those fields (plaquette loops, plus axis
# lines on periodic lattices) are the columns of emb, so the lattice is
# D·Z^n.  The coset label is a conserved quantity of the flux-variable
# Hamiltonian: plaquette-loop ladders shift v by lattice vectors, and a hop
# along link l shifts v by emb^T delta_l while moving the charge consistently.
# Only one coset per charge configuration corresponds to integer link fields;
# the rest are unphysical copies, so spectral comparisons must match cosets.


@cached
def integer_tree_flow_matrix(lat: Lattice) -> np.ndarray:
    """Integer right-inverse of the divergence on neutral charge vectors.

    Column x is a link field carrying one unit of charge from the origin to
    site x along a staircase spanning tree: first along axis 0, then axis 1,
    then axis 2, always in the + direction.  Every link of the path points
    toward x and holds -1, so the column's divergence is e_x - e_origin and
    ``div(T @ rho) == rho`` exactly for any integer rho with zero total — a
    particular integer solution of the lattice Gauss equation.
    """
    _, x = cell_coordinates(lat, "site")
    T = np.zeros((lat.n_links, lat.n_sites), dtype=np.int64)
    axes = np.arange(lat.dim)[:, None]
    for i in range(lat.dim):
        # the leg along axis i: x_j for j < i, every step 0..x_i - 1 at i, 0 beyond
        site, step = np.nonzero(x[i][:, None] > np.arange(lat.sites_per_side))
        y = np.where(axes < i, x[:, site], 0)
        y[i] = step
        T[cell_index(lat, "link", i, y), site] = -1
    return T


@cached
def flux_offset_map(lat: Lattice) -> np.ndarray:
    """Integer map from a neutral charge vector to its flux-class offset.

    Offset = emb^T applied to the spanning-tree solution of the Gauss
    equation; defined modulo the flux-class lattice.
    """
    fw = flux_and_winding_map(lat).toarray().astype(np.int64)
    return fw @ integer_tree_flow_matrix(lat)


@cached
def _flux_class_snf(lat: Lattice):
    """Smith form (U, D, V) of the flux-class lattice D·Z^n, as tuples of row
    tuples: the cached result is shared, so it must not be mutable."""
    return tuple(tuple(map(tuple, m)) for m in rational.smith_normal_form(d_matrix(lat).toarray()))


@cached
def flux_class_congruences(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Class membership as integer congruences: (W, d) with v in the class
    lattice iff (W·v)_i is divisible by d_i, or vanishes where d_i = 0.

    W is the unimodular U of the Smith form, rows with d_i = 1 (no condition)
    dropped and congruence rows reduced modulo d_i.  The reduction runs on
    Python ints: an entry of U can overflow int64, a reduced row does not.
    """
    u, d, _ = _flux_class_snf(lat)
    n_cols = len(d[0]) if d else 0
    moduli = [abs(d[i][i]) if i < n_cols else 0 for i in range(len(u))]
    kept = [([x % m for x in row] if m else row, m) for row, m in zip(u, moduli) if m != 1]
    w = np.array([row for row, _ in kept], dtype=np.int64).reshape(len(kept), len(u))
    return w, np.array([m for _, m in kept], dtype=np.int64)
