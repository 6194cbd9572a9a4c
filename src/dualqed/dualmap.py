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

from . import greens, rational
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

    `greens.pseudo_inverse` with the `constraint_set` rows as the kernel of
    D, less the surplus first row on a 3D torus, whose cube rows sum to zero.
    In 2D open there are no rows, and D+ is the modified plaquette Green's
    table.  The open-boundary potential solve of `helmholtz` reads the same
    matrix.  ``exact=True`` gives the Fraction matrix as an object array.
    """
    cons = constraint_set(lat)
    kernel = cons.matrix[cons.matrix.shape[0] - cons.n_independent :].toarray()
    return greens.pseudo_inverse(d_matrix(lat), kernel, exact)


@cached
def constraint_set(lat: Lattice) -> ConstraintSet:
    """Constraints on dual variables: none (2D open), total flux (2D periodic),
    cube fluxes (3D), plus zero-slice sums (3D periodic).

    One sparse integer matrix: the cube map's CSR rows, then one row of ones
    per plaquette mask.  The winding columns hold no entry."""
    n_plaq = lat.n_plaqs
    K = cube_flux_matrix(lat) if lat.dim == 3 else sp.csr_matrix((0, n_plaq), dtype=np.int64)
    if not lat.periodic:
        masks = {}
    elif lat.dim == 2:
        masks = {"total_flux": np.ones(n_plaq, dtype=bool)}
    else:
        normals, corners = cell_coordinates(lat, "plaquette")
        masks = {f"slice_sum_{i}": (normals == i) & (corners[i] == 0) for i in range(3)}
    sums = [np.flatnonzero(mask) for mask in masks.values()]
    indptr = np.concatenate([K.indptr, K.nnz + np.cumsum([s.size for s in sums], dtype=np.int64)])
    indices = np.concatenate([K.indices, *sums])
    data = np.concatenate([K.data, np.ones(indices.size - K.nnz, dtype=np.int64)])
    kinds = ("cube_flux",) * K.shape[0] + tuple(masks)
    mat = sp.csr_matrix((data, indices, indptr), shape=(len(kinds), n_plaq + lat.n_global_loops))
    mat.eliminate_zeros()  # a cube's faces cancel in pairs on a one-cell torus
    return ConstraintSet(lat, kinds, mat, rational.rank(mat))


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
def _flux_class_snf(lat: Lattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith form (U, D, V) of the flux-class lattice D·Z^n, object arrays of
    Python ints."""
    return rational.smith_normal_form(d_matrix(lat))


@cached
def flux_class_congruences(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Class membership as integer congruences: (W, d) with v in the class
    lattice iff (W·v)_i is divisible by d_i, or vanishes where d_i = 0.

    W is the unimodular U of the Smith form, rows with d_i = 1 (no condition)
    dropped and congruence rows reduced modulo d_i.  The reduction runs on
    Python ints: an entry of U can overflow int64, a reduced row lies below
    its modulus.  The moduli grow with the lattice (66 bits on the 2D open
    N=10 lattice), and a modulus or kept entry past int64 raises ValueError
    naming its bit length.
    """
    u, d, _ = _flux_class_snf(lat)
    moduli = np.zeros(len(u), dtype=object)
    moduli[: min(d.shape)] = np.abs(d.diagonal())
    kept = moduli != 1
    w, moduli = u[kept], moduli[kept]
    congruent = moduli != 0
    w[congruent] %= moduli[congruent, None]
    largest = int(max(moduli.max(initial=0), np.abs(w).max(initial=0)))
    if largest >= 2**63:
        raise ValueError(
            f"the flux-class congruences of {lat.label()} need a {largest.bit_length()}-bit integer, "
            "past the 63 bits of int64"
        )
    return w.astype(np.int64), moduli.astype(np.int64)
