"""Maps between link fields and redundancy-free dual variables.

The dual description trades the electric link field for one variable per
plaquette plus (periodic lattices) one winding variable per direction.  The
embedding that reconstructs a link field from dual coordinates is the
backward curl extended by axis-line columns:

    E = curl(L) + axis(L_global).

Composing the circulation + winding functionals with that embedding yields
the symmetric integer interaction matrix D: plaquette rows carry the
negative plaquette-grid Laplacian corrected by boundary-seam terms, global
rows mix the winding variables with the seam plaquettes, and (on periodic
lattices) the all-ones plaquette vector spans part of its kernel — the
residual constraint content of the dual description.

The quadratic electric energy in dual variables is governed by two forms:
``A0 = emb^T emb`` acting on potentials, and the condensed kernel
``Gtilde = D+ A0 D+`` acting on the conjugate (flux + winding) variables.
The two give identical energies on consistent data (the `checks` entry
``quadratic_form_equivalence``); neither carries the coupling constant,
which the Hamiltonian layer applies.

Degree-of-freedom audits count independent constraints on both sides of the
duality in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import rational
from .helmholtz import dual_coordinate_map
from .lattice import (
    Lattice,
    axis_indicator_matrix,
    cached,
    cube_flux_matrix,
    curl_link_to_plaq_matrix,
    curl_plaq_to_link_matrix,
    divergence_matrix,
    link_index,
    plaquettes,
    shift_site,
    site_index,
    sites,
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
    """Circulation rows stacked over winding rows: the dual conjugate extractor."""
    C = curl_link_to_plaq_matrix(lat)
    if lat.periodic:
        return sp.vstack([C, winding_map(lat)]).tocsr()
    return C.tocsr()


@cached
def d_matrix(lat: Lattice) -> sp.csr_matrix:
    """Symmetric integer form: (flux + winding) of the embedding of each coordinate.

    Acting on a dual potential it returns the conjugate fluxes of the
    embedded link field; its rows double as integer exponent stencils for
    the compact dual Hamiltonian.
    """
    return (flux_and_winding_map(lat) @ dual_embedding(lat).matrix).tocsr()


@cached
def transverse_energy_form(lat: Lattice) -> sp.csr_matrix:
    """A0 = emb^T emb: electric energy form on dual potentials (no coupling)."""
    emb = dual_embedding(lat).matrix
    return (emb.T @ emb).tocsr()


@cached
def modified_greens(lat: Lattice, exact: bool = False):
    """Condensed energy kernel Gtilde = D+ A0 D+ on (flux, winding) vectors.

    With 2D open boundaries D is the (invertible) modified plaquette
    Laplacian and Gtilde is its true inverse; elsewhere the pseudo-inverse
    handles the constraint kernel, and energies agree with the A0 route on
    all consistent data because ker D lies inside ker A0.  ``exact=True``
    gives the Fraction matrix as row tuples.
    """
    D = d_matrix(lat).toarray()
    A0 = transverse_energy_form(lat).toarray()
    if exact:
        Dp = rational.pseudo_inverse_symmetric(D)
        G = rational.matmul(rational.matmul(Dp, rational._as_rows(A0)), Dp)
        return tuple(map(tuple, G))  # shared: immutable
    Dp = np.linalg.pinv(D.astype(float))
    return Dp @ A0 @ Dp


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
            for i in range(3):
                vec = np.zeros(width, dtype=np.int64)
                for p, (x, normal) in enumerate(plaquettes(lat)):
                    if normal == i and x[i] == 0:
                        vec[p] = 1
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


@cached
def canonical_pairing_matrix(lat: Lattice) -> np.ndarray:
    """Pairing of conjugate fluxes with dual-coordinate extraction.

    Rows: flux/winding functionals; columns: dual-coordinate responses.
    Open 2D boundaries give the exact identity.  Periodic lattices give the
    identity on the zero-sum flux sector: the plaquette block is
    1 - J/n_plaqs, cross blocks vanish or are constant along rows, and the
    winding block is exactly 1.
    """
    T = dual_coordinate_map(lat)
    return (flux_and_winding_map(lat) @ T.T).astype(float)


def d_kernel(lat: Lattice) -> list[list[Fraction]]:
    """Exact rational basis of ker D (the dual gauge content of potentials)."""
    return rational.nullspace(d_matrix(lat))


# --- integer flux-class structure -------------------------------------------
#
# A link field with integer values and divergence rho maps to the flux/winding
# vector  v = [circulation; winding] E.  Over all integer solutions at fixed
# rho, v ranges over one coset of the integer lattice generated by the
# flux/winding images of the elementary divergence-free fields (plaquette
# loops, plus axis lines on periodic lattices).  The coset label is a
# conserved quantity of the flux-variable Hamiltonian: plaquette-loop ladders
# shift v by lattice vectors, and a hop along link l shifts v by
# [circulation; winding] delta_l while moving the charge consistently.  Only
# one coset per charge configuration corresponds to integer link fields; the
# rest are unphysical copies, so spectral comparisons must match cosets.


@cached
def integer_tree_flow_matrix(lat: Lattice) -> np.ndarray:
    """Integer right-inverse of the divergence on neutral charge vectors.

    Column x is a link field carrying one unit of charge from the first site
    to site x along a spanning tree, so ``div(T @ rho) == rho`` exactly for
    any integer rho with zero total — a particular integer solution of the
    lattice Gauss equation.
    """
    all_sites = sites(lat)
    n = len(all_sites)
    parent: dict[int, tuple[int, int, int] | None] = {0: None}
    order = [0]
    queue = [0]
    while queue:
        s = queue.pop(0)
        x = all_sites[s]
        for axis in range(lat.dim):
            for step in (+1, -1):
                nb = shift_site(lat, x, axis, step)
                if nb is None:
                    continue
                t = site_index(lat, nb)
                if t in parent:
                    continue
                # link always stored at the lower endpoint of the step;
                # root-ward unit flow needs +1 when the link's tail is the child
                if step == +1:
                    ell, sign = link_index(lat, x, axis), -1
                else:
                    ell, sign = link_index(lat, nb, axis), +1
                parent[t] = (s, ell, sign)
                order.append(t)
                queue.append(t)
    if len(order) != n:
        raise RuntimeError("site graph is disconnected")  # pragma: no cover
    T = np.zeros((lat.n_links, n), dtype=np.int64)
    for x_idx in range(1, n):
        t = x_idx
        while parent[t] is not None:
            s, ell, sign = parent[t]
            # unit flow from x toward the root: +1 when the link points
            # child -> parent, i.e. against the BFS step direction
            T[ell, x_idx] += sign
            t = s
    return T


@cached
def loop_field_basis(lat: Lattice) -> np.ndarray:
    """Integer generators of divergence-free link fields.

    Columns: one elementary circulation loop per plaquette (rows of the
    forward curl, read as link fields) plus, on periodic lattices, one
    straight winding line per direction.
    """
    cols = [curl_link_to_plaq_matrix(lat).toarray().T.astype(np.int64)]
    if lat.periodic:
        cols.append(axis_indicator_matrix(lat).toarray().astype(np.int64))
    return np.hstack(cols)


@cached
def flux_offset_map(lat: Lattice) -> np.ndarray:
    """Integer map from a neutral charge vector to its flux-class offset.

    Offset = [circulation; winding] applied to the spanning-tree solution of
    the Gauss equation; defined modulo the flux-class lattice.
    """
    fw = flux_and_winding_map(lat).toarray().astype(np.int64)
    return fw @ integer_tree_flow_matrix(lat)


@cached
def _flux_class_snf(lat: Lattice):
    """Smith form (U, D, V) of the flux-class lattice, as tuples of row
    tuples: the cached result is shared, so it must not be mutable."""
    fw = flux_and_winding_map(lat).toarray().astype(np.int64)
    span = fw @ loop_field_basis(lat)
    return tuple(tuple(map(tuple, m)) for m in rational.smith_normal_form(span))


def flux_class_contains(lat: Lattice, vec) -> bool:
    """Whether an integer flux/winding vector lies in the zero-offset class lattice."""
    ints = [int(x) for x in vec]
    if any(i != x for i, x in zip(ints, vec)):
        raise TypeError("flux class membership needs integer entries")
    return rational.in_integer_image(_flux_class_snf(lat), ints)


@cached
def flux_class_congruences(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Class membership as integer congruences: (W, d) with v in the class
    lattice iff (W·v)_i is divisible by d_i, or vanishes where d_i = 0.

    W is the unimodular U of the Smith form, rows with d_i = 1 (no condition)
    dropped and congruence rows reduced modulo d_i.
    """
    u, d, _ = _flux_class_snf(lat)
    n_cols = len(d[0]) if d else 0
    moduli = np.array([abs(d[i][i]) if i < n_cols else 0 for i in range(len(u))], dtype=np.int64)
    keep = moduli != 1
    w, moduli = np.array(u, dtype=np.int64)[keep], moduli[keep]
    congruent = moduli > 0
    w[congruent] %= moduli[congruent, None]
    return w, moduli
