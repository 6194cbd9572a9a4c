"""Helmholtz decomposition of link fields and per-link shift tables.

A link field F splits into a longitudinal part (gradient of a site
potential) and a transverse part (curl of a plaquette potential, plus — on
periodic lattices — a uniform piece living on the noncontractible loops):

    F = -grad(phi) + curl(L) + loops,   phi = G_site (div F).

The plaquette potential has three layers:

- ``L_plaq``: Green's function applied to the circulation of F.  Periodic
  lattices apply the zero-row-sum site table to each orientation block of
  plaquettes: each same-normal family tiles its own torus with the site-grid
  geometry and numbering.  Open lattices use the Coulomb
  kernel D+ of `dualmap.modified_greens`: there the embedding is the
  backward curl, so D = C C^T is the curl-curl normal system, whose
  pseudo-inverse solves it where it is consistent.  In 2D that is the true
  inverse of the modified plaquette Laplacian; in 3D D is singular, and the
  componentwise modified inverse would fail to reconstruct at open
  boundaries.
- ``L_const`` (periodic only): a fixed ramp pattern that spreads each
  direction's mean field through the transverse directions, lower transverse
  axis first.  Its curl reproduces the constant field away from the seam and
  cancels against the loop term on it.
- ``global_loops`` (periodic only): one value per direction, the mean field
  S_i / N placed on the axis line through the origin.

The potential and the global loop values are one linear map of F, the
dual-coordinate map T (`dual_coordinate_map`): solver·circulation +
ramp·direction sums on plaquettes, direction sums / N on the axis lines.
That formula is written once (`_dual_coordinates`): the exact lane is the
float formula run on object arrays of Fractions, from the exact Green's
tables and the exact ramp, whose ``astype(float)`` is the float ramp.

The *shift table* of a link is T's column for that link, the formula
applied to its unit indicator field: the response pattern through which
transverse fluctuations enter dual-variable hopping terms.  Shift tables
exist in float and exact rational arithmetic; entries are stored unwrapped
so that reconstruction stays a linear identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .dualmap import dual_embedding, flux_and_winding_map, modified_greens
from .greens import greens_sites
from .lattice import (
    FieldVector,
    Lattice,
    cached,
    cell_coordinates,
    cell_index,
    curl_link_to_plaq_matrix,
    direction_sum_matrix,
    divergence_matrix,
    gradient_matrix,
)


@dataclass
class Decomposition:
    """Full Helmholtz split of one link field."""

    lattice: Lattice
    field: FieldVector
    phi: FieldVector  # site potential (zero mean)
    longitudinal: FieldVector
    transverse: FieldVector
    potential: FieldVector  # plaquette: L_plaq + L_const, globals attached


@dataclass
class ShiftTable:
    """Decomposition of a unit link field into plaquette/global shifts."""

    lattice: Lattice
    site: tuple[int, ...]
    direction: int
    link: int
    shifts: np.ndarray  # combined plaquette shifts (L_plaq + L_const)
    global_shifts: np.ndarray | None  # one per direction (periodic only)
    exact_shifts: np.ndarray | None = None  # object arrays of int / Fraction
    exact_global: np.ndarray | None = None


# ---------------------------------------------------------------------------
# Ramp (constant-field) potentials on periodic lattices
# ---------------------------------------------------------------------------


@cached
def ramp_matrix(lat: Lattice, exact: bool = False) -> np.ndarray:
    """n_plaqs x dim: column i is the plaquette ramp sourced by S_i, so
    multiplying by the direction sums S yields L_const.

    Entries are integer multiples of 1/N^2 and 1/N^3, Fractions in the exact
    table; open lattices have no ramp and get zeros.  The float table is the
    exact one cast entry by entry: ``float`` of a Fraction is correctly
    rounded, as is the float quotient y / N^k of two exactly representable
    integers, so each entry equals that quotient bit for bit.
    """
    if not exact:
        return ramp_matrix(lat, exact=True).astype(float)
    R = np.zeros((lat.n_plaqs, lat.dim), dtype=object)
    if not lat.periodic:
        return R
    N = lat.N
    sq, cu = Fraction(1, N**2), Fraction(1, N**3)
    normals, corners = cell_coordinates(lat, "plaquette")
    for row, normal, y in zip(R, normals.tolist(), corners.T.tolist()):
        if lat.dim == 2 or (normal == 2 and y[2] == 0):
            row[0] = y[1] * sq
            row[1] = -y[0] * sq
        elif normal == 1:
            row[0] = -y[2] * cu
            if y[1] == 0:
                row[2] = y[0] * sq
        elif normal == 0:
            row[1] = y[2] * cu
            row[2] = -y[1] * cu
    return R


# ---------------------------------------------------------------------------
# The dual-coordinate formula
# ---------------------------------------------------------------------------


def _solve_potential(lat: Lattice, circulation: np.ndarray, exact: bool = False) -> np.ndarray:
    """L_plaq of a plaquette circulation (one field or a matrix of field
    columns), from the float or the exact Green's tables.  Periodic: the
    site table applied to each orientation block, since each same-normal
    plaquette family tiles its own torus like the sites do; the blocks sit
    side by side as the columns of one product."""
    if not lat.periodic:
        return (modified_greens(lat, exact=True) if exact else modified_greens(lat)) @ circulation
    G = greens_sites(lat, exact=True).exact if exact else greens_sites(lat).values
    n = lat.n_sites
    blocks = np.moveaxis(circulation.reshape(-1, n, *circulation.shape[1:]), 0, 1)  # (n, orientation[, field])
    # a C-order right factor, as GEMM rounds by layout; a view when there is one block
    L = (G @ np.ascontiguousarray(blocks.reshape(n, -1))).reshape(blocks.shape)
    return np.moveaxis(L, 1, 0).reshape(circulation.shape)


def _dense(product) -> np.ndarray:
    return product.toarray() if sp.issparse(product) else product


def _dual_coordinates(lat: Lattice, X, exact: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Plaquette and (periodic only) global coordinates of the link field(s) X.

    solver·circulation + ramp·S on plaquettes and S / N on the axis lines,
    with S the direction sums.  X is one field or a matrix of field columns,
    dense or sparse (densified after the curl and the sums).  With ``exact``
    X must be integer, and the same products run on the Fraction tables as
    object arrays.
    """
    if exact and X.dtype.kind not in "iu":
        raise TypeError(f"exact dual coordinates need an integer link field, got {X.dtype}")
    L = _solve_potential(lat, _dense(curl_link_to_plaq_matrix(lat) @ X), exact)
    if not lat.periodic:
        return L, None
    S = _dense(direction_sum_matrix(lat) @ X)
    return L + ramp_matrix(lat, exact=exact) @ S, S / (Fraction(lat.N) if exact else lat.N)


@cached
def dual_coordinate_map(lat: Lattice) -> np.ndarray:
    """The matrix T of `_dual_coordinates`: the formula applied to the links' unit fields.

    Rows: plaquette coordinates (L_plaq + L_const), then — periodic only —
    the global loop coordinates.  Column n is the shift table of link n.
    This is the linear map whose pairing with the circulation + winding
    functionals emb^T is canonical (`canonical_pairing_matrix`).
    """
    L, loops = _dual_coordinates(lat, sp.identity(lat.n_links, format="csr"))
    return L if loops is None else np.vstack([L, loops])


# ---------------------------------------------------------------------------
# Decomposition
# ---------------------------------------------------------------------------


def helmholtz_decompose(lat: Lattice, F: FieldVector) -> Decomposition:
    """Split a link field into longitudinal + transverse (+ loop) parts."""
    if F.kind != "link":
        raise ValueError(f"decomposition acts on link fields, got {F.kind}")
    div = divergence_matrix(lat) @ F.values
    phi = greens_sites(lat).values @ div
    longitudinal = -(gradient_matrix(lat) @ phi)
    transverse = F.values - longitudinal
    L, loops = _dual_coordinates(lat, F.values)
    return Decomposition(
        lattice=lat,
        field=F.copy(),
        phi=FieldVector(lat, "site", phi),
        longitudinal=FieldVector(lat, "link", longitudinal),
        transverse=FieldVector(lat, "link", transverse),
        potential=FieldVector(lat, "plaquette", L, loops),
    )


def reconstruct_transverse(potential: FieldVector) -> FieldVector:
    """The dual embedding applied to [L; global loop values]: curl(L) plus
    the axis lines of the global values (taken as 0 when absent)."""
    if potential.kind != "plaquette":
        raise ValueError("reconstruction needs a plaquette potential")
    lat = potential.lattice
    loops = np.zeros(lat.n_global_loops) if potential.global_values is None else potential.global_values
    return FieldVector(lat, "link", dual_embedding(lat).matrix @ np.concatenate([potential.values, loops]))


# ---------------------------------------------------------------------------
# Shift tables
# ---------------------------------------------------------------------------


def _unit_field(lat: Lattice, link: int) -> np.ndarray:
    unit = np.zeros(lat.n_links)
    unit[link] = 1.0
    return unit


def link_shift_table(
    lat: Lattice, site: tuple[int, ...], direction: int, exact: bool = False
) -> ShiftTable:
    """Shift table of the link at `site` pointing along `direction`.

    The dual-coordinate formula applied to the link's unit field: column
    ``link`` of `dual_coordinate_map`.  With ``exact`` the same formula also
    runs on the integer unit field and the rational Green's tables.
    """
    n = int(cell_index(lat, "link", direction, site))
    unit = _unit_field(lat, n)
    shifts, loops = _dual_coordinates(lat, unit)
    table = ShiftTable(lat, tuple(site), direction, n, shifts, loops)
    if exact:
        table.exact_shifts, table.exact_global = _dual_coordinates(lat, unit.astype(np.int64), exact=True)
        _check_exact_float_agreement(table)
    return table


def _check_exact_float_agreement(table: ShiftTable):
    if np.abs(table.exact_shifts.astype(float) - table.shifts).max() > 1e-9:
        raise AssertionError(
            "exact and floating shift tables disagree; Green's tables are inconsistent"
        )


def shift_reconstruction_residual(table: ShiftTable) -> float:
    """Max deviation of the shift-table reconstruction from the transverse
    part of the link's unit field (`helmholtz_decompose`).

    Zero (to rounding) by construction; exposed so consistency can be
    audited per link from the command line.
    """
    lat = table.lattice
    pot = FieldVector(lat, "plaquette", table.shifts, table.global_shifts)
    recon = reconstruct_transverse(pot).values
    transverse = helmholtz_decompose(lat, FieldVector(lat, "link", _unit_field(lat, table.link))).transverse
    return float(np.abs(recon - transverse.values).max())


def transverse_component_via_shifts(lat: Lattice, F: FieldVector) -> np.ndarray:
    """Evaluate the transverse part of F through the shift tables: T^T emb^T F.

    Pairs each link's plaquette shifts with the circulation of F and its
    global shifts with the axis winding sums of F — the contraction pattern
    by which transverse field content enters dual hopping terms.  Agrees
    with the transverse part of `helmholtz_decompose` (`checks`:
    ``shift_pairing_reproduces_transverse_part``).
    """
    return dual_coordinate_map(lat).T @ (flux_and_winding_map(lat) @ F.values)


@cached
def canonical_pairing_matrix(lat: Lattice) -> np.ndarray:
    """Pairing of conjugate fluxes with dual-coordinate extraction: emb^T T^T.

    Rows: flux/winding functionals; columns: dual-coordinate responses.
    Open 2D boundaries give the exact identity.  Periodic lattices give the
    identity on the zero-sum flux sector: the plaquette block is
    1 - J/n_plaqs, cross blocks vanish or are constant along rows, and the
    winding block is exactly 1.
    """
    return (flux_and_winding_map(lat) @ dual_coordinate_map(lat).T).astype(float)
