"""Helmholtz decomposition of link fields and per-link shift tables.

A link field F splits into a longitudinal part (gradient of a site
potential) and a transverse part (curl of a plaquette potential, plus — on
periodic lattices — a uniform piece living on the noncontractible loops):

    F = -grad(phi) + curl(L) + loops,   phi = G_site (div F).

The plaquette potential has three layers:

- ``L_plaq``: Green's function applied to the circulation of F.  Periodic
  lattices use the zero-row-sum grid table; 2D open lattices use the true
  inverse of the modified plaquette Laplacian; 3D open lattices solve the
  (singular but consistent) curl-curl normal system with its pseudo-inverse,
  since the componentwise modified inverse fails to reconstruct at open
  boundaries in 3D.
- ``L_const`` (periodic only): a fixed ramp pattern that spreads each
  direction's mean field through the transverse directions, lower transverse
  axis first.  Its curl reproduces the constant field away from the seam and
  cancels against the loop term on it.
- ``global_loops`` (periodic only): one value per direction, the mean field
  S_i / N placed on the axis line through the origin.

The *shift table* of a link is the decomposition of that link's unit
indicator field: the response pattern through which transverse fluctuations
enter dual-variable hopping terms.  Shift tables exist in float and exact
rational arithmetic; entries are stored unwrapped so that reconstruction
stays a linear identity.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import rational
from .greens import (
    greens_plaquette_grid,
    greens_plaquettes_obc,
    greens_sites,
)
from .lattice import (
    FieldVector,
    Lattice,
    axis_indicator_matrix,
    cached,
    curl_link_to_plaq_matrix,
    curl_plaq_to_link_matrix,
    direction_sum_matrix,
    divergence_matrix,
    gradient_matrix,
    link_index,
    links,
    plaquettes,
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
    exact_shifts: list[Fraction] | None = None
    exact_global: list[Fraction] | None = None


# ---------------------------------------------------------------------------
# Ramp (constant-field) potentials on periodic lattices
# ---------------------------------------------------------------------------


@cached
def ramp_matrix(lat: Lattice) -> np.ndarray:
    """n_plaqs x dim matrix: column i is the plaquette ramp sourced by S_i.

    Multiplying by the vector of direction sums S yields L_const.  Entries
    are exact integer multiples of 1/N^2 and 1/N^3, stored as floats; the
    exact lane rebuilds them as Fractions.
    """
    N = lat.N
    out = np.zeros((lat.n_plaqs, lat.dim))
    if not lat.periodic:
        return out
    for p, plaq in enumerate(plaquettes(lat)):
        if lat.dim == 2:
            y = plaq
            out[p, 0] = y[1] / N**2
            out[p, 1] = -y[0] / N**2
        else:
            y, normal = plaq
            if normal == 2:
                if y[2] == 0:
                    out[p, 0] = y[1] / N**2
                    out[p, 1] = -y[0] / N**2
            elif normal == 1:
                out[p, 0] = -y[2] / N**3
                if y[1] == 0:
                    out[p, 2] = y[0] / N**2
            else:  # normal == 0
                out[p, 1] = y[2] / N**3
                out[p, 2] = -y[1] / N**3
    return out


def _ramp_matrix_exact(lat: Lattice) -> list[list[Fraction]]:
    N = lat.N
    sq, cu = Fraction(1, N**2), Fraction(1, N**3)
    rows = []
    for plaq in plaquettes(lat):
        row = [Fraction(0)] * lat.dim
        if lat.dim == 2:
            y = plaq
            row[0] = y[1] * sq
            row[1] = -y[0] * sq
        else:
            y, normal = plaq
            if normal == 2:
                if y[2] == 0:
                    row[0] = y[1] * sq
                    row[1] = -y[0] * sq
            elif normal == 1:
                row[0] = -y[2] * cu
                if y[1] == 0:
                    row[2] = y[0] * sq
            else:
                row[1] = y[2] * cu
                row[2] = -y[1] * cu
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Transverse potential solvers
# ---------------------------------------------------------------------------


@cached
def _curl_curl_pinv(lat: Lattice) -> np.ndarray:
    """Pseudo-inverse of C C^T for the 3D open-boundary potential solve."""
    C = curl_link_to_plaq_matrix(lat).toarray().astype(float)
    return np.linalg.pinv(C @ C.T)


@cached
def _curl_curl_pinv_exact(lat: Lattice) -> tuple[tuple[Fraction, ...], ...]:
    C = curl_link_to_plaq_matrix(lat).toarray()
    return tuple(map(tuple, rational.pseudo_inverse_symmetric(C @ C.T)))  # shared: immutable


def _potential_solver_matrix(lat: Lattice) -> np.ndarray:
    """Dense matrix mapping a plaquette circulation to L_plaq."""
    if lat.periodic:
        return greens_plaquette_grid(lat).values
    if lat.dim == 2:
        return greens_plaquettes_obc(lat).values
    return _curl_curl_pinv(lat)


def _potential_solver_exact(lat: Lattice) -> Sequence[Sequence[Fraction]]:
    if lat.periodic:
        return greens_plaquette_grid(lat, exact=True).exact
    if lat.dim == 2:
        return greens_plaquettes_obc(lat, exact=True).exact
    return _curl_curl_pinv_exact(lat)


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

    circulation = curl_link_to_plaq_matrix(lat) @ F.values
    L_plaq = _potential_solver_matrix(lat) @ circulation
    if lat.periodic:
        S = direction_sum_matrix(lat) @ F.values
        L_const = ramp_matrix(lat) @ S
        global_loops = S / lat.N
        potential = FieldVector(lat, "plaquette", L_plaq + L_const, global_loops)
    else:
        potential = FieldVector(lat, "plaquette", L_plaq)
    return Decomposition(
        lattice=lat,
        field=F.copy(),
        phi=FieldVector(lat, "site", phi),
        longitudinal=FieldVector(lat, "link", longitudinal),
        transverse=FieldVector(lat, "link", transverse),
        potential=potential,
    )


def reconstruct_transverse(potential: FieldVector) -> FieldVector:
    """curl(L) plus the axis embedding of the global loop values."""
    if potential.kind != "plaquette":
        raise ValueError("reconstruction needs a plaquette potential")
    lat = potential.lattice
    vals = curl_plaq_to_link_matrix(lat) @ potential.values
    if potential.global_values is not None:
        vals = vals + axis_indicator_matrix(lat) @ potential.global_values
    return FieldVector(lat, "link", vals)


@cached
def transverse_projector(lat: Lattice) -> sp.csr_matrix:
    """Idempotent link-space projector onto divergence-free fields.

    P = 1 + grad G_site div; its complement projects onto gradients.
    """
    G = greens_sites(lat).values
    grad = gradient_matrix(lat).toarray().astype(float)
    div = divergence_matrix(lat).toarray().astype(float)
    return sp.csr_matrix(np.eye(lat.n_links) + grad @ G @ div)


@cached
def dual_coordinate_map(lat: Lattice) -> np.ndarray:
    """Matrix sending a link field to its stacked potential coordinates.

    Rows: plaquette coordinates (L_plaq + L_const), then — periodic only —
    the global loop coordinates.  This is the linear map whose pairing with
    the circulation + winding functionals is canonical.
    """
    C = curl_link_to_plaq_matrix(lat).toarray().astype(float)
    T_plaq = _potential_solver_matrix(lat) @ C
    if not lat.periodic:
        return T_plaq
    dirsum = direction_sum_matrix(lat).toarray().astype(float)
    T_plaq = T_plaq + ramp_matrix(lat) @ dirsum
    T_glob = dirsum / lat.N
    return np.vstack([T_plaq, T_glob])


# ---------------------------------------------------------------------------
# Shift tables
# ---------------------------------------------------------------------------


def link_shift_table(
    lat: Lattice, site: tuple[int, ...], direction: int, exact: bool = False
) -> ShiftTable:
    """Shift table of the link at `site` pointing along `direction`.

    Float path: decompose the unit indicator field.  Exact path: the same
    pipeline in Fraction arithmetic via the rational Green's tables.
    """
    n = link_index(lat, site, direction)
    unit = np.zeros(lat.n_links)
    unit[n] = 1.0
    dec = helmholtz_decompose(lat, FieldVector(lat, "link", unit))
    table = ShiftTable(
        lattice=lat,
        site=tuple(site),
        direction=direction,
        link=n,
        shifts=dec.potential.values.copy(),
        global_shifts=(
            None
            if dec.potential.global_values is None
            else dec.potential.global_values.copy()
        ),
    )
    if exact:
        solver = _potential_solver_exact(lat)
        C = curl_link_to_plaq_matrix(lat)
        circ = [Fraction(int(v)) for v in C.toarray()[:, n]]
        L = rational.matvec(solver, circ)
        if lat.periodic:
            ramp = _ramp_matrix_exact(lat)
            for p in range(lat.n_plaqs):
                L[p] += ramp[p][direction]  # S_i of a unit link field is delta_i
            table.exact_global = [
                Fraction(1, lat.N) if i == direction else Fraction(0)
                for i in range(lat.dim)
            ]
        table.exact_shifts = L
        _check_exact_float_agreement(table)
    return table


def _check_exact_float_agreement(table: ShiftTable):
    approx = np.array([float(v) for v in table.exact_shifts])
    if np.abs(approx - table.shifts).max() > 1e-9:
        raise AssertionError(
            "exact and floating shift tables disagree; Green's tables are inconsistent"
        )


@cached
def all_shift_tables(lat: Lattice, exact: bool = False) -> tuple[ShiftTable, ...]:
    """Shift tables of every link, in link order."""
    return tuple(link_shift_table(lat, x, i, exact=exact) for (x, i) in links(lat))


def shift_reconstruction_residual(table: ShiftTable) -> float:
    """Max deviation of the shift-table reconstruction from P_T (unit link).

    Zero (to rounding) by construction; exposed so consistency can be
    audited per link from the command line.
    """
    lat = table.lattice
    pot = FieldVector(lat, "plaquette", table.shifts, table.global_shifts)
    recon = reconstruct_transverse(pot).values
    unit = np.zeros(lat.n_links)
    unit[table.link] = 1.0
    target = transverse_projector(lat) @ unit
    return float(np.abs(recon - target).max())


def transverse_component_via_shifts(lat: Lattice, F: FieldVector) -> np.ndarray:
    """Evaluate P_T F link by link through shift tables.

    Pairs each link's plaquette shifts with the circulation of F and its
    global shifts with the axis winding sums of F — the contraction pattern
    by which transverse field content enters dual hopping terms.  Agrees
    with the projector applied directly (`checks`:
    ``shift_pairing_reproduces_transverse_part``).
    """
    circulation = curl_link_to_plaq_matrix(lat) @ F.values
    winds = None
    if lat.periodic:
        winds = axis_indicator_matrix(lat).T @ F.values
    out = np.zeros(lat.n_links)
    for t in all_shift_tables(lat):
        val = float(t.shifts @ circulation)
        if winds is not None and t.global_shifts is not None:
            val += float(t.global_shifts @ winds)
        out[t.link] = val
    return out
