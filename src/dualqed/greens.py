"""Lattice Green's functions for the site and plaquette Laplacians.

Three table kinds, each a dense symmetric matrix G[x, y]:

- ``site_pbc``: zero-mode-free inverse of the periodic site Laplacian,
  the Fourier sum over nonzero momenta as one inverse FFT.  Rows sum to
  zero, and -lap G = 1 - J/V (J the all-ones matrix): applying it to a
  neutral source inverts the Laplacian exactly.
- ``site_obc``: Moore-Penrose pseudo-inverse of the open-boundary site
  Laplacian (kernel = constants).  Same zero-row-sum normalization.
- ``plaq_obc`` (alias ``modified``): *true* inverse of the modified
  open-boundary plaquette Laplacian, whose full -2*dim diagonal makes it
  nonsingular.  Rows do not sum to zero; -lap_mod G = 1 exactly.

Every kind also exists in exact rational arithmetic for small lattices
(`exact=True`), produced by Fraction elimination rather than floating
pseudo-inverses; the float `values` then round the exact entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse.linalg as spla

from . import rational
from .lattice import (
    FieldVector,
    Lattice,
    cached,
    laplacian_matrix,
    sites,
)

# Dense-table cutoff: above this many cells, poisson_solve falls back to
# conjugate gradients instead of materializing (and caching) an n x n table.
DENSE_LIMIT = 4096

# Exact-rational lane is meant for desk-size lattices; Fraction elimination
# beyond this is a sign the caller wanted the float path.
EXACT_LIMIT = 200


class NeutralityError(ValueError):
    """Raised when a site-kind Poisson source has nonzero total charge."""


@dataclass
class GreensTable:
    """Dense Green's table with its defining normalization.

    `exact` carries the Fraction matrix, as row tuples, when built in
    rational mode: tables are cached and shared, so it must not be mutable.
    """

    lattice: Lattice
    kind: str  # 'site_pbc' | 'site_obc' | 'plaq_obc'
    values: np.ndarray
    normalization: str  # 'zero_row_sum' | 'true_inverse'
    exact: tuple[tuple[Fraction, ...], ...] | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _check_exact_size(n: int):
    if n > EXACT_LIMIT:
        raise ValueError(
            f"exact rational mode supports up to {EXACT_LIMIT} cells, got {n}; "
            "use the floating-point tables instead"
        )


def _fourier_site_kernel(lat: Lattice) -> np.ndarray:
    """g(r) = (1/N^d) sum_{k != 0} cos(2 pi k.r / N) / sum_i (2 - 2 cos(2 pi k_i / N)).

    One inverse FFT of 1/denom(k) with the k = 0 term set to zero; denom is
    even in k, so the transform is real.  Returned on the displacement grid
    of shape (N,)*dim.
    """
    lam = 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(lat.N) / lat.N)
    denom = lam
    for _ in range(lat.dim - 1):
        denom = np.add.outer(denom, lam)
    denom.flat[0] = 1.0
    inv = 1.0 / denom
    inv.flat[0] = 0.0
    return np.fft.ifftn(inv).real


@cached
def greens_sites(lat: Lattice, exact: bool = False) -> GreensTable:
    """Green's table for the site Laplacian (kind site_pbc / site_obc)."""
    n = lat.n_sites
    kind = "site_pbc" if lat.periodic else "site_obc"
    if exact:
        _check_exact_size(n)
        A = (-laplacian_matrix(lat, "site")).toarray()
        ker = [[Fraction(1)] * n]
        G = rational.pseudo_inverse_symmetric(A, kernel=ker)
        return GreensTable(lat, kind, rational.to_float(G), "zero_row_sum", exact=tuple(map(tuple, G)))
    if lat.periodic:
        kernel = _fourier_site_kernel(lat)
        coords = np.array(sites(lat))
        disp = (coords[:, None, :] - coords[None, :, :]) % lat.N
        vals = kernel[tuple(disp[..., ax] for ax in range(lat.dim))]
        return GreensTable(lat, kind, vals, "zero_row_sum")
    if n > DENSE_LIMIT:
        raise ValueError(f"dense Green's tables capped at {DENSE_LIMIT} sites; use poisson_solve")
    A = (-laplacian_matrix(lat, "site")).toarray().astype(float)
    w, V = np.linalg.eigh(A)
    inv = np.where(w > 1e-9, 1.0 / np.where(w > 1e-9, w, 1.0), 0.0)
    G = (V * inv) @ V.T
    return GreensTable(lat, kind, G, "zero_row_sum")


@cached
def greens_plaquettes_obc(lat: Lattice, exact: bool = False) -> GreensTable:
    """True inverse of the modified open-boundary plaquette Laplacian."""
    if lat.periodic:
        raise ValueError("plaq_obc tables are an open-boundary object")
    n = lat.n_plaqs
    A = -laplacian_matrix(lat, "plaquette")
    if exact:
        _check_exact_size(n)
        G = rational.invert(A.toarray())
        return GreensTable(lat, "plaq_obc", rational.to_float(G), "true_inverse", exact=tuple(map(tuple, G)))
    if n > DENSE_LIMIT:
        raise ValueError(f"dense Green's tables capped at {DENSE_LIMIT} plaquettes")
    G = np.linalg.inv(A.toarray().astype(float))
    return GreensTable(lat, "plaq_obc", G, "true_inverse")


@cached
def greens_plaquette_grid(lat: Lattice, exact: bool = False) -> GreensTable:
    """Zero-row-sum Green's table on the periodic plaquette grid.

    Each same-orientation plaquette family of a periodic lattice tiles its
    own torus with the site-grid geometry, so the table is the site table
    (block-repeated per orientation in 3D).  Used by the transverse-potential
    solve on periodic lattices.
    """
    if not lat.periodic:
        raise ValueError("the plaquette-grid table is a periodic object; see plaq_obc")
    base = greens_sites(lat, exact=exact)
    if lat.dim == 2:
        return GreensTable(lat, "plaq_grid", base.values, "zero_row_sum", exact=base.exact)
    blocks = [base.values] * 3
    vals = np.block(
        [
            [blocks[i] if i == j else np.zeros_like(base.values) for j in range(3)]
            for i in range(3)
        ]
    )
    exact_mat = None
    if base.exact is not None:
        n = lat.n_sites
        zero = Fraction(0)
        exact_mat = tuple(
            tuple(base.exact[r % n][c % n] if r // n == c // n else zero for c in range(3 * n))
            for r in range(3 * n)
        )
    return GreensTable(lat, "plaq_grid", vals, "zero_row_sum", exact=exact_mat)


def greens_table(lat: Lattice, kind: str, exact: bool = False) -> GreensTable:
    """Kind-dispatching accessor: site_pbc, site_obc, plaq_obc (alias modified)."""
    if kind in ("site_pbc", "site_obc", "site"):
        table = greens_sites(lat, exact=exact)
        if kind != "site" and table.kind != kind:
            raise ValueError(f"lattice {lat.label()} yields {table.kind}, not {kind}")
        return table
    if kind in ("plaq_obc", "modified"):
        return greens_plaquettes_obc(lat, exact=exact)
    raise ValueError(f"unknown Green's kind {kind!r}")


def poisson_solve(lat: Lattice, rhs: FieldVector, kind: str = "site") -> FieldVector:
    """Solve the (modified) Poisson problem for the given source.

    site kinds: requires a neutral source (NeutralityError otherwise) and
    returns the zero-mean potential with -lap f = rhs.  plaq_obc: inverts the
    modified plaquette Laplacian, no neutrality involved.  Falls back to
    conjugate gradients above the dense-table limit.
    """
    if kind in ("site", "site_pbc", "site_obc"):
        if rhs.kind != "site":
            raise ValueError(f"site Poisson solve needs a site field, got {rhs.kind}")
        total = float(np.sum(rhs.values))
        scale = float(np.abs(rhs.values).sum()) or 1.0
        if abs(total) > 1e-9 * scale:
            raise NeutralityError(
                f"site source must be neutral: total charge {total:g}"
            )
        if lat.n_sites <= DENSE_LIMIT:
            G = greens_sites(lat)
            return FieldVector(lat, "site", G.values @ rhs.values)
        A = (-laplacian_matrix(lat, "site")).astype(float).tocsr()
        b = rhs.values - rhs.values.mean()
        x, info = spla.cg(A, b, rtol=1e-12, atol=0.0, maxiter=10 * lat.n_sites)
        if info != 0:
            raise RuntimeError(f"conjugate gradients did not converge (info={info})")
        return FieldVector(lat, "site", x - x.mean())
    if kind in ("plaq_obc", "modified"):
        if rhs.kind != "plaquette":
            raise ValueError("plaq_obc Poisson solve needs a plaquette field")
        if lat.n_plaqs <= DENSE_LIMIT:
            G = greens_plaquettes_obc(lat)
            return FieldVector(lat, "plaquette", G.values @ rhs.values)
        A = (-laplacian_matrix(lat, "plaquette")).astype(float).tocsr()
        x, info = spla.cg(A, rhs.values, rtol=1e-12, atol=0.0, maxiter=10 * lat.n_plaqs)
        if info != 0:
            raise RuntimeError(f"conjugate gradients did not converge (info={info})")
        return FieldVector(lat, "plaquette", x)
    raise ValueError(f"unknown Poisson kind {kind!r}")
