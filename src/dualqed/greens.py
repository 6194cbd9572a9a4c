"""Lattice Green's functions for the site and plaquette Laplacians.

Three table kinds, each a dense symmetric matrix G[x, y]:

- ``site_pbc``: zero-mode-free inverse of the periodic site Laplacian,
  the Fourier sum over nonzero momenta as one inverse FFT.  Rows sum to
  zero, and -lap G = 1 - J/V (J the all-ones matrix): applying it to a
  neutral source inverts the Laplacian exactly.
- ``site_obc``: Moore-Penrose pseudo-inverse of the open-boundary site
  Laplacian (kernel = constants).  Same zero-row-sum normalization.
- ``plaq_obc`` (alias ``modified``): D+ of `dualmap.modified_greens` on a
  2D open lattice, where D is minus the modified plaquette Laplacian, whose
  full -2*dim diagonal makes it nonsingular: a *true* inverse.  Rows do not
  sum to zero; -lap_mod G = 1 exactly.  No other lattice has this kind.

Every table but the float torus one is one formula with one size cap per
lane, `pseudo_inverse`; `refuse_oversized_tables` reads the same caps off a
lattice's cell counts, so a command refuses before it builds any table.
Every kind also exists in exact rational arithmetic for small lattices
(`exact=True`), the same formula on object arrays of int / Fraction
entries; the float `values` are then its ``astype(float)``, each entry
rounded once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rational
from .lattice import Lattice, cached, laplacian_matrix

# Dense-table cutoff: past this many rows a float table or D+ is refused.
DENSE_LIMIT = 4096

# Exact-rational lane is meant for desk-size lattices; Fraction elimination
# beyond this is a sign the caller wanted the float path.
EXACT_LIMIT = 200


@dataclass
class GreensTable:
    """Dense Green's table with its defining normalization.

    `exact` carries the Fraction matrix, a 2-D object array of int /
    Fraction entries, when built in rational mode.  Every array a table
    shares with a cache (`cached`) is read-only.
    """

    lattice: Lattice
    kind: str  # 'site_pbc' | 'site_obc' | 'plaq_obc'
    values: np.ndarray
    normalization: str  # 'zero_row_sum' | 'true_inverse'
    exact: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.values.shape[0]


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


def pseudo_inverse(form, kernel, exact: bool = False) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric integer form A: (A + P)^-1 - P.

    P = K^T (K K^T)^-1 K projects onto ker A, given as the independent rows of
    `kernel` (none: the plain inverse).  A + P is invertible, acts as A on the
    range and as the identity on the kernel, and both summands commute with
    that splitting.  `form` is scipy sparse, `kernel` dense.  The float lane
    inverts with LAPACK; ``exact`` runs the same products on Fraction object
    arrays (`rational.exact_array`, which refuses floats) and inverts by
    Fraction elimination.  Past `DENSE_LIMIT` (float) or `EXACT_LIMIT`
    (exact) rows it refuses before allocating.  Sums are taken in place, so
    the float lane holds three n x n arrays of its own at its peak.
    """
    _refuse_past_cap(np.shape(form)[0], exact)
    if exact:
        A, K, inverse = rational.exact_array(form), rational.exact_array(kernel), rational.invert
    else:
        A, K, inverse = form.astype(float).toarray(), np.asarray(kernel, dtype=float), np.linalg.inv
    if not len(K):
        return inverse(A)
    P = K.T @ inverse(K @ K.T) @ K
    A += P
    G = inverse(A)
    G -= P
    return G


def _refuse_past_cap(n: int, exact: bool) -> None:
    """The refusal of an n-row dense table in the float or the exact lane."""
    if n > (EXACT_LIMIT if exact else DENSE_LIMIT):
        raise ValueError(
            f"exact rational mode supports up to {EXACT_LIMIT} cells, got {n}; use the floating-point tables instead"
            if exact
            else f"dense Green's tables and D+ are capped at {DENSE_LIMIT} rows, got {n}; use a smaller --N"
        )


def refuse_oversized_tables(lat: Lattice, dplus: bool = True, exact: bool = False) -> None:
    """Raise the ValueError `pseudo_inverse` would, before any table is built.

    The caps are read off the lattice's cell counts in the order a command
    meets the tables: the float site table (none on the torus, whose table
    is an FFT), then with ``dplus`` the float D+ (n_plaqs + n_global_loops
    rows), then with ``exact`` the exact table of the potential solve, D+ on
    an open lattice and the site table on the torus.
    """
    n_dplus = lat.n_plaqs + lat.n_global_loops
    if not lat.periodic:
        _refuse_past_cap(lat.n_sites, exact=False)
    if dplus:
        _refuse_past_cap(n_dplus, exact=False)
    if exact:
        _refuse_past_cap(lat.n_sites if lat.periodic else n_dplus, exact=True)


@cached
def greens_sites(lat: Lattice, exact: bool = False) -> GreensTable:
    """Green's table for the site Laplacian (kind site_pbc / site_obc):
    the Fourier sum on a float torus, `pseudo_inverse` with the constants as
    kernel otherwise."""
    kind = _resolve_kind(lat, "site")
    if lat.periodic and not exact:
        N, d = lat.N, lat.dim  # G[x, y] = g(x - y mod N), read through one (N, N) table per axis
        disp = (np.arange(N)[:, None] - np.arange(N)) % N
        axes = tuple(disp.reshape((1,) * i + (N,) + (1,) * (d - 1) + (N,) + (1,) * (d - 1 - i)) for i in range(d))
        vals = _fourier_site_kernel(lat)[axes].reshape(lat.n_sites, lat.n_sites)
        return GreensTable(lat, kind, vals, "zero_row_sum")
    G = pseudo_inverse(-laplacian_matrix(lat, "site"), np.ones((1, lat.n_sites), dtype=np.int64), exact)
    return GreensTable(lat, kind, G.astype(float) if exact else G, "zero_row_sum", exact=G if exact else None)


def _resolve_kind(lat: Lattice, kind: str) -> str:
    """The table kind `kind` names on `lat`: ``site`` follows the boundary and
    ``modified`` is ``plaq_obc``, which only a 2D open lattice yields.  A kind
    the lattice does not yield, or an unknown one, raises ValueError."""
    if kind in ("site_pbc", "site_obc", "site"):
        resolved = "site_pbc" if lat.periodic else "site_obc"
        if kind not in ("site", resolved):
            raise ValueError(f"lattice {lat.label()} yields {resolved}, not {kind}")
        return resolved
    if kind in ("plaq_obc", "modified"):
        if lat.periodic or lat.dim != 2:
            raise ValueError(f"plaq_obc tables are D+ on a 2D open lattice, its one true inverse; not on {lat.label()}")
        return "plaq_obc"
    raise ValueError(f"unknown Green's kind {kind!r}")


def greens_table(lat: Lattice, kind: str, exact: bool = False) -> GreensTable:
    """Kind-dispatching accessor: site_pbc, site_obc, plaq_obc (alias modified, D+)."""
    if _resolve_kind(lat, kind) != "plaq_obc":
        return greens_sites(lat, exact=True) if exact else greens_sites(lat)
    from .dualmap import modified_greens  # dualmap imports this module
    G = modified_greens(lat, exact=True) if exact else modified_greens(lat)
    return GreensTable(lat, "plaq_obc", G.astype(float) if exact else G, "true_inverse", exact=G if exact else None)
