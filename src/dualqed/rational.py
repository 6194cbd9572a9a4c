"""Exact linear algebra over the rationals.

`rank` runs a row-by-row fraction-free echelon reduction of sparse integer
rows (`_eliminate`).  Its inputs are lattice maps and the constraint rows
built from them: up to thousands of rows with a handful of nonzeros each
(the divergence has two per column).  Rows are stored as ``{col: int}``
dicts.  Each row in turn is reduced against the pivot row of its least
column until it vanishes or its least column has none; it is then kept,
divided by the gcd of its entries, as that column's pivot row.  Pivot rows
come out in ascending column order, each with its other entries in later
columns.  There is no pivot search.  Incidence and curl matrices are
totally unimodular, so every entry met stays ±1, and their natural row
order keeps fill small; the result depends only on the order of the rows.

The nullity of the dual form D is counted without eliminating D, which is
not unimodular: at 3D N=4 periodic its pivot rows hold 66-bit entries and
its rank costs over a hundred times that of emb.  D = emb^T emb
(`dualmap.d_matrix`), so for rational x, Dx = 0 iff |emb x|^2 = 0 iff
emb x = 0: dim ker D = n - rank(emb), and emb is a curl/axis incidence
matrix that `rank` eliminates cheaply.

The dense routines are `invert`, the inverse of the exact lane of
`greens.pseudo_inverse` (the exact Green's tables, Coulomb kernel and shift
tables on desk-size lattices), and the integer Smith normal form, which
gives the congruences of the flux-class lattice
(`dualmap.flux_class_congruences`).  They take and return 2-D numpy object
arrays of int / :class:`fractions.Fraction` entries (`exact_array`), so
products, transposes and sums are numpy's ``@``, ``.T`` and ``+``: an exact
formula is its float twin run on object arrays.

Float input raises TypeError: a silent float->Fraction conversion would
launder rounding error into "exact" results.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import scipy.sparse as sp


def exact_array(mat) -> np.ndarray:
    """A 2-D object array of the int / Fraction entries of a numpy, scipy
    sparse or nested-list matrix.

    Float entries raise TypeError (`_exact_entry`), in object arrays and
    sparse input too; rows of unequal length raise ValueError.
    """
    if sp.issparse(mat):
        mat = mat.toarray()
    arr = np.array(mat, dtype=object)
    if arr.ndim != 2:
        raise ValueError("exact routines need a matrix with rows of equal length")
    return np.frompyfunc(_exact_entry, 1, 1)(arr)


def _exact_entry(v) -> int | Fraction:
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, Fraction):
        return v
    raise TypeError(f"exact routines need integer/Fraction entries, got {type(v).__name__}")


def invert(mat) -> np.ndarray:
    """Exact inverse by Gauss-Jordan elimination with nonzero pivoting.

    Each step updates only the rows with a nonzero in the pivot column, and
    only in the pivot row's nonzero columns.  Raises ValueError on a
    singular input.
    """
    a = exact_array(mat)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("invert needs a square matrix")
    aug = np.hstack([a, np.identity(n, dtype=object)])
    for col in range(n):
        nz = np.flatnonzero(aug[col:, col])
        if not nz.size:
            raise ValueError("matrix is singular over the rationals")
        aug[[col, col + nz[0]]] = aug[[col + nz[0], col]]
        aug[col] = aug[col] / Fraction(aug[col, col])
        rows = np.flatnonzero(aug[:, col])
        rows = rows[rows != col]
        cols = np.flatnonzero(aug[col])
        aug[np.ix_(rows, cols)] -= np.multiply.outer(aug[rows, col], aug[col, cols])
    return aug[:, n:].copy()  # not a view: the caller keeps no n x 2n array alive


def _primitive(entries: dict[int, int | Fraction]) -> dict[int, int]:
    """Clear the denominators of one sparse row, then divide out its content."""
    scale = lcm(*(v.denominator for v in entries.values()))
    row = {j: int(v * scale) for j, v in entries.items()}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _integer_rows(mat) -> tuple[list[dict[int, int]], int]:
    """Sparse integer rows ``{col: int}`` of an exact matrix, and its column
    count.

    Integer scipy sparse matrices and integer ndarrays are read from a
    canonical CSR copy (duplicates summed, zeros dropped) as they are: the
    elimination divides out the content of each row it keeps.  Object arrays
    and nested lists of int / Fraction are made primitive row by row (lcm of
    the denominators, then gcd), which changes neither rank nor nullspace.
    Float input raises TypeError, sparse included.
    """
    if sp.issparse(mat) or (isinstance(mat, np.ndarray) and mat.dtype.kind in "iu"):
        if mat.dtype.kind not in "iu":
            raise TypeError(f"exact routines need integer entries, got sparse dtype {mat.dtype}")
        csr = sp.csr_matrix(mat, copy=True)  # summed in place below, never the caller's arrays
        csr.sum_duplicates()
        csr.eliminate_zeros()
        indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
        return [dict(zip(indices[a:b], data[a:b])) for a, b in zip(indptr, indptr[1:])], csr.shape[1]
    arr = exact_array(mat)
    return [_primitive({j: v for j, v in enumerate(row) if v}) for row in arr.tolist()], arr.shape[1]


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Row-by-row fraction-free echelon reduction of integer rows (consumed).

    Each row in turn is reduced against the pivot row of its least column,
    ``a·row - b·pivot_row`` with a, b the two entries over their gcd, until
    that column has no pivot row, where the row is kept divided by its
    content, or the row vanishes.

    Returns (pivot column, pivot row) in ascending column order.  A pivot
    row's other entries lie in later columns, so back substitution in reverse
    order solves for each pivot column in turn.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            j = min(row)
            prow = pivots.get(j)
            if prow is None:
                g = gcd(*row.values())
                pivots[j] = {k: v // g for k, v in row.items()} if g > 1 else row
                break
            g = gcd(prow[j], row[j])
            a, b = prow[j] // g, row[j] // g
            if a != 1:
                row = {k: a * v for k, v in row.items()}
            for k, v in prow.items():
                new = row.get(k, 0) - b * v
                if new:
                    row[k] = new
                else:
                    del row[k]
    return sorted(pivots.items())


def rank(mat) -> int:
    """Exact rank: the number of pivot rows of the row-by-row fraction-free
    echelon reduction (`_eliminate`)."""
    rows, _ = _integer_rows(mat)
    return len(_eliminate(rows))


def smith_normal_form(mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form of an integer matrix: returns (U, D, V) with U·A·V = D.

    U and V are unimodular, D is diagonal with d_1 | d_2 | ... | d_r and zeros
    after the rank.  Used to decide membership of a vector in the integer
    column lattice of A: v lies in A·Z^m  iff  (U·v)_i is divisible by d_i for
    i <= r and vanishes beyond.  Classic pivot-shrinking elimination on
    object arrays of Python ints, which do not overflow; sizes here are tiny.
    """
    a = exact_array(mat)
    if any(v.denominator != 1 for v in a.flat):
        raise TypeError("smith_normal_form needs integer entries")
    a = np.frompyfunc(int, 1, 1)(a)
    rows, cols = a.shape
    u, v = np.identity(rows, dtype=object), np.identity(cols, dtype=object)
    t = 0
    while t < min(rows, cols):
        # Bring the first smallest-magnitude nonzero of the trailing block to (t, t).
        block = np.abs(a[t:, t:])
        nz = np.flatnonzero(block)
        if not nz.size:
            break
        bi, bj = divmod(int(nz[np.argmin(block.flat[nz])]), cols - t)
        a[[t, t + bi]] = a[[t + bi, t]]
        u[[t, t + bi]] = u[[t + bi, t]]
        a[:, [t, t + bj]] = a[:, [t + bj, t]]
        v[:, [t, t + bj]] = v[:, [t + bj, t]]
        if a[t, t] < 0:
            a[t], u[t] = -a[t], -u[t]
        piv = a[t, t]
        q = a[t + 1 :, t] // piv
        a[t + 1 :] -= np.multiply.outer(q, a[t])
        u[t + 1 :] -= np.multiply.outer(q, u[t])
        q = a[t, t + 1 :] // piv
        a[:, t + 1 :] -= np.multiply.outer(a[:, t], q)
        v[:, t + 1 :] -= np.multiply.outer(v[:, t], q)
        if a[t + 1 :, t].any() or a[t, t + 1 :].any():
            continue  # a nonzero remainder became the new smallest entry
        # Pivot must divide the whole trailing block for the divisor chain.
        stray = np.flatnonzero(a[t + 1 :, t + 1 :] % piv)
        if stray.size:
            i = t + 1 + int(stray[0]) // (cols - t - 1)
            a[t] += a[i]
            u[t] += u[i]
            continue
        t += 1
    return u, a, v
