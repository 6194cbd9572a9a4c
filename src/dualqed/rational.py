"""Exact linear algebra over the rationals.

`rank` runs an exact sparse integer elimination (`_eliminate`).  Its
inputs are lattice maps and the constraint rows built from them: up to
thousands of rows with a handful of nonzeros each (the divergence has two
per column).  Rows are stored as ``{col: int}`` dicts.  Pivots are chosen
Markowitz-style, least (row nnz - 1)·(col nnz - 1), unit entries first,
ties broken by (row, col), so results are deterministic.  Row updates are fraction-free and each
updated row is divided by the gcd of its entries.  Incidence and curl
matrices are totally unimodular, so fill and entry growth stay small.

The nullity of the dual form D is counted without eliminating D, whose
fraction-free entries grow past a thousand bits.  D = emb^T emb
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

import heapq
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
    """Sparse primitive integer rows ``{col: int}`` of an exact matrix, and its
    column count.

    Accepts scipy sparse matrices with integer dtype, integer or object
    ndarrays and nested lists of int / Fraction.  Scaling a row by the lcm of
    its denominators and dividing by the gcd of its entries changes neither
    rank nor nullspace.  Float input raises TypeError, sparse included.
    """
    if isinstance(mat, np.ndarray) and mat.dtype.kind in "iu":
        mat = sp.csr_matrix(mat)
    if sp.issparse(mat):
        if mat.dtype.kind not in "iu":
            raise TypeError(f"exact routines need integer entries, got sparse dtype {mat.dtype}")
        csr = mat.tocsr()
        indptr, indices, data = csr.indptr.tolist(), csr.indices.tolist(), csr.data.tolist()
        rows = []
        for i in range(csr.shape[0]):
            row: dict[int, int] = {}
            for j, v in zip(indices[indptr[i] : indptr[i + 1]], data[indptr[i] : indptr[i + 1]]):
                row[j] = row.get(j, 0) + v  # a non-canonical CSR may repeat a column
            rows.append(_primitive({j: v for j, v in row.items() if v}))
        return rows, csr.shape[1]
    arr = exact_array(mat)
    return [_primitive({j: v for j, v in enumerate(row) if v}) for row in arr.tolist()], arr.shape[1]


def _eliminate(rows: list[dict[int, int]]) -> list[tuple[int, dict[int, int]]]:
    """Sparse fraction-free Gaussian elimination of integer rows (consumed).

    Markowitz pivoting: the next pivot is the nonzero with the least
    (row nnz - 1)·(col nnz - 1) over the rows and columns not yet
    eliminated, unit entries preferred, ties broken by (row, col), so the
    result is deterministic.  Every other row through the pivot column
    becomes ``a·row - b·pivot_row`` (a, b the two entries over their gcd) and
    is divided by the gcd of its entries.  Candidates sit in a heap keyed by
    that rule; an entry whose row or column changed is pushed again with its
    new key and outdated ones are skipped when popped.

    Returns (pivot column, pivot row) in pivot order.  A pivot row holds its
    pivot and entries in columns eliminated later or never, so back
    substitution in reverse pivot order solves for each pivot column in turn.
    """
    live = {i: row for i, row in enumerate(rows) if row}
    where: dict[int, set[int]] = {}  # column -> live rows with a nonzero in it
    for i, row in live.items():
        for j in row:
            where.setdefault(j, set()).add(i)

    # The key (cost, non-unit, row, col) packed into one int, which the heap
    # compares faster than a tuple.
    n_rows, n_cols = len(rows), 1 + max(where, default=0)

    def key(i: int, j: int) -> int:
        row = live[i]
        cost = (len(row) - 1) * (len(where[j]) - 1)
        return ((2 * cost + (row[j] not in (1, -1))) * n_rows + i) * n_cols + j

    heap = [key(i, j) for i, row in live.items() for j in row]
    heapq.heapify(heap)
    pivots = []
    while heap:
        entry = heapq.heappop(heap)
        rest, j = divmod(entry, n_cols)
        i = rest % n_rows
        if j not in live.get(i, ()) or key(i, j) != entry:
            continue  # outdated: the entry is gone or has a newer key in the heap
        prow = live.pop(i)
        for k in prow:
            where[k].discard(i)
        pivots.append((j, prow))
        p = prow[j]
        updated = sorted(where.pop(j))
        for t in updated:
            row = live[t]
            g = gcd(p, row[j])
            a, b = p // g, row.pop(j) // g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in prow.items():
                if k == j:
                    continue
                new = row.get(k, 0) - b * v
                if new:
                    if k not in row:
                        where[k].add(t)
                    row[k] = new
                elif k in row:
                    del row[k]
                    where[k].discard(t)
            g = gcd(*row.values())
            if g > 1:
                for k in row:
                    row[k] //= g
            if not row:
                del live[t]
        # Re-key what moved: every entry of an updated row (its length and
        # values changed) and every entry in a column of the pivot row (its
        # count changed).
        updated = {t for t in updated if t in live}
        for t in updated:
            for k in live[t]:
                heapq.heappush(heap, key(t, k))
        for k in prow:
            if k != j:
                for t in where[k]:
                    if t not in updated:
                        heapq.heappush(heap, key(t, k))
    return pivots


def rank(mat) -> int:
    """Exact rank: the number of pivots of the sparse integer elimination
    (`_eliminate`, Markowitz pivots, fraction-free row updates)."""
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
