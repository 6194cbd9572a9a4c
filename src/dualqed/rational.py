"""Exact linear algebra over the rationals.

Small dense routines used by the exact-arithmetic lanes: Green's function
tables on tiny lattices, integer rank counts for degree-of-freedom audits,
and pseudo-inverses of singular symmetric operators.  Everything here works
on lists of rows holding :class:`fractions.Fraction` (or int) entries; sizes
stay in the low hundreds, so clarity beats asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import scipy.sparse as sp

RationalMatrix = list[list[Fraction]]


def _as_rows(mat) -> RationalMatrix:
    """Coerce a numpy / scipy / nested-list matrix to Fraction rows.

    Float inputs are rejected: this module is exact-only, and a silent
    float->Fraction conversion would launder rounding error into "exact"
    results.
    """
    if sp.issparse(mat):
        mat = mat.toarray()
    if isinstance(mat, np.ndarray):
        if not np.issubdtype(mat.dtype, np.integer) and mat.dtype != object:
            raise TypeError(f"exact routines need integer/Fraction entries, got dtype {mat.dtype}")
        return [[Fraction(int(v)) if not isinstance(v, Fraction) else v for v in row] for row in mat]
    rows = []
    for row in mat:
        out = []
        for v in row:
            if isinstance(v, float):
                raise TypeError("exact routines need integer/Fraction entries, got float")
            out.append(Fraction(v))
        rows.append(out)
    return rows


def identity(n: int) -> RationalMatrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    n, k, m = len(a), len(b), len(b[0])
    assert len(a[0]) == k
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for p in range(k):
            aip = ai[p]
            if aip == 0:
                continue
            bp = b[p]
            for j in range(m):
                if bp[j]:
                    oi[j] += aip * bp[j]
    return out


def matvec(a: RationalMatrix, v: list[Fraction]) -> list[Fraction]:
    return [sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in a]


def transpose(a: RationalMatrix) -> RationalMatrix:
    return [list(col) for col in zip(*a)]


def invert(mat) -> RationalMatrix:
    """Exact inverse by Gauss-Jordan elimination with nonzero pivoting.

    Raises ValueError on a singular input.
    """
    a = _as_rows(mat)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("invert needs a square matrix")
    aug = [row[:] + ident_row[:] for row, ident_row in zip(a, identity(n))]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular over the rationals")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rank(mat) -> int:
    """Exact rank of an integer matrix via fraction-free Bareiss elimination.

    Runs on a numpy object array of Python ints so the row updates vectorize;
    exact integer division keeps entries bounded (no rational blow-up).
    """
    a = _as_rows(mat)
    rows = len(a)
    if rows == 0:
        return 0
    cols = len(a[0])
    m = np.empty((rows, cols), dtype=object)
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v.denominator != 1:
                # Scale the whole row by the lcm of denominators; rank-invariant.
                from math import lcm

                scale = 1
                for x in row:
                    scale = lcm(scale, x.denominator)
                row = [x * scale for x in row]
            m[i, j] = int(row[j])
    prev_piv = 1
    r = 0
    for c in range(cols):
        piv_row = next((i for i in range(r, rows) if m[i, c] != 0), None)
        if piv_row is None:
            continue
        if piv_row != r:
            m[[r, piv_row]] = m[[piv_row, r]]
        piv = m[r, c]
        if r + 1 < rows:
            block = m[r + 1 :, :]
            col_vals = block[:, c].copy()
            # Bareiss update: (piv * row - col * pivot_row) / prev_piv, exact.
            block[:] = (block * piv - np.outer(col_vals, m[r, :])) // prev_piv
        prev_piv = piv
        r += 1
        if r == rows:
            break
    return r


def nullspace(mat) -> list[list[Fraction]]:
    """Exact rational basis for the right nullspace."""
    a = _as_rows(mat)
    rows, cols = len(a), (len(a[0]) if a else 0)
    a = [row[:] for row in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -a[pr][fc]
        basis.append(vec)
    return basis


def pseudo_inverse_symmetric(mat, kernel: list[list[Fraction]] | None = None) -> RationalMatrix:
    """Exact Moore-Penrose inverse of a symmetric rational matrix.

    Uses the kernel-projector identity A+ = (A + P)^{-1} - P where P is the
    orthogonal projector onto ker A: A + P is invertible, acts as A on the
    range and as the identity on the kernel, and both summands commute with
    the splitting.  `kernel` may supply a known basis; otherwise it is
    computed.
    """
    a = _as_rows(mat)
    n = len(a)
    if kernel is None:
        kernel = nullspace(a)
    if not kernel:
        return invert(a)
    k = transpose([list(v) for v in kernel])  # n x m, columns span the kernel
    ktk = matmul(transpose(k), k)
    proj = matmul(matmul(k, invert(ktk)), transpose(k))
    shifted = [[a[i][j] + proj[i][j] for j in range(n)] for i in range(n)]
    inv = invert(shifted)
    return [[inv[i][j] - proj[i][j] for j in range(n)] for i in range(n)]


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of an integer matrix: returns (U, D, V) with U·A·V = D.

    U and V are unimodular, D is diagonal with d_1 | d_2 | ... | d_r and zeros
    after the rank.  Used to decide membership of a vector in the integer
    column lattice of A: v lies in A·Z^m  iff  (U·v)_i is divisible by d_i for
    i <= r and vanishes beyond.  Classic pivot-shrinking elimination on Python
    ints; sizes here are tiny.
    """
    a0 = _as_rows(mat)
    if any(v.denominator != 1 for row in a0 for v in row):
        raise TypeError("smith_normal_form needs integer entries")
    rows = len(a0)
    cols = len(a0[0]) if rows else 0
    a = [[int(v) for v in row] for row in a0]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]
    t = 0
    while t < min(rows, cols):
        # Bring the smallest-magnitude nonzero of the trailing block to (t, t).
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        u[t], u[bi] = u[bi], u[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        for row in v:
            row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t]:
                q = a[i][t] // piv
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if a[i][t]:
                    dirty = True  # nonzero remainder became the new smallest entry
        for j in range(t + 1, cols):
            if a[t][j]:
                q = a[t][j] // piv
                for row in a:
                    row[j] -= q * row[t]
                for row in v:
                    row[j] -= q * row[t]
                if a[t][j]:
                    dirty = True
        if dirty:
            continue
        # Pivot must divide the whole trailing block for the divisor chain.
        stray = next(
            ((i, j) for i in range(t + 1, rows) for j in range(t + 1, cols) if a[i][j] % piv),
            None,
        )
        if stray is not None:
            i = stray[0]
            a[t] = [x + y for x, y in zip(a[t], a[i])]
            u[t] = [x + y for x, y in zip(u[t], u[i])]
            continue
        t += 1
    return u, a, v


def integer_image_mask(snf: tuple[list[list[int]], ...], vecs: np.ndarray) -> np.ndarray:
    """Which columns of an integer array lie in the integer column lattice A·Z^m.

    `snf` is the (U, D, V) triple from :func:`smith_normal_form` of A; a
    column v is a member iff (U·v)_i is divisible by d_i for i <= rank and
    vanishes beyond.  Arithmetic stays in the dtype of `vecs` (int64, or
    object for Python ints).
    """
    if vecs.dtype.kind not in "iO":
        raise TypeError("integer image membership needs integer entries")
    u, d, _ = snf
    n_cols = len(d[0]) if d else 0
    w = np.array(u, dtype=vecs.dtype) @ vecs
    divisors = np.array([d[i][i] if i < n_cols else 0 for i in range(len(u))], dtype=vecs.dtype)
    pivots = divisors != 0
    return np.all(w[~pivots] == 0, axis=0) & np.all(w[pivots] % divisors[pivots, None] == 0, axis=0)


def in_integer_image(snf: tuple[list[list[int]], list[list[int]], list[list[int]]], vec) -> bool:
    """Whether an integer vector lies in the integer column lattice A·Z^m."""
    column = np.array([int(x) for x in vec], dtype=object)[:, None]
    return bool(integer_image_mask(snf, column)[0])


def to_float(mat: RationalMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in mat], dtype=float)
