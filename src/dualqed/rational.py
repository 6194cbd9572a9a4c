"""Exact linear algebra over the rationals.

`rank` and `nullspace` run one exact sparse integer elimination
(`_eliminate`).  Their inputs are lattice maps and the constraint and
energy forms built from them: up to thousands of rows with a handful of
nonzeros each (the divergence has two per column).  Rows are stored as
``{col: int}`` dicts.  Pivots are chosen Markowitz-style, least
(row nnz - 1)·(col nnz - 1), unit entries first, ties broken by (row, col),
so results are deterministic.  Row updates are fraction-free and each
updated row is divided by the gcd of its entries.  Incidence and curl
matrices are totally unimodular, so fill and entry growth stay small.

`kernel_dimension` counts the nullspace of the Laplacian-like dual form D,
where fraction-free entries grow past a thousand bits, without that
elimination.  The caller supplies integer rows known to span the kernel
(the dual constraints), and the count is certified by two bounds that
meet:
- lower: an exact integer product shows the rows lie in the kernel, so
  nullity_Q >= rank_Q(rows) >= rank_p(rows);
- upper: rank_p(mat) <= rank_Q(mat) for any prime p, because a minor
  nonzero mod p is nonzero over Z, so nullity_Q <= n - rank_p(mat).
Ranks mod p come from dense int64 row reduction with p = 2^31 - 1 (after
Dumas, Giorgi & Pernet, ACM TOMS 35(3) 19, 2008).  When the bounds miss
(an unlucky prime, or rows that do not span the kernel) a second prime is
tried, then `_eliminate`, which also takes over when a row is not in the
kernel; no count is returned without the certificate or the elimination.

The dense routines -- `invert`, `pseudo_inverse_symmetric` and products --
serve the exact Green's and shift tables on desk-size lattices, and the
integer Smith normal form gives the congruences of the flux-class lattice
(`dualmap.flux_class_congruences`).  They work on lists of rows holding
:class:`fractions.Fraction` (or int) entries.

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

RationalMatrix = list[list[Fraction]]


def _as_rows(mat) -> RationalMatrix:
    """Coerce a numpy / scipy / nested-list matrix to Fraction rows.

    Float entries raise TypeError (`_exact_entry`), in object arrays too.
    """
    if sp.issparse(mat):
        mat = mat.toarray()
    if isinstance(mat, np.ndarray):
        mat = mat.tolist()
    return [[Fraction(_exact_entry(v)) for v in row] for row in mat]


def _exact_entry(v) -> int | Fraction:
    if isinstance(v, numbers.Integral):
        return int(v)
    if isinstance(v, Fraction):
        return v
    raise TypeError(f"exact routines need integer/Fraction entries, got {type(v).__name__}")


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
    n_cols = mat.shape[1] if isinstance(mat, np.ndarray) else len(mat[0]) if len(mat) else 0
    rows = _as_rows(mat)
    if any(len(row) != n_cols for row in rows):
        raise ValueError("rows of unequal length")
    return [_primitive({j: v for j, v in enumerate(row) if v}) for row in rows], n_cols


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


def nullspace(mat) -> list[list[Fraction]]:
    """Exact rational basis of the right nullspace, one vector per free column.

    Runs the sparse integer elimination of `rank`; the vector of free column
    f is 1 at f, 0 at the other free columns, and its pivot entries come
    from back substitution in reverse pivot order.  Free columns are taken
    in ascending order.
    """
    rows, n_cols = _integer_rows(mat)
    pivots = _eliminate(rows)
    pivot_cols = {j for j, _ in pivots}
    basis = []
    for f in range(n_cols):
        if f in pivot_cols:
            continue
        x = {f: Fraction(1)}
        for j, prow in reversed(pivots):
            s = sum(v * x[k] for k, v in prow.items() if k in x)
            if s:
                x[j] = -s / prow[j]
        vec = [Fraction(0)] * n_cols
        for k, v in x.items():
            vec[k] = v
        basis.append(vec)
    return basis


# Word-size primes of the modular rank, tried in order.  Entries reduced mod
# p are below 2^31, so every product in an int64 row update is below 2^62.
_PRIMES = (2**31 - 1, 2**31 - 19)


def _rank_mod(rows: list[dict[int, int]], n_cols: int, p: int) -> int:
    """Rank over GF(p) of integer rows, by dense int64 row reduction.

    The pivot of each column is the first remaining row with a nonzero
    there; only the rows below that share the column are updated, and only
    in the pivot row's nonzero columns, so banded lattice matrices stay
    cheap.
    """
    a = np.zeros((len(rows), n_cols), dtype=np.int64)
    for i, row in enumerate(rows):
        a[i, list(row)] = [v % p for v in row.values()]
    r = 0
    for j in range(n_cols):
        if r == len(rows):
            break
        nz = np.flatnonzero(a[r:, j])
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        below = r + nz[1:]
        if below.size:
            cols = j + np.flatnonzero(a[r, j:])
            factors = a[below, j] * pow(int(a[r, j]), p - 2, p) % p
            block = np.ix_(below, cols)
            a[block] = (a[block] - np.outer(factors, a[r, cols])) % p
        r += 1
    return r


def _annihilates(rows: list[dict[int, int]], kernel_rows: list[dict[int, int]]) -> bool:
    """Whether the matrix with integer `rows` maps every row of
    `kernel_rows` to zero, in exact integer arithmetic."""
    by_col: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for j, v in row.items():
            by_col.setdefault(j, []).append((i, v))
    for vec in kernel_rows:
        image: dict[int, int] = {}
        for j, w in vec.items():
            for i, v in by_col.get(j, ()):
                image[i] = image.get(i, 0) + v * w
        if any(image.values()):
            return False
    return True


def kernel_dimension(mat, kernel_rows) -> int:
    """Exact dimension of the right nullspace of `mat`, certified by
    integer rows expected to span it.

    If `mat` maps every row K of `kernel_rows` to zero (exact integer
    product), then rank_p(K) <= nullity_Q(mat) <= n - rank_p(mat) for each
    prime p of `_PRIMES`, and the first p at which the two ends meet proves
    the count.  Otherwise the count comes from `_eliminate`.  Entries may be
    int or Fraction; float input raises TypeError.
    """
    rows, n_cols = _integer_rows(mat)
    kernel, k_cols = _integer_rows(kernel_rows)
    if kernel and k_cols != n_cols:
        raise ValueError(f"kernel rows have {k_cols} columns, the matrix {n_cols}")
    if _annihilates(rows, kernel):
        for p in _PRIMES:
            upper = n_cols - _rank_mod(rows, n_cols, p)
            if upper == _rank_mod(kernel, n_cols, p):
                return upper
    return n_cols - len(_eliminate(rows))


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


def to_float(mat: RationalMatrix) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in mat], dtype=float)
