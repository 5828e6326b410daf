"""Exact linear algebra over Z/N, built on the Howell normal form.

Z/N is not a field, so plain Gaussian elimination loses solutions.  The
Howell form of a matrix H over Z/N is an echelon form with two extra
guarantees that make it the right tool here:

  * pivot entries divide N, entries above a pivot are reduced modulo it;
  * for every j, the span elements whose first j coordinates vanish are
    generated by the rows of H with pivot column >= j.

The second property is what makes span membership, kernels and solving
linear systems complete over composite N.  All routines work on small
dense int64 matrices; rows are row vectors and spans are row spans.
"""

from __future__ import annotations

from math import gcd

import numpy as np


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def inv_mod(a: int, N: int) -> int:
    g, s, _ = ext_gcd(a % N, N)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {N}")
    return s % N


def unit_factor(a: int, N: int) -> int:
    """A unit u mod N with u*a = gcd(a, N) mod N.

    Every residue decomposes as unit * divisor-of-N; this recovers the unit's
    inverse. Used to normalize Howell pivots to divisors of N.
    """
    a %= N
    if a == 0:
        return 1
    d = gcd(a, N)
    c = a // d  # coprime to N/d
    step = N // d
    v = c % N
    while gcd(v, N) != 1:
        v = (v + step) % N
    return inv_mod(v, N)


def howell(mat, N: int) -> np.ndarray:
    """Howell normal form of the row span of `mat` over Z/N."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64)) % N
    ncols = mat.shape[1]
    todo = [r.copy() for r in mat if r.any()]
    placed: list[tuple[int, np.ndarray]] = []
    for col in range(ncols):
        keep = []
        current = None
        for r in todo:
            if r[col] == 0:
                keep.append(r)
                continue
            if current is None:
                current = r
                continue
            a, b = int(current[col]), int(r[col])
            g, s, t = ext_gcd(a, b)
            nc = (s * current + t * r) % N
            nr = ((a // g) * r - (b // g) * current) % N
            current = nc
            if nr.any():
                keep.append(nr)
        if current is not None:
            current = (unit_factor(int(current[col]), N) * current) % N
            d = int(current[col])
            ann = ((N // d) * current) % N  # catches span elements supported past col
            if ann.any():
                keep.append(ann)
            placed.append((col, current))
        todo = keep
    # entries above each pivot reduced modulo the pivot
    for i, (col_i, row_i) in enumerate(placed):
        d = int(row_i[col_i])
        for j in range(i):
            col_j, row_j = placed[j]
            q = int(row_j[col_i]) // d
            if q:
                placed[j] = (col_j, (row_j - q * row_i) % N)
    if not placed:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array([r for _, r in placed], dtype=np.int64)


def pivot_columns(H: np.ndarray) -> list[int]:
    return [int(np.nonzero(r)[0][0]) for r in H]


def reduce_vector(H: np.ndarray, v, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce v against a Howell form H; return (residue, coefficients).

    residue == 0 iff v lies in the row span, in which case
    coefficients @ H = v mod N.
    """
    v = np.asarray(v, dtype=np.int64) % N
    coeffs = np.zeros(H.shape[0], dtype=np.int64)
    for i, row in enumerate(H):
        col = int(np.nonzero(row)[0][0])
        a = int(v[col])
        if a == 0:
            continue
        d = int(row[col])
        if a % d:
            break  # pivot divides N, so non-divisibility is final
        q = a // d
        coeffs[i] = q
        v = (v - q * row) % N
    return v, coeffs


def in_span(H: np.ndarray, v, N: int) -> bool:
    residue, _ = reduce_vector(H, v, N)
    return not residue.any()


def span_size(H: np.ndarray, N: int) -> int:
    size = 1
    for i, col in enumerate(pivot_columns(H)):
        size *= N // int(H[i, col])
    return size


def enumerate_span(H: np.ndarray, N: int, ncols: int | None = None):
    """Yield every vector of the row span exactly once (no fixed order)."""
    if ncols is None:
        ncols = H.shape[1] if H.size else 0
    if H.shape[0] == 0:
        yield np.zeros(ncols, dtype=np.int64)
        return
    ranges = [N // int(H[i, col]) for i, col in enumerate(pivot_columns(H))]
    acc = np.zeros((1, ncols), dtype=np.int64)
    for row, r in zip(H, ranges):
        acc = (acc[:, None, :] + np.arange(r)[None, :, None] * row[None, None, :]) % N
        acc = acc.reshape(-1, ncols)
    yield from acc


def solve(A, b, N: int) -> np.ndarray | None:
    """A particular solution x of A @ x = b mod N, or None."""
    return SpanSolver(np.atleast_2d(np.asarray(A, dtype=np.int64)).T, N).solve(b)


def kernel(A, N: int) -> np.ndarray:
    """Howell basis of {x : A @ x = 0 mod N} (rows are kernel vectors)."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64)) % N
    nrows, nunk = A.shape
    aug = np.hstack([A.T, np.eye(nunk, dtype=np.int64)])
    H = howell(aug, N)
    rows = [r[nrows:] for r in H if not r[:nrows].any()]
    if not rows:
        return np.zeros((0, nunk), dtype=np.int64)
    return howell(np.array(rows, dtype=np.int64), N)


class SpanSolver:
    """Membership-with-certificate in a fixed row span, amortized.

    Howell-reduces [generators | I] once; each query is a single reduction
    returning the combination of the original generators, or None.
    """

    def __init__(self, generators, N: int):
        gens = np.atleast_2d(np.asarray(generators, dtype=np.int64)) % N
        self.N = N
        self.ngen = gens.shape[0]
        self.dim = gens.shape[1]
        aug = np.hstack([gens, np.eye(self.ngen, dtype=np.int64)])
        self._H = howell(aug, N)
        self._main = [r for r in self._H if r[: self.dim].any()]
        self._pivots = [int(np.nonzero(r)[0][0]) for r in self._main]

    def solve(self, v) -> np.ndarray | None:
        """Coefficients c with c @ generators = v mod N, or None."""
        v = np.asarray(v, dtype=np.int64) % self.N
        coeffs = np.zeros(self.ngen, dtype=np.int64)
        residue = v.copy()
        for row, col in zip(self._main, self._pivots):
            a = int(residue[col])
            if a == 0:
                continue
            d = int(row[col])
            if a % d:
                return None
            q = a // d
            residue = (residue - q * row[: self.dim]) % self.N
            coeffs = (coeffs + q * row[self.dim :]) % self.N
        if residue.any():
            return None
        return coeffs

    def contains_rows(self, V) -> np.ndarray:
        """Boolean mask: which rows of V lie in the span (one reduction for all rows)."""
        residue = np.atleast_2d(np.asarray(V, dtype=np.int64)) % self.N
        stuck = np.zeros(residue.shape[0], dtype=bool)
        for row, col in zip(self._main, self._pivots):
            a = residue[:, col]
            d = int(row[col])
            stuck |= a % d != 0  # pivot divides N, so non-divisibility is final
            q = np.where(stuck, 0, a // d)
            residue = (residue - q[:, None] * row[None, : self.dim]) % self.N
        return ~stuck & ~residue.any(axis=1)

    def basis(self) -> np.ndarray:
        rows = [r[: self.dim] for r in self._main]
        if not rows:
            return np.zeros((0, self.dim), dtype=np.int64)
        return np.array(rows, dtype=np.int64)
