"""Arithmetic in the truncated group algebra R(n, m) = (Z/n)[a1, a2] / (a1^m - 1, a2^m - 1).

R(n, m) is the level-(n, m) truncation of the completed group algebra of the
rank-2 profinite abelianization.  Elements are m x m coefficient arrays with
entry (i, j) the coefficient of a1^i a2^j; multiplication is 2-D cyclic
convolution of the exponents.

The convolution is one gather and one matrix-vector product.  For each m a
cached shift index idx[k, l] holds the flat index of the exponent pair
k - l (mod m in each coordinate), so y[idx] is the m^2 x m^2 matrix of
multiplication by y on the monomial basis, and x*y = y[idx] @ x mod n.

Beyond the ring operations this module provides the structural maps the
IA-calculus rests on: the augmentation, unit inversion (CRT over the prime
powers of n plus Hensel lifting) and monomial recognition.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import linalg
from .errors import BudgetError


def _factor_prime_powers(n: int) -> list[tuple[int, int]]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out.append((p, k))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


class RingCtx:
    """Truncation parameters (n, m); hands out elements of R(n, m)."""

    def __init__(self, n: int, m: int):
        if n < 2 or m < 2:
            raise ValueError(f"need n >= 2 and m >= 2, got ({n}, {m})")
        self.n = n
        self.m = m
        self.prime_powers = _factor_prime_powers(n)

    def __eq__(self, other):
        return isinstance(other, RingCtx) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return f"RingCtx(n={self.n}, m={self.m})"

    @property
    def size(self) -> int:
        return self.n ** (self.m * self.m)

    def elem(self, coeffs) -> RingElem:
        arr = np.asarray(coeffs, dtype=np.int64) % self.n
        if arr.shape != (self.m, self.m):
            raise ValueError(f"coefficient array must be {self.m}x{self.m}")
        return RingElem(self, arr)

    def zero(self) -> RingElem:
        return RingElem(self, np.zeros((self.m, self.m), dtype=np.int64))

    def one(self) -> RingElem:
        return self.monomial(0, 0)

    def monomial(self, i: int, j: int) -> RingElem:
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        arr[i % self.m, j % self.m] = 1
        return RingElem(self, arr)

    def scalar(self, c: int) -> RingElem:
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        arr[0, 0] = c % self.n
        return RingElem(self, arr)

    def monomials(self) -> list[RingElem]:
        return [self.monomial(i, j) for i in range(self.m) for j in range(self.m)]

    def norm1(self) -> RingElem:
        """Norm element 1 + a1 + ... + a1^(m-1)."""
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        arr[:, 0] = 1
        return RingElem(self, arr)

    def norm2(self) -> RingElem:
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        arr[0, :] = 1
        return RingElem(self, arr)

    def geom1(self, k: int) -> RingElem:
        """1 + a1 + ... + a1^(k-1) for any integer k >= 0, exponents wrapped."""
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        for i in range(k):
            arr[i % self.m, 0] += 1
        return RingElem(self, arr % self.n)

    def geom2(self, k: int) -> RingElem:
        arr = np.zeros((self.m, self.m), dtype=np.int64)
        for j in range(k):
            arr[0, j % self.m] += 1
        return RingElem(self, arr % self.n)

    def random_elem(self, rng) -> RingElem:
        arr = np.array(
            [[rng.randrange(self.n) for _ in range(self.m)] for _ in range(self.m)],
            dtype=np.int64,
        )
        return RingElem(self, arr)

    def all_elements(self):
        """Iterate over the whole ring (desk-scale contexts only)."""
        m2 = self.m * self.m
        if self.n**m2 > 10**6:
            raise BudgetError(f"R({self.n},{self.m}) has {self.n**m2} elements")
        for flat in np.ndindex(*([self.n] * m2)):
            yield self.elem(np.array(flat, dtype=np.int64).reshape(self.m, self.m))


class RingElem:
    """Immutable element of R(n, m)."""

    __slots__ = ("ctx", "coeffs", "_hash")

    def __init__(self, ctx: RingCtx, coeffs: np.ndarray):
        self.ctx = ctx
        coeffs.setflags(write=False)
        self.coeffs = coeffs
        self._hash = None

    def __eq__(self, other):
        return (
            isinstance(other, RingElem)
            and self.ctx == other.ctx
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx.n, self.ctx.m, self.coeffs.tobytes()))
        return self._hash

    def __repr__(self):
        terms = []
        for i in range(self.ctx.m):
            for j in range(self.ctx.m):
                c = int(self.coeffs[i, j])
                if c == 0:
                    continue
                mono = ("" if i == 0 else f"a1^{i}" if i > 1 else "a1") + (
                    "" if j == 0 else f"a2^{j}" if j > 1 else "a2"
                )
                if not mono:
                    terms.append(str(c))
                elif c == 1:
                    terms.append(mono)
                else:
                    terms.append(f"{c}*{mono}")
        return " + ".join(terms) if terms else "0"

    def _check(self, other: RingElem):
        if self.ctx != other.ctx:
            raise ValueError("ring context mismatch")

    def __add__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.ctx, (self.coeffs + other.coeffs) % self.ctx.n)

    def __sub__(self, other: RingElem) -> RingElem:
        self._check(other)
        return RingElem(self.ctx, (self.coeffs - other.coeffs) % self.ctx.n)

    def __neg__(self) -> RingElem:
        return RingElem(self.ctx, (-self.coeffs) % self.ctx.n)

    def __mul__(self, other) -> RingElem:
        if isinstance(other, int):
            return RingElem(self.ctx, (self.coeffs * other) % self.ctx.n)
        self._check(other)
        prod = _mult_matrix(other) @ self.vec() % self.ctx.n
        return RingElem(self.ctx, prod.reshape(self.ctx.m, self.ctx.m))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> RingElem:
        if e < 0:
            inv = try_invert(self)
            if inv is None:
                raise ValueError("negative power of a non-unit")
            return inv ** (-e)
        result = self.ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def vec(self) -> np.ndarray:
        return self.coeffs.reshape(-1)

    def to_json(self) -> dict:
        return {
            "n": self.ctx.n,
            "m": self.ctx.m,
            "coeffs": [int(c) for c in self.coeffs.reshape(-1)],
        }


@lru_cache(maxsize=None)
def ring_make(n: int, m: int) -> RingCtx:
    """Context for R(n, m); cached so equal parameters share solver caches."""
    return RingCtx(n, m)


def augmentation(x: RingElem) -> int:
    """Sum of all coefficients mod n; the unique ring map onto Z/n fixing scalars."""
    return int(x.coeffs.sum() % x.ctx.n)


@lru_cache(maxsize=None)
def _shift_index(m: int) -> np.ndarray:
    """idx[k, l] = flat index of the exponents k - l, each coordinate mod m (read-only)."""
    i, j = np.divmod(np.arange(m * m), m)
    idx = (i[:, None] - i[None, :]) % m * m + (j[:, None] - j[None, :]) % m
    idx.setflags(write=False)
    return idx


def _mult_matrix(x: RingElem) -> np.ndarray:
    """Matrix of y -> x*y on the monomial basis (column (i,j) = vec(x * a1^i a2^j))."""
    return x.vec()[_shift_index(x.ctx.m)]


def try_invert(x: RingElem) -> RingElem | None:
    """Inverse of x in R(n, m), or None when x is not a unit.

    Per prime power p^k | n: solve the multiplication-by-x system over F_p,
    Hensel-lift the inverse to Z/p^k, then CRT the branches together.
    A non-unit is a legitimate outcome, reported as None.
    """
    ctx = x.ctx
    branches = []
    for p, k in ctx.prime_powers:
        y = _invert_mod_prime_power(x, p, k)
        if y is None:
            return None
        branches.append((p**k, y))
    acc = np.zeros_like(x.coeffs)
    for q, y in branches:
        rest = ctx.n // q
        acc = acc + y * rest * linalg.inv_mod(rest, q)
    inv = RingElem(ctx, acc % ctx.n)
    if x * inv != ctx.one():
        raise RuntimeError("try_invert: x * x^-1 != 1 after CRT assembly")
    return inv


def _fold_exponents(coeffs: np.ndarray, m_red: int, n: int) -> np.ndarray:
    """Image under R(n, m) -> R(n, m_red), a_i -> a_i (m_red | m)."""
    k = coeffs.shape[0] // m_red
    return coeffs.reshape(k, m_red, k, m_red).sum(axis=(0, 2)) % n


def _invert_mod_prime_power(x: RingElem, p: int, k: int) -> np.ndarray | None:
    """Inverse of x mod p^k, or None.

    Unit-ness only depends on the image in the etale quotient R(p, m')
    with m' the prime-to-p part of m (the fold kernel and p are nilpotent),
    where it is a linear solve over F_p.  Any preimage of that inverse is a
    Newton seed: y <- y (2 - x y) converges (p, a_i - 1)-adically.
    """
    ctx = x.ctx
    m_red = ctx.m
    while m_red % p == 0:
        m_red //= p
    if m_red == 1:
        if augmentation(x) % p == 0:
            return None
        seed = np.zeros((ctx.m, ctx.m), dtype=np.int64)
        seed[0, 0] = linalg.inv_mod(int(x.coeffs.sum()) % p, p)
    else:
        sub = ring_make(p, m_red)
        x_red = sub.elem(_fold_exponents(x.coeffs, m_red, p))
        M = _mult_matrix(x_red) % p
        e0 = np.zeros(m_red * m_red, dtype=np.int64)
        e0[0] = 1
        y_red = linalg.solve(M, e0, p)
        if y_red is None:
            return None
        seed = np.zeros((ctx.m, ctx.m), dtype=np.int64)
        seed[:m_red, :m_red] = y_red.reshape(m_red, m_red)
    q = p**k
    big = ring_make(q, ctx.m)
    xq = big.elem(x.coeffs % q)
    y = big.elem(seed % q)
    one = big.one()
    for _ in range(64):
        err = xq * y - one
        if err.is_zero():
            return y.coeffs % q
        y = y * (one - err)  # Newton: y (2 - x y), err squares each round
    raise RuntimeError("Newton inversion failed to converge on a unit")


def monomial_part(x: RingElem) -> tuple[int, int] | None:
    """Exponents (i, j) when x = a1^i a2^j exactly, else None."""
    nz = np.nonzero(x.coeffs)
    if len(nz[0]) != 1:
        return None
    i, j = int(nz[0][0]), int(nz[1][0])
    if int(x.coeffs[i, j]) != 1:
        return None
    return i, j
