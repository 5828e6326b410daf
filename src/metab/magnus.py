"""The finite Magnus model W(n, m) inside T x| A.

T = R(n, m)^2 is a free rank-2 module over the truncated group algebra and
A = (Z/m)^2 acts on it by monomial scaling; the semidirect product carries
the images x1 = (t1, a1), x2 = (t2, a2) of the free metabelian generators.
W(n, m) is the subgroup they generate.

The derived subgroup of W is exactly R*kappa with kappa = (1 - a2, a1 - 1)
the commutator vector.  Unlike the profinite picture, the T-part of W is
strictly larger than the kappa line: x_i^m contributes the norm vector
N_i t_i (N_i = 1 + a_i + ... + a_i^(m-1)), which wraps around at finite
level and generally lies outside R*kappa.  Membership therefore solves
against the lattice

    Lambda_0 = R*kappa + (Z/n) N1 t1 + (Z/n) N2 t2,

preferring a pure kappa witness when one exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from . import linalg
from .grpring import BudgetError, RingCtx, RingElem, _mult_matrix, ring_make


class MagnusElem:
    """Element (b1 t1 + b2 t2, a1^v1 a2^v2) of T x| A, immutable."""

    __slots__ = ("ctx", "b1", "b2", "v")

    def __init__(self, ctx: RingCtx, b1: RingElem, b2: RingElem, v: tuple[int, int]):
        self.ctx = ctx
        self.b1 = b1
        self.b2 = b2
        self.v = (v[0] % ctx.m, v[1] % ctx.m)

    def __eq__(self, other):
        return (
            isinstance(other, MagnusElem)
            and self.ctx == other.ctx
            and self.v == other.v
            and self.b1 == other.b1
            and self.b2 == other.b2
        )

    def __hash__(self):
        return hash((self.v, self.b1, self.b2))

    def __repr__(self):
        return f"({self.b1}; {self.b2}; a^{self.v})"

    def _check(self, other: MagnusElem):
        if self.ctx != other.ctx:
            raise ValueError("ring context mismatch")

    def mono(self) -> RingElem:
        return self.ctx.monomial(*self.v)

    def bvec(self) -> np.ndarray:
        return np.concatenate([self.b1.vec(), self.b2.vec()])

    def __mul__(self, other: MagnusElem) -> MagnusElem:
        self._check(other)
        a = self.mono()
        return MagnusElem(
            self.ctx,
            self.b1 + a * other.b1,
            self.b2 + a * other.b2,
            (self.v[0] + other.v[0], self.v[1] + other.v[1]),
        )

    def inv(self) -> MagnusElem:
        # (t, a)^-1 = (-a^-1 t, a^-1)
        a_inv = self.ctx.monomial(-self.v[0], -self.v[1])
        return MagnusElem(
            self.ctx, -(a_inv * self.b1), -(a_inv * self.b2), (-self.v[0], -self.v[1])
        )

    def __pow__(self, k: int) -> MagnusElem:
        if k < 0:
            return self.inv() ** (-k)
        result = identity(self.ctx)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result


def identity(ctx: RingCtx) -> MagnusElem:
    return MagnusElem(ctx, ctx.zero(), ctx.zero(), (0, 0))


def gens(ctx: RingCtx) -> tuple[MagnusElem, MagnusElem]:
    """The standard generators x1 = (t1, a1) and x2 = (t2, a2)."""
    return (
        MagnusElem(ctx, ctx.one(), ctx.zero(), (1, 0)),
        MagnusElem(ctx, ctx.zero(), ctx.one(), (0, 1)),
    )


def conj(x: MagnusElem, y: MagnusElem) -> MagnusElem:
    """y x y^-1."""
    return y * x * y.inv()


def kappa_vec(ctx: RingCtx) -> tuple[RingElem, RingElem]:
    """The commutator vector kappa = (1 - a2, a1 - 1) in T."""
    return (ctx.one() - ctx.monomial(0, 1), ctx.monomial(1, 0) - ctx.one())


def derived_elem(ctx: RingCtx, alpha: RingElem) -> MagnusElem:
    """[x1, x2]^alpha = (alpha * kappa, 1)."""
    k1, k2 = kappa_vec(ctx)
    return MagnusElem(ctx, alpha * k1, alpha * k2, (0, 0))


def section(ctx: RingCtx, v: tuple[int, int]) -> MagnusElem:
    """Canonical lift of v: the image of x1^v1 x2^v2 with v_i in [0, m)."""
    v1, v2 = v[0] % ctx.m, v[1] % ctx.m
    return MagnusElem(
        ctx,
        ctx.geom1(v1),
        ctx.monomial(v1, 0) * ctx.geom2(v2),
        (v1, v2),
    )


def d_value(z: MagnusElem) -> RingElem:
    """The crossed homomorphism D(t, a) = a - 1 - (b1 (a1-1) + b2 (a2-1)).

    D vanishes on all of W, so D != 0 is a fast membership rejection; the
    converse can fail at finite level.
    """
    ctx = z.ctx
    a1, a2 = ctx.monomial(1, 0), ctx.monomial(0, 1)
    return z.mono() - ctx.one() - (z.b1 * (a1 - ctx.one()) + z.b2 * (a2 - ctx.one()))


@dataclass(frozen=True)
class Witness:
    """Membership certificate: z.b - section(z.v).b = alpha*kappa + q1 N1 t1 + q2 N2 t2.

    alpha is unique modulo Ann(kappa); q1 = q2 = 0 whenever a pure kappa
    solution exists (in particular on the derived subgroup).
    """

    alpha: RingElem
    q1: int
    q2: int


class _CtxCache:
    """Per-(n, m) solvers for the kappa line and the full W lattice."""

    def __init__(self, ctx: RingCtx):
        self.ctx = ctx
        n, m = ctx.n, ctx.m
        k1, k2 = kappa_vec(ctx)
        # row l: kappa times the l-th monomial, i.e. column l of each multiplication matrix
        self.kappa_rows = np.hstack([_mult_matrix(k1).T, _mult_matrix(k2).T])
        zero = np.zeros(m * m, dtype=np.int64)
        n1 = np.concatenate([ctx.norm1().vec(), zero])
        n2 = np.concatenate([zero, ctx.norm2().vec()])
        self.norm_rows = np.array([n1, n2], dtype=np.int64)
        self.rk_solver = linalg.SpanSolver(self.kappa_rows, n)
        self.lambda_solver = linalg.SpanSolver(
            np.vstack([self.kappa_rows, self.norm_rows]), n
        )
        # row v1*m + v2: T-part of section(v); the A-exponents in that order
        self.exponents = np.array([(v1, v2) for v1 in range(m) for v2 in range(m)])
        self.sections = np.array([section(ctx, tuple(v)).bvec() for v in self.exponents])

    @cached_property
    def conj_solver(self) -> linalg.SpanSolver:
        """Solver for the T-part of a conjugator, one column block per equation.

        conj_w(x_i).b = a_w * t_i + (1 - a_i) * w.b, and w.b ranges over a
        section plus the lattice Lambda_0; the unknown is the lattice part.
        """
        ctx = self.ctx
        one = ctx.one()
        u1 = _mult_matrix(one - ctx.monomial(1, 0))
        u2 = _mult_matrix(one - ctx.monomial(0, 1))
        basis = self.lambda_solver.basis()
        m2 = ctx.m * ctx.m
        b1, b2 = basis[:, :m2].T, basis[:, m2:].T
        A = np.vstack([u1 @ b1, u1 @ b2, u2 @ b1, u2 @ b2]) % ctx.n
        return linalg.SpanSolver(A.T, ctx.n)


@lru_cache(maxsize=None)
def _cache(n: int, m: int) -> _CtxCache:
    return _CtxCache(ring_make(n, m))


def membership(z: MagnusElem) -> Witness | None:
    """Solve for a witness that z lies in W(n, m); None if it does not."""
    ctx = z.ctx
    if not d_value(z).is_zero():
        return None
    cache = _cache(ctx.n, ctx.m)
    delta = (z.bvec() - section(ctx, z.v).bvec()) % ctx.n
    coeffs = cache.rk_solver.solve(delta)
    if coeffs is not None:
        alpha = ctx.elem(coeffs.reshape(ctx.m, ctx.m))
        return Witness(alpha=alpha, q1=0, q2=0)
    coeffs = cache.lambda_solver.solve(delta)
    if coeffs is None:
        return None
    m2 = ctx.m * ctx.m
    alpha = ctx.elem(coeffs[:m2].reshape(ctx.m, ctx.m))
    return Witness(alpha=alpha, q1=int(coeffs[m2]), q2=int(coeffs[m2 + 1]))


def lambda_basis(ctx: RingCtx) -> np.ndarray:
    """Howell basis of the T-part lattice Lambda_0 of W."""
    return _cache(ctx.n, ctx.m).lambda_solver.basis()


def w_order(ctx: RingCtx) -> int:
    """|W(n, m)| = m^2 * |Lambda_0|."""
    n = ctx.n
    return ctx.m**2 * linalg.span_size(lambda_basis(ctx), n)


class WArray(NamedTuple):
    """Elements of W(n, m) as rows: T-parts t (N x 2m^2, the b1 then the b2
    coefficients) and A-exponents v (N x 2, each in [0, m))."""

    ctx: RingCtx
    t: np.ndarray
    v: np.ndarray


def enumerate_w(ctx: RingCtx, budget: int = 10**6) -> WArray:
    """Every element of W(n, m), ordered lexicographically by (v, T-part).

    Deterministic; raises BudgetError when |W| exceeds the budget.
    """
    total = w_order(ctx)
    if total > budget:
        raise BudgetError(f"|W({ctx.n},{ctx.m})| = {total} exceeds budget {budget}")
    cache = _cache(ctx.n, ctx.m)
    lattice = np.array(list(linalg.enumerate_span(lambda_basis(ctx), ctx.n, 2 * ctx.m**2)))
    lattice = lattice[np.lexsort(lattice.T[::-1])]
    t = (cache.sections[:, None, :] + lattice[None, :, :]) % ctx.n
    return WArray(ctx, t.reshape(total, -1), np.repeat(cache.exponents, len(lattice), axis=0))


def require_in_w(w: WArray) -> None:
    """Raise ValueError unless every row of w lies in W(n, m).

    The batched form of `membership`: D = 0 on every row, and every row's
    T-part minus its section's lies in Lambda_0, in one span reduction.
    """
    ctx, m2 = w.ctx, w.ctx.m**2
    cache = _cache(ctx.n, ctx.m)
    one = ctx.one()
    u1 = _mult_matrix(ctx.monomial(1, 0) - one)
    u2 = _mult_matrix(ctx.monomial(0, 1) - one)
    mono = (w.v[:, 0] % ctx.m) * ctx.m + w.v[:, 1] % ctx.m
    d = -(w.t[:, :m2] @ u1.T + w.t[:, m2:] @ u2.T)  # D = a - 1 - (b1 (a1-1) + b2 (a2-1))
    d[np.arange(len(d)), mono] += 1
    d[:, 0] -= 1
    if (d % ctx.n).any():
        raise ValueError("element is not in W(n, m): D does not vanish")
    if not cache.lambda_solver.contains_rows(w.t - cache.sections[mono]).all():
        raise ValueError("element is not in W(n, m)")
