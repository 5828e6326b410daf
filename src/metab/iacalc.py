"""IA-endomorphism calculus on the finite Magnus model.

A parameter pair r = (r1, r2) over R(n, m) defines the endomorphism
gamma_r(x_i) = [x1, x2]^(r_i) * x_i, which extends linearly to T with matrix

    [[1 + r1 (1 - a2),  r2 (1 - a2)],
     [r1 (a1 - 1),      1 + r2 (a1 - 1)]]        (column i = image of t_i)

and determinant det = 1 + r1 (1 - a2) + r2 (a1 - 1), the scalar by which
gamma_r acts on the derived line R*kappa.  Classification:

  * det a unit       <->  gamma_r is an automorphism of W;
  * det a monomial   <->  gamma_r is inner (conjugation by a W-element).

`ia_classify` reads the verdict off the determinant.  With a verify budget
that covers |W| it cross-checks both criteria: `is_bijective_on_w` tests
bijectivity on W outright, and `find_conjugator` solves the conjugation
equations, which are linear in the conjugator's T-part, exactly over Z/n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvariantViolation
from .grpring import RingCtx, RingElem, _mult_matrix, monomial_part, try_invert
from .magnus import (
    MagnusElem,
    _cache,
    conj,
    derived_elem,
    enumerate_w,
    gens,
    lambda_basis,
    membership,
    require_in_w,
    section,
    w_order,
)


@dataclass(frozen=True)
class IAEndo:
    """gamma_r for r = (r1, r2); the identity endomorphism is r = (0, 0)."""

    r1: RingElem
    r2: RingElem

    def __post_init__(self):
        if self.r1.ctx != self.r2.ctx:
            raise ValueError("ring context mismatch")

    @property
    def ctx(self) -> RingCtx:
        return self.r1.ctx

    def images(self) -> tuple[MagnusElem, MagnusElem]:
        """(gamma_r(x1), gamma_r(x2)) as explicit W-elements."""
        x1, x2 = gens(self.ctx)
        return derived_elem(self.ctx, self.r1) * x1, derived_elem(self.ctx, self.r2) * x2


Matrix2 = tuple[tuple[RingElem, RingElem], tuple[RingElem, RingElem]]


def ia_matrix(e: IAEndo) -> Matrix2:
    ctx = e.ctx
    one = ctx.one()
    u = ctx.monomial(1, 0) - one  # a1 - 1
    v = one - ctx.monomial(0, 1)  # 1 - a2
    return (
        (one + e.r1 * v, e.r2 * v),
        (e.r1 * u, one + e.r2 * u),
    )


def bachmuth_matrix(e: IAEndo) -> np.ndarray:
    """gamma_r on T = R(n, m)^2 as a 2m^2 x 2m^2 matrix: t -> B @ t on (b1, b2) coefficients."""
    return np.block([[_mult_matrix(cell) for cell in row] for row in ia_matrix(e)])


def ia_det(e: IAEndo) -> RingElem:
    """det(gamma_r) = 1 + r1 (1 - a2) + r2 (a1 - 1); augmentation is always 1."""
    ctx = e.ctx
    one = ctx.one()
    return one + e.r1 * (one - ctx.monomial(0, 1)) + e.r2 * (ctx.monomial(1, 0) - one)


def pair_dets(ctx: RingCtx, elems: list[RingElem]) -> np.ndarray:
    """dets[i, j] = vec(det(gamma_r)) for r = (elems[i], elems[j]).

    The determinant is affine in (r1, r2), so all pairs cost two matrix products.
    """
    one = ctx.one()
    vecs = np.array([x.vec() for x in elems]).reshape(len(elems), -1)
    p1 = vecs @ _mult_matrix(one - ctx.monomial(0, 1)).T
    p2 = vecs @ _mult_matrix(ctx.monomial(1, 0) - one).T
    return (one.vec() + p1[:, None, :] + p2[None, :, :]) % ctx.n


@dataclass(frozen=True)
class Classification:
    kind: str  # "inner" | "automorphism" | "not_automorphism"
    det: RingElem
    inner_exponents: tuple[int, int] | None = None

    def to_json(self) -> dict:
        out = {"det": self.det.to_json(), "verdict": self.kind}
        if self.inner_exponents is not None:
            out["inner_exponents"] = list(self.inner_exponents)
        return out


def ia_classify(e: IAEndo, verify_budget: int | None = None) -> Classification:
    """Inner / automorphism-only / not-automorphism from the determinant.

    With `verify_budget`, when |W| fits the budget, the automorphism verdict
    is cross-checked against literal bijectivity on W and the inner verdict
    against `find_conjugator`; a mismatch raises InvariantViolation (it would
    falsify the determinant criterion).
    """
    d = ia_det(e)
    mono = monomial_part(d)
    if mono is not None:
        verdict = Classification("inner", d, mono)
    elif try_invert(d) is not None:
        verdict = Classification("automorphism", d)
    else:
        verdict = Classification("not_automorphism", d)
    if verify_budget is not None and w_order(e.ctx) <= verify_budget:
        bij = is_bijective_on_w(e, budget=verify_budget)
        if bij != (verdict.kind != "not_automorphism"):
            raise InvariantViolation(
                f"determinant criterion contradicts bijectivity for r = ({e.r1}, {e.r2})"
            )
        if (find_conjugator(e) is not None) != (verdict.kind == "inner"):
            raise InvariantViolation(
                f"monomial criterion contradicts the conjugator search for r = ({e.r1}, {e.r2})"
            )
    return verdict


def is_bijective_on_w(e: IAEndo, budget: int | None = None) -> bool:
    """Brute bijectivity of gamma_r on W.

    Enumerates W outright when it fits the budget, checks every element's
    membership in one batched pass and counts the distinct images; otherwise
    uses that gamma_r fixes each A-coset and acts on the T-part lattice by
    the Bachmuth matrix, so bijectivity equals that lattice map being onto.
    """
    ctx = e.ctx
    mat = bachmuth_matrix(e)
    if budget is not None and w_order(ctx) <= budget:
        w = enumerate_w(ctx, budget)
        require_in_w(w)
        image = np.hstack([w.v, w.t @ mat.T % ctx.n])
        image = image[np.lexsort(image.T)]
        distinct = 1 + np.count_nonzero((image[1:] != image[:-1]).any(axis=1))
        return distinct == len(image)
    basis = lambda_basis(ctx)
    image_span = linalg.howell(basis @ mat.T, ctx.n)
    return linalg.span_size(image_span, ctx.n) == linalg.span_size(basis, ctx.n)


def find_conjugator(e: IAEndo) -> MagnusElem | None:
    """A w in W with gamma_r = conjugation by w, or None.

    Two homomorphisms agree on W iff they agree on x1, x2, so the search
    compares images of the generators only.  For each candidate A-part of w
    the conjugation equations are linear in the T-part, solved exactly over
    Z/n.
    """
    ctx = e.ctx
    x1, x2 = gens(ctx)
    y1, y2 = e.images()
    m2 = ctx.m * ctx.m
    basis = lambda_basis(ctx)
    solver = _cache(ctx.n, ctx.m).conj_solver
    one = ctx.one()
    a1m1 = ctx.monomial(1, 0) - one
    a2m1 = ctx.monomial(0, 1) - one
    for v1 in range(ctx.m):
        for v2 in range(ctx.m):
            a_w = ctx.monomial(v1, v2)
            base = section(ctx, (v1, v2))
            rhs1_b1 = y1.b1 - a_w * one - (-a1m1) * base.b1
            rhs1_b2 = y1.b2 - (-a1m1) * base.b2
            rhs2_b1 = y2.b1 - (-a2m1) * base.b1
            rhs2_b2 = y2.b2 - a_w * one - (-a2m1) * base.b2
            rhs = np.concatenate(
                [rhs1_b1.vec(), rhs1_b2.vec(), rhs2_b1.vec(), rhs2_b2.vec()]
            )
            sol = solver.solve(rhs)
            if sol is None:
                continue
            lam = (sol @ basis) % ctx.n
            w = MagnusElem(
                ctx,
                base.b1 + ctx.elem(lam[:m2].reshape(ctx.m, ctx.m)),
                base.b2 + ctx.elem(lam[m2:].reshape(ctx.m, ctx.m)),
                (v1, v2),
            )
            if membership(w) is None or conj(x1, w) != y1 or conj(x2, w) != y2:
                raise RuntimeError(
                    "find_conjugator: solved w is not in W or does not conjugate onto the images"
                )
            return w
    return None
