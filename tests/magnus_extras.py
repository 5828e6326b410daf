"""Parts of the Magnus-model and IA calculus that no `metab` command runs.

Generic endomorphisms of W(n, m) given by generator images (`endo_apply`,
`endo_compose`, `sl2_move_images`) and the generalized determinant
`gen_det` give an independent route to what `metab.iacalc` computes from
the Bachmuth matrix; the tests compare the two.  The rest are small
helpers the Magnus, IA and stability tests share: commutators, the
annihilator of kappa, the normal form x1^e1 x2^e2 [x1,x2]^alpha, composition
of IA parameters, and the per-element oracles for the batched paths of
`metab`: W enumerated as element objects (for the array form of
`enumerate_w`), gamma_r applied one element at a time (for
`is_bijective_on_w`) and an exhaustive conjugator search over W.
"""

import numpy as np

from metab import linalg
from metab.errors import InvariantViolation
from metab.grpring import BudgetError, RingCtx, RingElem
from metab.iacalc import IAEndo, ia_det, ia_matrix
from metab.magnus import (
    MagnusElem,
    WArray,
    _cache,
    conj,
    derived_elem,
    gens,
    identity,
    kappa_vec,
    lambda_basis,
    membership,
    section,
    w_order,
)


def elements_of(w: WArray) -> list[MagnusElem]:
    """The rows of an array form of W-elements as objects, in order."""
    ctx, m2 = w.ctx, w.ctx.m**2
    return [
        MagnusElem(
            ctx,
            ctx.elem(t[:m2].reshape(ctx.m, ctx.m)),
            ctx.elem(t[m2:].reshape(ctx.m, ctx.m)),
            (int(v[0]), int(v[1])),
        )
        for t, v in zip(w.t, w.v)
    ]


def w_elements(ctx: RingCtx, budget: int = 10**6) -> list[MagnusElem]:
    """Every element of W(n, m) as an object, ordered lexicographically by (v, T-part).

    One element at a time: a sorted lattice of tuples plus each section.
    """
    total = w_order(ctx)
    if total > budget:
        raise BudgetError(f"|W({ctx.n},{ctx.m})| = {total} exceeds budget {budget}")
    n, m = ctx.n, ctx.m
    lattice = sorted(
        tuple(int(c) for c in vec)
        for vec in linalg.enumerate_span(lambda_basis(ctx), n, 2 * m * m)
    )
    out = []
    for v1 in range(m):
        for v2 in range(m):
            base = section(ctx, (v1, v2)).bvec()
            for lam in lattice:
                vec = (base + np.array(lam, dtype=np.int64)) % n
                out.append(
                    MagnusElem(
                        ctx,
                        ctx.elem(vec[: m * m].reshape(m, m)),
                        ctx.elem(vec[m * m :].reshape(m, m)),
                        (v1, v2),
                    )
                )
    return out


def ia_apply(e: IAEndo, z: MagnusElem) -> MagnusElem:
    """gamma_r(z) for z in W (membership enforced), through the ring-element matrix."""
    if membership(z) is None:
        raise ValueError("element is not in W(n, m)")
    mat = ia_matrix(e)
    b1 = mat[0][0] * z.b1 + mat[0][1] * z.b2
    b2 = mat[1][0] * z.b1 + mat[1][1] * z.b2
    return MagnusElem(z.ctx, b1, b2, z.v)


def commutator(x: MagnusElem, y: MagnusElem) -> MagnusElem:
    return x * y * x.inv() * y.inv()


def kappa_elem(ctx: RingCtx) -> MagnusElem:
    """mu([x1, x2]) = (kappa, 1)."""
    k1, k2 = kappa_vec(ctx)
    return MagnusElem(ctx, k1, k2, (0, 0))


def random_word_element(ctx: RingCtx, rng, length: int = 12) -> MagnusElem:
    """Random product of generator letters; always a member of W."""
    x1, x2 = gens(ctx)
    letters = [x1, x2, x1.inv(), x2.inv()]
    z = identity(ctx)
    for _ in range(length):
        z = z * rng.choice(letters)
    return z


def kappa_line_basis(ctx: RingCtx) -> np.ndarray:
    """Howell basis of R*kappa as vectors in T."""
    return _cache(ctx.n, ctx.m).rk_solver.basis()


def ann_kappa_basis(ctx: RingCtx) -> np.ndarray:
    """Ann(kappa) = kernel of alpha |-> (alpha(1-a2), alpha(a1-1)), as coefficient rows."""
    return linalg.kernel(_cache(ctx.n, ctx.m).kappa_rows.T, ctx.n)


def ann_kappa(ctx: RingCtx) -> list[RingElem]:
    """Generators of the annihilator ideal of kappa (as ring elements)."""
    return [ctx.elem(row.reshape(ctx.m, ctx.m)) for row in ann_kappa_basis(ctx)]


def witness_equal(a: RingElem, b: RingElem) -> bool:
    """Equality of kappa witnesses, i.e. modulo Ann(kappa)."""
    k1, k2 = kappa_vec(a.ctx)
    d = a - b
    return (d * k1).is_zero() and (d * k2).is_zero()


def reduce_mod_ann(alpha: RingElem) -> RingElem:
    """Canonical representative of alpha modulo Ann(kappa)."""
    basis = ann_kappa_basis(alpha.ctx)
    if basis.shape[0] == 0:
        return alpha
    residue, _ = linalg.reduce_vector(basis, alpha.vec(), alpha.ctx.n)
    return alpha.ctx.elem(residue.reshape(alpha.ctx.m, alpha.ctx.m))


def word_decomposition(z: MagnusElem) -> tuple[int, int, RingElem] | None:
    """Write z = x1^e1 * x2^e2 * [x1,x2]^alpha with e_i in [0, n*m).

    Inverts the normal form underlying `membership`; None when z is not in W.
    """
    w = membership(z)
    if w is None:
        return None
    ctx = z.ctx
    e1 = z.v[0] + ctx.m * w.q1
    e2 = z.v[1] + ctx.m * w.q2
    correction = ctx.geom1(z.v[0]) * ctx.norm2() * w.q2
    alpha = ctx.monomial(-z.v[0], -z.v[1]) * (w.alpha - correction)
    return e1, e2, alpha


def ia_identity(ctx: RingCtx) -> IAEndo:
    return IAEndo(ctx.zero(), ctx.zero())


def ia_compose(e: IAEndo, f: IAEndo) -> IAEndo:
    """Parameter of "apply f first, then e": r o r' = r + det(gamma_r) r'."""
    if e.ctx != f.ctx:
        raise ValueError("ring context mismatch")
    d = ia_det(e)
    return IAEndo(e.r1 + d * f.r1, e.r2 + d * f.r2)


def conjugator_by_enumeration(e: IAEndo, budget: int) -> MagnusElem | None:
    """The first w of `w_elements` with gamma_r = conjugation by w, or None."""
    x1, x2 = gens(e.ctx)
    y1, y2 = e.images()
    for w in w_elements(e.ctx, budget):
        if conj(x1, w) == y1 and conj(x2, w) == y2:
            return w
    return None


def gen_det(images: tuple[MagnusElem, MagnusElem]) -> RingElem:
    """Generalized determinant relative to c = [x1, x2].

    The witness alpha with [image1, image2] = c^alpha; unique modulo
    Ann(kappa).  Commutators of W-elements always lie on the kappa line, so
    a failed solve means the images were not both in W.
    """
    w1, w2 = images
    if membership(w1) is None or membership(w2) is None:
        raise ValueError("images must lie in W(n, m)")
    witness = membership(commutator(w1, w2))
    if witness is None or (witness.q1, witness.q2) != (0, 0):
        raise InvariantViolation("commutator of W-elements escaped the kappa line")
    return witness.alpha


def ab_matrix(images: tuple[MagnusElem, MagnusElem]) -> tuple[tuple[int, int], tuple[int, int]]:
    """Abelianized matrix mod m, column i = exponent vector of image i."""
    w1, w2 = images
    return ((w1.v[0], w2.v[0]), (w1.v[1], w2.v[1]))


class RingMap:
    """Ring endomorphism of R(n, m) induced by a monomial substitution mod m."""

    def __init__(self, ctx: RingCtx, mat):
        self.ctx = ctx
        self.mat = ((mat[0][0] % ctx.m, mat[0][1] % ctx.m), (mat[1][0] % ctx.m, mat[1][1] % ctx.m))

    def __call__(self, x: RingElem) -> RingElem:
        ctx = self.ctx
        arr = np.zeros((ctx.m, ctx.m), dtype=np.int64)
        (p, q), (r, s) = self.mat
        for i, j in zip(*np.nonzero(x.coeffs)):
            arr[(p * i + q * j) % ctx.m, (r * i + s * j) % ctx.m] += int(x.coeffs[i, j])
        return ctx.elem(arr)


def endo_apply(images: tuple[MagnusElem, MagnusElem], z: MagnusElem) -> MagnusElem:
    """Apply the endomorphism x_i -> images[i] to z in W via its normal form.

    Well-defined whenever the images actually define an endomorphism of W
    (always the case for the generator moves exercised here).
    """
    decomp = word_decomposition(z)
    if decomp is None:
        raise ValueError("element is not in W(n, m)")
    e1, e2, alpha = decomp
    det_c = gen_det(images)
    phi_ab = RingMap(z.ctx, ab_matrix(images))
    return (images[0] ** e1) * (images[1] ** e2) * derived_elem(z.ctx, det_c * phi_ab(alpha))


def endo_compose(
    outer: tuple[MagnusElem, MagnusElem], inner: tuple[MagnusElem, MagnusElem]
) -> tuple[MagnusElem, MagnusElem]:
    """Images of the composite "apply inner first, then outer"."""
    return endo_apply(outer, inner[0]), endo_apply(outer, inner[1])


def sl2_move_images(ctx: RingCtx, move: str, u: int | None = None) -> tuple[MagnusElem, MagnusElem]:
    """Generator images of the basic moves: S: (x2, x1^-1), T: (x2 x1, x2), U(u): (x1, x2^u)."""
    x1, x2 = gens(ctx)
    if move == "S":
        return (x2, x1.inv())
    if move == "T":
        return (x2 * x1, x2)
    if move == "U":
        if u is None:
            raise ValueError("U move needs a unit exponent")
        return (x1, x2**u)
    raise ValueError(f"unknown move {move!r}")
