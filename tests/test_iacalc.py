"""IA-endomorphism calculus: matrices, determinants, classification, gen_det."""

import itertools
import random

import pytest

from magnus_extras import (
    RingMap,
    ab_matrix,
    commutator,
    conjugator_by_enumeration,
    endo_apply,
    endo_compose,
    gen_det,
    ia_apply,
    ia_compose,
    ia_identity,
    kappa_elem,
    random_word_element,
    sl2_move_images,
    w_elements,
    witness_equal,
)
from metab.grpring import augmentation, monomial_part, ring_make, try_invert
from metab.iacalc import (
    IAEndo,
    bachmuth_matrix,
    find_conjugator,
    ia_classify,
    ia_det,
    ia_matrix,
    is_bijective_on_w,
    pair_dets,
)
from metab.magnus import conj, derived_elem, gens, identity
from metab.nielsen import mat_det, mat_mul


def ctx22():
    return ring_make(2, 2)


def test_matrix_of_inner_generators():
    # gamma_(0,1) is conjugation by x1, gamma_(-1,0) by x2 (paper's worked example)
    ctx = ring_make(3, 4)
    one, a1, a2 = ctx.one(), ctx.monomial(1, 0), ctx.monomial(0, 1)
    g1 = IAEndo(ctx.zero(), one)
    assert ia_matrix(g1) == ((one, one - a2), (ctx.zero(), a1))
    assert ia_det(g1) == a1
    g2 = IAEndo(-one, ctx.zero())
    assert ia_matrix(g2) == ((a2, ctx.zero()), (one - a1, one))
    assert ia_det(g2) == a2
    ident = ia_identity(ctx)
    assert ia_matrix(ident) == ((one, ctx.zero()), (ctx.zero(), one))
    assert ia_det(ident) == one


def test_det_equals_matrix_det_and_has_augmentation_one():
    rng = random.Random(4)
    for n, m in [(2, 2), (3, 3), (4, 2)]:
        ctx = ring_make(n, m)
        for _ in range(20):
            e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
            assert ia_det(e) == mat_det(ia_matrix(e))
            assert augmentation(ia_det(e)) == 1


def test_compose_parameter_law():
    ctx = ring_make(3, 3)
    one, a1 = ctx.one(), ctx.monomial(1, 0)
    e = IAEndo(ctx.zero(), one)      # conj by x1
    f = IAEndo(-one, ctx.zero())     # conj by x2
    g = ia_compose(e, f)
    assert g.r1 == -a1 and g.r2 == one
    ident = ia_identity(ctx)
    rng = random.Random(9)
    for _ in range(15):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        f = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        assert ia_compose(e, ident) == e
        assert ia_compose(ident, e) == e
        # matrix of "f first, then e" is matrix(e) @ matrix(f)
        assert ia_matrix(ia_compose(e, f)) == mat_mul(ia_matrix(e), ia_matrix(f))
        # det is an honest monoid homomorphism on IA (exact, not just mod Ann)
        assert ia_det(ia_compose(e, f)) == ia_det(e) * ia_det(f)


def test_compose_matches_application_order():
    ctx = ring_make(2, 2)
    one = ctx.one()
    e = IAEndo(ctx.zero(), one)
    f = IAEndo(-one, ctx.zero())
    g = ia_compose(e, f)
    for z in gens(ctx):
        assert ia_apply(g, z) == ia_apply(e, ia_apply(f, z))


def test_ia_apply_examples():
    ctx = ring_make(3, 3)
    x1, x2 = gens(ctx)
    rng = random.Random(17)
    for _ in range(10):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        c = commutator(x1, x2)
        assert ia_apply(e, c) == derived_elem(ctx, ia_det(e))
        z = random_word_element(ctx, rng, 8)
        assert ia_apply(ia_identity(ctx), z) == z
        # gamma_(0,1) is conjugation by x1
        g1 = IAEndo(ctx.zero(), ctx.one())
        assert ia_apply(g1, z) == conj(z, x1)
    with pytest.raises(ValueError):
        from metab.magnus import MagnusElem

        ia_apply(ia_identity(ctx), MagnusElem(ctx, ctx.one(), ctx.zero(), (0, 0)))


def test_eigenvalue_property_on_derived_line():
    ctx = ring_make(2, 4)
    rng = random.Random(23)
    for _ in range(15):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        alpha = ctx.random_elem(rng)
        assert ia_apply(e, derived_elem(ctx, alpha)) == derived_elem(ctx, ia_det(e) * alpha)


def test_classify_examples():
    ctx = ctx22()
    one = ctx.one()
    v = ia_classify(IAEndo(ctx.zero(), one), verify_budget=200)
    assert v.kind == "inner" and v.inner_exponents == (1, 0)
    v = ia_classify(ia_identity(ctx), verify_budget=200)
    assert v.kind == "inner" and v.inner_exponents == (0, 0)


def test_classification_agrees_with_brute_force_on_w22_sample():
    ctx = ctx22()
    elems = list(ctx.all_elements())
    rng = random.Random(5)
    sample = [(rng.choice(elems), rng.choice(elems)) for _ in range(24)]
    for r1, r2 in sample:
        e = IAEndo(r1, r2)
        verdict = ia_classify(e)
        bij = is_bijective_on_w(e, budget=500)
        assert bij == (verdict.kind != "not_automorphism")
        w = conjugator_by_enumeration(e, budget=500)
        assert (w is not None) == (verdict.kind == "inner")
        # linear-algebra fallbacks agree with literal enumeration
        assert is_bijective_on_w(e) == bij
        w2 = find_conjugator(e)
        assert (w2 is not None) == (w is not None)


def test_gen_det_of_sl2_moves():
    for n, m in [(2, 2), (3, 3), (5, 2)]:
        ctx = ring_make(n, m)
        dS = gen_det(sl2_move_images(ctx, "S"))
        assert witness_equal(dS, ctx.monomial(-1, 0))  # a1^-1
        dT = gen_det(sl2_move_images(ctx, "T"))
        assert witness_equal(dT, ctx.monomial(0, 1))  # a2
        for u in range(1, m + 2):
            dU = gen_det(sl2_move_images(ctx, "U", u))
            # canonical witness 1 + a2 + ... + a2^(u-1), whose augmentation is u
            assert witness_equal(dU, ctx.geom2(u))
            assert augmentation(ctx.geom2(u)) == u % n
            # the raw witness matches u modulo eps(Ann(kappa)) = gcd(m^2, n) Z/n
            from math import gcd

            assert (augmentation(dU) - u) % gcd(m * m, n) == 0


def test_gen_det_agrees_with_ia_det():
    ctx = ring_make(3, 3)
    rng = random.Random(31)
    for _ in range(12):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        assert witness_equal(gen_det(e.images()), ia_det(e))


def test_gen_det_crossed_homomorphism():
    # det_c(outer o inner) = det_c(outer) * outer_ab(det_c(inner)) mod Ann(kappa)
    rng = random.Random(41)
    for n, m in [(2, 2), (3, 3)]:
        ctx = ring_make(n, m)
        moves = [
            sl2_move_images(ctx, "S"),
            sl2_move_images(ctx, "T"),
            sl2_move_images(ctx, "U", 1 + m),
            IAEndo(ctx.random_elem(rng), ctx.random_elem(rng)).images(),
        ]
        for outer, inner in itertools.product(moves, repeat=2):
            composite = endo_compose(outer, inner)
            lhs = gen_det(composite)
            rhs = gen_det(outer) * RingMap(ctx, ab_matrix(outer))(gen_det(inner))
            assert witness_equal(lhs, rhs)


def test_endo_apply_matches_ia_apply_for_ia_endos():
    ctx = ring_make(2, 3)
    rng = random.Random(53)
    for _ in range(10):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        z = random_word_element(ctx, rng, 9)
        assert endo_apply(e.images(), z) == ia_apply(e, z)


def test_simultaneous_conjugacy_finite_form_w22():
    """Exhaustive on W(2,2): gamma_r is inner iff det is exactly a monomial.

    The profinite statement "pairs are simultaneously conjugate iff their
    commutators are conjugate" weakens at finite level: Ann(kappa) != 0
    permits equal commutators without conjugate pairs.  The explicit
    counterexample r = (1 + a1, 0) is pinned below.
    """
    ctx = ctx22()
    elems = list(ctx.all_elements())
    inner_count = 0
    for r1, r2 in itertools.product(elems, repeat=2):
        e = IAEndo(r1, r2)
        if try_invert(ia_det(e)) is None:
            continue
        w = conjugator_by_enumeration(e, budget=500)
        assert (w is not None) == (monomial_part(ia_det(e)) is not None)
        if w is not None:
            inner_count += 1
    assert inner_count > 0

    one, a1 = ctx.one(), ctx.monomial(1, 0)
    e = IAEndo(one + a1, ctx.zero())
    x1, x2 = gens(ctx)
    y1, y2 = e.images()
    # commutator of the image pair equals [x1, x2] on the nose...
    assert commutator(y1, y2) == kappa_elem(ctx)
    # ...yet the pairs are not simultaneously conjugate
    assert conjugator_by_enumeration(e, budget=500) is None
    assert monomial_part(ia_det(e)) is None


def test_all_dets_are_units_on_r22():
    # R(2,2) is local, so every gamma_r there is an automorphism
    ctx = ctx22()
    for r1, r2 in itertools.product(ctx.all_elements(), repeat=2):
        assert try_invert(ia_det(IAEndo(r1, r2))) is not None


def brute_is_bijective(e, budget):
    """Oracle: push the elements of W through `ia_apply` one at a time."""
    elems = w_elements(e.ctx, budget)
    return len({ia_apply(e, z) for z in elems}) == len(elems)


@pytest.mark.parametrize("n,m,count", [(2, 2, 6), (3, 2, 5)])
def test_batched_bijectivity_agrees_with_per_element_images(n, m, count):
    ctx = ring_make(n, m)
    rng = random.Random(70 + n)
    seen = set()
    for _ in range(count):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        bij = is_bijective_on_w(e, budget=2000)
        assert bij == brute_is_bijective(e, 2000)
        assert is_bijective_on_w(e) == bij  # the lattice branch
        seen.add(bij)
    # R(2,2) is local, so only R(3,2) can show a non-bijective gamma_r
    assert seen == ({True} if n == 2 else {True, False})


def test_bachmuth_matrix_is_ia_apply_on_t_parts():
    ctx = ring_make(3, 3)
    rng = random.Random(29)
    for _ in range(10):
        e = IAEndo(ctx.random_elem(rng), ctx.random_elem(rng))
        z = random_word_element(ctx, rng, 8)
        assert list(bachmuth_matrix(e) @ z.bvec() % 3) == list(ia_apply(e, z).bvec())


def test_pair_dets_match_ia_det():
    ctx = ring_make(3, 2)
    rng = random.Random(37)
    elems = [ctx.random_elem(rng) for _ in range(6)]
    dets = pair_dets(ctx, elems)
    for (i, r1), (j, r2) in itertools.product(enumerate(elems), repeat=2):
        assert list(dets[i, j]) == list(ia_det(IAEndo(r1, r2)).vec())
