"""Finite Magnus model W(n, m): group law, membership, enumeration, lattice facts."""

import itertools
import random

import pytest

from magnus_extras import (
    ann_kappa,
    ann_kappa_basis,
    commutator,
    elements_of,
    kappa_elem,
    kappa_line_basis,
    random_word_element,
    reduce_mod_ann,
    w_elements,
    witness_equal,
    word_decomposition,
)
from metab import linalg
from metab.grpring import BudgetError, ring_make
from metab.magnus import (
    MagnusElem,
    WArray,
    conj,
    d_value,
    derived_elem,
    enumerate_w,
    gens,
    identity,
    kappa_vec,
    lambda_basis,
    membership,
    require_in_w,
    section,
    w_order,
)


def brute_subgroup(ctx):
    """Oracle: BFS closure of the generators under multiplication."""
    x1, x2 = gens(ctx)
    gens4 = [x1, x2, x1.inv(), x2.inv()]
    seen = {identity(ctx)}
    frontier = [identity(ctx)]
    while frontier:
        nxt = []
        for z in frontier:
            for g in gens4:
                w = z * g
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def test_group_law_and_inverse_formula():
    ctx = ring_make(3, 4)
    x1, x2 = gens(ctx)
    assert x1 * x1.inv() == identity(ctx)
    assert x2.inv() * x2 == identity(ctx)
    # (t, a)^-1 = (-a^-1 t, a^-1) checked against the defining product
    for z in [x1, x2, x1 * x2, x2 * x1 * x2]:
        a_inv = ctx.monomial(-z.v[0], -z.v[1])
        inv = z.inv()
        assert inv.b1 == -(a_inv * z.b1) and inv.b2 == -(a_inv * z.b2)
    assert x1.v == (1, 0) and x2.v == (0, 1)


def test_conjugation_scales_t_part():
    ctx = ring_make(4, 3)
    x1, x2 = gens(ctx)
    t_elem = derived_elem(ctx, ctx.one() + ctx.monomial(1, 2))
    w = x1 * x2 * x1
    got = conj(t_elem, w)
    a = w.mono()
    assert got.v == (0, 0)
    assert got.b1 == a * t_elem.b1 and got.b2 == a * t_elem.b2


def test_commutator_is_kappa():
    for n, m in [(2, 2), (3, 3), (5, 2)]:
        ctx = ring_make(n, m)
        x1, x2 = gens(ctx)
        c = commutator(x1, x2)
        k1, k2 = kappa_vec(ctx)
        assert c == kappa_elem(ctx)
        assert c.b1 == k1 and c.b2 == k2 and c.v == (0, 0)
        assert commutator(x1, x1) == identity(ctx)
        # [x2, x1] = [x1, x2]^-1 exactly
        assert commutator(x2, x1) == c.inv()


def test_power_of_generator_is_geometric_series():
    ctx = ring_make(3, 4)
    x1, _ = gens(ctx)
    z = identity(ctx)
    for k in range(1, 9):
        z = z * x1
        assert x1**k == z
    assert (x1**4).v == (0, 0)
    assert (x1**4).b1 == ctx.norm1()


def test_section():
    ctx = ring_make(2, 3)
    x1, x2 = gens(ctx)
    assert section(ctx, (0, 0)) == identity(ctx)
    assert section(ctx, (1, 0)) == x1
    assert section(ctx, (1, 1)) == x1 * x2
    for v1, v2 in itertools.product(range(3), repeat=2):
        assert section(ctx, (v1, v2)) == (x1**v1) * (x2**v2)


def test_membership_examples():
    ctx = ring_make(2, 2)
    x1, x2 = gens(ctx)
    w = membership(commutator(x1, x2))
    assert w is not None and (w.q1, w.q2) == (0, 0)
    assert witness_equal(w.alpha, ctx.one())
    w0 = membership(identity(ctx))
    assert w0 is not None and witness_equal(w0.alpha, ctx.zero())
    # (t1, 1) is not in W(2,2): exhaustive oracle over all alpha and norm coords
    t1_elem = MagnusElem(ctx, ctx.one(), ctx.zero(), (0, 0))
    hits = [
        (alpha, q1, q2)
        for alpha in ctx.all_elements()
        for q1 in range(2)
        for q2 in range(2)
        if derived_elem(ctx, alpha).b1 + q1 * ctx.norm1() == t1_elem.b1
        and derived_elem(ctx, alpha).b2 + q2 * ctx.norm2() == t1_elem.b2
    ]
    assert not hits
    assert membership(t1_elem) is None


def test_enumerate_matches_brute_closure_w22():
    ctx = ring_make(2, 2)
    listed = elements_of(enumerate_w(ctx))
    assert len(listed) == len(set(listed)) == w_order(ctx)
    assert set(listed) == brute_subgroup(ctx)


def test_enumerate_matches_brute_closure_w23():
    ctx = ring_make(2, 3)
    listed = elements_of(enumerate_w(ctx))
    assert set(listed) == brute_subgroup(ctx)


def test_norm_wraparound_escapes_kappa_line():
    # x1^2 in W(2,2) has T-part N1*t1 which no alpha*kappa matches: the
    # profinite characterization of the image fails at finite level.
    ctx = ring_make(2, 2)
    x1, _ = gens(ctx)
    w = membership(x1 * x1)
    assert w is not None and (w.q1, w.q2) != (0, 0)
    # norm defect |Lambda_0| / |R*kappa|
    assert linalg.span_size(lambda_basis(ctx), 2) // linalg.span_size(kappa_line_basis(ctx), 2) == 4
    assert w_order(ctx) == 128


def test_membership_closed_under_mul_exhaustive_w22():
    ctx = ring_make(2, 2)
    elems = elements_of(enumerate_w(ctx))
    for z in elems:
        assert membership(z) is not None
        assert membership(z.inv()) is not None
    rng = random.Random(0)
    for _ in range(300):
        z, w = rng.choice(elems), rng.choice(elems)
        assert membership(z * w) is not None


@pytest.mark.parametrize("n,m", [(2, 4), (3, 3)])
def test_membership_closed_sampled(n, m):
    ctx = ring_make(n, m)
    rng = random.Random(n * 10 + m)
    for _ in range(60):
        z = random_word_element(ctx, rng)
        w = membership(z)
        assert w is not None
        # witness reconstructs the element
        rebuilt = section(ctx, z.v).bvec()
        rebuilt = (
            rebuilt
            + derived_elem(ctx, w.alpha).bvec()
            + w.q1 * MagnusElem(ctx, ctx.norm1(), ctx.zero(), (0, 0)).bvec()
            + w.q2 * MagnusElem(ctx, ctx.zero(), ctx.norm2(), (0, 0)).bvec()
        ) % n
        assert list(rebuilt) == list(z.bvec())
        assert membership(z.inv()) is not None


def test_d_is_crossed_homomorphism():
    for n, m in [(2, 2), (3, 3)]:
        ctx = ring_make(n, m)
        rng = random.Random(n + m)
        pool = [random_word_element(ctx, rng, 6) for _ in range(12)]
        # also elements outside W
        pool.append(MagnusElem(ctx, ctx.one(), ctx.one(), (1, 1)))
        pool.append(MagnusElem(ctx, ctx.monomial(1, 1), ctx.zero(), (0, 1)))
        for z, w in itertools.product(pool, repeat=2):
            assert d_value(z * w) == d_value(z) + z.mono() * d_value(w)
        for z in pool[:-2]:
            assert d_value(z).is_zero()


def test_commutation_relation():
    # z [x,y]^s = [x,y]^{a s} z and ([x,y]^s z)^k = [x,y]^{s(1+a+...+a^{k-1})} z^k
    ctx = ring_make(3, 3)
    rng = random.Random(11)
    for _ in range(20):
        z = random_word_element(ctx, rng, 8)
        s = ctx.random_elem(rng)
        ks = derived_elem(ctx, s)
        assert z * ks == derived_elem(ctx, z.mono() * s) * z
        k = rng.randrange(1, 6)
        lhs = (ks * z) ** k
        geom = ctx.zero()
        for i in range(k):
            geom = geom + z.mono() ** i
        assert lhs == derived_elem(ctx, s * geom) * (z**k)


def test_derived_subgroup_is_kappa_line_exactly():
    ctx = ring_make(2, 2)
    elems = elements_of(enumerate_w(ctx))
    comms = set()
    for z, w in itertools.product(elems, repeat=2):
        comms.add(commutator(z, w))
    # brute commutator closure under products
    derived = set(comms)
    frontier = list(comms)
    while frontier:
        nxt = []
        for a in frontier:
            for b in comms:
                c = a * b
                if c not in derived:
                    derived.add(c)
                    nxt.append(c)
        frontier = nxt
    kappa_line = {derived_elem(ctx, alpha) for alpha in ctx.all_elements()}
    assert derived == kappa_line


def test_ann_kappa_is_scalar_multiples_of_full_norm():
    for n, m in [(2, 2), (3, 3), (4, 2)]:
        ctx = ring_make(n, m)
        full_norm = ctx.norm1() * ctx.norm2()
        k1, k2 = kappa_vec(ctx)
        brute = {
            c
            for c in range(n)
            if (c * full_norm * k1).is_zero() and (c * full_norm * k2).is_zero()
        }
        assert brute == set(range(n))  # N1*N2 always annihilates kappa
        basis = ann_kappa(ctx)
        for b in basis:
            assert (b * k1).is_zero() and (b * k2).is_zero()
        # the annihilator is exactly (Z/n) * N1 N2
        span = {tuple((c * full_norm).vec()) for c in range(n)}
        got = set()
        for vec in linalg.enumerate_span(ann_kappa_basis(ctx), n, m * m):
            got.add(tuple(int(x) for x in vec))
        assert got == span


def test_word_decomposition_round_trip():
    for n, m in [(2, 2), (3, 3), (2, 4)]:
        ctx = ring_make(n, m)
        x1, x2 = gens(ctx)
        rng = random.Random(n * m)
        for _ in range(40):
            z = random_word_element(ctx, rng, 10)
            e1, e2, alpha = word_decomposition(z)
            assert 0 <= e1 < n * m and 0 <= e2 < n * m
            assert (x1**e1) * (x2**e2) * derived_elem(ctx, alpha) == z


def test_reduce_mod_ann_canonical():
    ctx = ring_make(2, 2)
    full_norm = ctx.norm1() * ctx.norm2()
    x = ctx.elem([[1, 1], [0, 1]])
    assert reduce_mod_ann(x) == reduce_mod_ann(x + full_norm)
    assert witness_equal(x, x + full_norm)
    assert not witness_equal(x, x + ctx.one())


def test_enumerate_budget():
    ctx = ring_make(3, 3)
    with pytest.raises(BudgetError):
        enumerate_w(ctx, budget=10)


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_enumerate_array_form_matches_objects_in_order(n, m):
    ctx = ring_make(n, m)
    w = enumerate_w(ctx)
    assert w.t.shape == (w_order(ctx), 2 * m * m) and w.v.shape == (w_order(ctx), 2)
    assert elements_of(w) == w_elements(ctx)


@pytest.mark.parametrize("n,m", [(2, 2), (3, 2), (2, 3)])
def test_batched_membership_agrees_with_membership(n, m):
    ctx = ring_make(n, m)
    w = enumerate_w(ctx)
    require_in_w(w)
    basis = lambda_basis(ctx)
    rng = random.Random(n * m)
    seen = set()
    for k in range(20):
        i, col = rng.randrange(len(w.t)), rng.randrange(2 * m * m)
        t = w.t.copy()
        if k % 2:  # a Lambda_0 step stays in W
            t[i] = (t[i] + basis[rng.randrange(len(basis))]) % n
        else:
            t[i, col] = (t[i, col] + rng.randrange(1, n)) % n
        row = elements_of(WArray(ctx, t[i : i + 1], w.v[i : i + 1]))[0]
        perturbed = WArray(ctx, t, w.v)
        seen.add(membership(row) is not None)
        if membership(row) is None:
            with pytest.raises(ValueError):
                require_in_w(perturbed)
        else:
            require_in_w(perturbed)
    assert seen == {True, False}


def test_batched_membership_rejects_a_perturbed_row():
    ctx = ring_make(3, 2)
    w = enumerate_w(ctx)
    t = w.t.copy()
    t[500, 0] = (t[500, 0] + 1) % 3  # D changes by a unit: (t1, 1) is not in W
    with pytest.raises(ValueError):
        require_in_w(WArray(ctx, t, w.v))
    v = w.v.copy()
    v[7] = (v[7] + (1, 0)) % 2  # right T-part, wrong A-coset
    with pytest.raises(ValueError):
        require_in_w(WArray(ctx, w.t, v))
