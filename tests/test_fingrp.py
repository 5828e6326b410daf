"""Finite groups: structure data, module action, kernel ideals, descent, stability."""

import itertools
import random
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from fingrp_oracle import (
    automorphism_group,
    hom_extends,
    inner_automorphism,
    inner_cosets,
    inner_order,
    inverse_table,
    product_table,
)
from metab import linalg
from metab.catalog import builtin_groups, builtin_names, get_group, group_entry, load_group_dict
from metab.errors import HypothesisError, InvariantViolation
from metab.fingrp import (
    AbelianStructure,
    IdealBasis,
    ModuleCtx,
    group_make,
    ia_descend,
    inertia_relation_check,
    kernel_ideal,
    module_power,
    outer_representatives,
    perm_cycles,
    perm_orbits,
    solve_commutator_power,
)
from metab.grpring import ring_make
from nielsen_oracle import epi_classes, pair_module_power
from stability import StabilityInstance, stability_instance_from_group


def test_s3_structure():
    G = get_group("S3")
    assert G.order == 6
    assert G.is_metabelian and not G.is_abelian
    assert G.exponent == 6
    assert lcm(G.ab_order(G.g1), G.ab_order(G.g2)) == 2
    assert G.derived_exponent() == 3
    assert len(G.derived_subgroup()) == 3


def test_s4_not_metabelian():
    G = group_make(4, [[0, 1]], [[0, 1, 2, 3]])
    assert G.order == 24
    assert not G.is_metabelian
    assert len(G.derived_subgroup()) == 12  # A4


def test_klein_four_abelian():
    G = get_group("Z2xZ2")
    assert G.order == 4 and G.is_abelian
    assert G.derived_subgroup() == [G.identity]


def test_catalog_structure_table():
    expected = {
        "S3": (6, 6, 2, 3),
        "D4": (8, 4, 2, 2),
        "D5": (10, 10, 2, 5),
        "D6": (12, 6, 2, 3),
        "Q8": (8, 4, 2, 2),
        "Heis27": (27, 3, 3, 3),
        "C7C3": (21, 21, 3, 7),
    }
    for name, (order, exponent, ab_exp, der_exp) in expected.items():
        G = get_group(name)
        assert G.order == order, name
        assert G.exponent == exponent, name
        assert lcm(G.ab_order(G.g1), G.ab_order(G.g2)) == ab_exp, name
        assert G.derived_exponent() == der_exp, name
        assert G.is_metabelian, name


def test_group_entry_round_trip():
    for name in ["S3", "Q8", "Heis27", "C7C3"]:
        G = get_group(name)
        entry = group_entry(name, G)
        name2, G2 = load_group_dict(entry)
        assert name2 == name
        assert G2.order == G.order and G2.elements == G.elements


def test_degenerate_inputs():
    with pytest.raises(ValueError):
        group_make(0, [], [])
    with pytest.raises(ValueError):
        group_make(3, (0, 0, 1), (0, 1, 2))


def test_module_evaluate_basics():
    G = get_group("Heis27")
    mc = ModuleCtx(G)
    c = mc.c
    assert mc.module_evaluate(mc.ring.one(), c) == c
    assert mc.module_evaluate(mc.ring.monomial(1, 0), c) == G.conj(c, G.g1)
    rng = random.Random(3)
    for _ in range(20):
        r, s = mc.ring.random_elem(rng), mc.ring.random_elem(rng)
        lhs = mc.module_evaluate(r + s, c)
        rhs = G.mul(mc.module_evaluate(r, c), mc.module_evaluate(s, c))
        assert lhs == rhs
        # module law: (r*s) acts as r after s
        assert mc.module_evaluate(r * s, c) == mc.module_evaluate(
            r, mc.module_evaluate(s, c)
        )


@pytest.mark.parametrize("name", ["S3", "Q8", "Heis27", "C7C3", "S4", "Z8xZ8", "AGL1_7"])
def test_power_table_matches_repeated_products(name):
    G = agl1_7() if name == "AGL1_7" else get_group(name)
    e = G.exponent
    assert G.powers.shape == (G.order, e)
    for g in range(G.order):
        acc = G.identity
        for k in range(e):
            assert G.powers[g, k] == acc
            acc = G.mul(acc, g)
        assert acc == G.identity  # g^e = 1
        for k in (-e - 1, -1, e, 2 * e + 1):
            want = G.identity
            for _ in range(abs(k)):
                want = G.mul(want, g if k > 0 else G.inv(g))
            assert G.power(g, k) == want


@pytest.mark.parametrize("name", ["Heis27", "C7C3", "AGL1_7"])
def test_module_power_matches_pair_oracle(name):
    G = agl1_7() if name == "AGL1_7" else get_group(name)
    ring = ModuleCtx(G).ring
    h1, h2 = np.array(class_reps(G)).T
    rng = random.Random(len(name))
    der = G.derived_subgroup()
    for _ in range(5):
        r = ring.random_elem(rng)
        w = np.array([rng.choice(der) for _ in h1])
        got = module_power(G, r, w, h1, h2)
        assert got.tolist() == [pair_module_power(G, r, *row) for row in zip(w, h1, h2)]


def test_module_ctx_rejects_non_metabelian():
    with pytest.raises(HypothesisError):
        ModuleCtx(get_group("S4"))


def test_kernel_ideal_heisenberg_index():
    mc = ModuleCtx(get_group("Heis27"))
    assert mc.ring.n == 3 and mc.ring.m == 3
    ideal = kernel_ideal(mc)
    assert ideal.additive_index() == 3  # |G'| = 3
    # n * 1 is always in the kernel ideal
    assert ideal.contains(mc.ring.scalar(mc.ring.n))
    # membership test is consistent with direct evaluation
    rng = random.Random(5)
    for _ in range(40):
        r = mc.ring.random_elem(rng)
        assert ideal.contains(r) == (mc.module_evaluate(r, mc.c) == mc.group.identity)
        residue, _ = linalg.reduce_vector(ideal.rows, r.vec(), mc.ring.n)
        assert ideal.contains(r - mc.ring.elem(residue.reshape(3, 3)))


def test_kernel_ideal_abelian_is_whole_ring():
    mc = ModuleCtx(get_group("Z3xZ3"))
    ideal = kernel_ideal(mc)
    assert ideal.additive_index() == 1
    assert ideal.contains(mc.ring.one())


def test_abelian_structure():
    G = get_group("Z4xZ4")
    struct = AbelianStructure(G, list(range(G.order)))
    assert sorted(struct.orders, reverse=True) == [4, 4]
    for w in range(G.order):
        coords = struct.dlog(w)
        acc = G.identity
        for b, k in zip(struct.basis, coords):
            acc = G.mul(acc, G.power(b, k))
        assert acc == w


def test_hom_extends():
    G = get_group("S3")
    ident = hom_extends(G, G.pair, G.pair)
    assert ident is not None and ident.mapping == tuple(range(G.order))
    for by in range(G.order):
        conj_pair = (G.conj(G.g1, by), G.conj(G.g2, by))
        endo = hom_extends(G, G.pair, conj_pair)
        assert endo == inner_automorphism(G, by)
    # mismatched orders can never extend
    bad = hom_extends(G, G.pair, (G.g2, G.g1))  # g1 has order 2, g2 order 3
    assert bad is None


def test_hom_extends_agrees_with_naive_check():
    # oracle: a map on generators extends iff every relation (full word table)
    # is respected; brute-checked by trying all pair images on small groups
    for name in ["S3", "Z2xZ2", "D4"]:
        G = get_group(name)
        for h1, h2 in itertools.product(range(G.order), repeat=2):
            endo = hom_extends(G, G.pair, (h1, h2))
            # naive check: build the map by word closure and verify homomorphy
            words = {G.pair[0]: h1, G.pair[1]: h2, G.identity: G.identity}
            frontier = list(words)
            ok = True
            while frontier and ok:
                nxt = []
                for w in frontier:
                    for g, img in [(G.pair[0], h1), (G.pair[1], h2)]:
                        t = G.mul(w, g)
                        ti = G.mul(words[w], img)
                        if t in words:
                            if words[t] != ti:
                                ok = False
                        else:
                            words[t] = ti
                            nxt.append(t)
                frontier = nxt
            if ok:
                # verify multiplicativity on all pairs
                ok = all(
                    words[G.mul(a, b)] == G.mul(words[a], words[b])
                    for a, b in itertools.product(range(G.order), repeat=2)
                )
            assert (endo is not None) == ok


@pytest.mark.parametrize("name", builtin_names())
def test_table_and_inverse_match_permutation_products(name):
    G = get_group(name)
    assert np.array_equal(G.table, product_table(G))
    assert np.array_equal(G.inverse, inverse_table(G))


def extensions_checked_against_walk(G, h1, h2) -> np.ndarray:
    """extend_pair on one batch, each row checked against the G x G walk; the mask."""
    ok, maps = G.extend_pair(np.array(h1), np.array(h2))
    walks = [hom_extends(G, G.pair, (int(a), int(b))) for a, b in zip(h1, h2)]
    assert ok.tolist() == [w is not None for w in walks]
    assert [tuple(f) for f in maps.tolist()] == [w.mapping for w in walks if w is not None]
    return ok


def test_extend_pair_matches_graph_walk_on_every_pair():
    verdicts = set()
    for name, G in sorted(builtin_groups().items()):
        if G.order <= 24:
            pairs = list(itertools.product(range(G.order), repeat=2))
            ok = extensions_checked_against_walk(G, *zip(*pairs))
            assert ok[pairs.index(G.pair)]
            verdicts.update(ok.tolist())
    assert verdicts == {True, False}


def test_extend_pair_matches_graph_walk_on_class_representatives():
    verdicts = set()
    for name in ["Heis27", "C7C3", "Z8xZ8"]:
        G = get_group(name)
        verdicts.update(extensions_checked_against_walk(G, *zip(*class_reps(G))).tolist())
    assert verdicts == {True, False}


def class_reps(G):
    return epi_classes(G)


def test_automorphism_groups():
    assert len(automorphism_group(get_group("S3"))) == 6
    assert len(outer_representatives(get_group("S3"), class_reps(get_group("S3")))) == 1
    assert len(automorphism_group(get_group("Z2xZ2"))) == 6  # GL2(F2)
    auts = automorphism_group(get_group("Q8"))
    assert len(auts) == 24
    ident = tuple(range(get_group("Q8").order))
    assert any(a.mapping == ident for a in auts)


def agl1_7():
    return group_make(7, [list(range(7))], [[1, 3, 2, 6, 4, 5]])  # x + 1 and 3x mod 7


@pytest.mark.parametrize(
    "name",
    [name for name, G in sorted(builtin_groups().items()) if G.order <= 64] + ["AGL1_7"],
)
def test_outer_representatives_match_oracle(name):
    G = agl1_7() if name == "AGL1_7" else get_group(name)
    reps = outer_representatives(G, class_reps(G))
    assert reps.shape[1] == G.order
    for m in reps:  # each row is an automorphism
        assert sorted(m.tolist()) == list(range(G.order))
        assert np.array_equal(m[G.table], G.table[m[:, None], m[None, :]])
    auts = automorphism_group(G)
    inn = inner_order(G)
    assert len(auts) % inn == 0 and len(reps) == len(auts) // inn
    # pairwise distinct Inn-cosets, and every coset of Aut(G) is hit
    assert inner_cosets(G, reps) == inner_cosets(G, [a.mapping for a in auts])


METABELIAN = ["S3", "D4", "D5", "D6", "Q8", "Heis27", "C7C3", "Z2xZ2", "Z3xZ3"]


@pytest.mark.parametrize("name", METABELIAN)
def test_ia_descend_never_fails(name):
    G = get_group(name)
    mc = ModuleCtx(G)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(60):
        r = (mc.ring.random_elem(rng), mc.ring.random_elem(rng))
        endo = ia_descend(mc, r)  # raises InvariantViolation on failure
        # identity on the abelianization: images differ from generators by G'
        der = set(G.derived_subgroup())
        for g in G.pair:
            assert G.mul(int(endo[g]), G.inv(g)) in der


def test_ia_descend_examples():
    G = get_group("Heis27")
    mc = ModuleCtx(G)
    z = mc.ring.zero()
    assert ia_descend(mc, (z, z)).tolist() == list(range(G.order))
    # r = (0, 1) is conjugation by g1
    endo = ia_descend(mc, (z, mc.ring.one()))
    assert tuple(endo.tolist()) == inner_automorphism(G, G.g1).mapping


def test_ia_descend_acts_by_determinant_on_derived():
    from metab.iacalc import IAEndo, ia_det

    for name in ["Heis27", "C7C3", "S3", "D4"]:
        mc = ModuleCtx(get_group(name))
        rng = random.Random(len(name))
        for _ in range(25):
            r = (mc.ring.random_elem(rng), mc.ring.random_elem(rng))
            endo = ia_descend(mc, r)
            det = ia_det(IAEndo(*r))
            for w in mc.derived:
                assert endo[w] == mc.module_evaluate(det, w)


@pytest.mark.parametrize("name", METABELIAN)
def test_inertia_relation(name):
    mc = ModuleCtx(get_group(name))
    assert inertia_relation_check(mc, kernel_ideal(mc))


def test_solve_commutator_power():
    mc = ModuleCtx(get_group("C7C3"))
    G = mc.group
    for w in mc.derived:
        s = solve_commutator_power(mc, w)
        assert s is not None
        assert mc.module_evaluate(s, mc.c) == w


def test_stability_group_instances_hypotheses_hold():
    for name in ["S3", "D4", "Heis27", "C7C3", "D6"]:
        mc = ModuleCtx(get_group(name))
        inst = stability_instance_from_group(mc)
        ok, problems = inst.hypothesis_check()
        assert ok, (name, problems)


@pytest.mark.parametrize("name", ["S3", "D4", "Heis27"])
def test_stability_check_matches_brute(name):
    mc = ModuleCtx(get_group(name))
    inst = stability_instance_from_group(mc)
    rng = random.Random(len(name) * 7)
    agree = 0
    for _ in range(25):
        r = (inst.ring.random_elem(rng), inst.ring.random_elem(rng))
        assert inst.stability_check(r) == inst.brute_stability(r)
        agree += 1
    assert agree == 25


def unstable_instance_r32():
    """K with s1 (a1-1) outside the ideal: conjugation by x1 moves it."""
    ring = ring_make(3, 2)
    one = ring.one()
    v = one - ring.monomial(0, 1)
    gens = [v * mono for mono in ring.monomials()] + [ring.norm1() * ring.norm2()]
    rows = linalg.howell(np.array([g.vec() for g in gens]), 3)
    ideal = IdealBasis(ring, rows)
    s = ring.monomial(1, 1)
    return StabilityInstance(ring, ideal, s, s, 2, 2)


def test_engineered_unstable_instance():
    inst = unstable_instance_r32()
    ring = inst.ring
    ok, problems = inst.hypothesis_check()
    assert ok, problems
    r = (ring.zero(), ring.one())  # conjugation by x1
    assert not inst.stability_check(r)
    assert not inst.brute_stability(r)
    # identity is always stable
    assert inst.stability_check((ring.zero(), ring.zero()))
    assert inst.brute_stability((ring.zero(), ring.zero()))
    rng = random.Random(12)
    for _ in range(30):
        r = (ring.random_elem(rng), ring.random_elem(rng))
        assert inst.stability_check(r) == inst.brute_stability(r)


@st.composite
def perms_with_fixed_points(draw, n):
    """A permutation of range(n) moving only a drawn subset of the points."""
    moved = draw(st.lists(st.integers(0, n - 1), unique=True))
    p = list(range(n))
    for x, y in zip(moved, draw(st.permutations(moved))):
        p[x] = y
    return p


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12).flatmap(perms_with_fixed_points))
def test_perm_cycles_matches_sympy(p):
    want = Permutation(p).full_cyclic_form
    assert perm_cycles(tuple(p)) == want
    assert perm_cycles(np.array(p)) == want


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12).flatmap(
    lambda n: st.lists(perms_with_fixed_points(n), min_size=1, max_size=3)))
def test_perm_orbits_matches_sympy(perms):
    n = len(perms[0])
    group = PermutationGroup([Permutation(p) for p in perms])
    assert perm_orbits(perms, n) == sorted(sorted(orbit) for orbit in group.orbits())
    assert perm_orbits([np.array(p) for p in perms], n) == perm_orbits(perms, n)


@pytest.mark.parametrize("name", builtin_names())
def test_classes_and_derived_subgroup_match_sympy(name):
    G = get_group(name)
    group = PermutationGroup([Permutation(list(G.elements[g])) for g in G.pair])
    sizes = sorted(len(cls) for cls in group.conjugacy_classes())
    assert sorted(len(cls) for cls in G.conjugacy_classes()) == sizes
    assert sorted(sum(G.conjugacy_classes(), [])) == list(range(G.order))
    derived = {G.index[tuple(g.array_form)] for g in group.derived_subgroup().elements}
    assert G.derived_subgroup() == sorted(derived)
