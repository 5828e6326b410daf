"""Nielsen-move action tables, orbits, stabilizers, and the Out(G)-action."""

import json
import random
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congruence_oracle import closure_tuples, decode
from fingrp_oracle import (
    automorphism_group,
    class_size,
    generates,
    inner_cosets,
    inner_order,
    inverse_table,
    product_table,
)
from metab.catalog import builtin_groups, get_group
from metab.fingrp import FinGroup, group_make, outer_representatives
from metab.nielsen import (
    ActionTable,
    _unit_rep,
    _units,
    braid_u_perms,
    matrix_group_closure,
    orbits,
    out_action_on_orbits,
    stabilizer_mod,
)
from nielsen_oracle import act, canonical_pair, epi_classes, move_perms
from nielsen_oracle import braid_u_perms as braid_oracle


def test_epi_class_counts():
    assert len(epi_classes(get_group("S3"))) == 3
    assert len(epi_classes(get_group("Z2xZ2"))) == 6  # ordered bases of F_2^2
    # |Epi(F2, (Z/N)^2)| = |GL2(Z/N)|
    assert len(epi_classes(get_group("Z3xZ3"))) == 48
    assert len(epi_classes(get_group("Z5xZ5"))) == 480


def test_canonicalization_idempotent_and_well_defined():
    G = get_group("S3")
    table = ActionTable(G)
    rng = random.Random(2)
    pairs = [
        (h1, h2)
        for h1 in range(G.order)
        for h2 in range(G.order)
        if generates(G, (h1, h2))
    ]
    for pair in pairs:
        canon = canonical_pair(G, pair)
        assert canonical_pair(G, canon) == canon
        # acting on two random conjugates lands in the same class
        g = rng.randrange(G.order)
        conj = (G.conj(pair[0], g), G.conj(pair[1], g))
        assert canonical_pair(G, conj) == canon
        assert table.classes[table.class_of(*conj)] == canon
        for move in ("S", "T"):
            assert act(G, move, canonical_pair(G, conj)) == act(G, move, canon)


def test_class_of_rejects_non_generating_pairs():
    table = ActionTable(get_group("S3"))
    with pytest.raises(KeyError):
        table.class_of([0, 1], [0, 0])


def test_move_relations():
    for name in ["S3", "D4", "Q8", "Heis27", "Z3xZ3", "C7C3"]:
        table = ActionTable(get_group(name))
        n = len(table.classes)
        ident = np.arange(n)
        s, t = table.perm_s, table.perm_t
        s2 = s[s]
        assert np.array_equal(s2[s2], ident)  # S^4 = 1
        st = t[s]  # S then T
        st3 = st[st[st]]
        assert np.array_equal(st3[st3], ident)  # (ST)^6 = 1
        assert np.array_equal(table.word_perm("STSTST" * 2), ident)
        # U(1) is the identity move
        assert np.array_equal(table.perm_u[1], ident)


def test_act_formulas():
    G = get_group("S3")
    table = ActionTable(G)
    rep = table.classes[0]
    h1, h2 = rep
    assert act(G, "S", act(G, "S", act(G, "S", act(G, "S", rep)))) == rep
    ss = act(G, "S", act(G, "S", rep))
    assert ss == canonical_pair(G, (G.inv(h1), G.inv(h2)))
    with pytest.raises(ValueError):
        act(G, "U", rep, u=2)  # gcd(2, 6) != 1


def test_commutator_class_invariant_along_moves():
    # the conjugacy class of [h1, h2] is unchanged by S and T
    for name in ["S3", "D4", "Q8", "Heis27", "C7C3", "D6"]:
        G = get_group(name)
        table = ActionTable(G)
        for h1, h2 in table.classes:
            base = class_size(G, G.commutator_elem(h1, h2))
            base_cls = next(
                i
                for i, c in enumerate(G.conjugacy_classes())
                if G.commutator_elem(h1, h2) in c
            )
            for move in ("S", "T"):
                m1, m2 = act(G, move, (h1, h2))
                moved = G.commutator_elem(m1, m2)
                got = next(
                    i for i, c in enumerate(G.conjugacy_classes()) if moved in c
                )
                assert got == base_cls and class_size(G, moved) == base


def test_orbits_s3():
    table = ActionTable(get_group("S3"))
    orbs = orbits(table, "SL2")
    assert orbs == [[0, 1, 2]]
    assert orbits(table, "GL2") == [[0, 1, 2]]


def test_orbits_abelian_full_level():
    table = ActionTable(get_group("Z2xZ2"))
    assert orbits(table, "SL2") == [sorted(range(6))]
    t3 = ActionTable(get_group("Z3xZ3"))
    sl_orbits = orbits(t3, "SL2")
    # SL2(Z/3)-orbits on bases are the det fibers: |units| = 2 orbits of 24
    assert sorted(len(o) for o in sl_orbits) == [24, 24]
    assert len(orbits(t3, "GL2")) == 1


class FakeCert:
    def __init__(self, e, verdict=True):
        self.e = e
        self.verdict = verdict


def test_stabilizer_requires_certificate():
    table = ActionTable(get_group("S3"))
    with pytest.raises(ValueError):
        stabilizer_mod(table, 0, FakeCert(6, verdict=False), "SL2")


def test_stabilizer_s3_level6():
    from metab.congruence import certify

    table = ActionTable(get_group("S3"))
    cert = certify(table, 6, "S3")
    assert cert.verdict
    H = stabilizer_mod(table, 0, cert, "SL2")
    assert H.ambient_order == 144  # |SL2(Z/6)|
    assert H.order == 48  # index 3 = orbit size
    Hgl = stabilizer_mod(table, 0, cert, "GL2")
    assert Hgl.ambient_order == 288
    assert Hgl.order == 96


def test_stabilizer_abelian_full_level():
    from metab.congruence import certify

    for name, N in [("Z2xZ2", 2), ("Z3xZ3", 3)]:
        table = ActionTable(get_group(name))
        cert = certify(table, N, name)
        assert cert.verdict
        H = stabilizer_mod(table, 0, cert, "GL2")
        assert H.order == 1  # stabilizer of an ordered basis is trivial
        Hsl = stabilizer_mod(table, 0, cert, "SL2")
        assert Hsl.order == 1


@pytest.mark.parametrize("name", ["C7C3", "D5", "S3"])
def test_closure_agrees_with_tuple_closure(name):
    from metab.congruence import certify

    G = get_group(name)
    e = G.exponent
    table = ActionTable(G)
    cert = certify(table, e, name)
    for ambient in ("SL2", "GL2"):
        for orb in orbits(table, ambient, braid=ambient == "GL2"):
            H = stabilizer_mod(table, orb[0], cert, ambient)
            oracle = closure_tuples(H.generators, e)
            assert H.order == len(oracle)
            assert {decode(c, e) for c in matrix_group_closure(H.generators, e)} == oracle


def test_out_action_transitive():
    for name in ["S3", "Heis27", "Z2xZ2", "D4", "C7C3"]:
        G = get_group(name)
        table = ActionTable(G)
        perms, transitive = out_action_on_orbits(G, table)
        assert transitive, name


@pytest.mark.parametrize(
    "name", [name for name, G in sorted(builtin_groups().items()) if G.order <= 64]
)
def test_from_json_round_trip(name):
    G = get_group(name)
    table = ActionTable(G)
    back = ActionTable.from_json(G, json.loads(json.dumps(table.to_json())))
    assert back.classes == table.classes
    assert back.units == table.units and back.perm_u.keys() == table.perm_u.keys()
    for letter in ["S", "T", "s", "t"] + [f"U{u}" for u in table.units]:
        assert np.array_equal(back.letter_perm(letter), table.letter_perm(letter))


def corrupted(data, key, value):
    return {**data, key: value}


def test_from_json_rejects_inconsistent_tables():
    G = get_group("S3")
    data = ActionTable(G).to_json()
    n = len(data["classes"])
    bad = [
        corrupted(data, "e", 2),
        corrupted(data, "perm_u", {"1": data["perm_u"]["1"]}),
        corrupted(data, "classes", [data["classes"][0]] * n),
        corrupted(data, "classes", [[0, G.order]] + data["classes"][1:]),
        corrupted(data, "classes", [[0, 1, 2]] + data["classes"][1:]),
        corrupted(data, "perm_s", [0] * n),
        corrupted(data, "perm_t", data["perm_t"][:-1]),
        # a permutation of the classes, but S^4 != 1
        corrupted(data, "perm_s", list(range(1, n)) + [0]),
        # S is intact, but (ST)^3 = S^3 = S != 1
        corrupted(data, "perm_t", list(range(n))),
        # a pair that does not generate, and a generating pair that is not canonical
        corrupted(data, "classes", [[0, 0]] + data["classes"][1:]),
        corrupted(data, "classes", [data["classes"][0][::-1]] + data["classes"][1:]),
    ]
    for item in bad:
        with pytest.raises(ValueError):
            ActionTable.from_json(G, item)
    ActionTable.from_json(G, data)


def perm_pairs(degree):
    return st.tuples(st.permutations(range(degree)), st.permutations(range(degree)))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5).flatmap(perm_pairs))
def test_random_two_generated_groups(gens):
    G = FinGroup(len(gens[0]), tuple(gens[0]), tuple(gens[1]))
    assume(G.order <= 24)
    assert np.array_equal(G.table, product_table(G))
    assert np.array_equal(G.inverse, inverse_table(G))
    table = ActionTable(G)
    ident = np.arange(len(table))
    s2 = table.word_perm("SS")
    assert np.array_equal(s2[s2], ident)
    assert np.array_equal(table.word_perm("STSTST"), ident)
    assert np.array_equal(s2[table.perm_t], table.perm_t[s2])
    ActionTable.from_json(G, json.loads(json.dumps(table.to_json())))
    # Inn(G) = G/Z(G) acts freely on generating pairs
    pairs = sum(generates(G, (h1, h2)) for h1 in range(G.order) for h2 in range(G.order))
    assert len(table) * inner_order(G) == pairs
    reps = outer_representatives(G, table.classes)
    assert len(reps) == len(inner_cosets(G, [a.mapping for a in automorphism_group(G)]))
    assert_matches_oracle(G, table)


def assert_matches_oracle(G, table):
    classes = epi_classes(G)
    assert table.classes == classes
    for letter, perm in move_perms(G, table.units).items():
        assert table.letter_perm(letter).tolist() == perm, letter
    if G.is_metabelian:
        braid = braid_u_perms(table)
        for letter, perm in braid_oracle(G, classes, table.units).items():
            assert braid[int(letter[1:])].tolist() == perm, letter


@pytest.mark.parametrize("name", sorted(builtin_groups()) + ["AGL1_7"])
def test_classes_and_moves_match_oracle(name):
    if name == "AGL1_7":  # x + 1 and 3x mod 7
        G = group_make(7, [list(range(7))], [[1, 3, 2, 6, 4, 5]])
    else:
        G = get_group(name)
    assert_matches_oracle(G, ActionTable(G))


def test_unit_rep_matches_scan():
    def scan(units, u, e):  # the first unit of 1..e congruent to u mod e
        return next(v for v in units if v % e == u % e)

    for e in range(1, 61):
        table = SimpleNamespace(e=e, units=_units(e))
        for u in range(1, 3 * e + 1):
            if gcd(u, e) == 1:
                assert _unit_rep(table, u) == scan(table.units, u, e), (u, e)
