"""Word machinery, Gamma(e) Schreier generators, level certification."""

import random
from math import lcm

import numpy as np
import pytest

from congruence_oracle import (
    ambient_tuples,
    closure_tuples,
    coset_words,
    decode,
    invert_word,
    spelled_words,
    verify_by_words,
)
from metab import congruence
from metab.catalog import builtin_groups, get_group
from metab.congruence import (
    _LETTER_MATS,
    LETTERS,
    certify,
    evaluate_word,
    gamma_schreier,
    one_plus_eX_check,
    one_plus_ex_matrices,
    sl2_order,
    verify_action_level,
    wohlfahrt_level,
    word_from_matrix,
)
from metab.errors import BudgetError
from metab.nielsen import IDENT2, M_S, M_T, ActionTable, gl2_order, mat_mod, mat_mul, orbits


def random_word(rng, max_len=30):
    return "".join(rng.choice("STst") for _ in range(rng.randrange(max_len + 1)))


def test_word_evaluation_basics():
    assert evaluate_word("") == IDENT2
    assert evaluate_word("Ss") == IDENT2
    assert evaluate_word("Tt") == IDENT2
    assert evaluate_word("T") == ((1, 0), (1, 1))
    for word in ["ST", "TTS", "sstt"]:
        m = evaluate_word(word)
        mi = evaluate_word(invert_word(word))
        assert mat_mul(m, mi) == IDENT2


def test_word_from_matrix_examples():
    assert word_from_matrix(IDENT2) == ""
    assert word_from_matrix(((1, 0), (1, 1))) == "T"
    assert evaluate_word(word_from_matrix(((0, -1), (1, 0)))) == ((0, -1), (1, 0))
    with pytest.raises(ValueError):
        word_from_matrix(((1, 0), (0, 2)))


def test_word_round_trip_1000():
    rng = random.Random(99)
    for _ in range(1000):
        m = evaluate_word(random_word(rng))
        assert evaluate_word(word_from_matrix(m)) == m


def test_sl2_orders():
    assert sl2_order(2) == 6
    assert sl2_order(3) == 24
    assert sl2_order(4) == 48
    assert sl2_order(6) == 144
    assert sl2_order(7) == 336


def test_closed_form_orders_match_enumeration():
    for e in range(2, 31):
        assert sl2_order(e) == len(closure_tuples([M_S, M_T], e)), e
    for e in range(2, 13):
        assert gl2_order(e) == len(ambient_tuples(e, "GL2")), e


@pytest.mark.parametrize("e", [2, 3, 4, 5, 6])
def test_gamma_schreier_words_in_gamma_e(e):
    cosets = gamma_schreier(e)
    _, words = spelled_words(cosets)
    assert len(words) == 3 * sl2_order(e) + 1
    for word in words:
        assert mat_mod(evaluate_word(word), e) == IDENT2


def test_schreier_data_regenerates_coset_table():
    # the table's tree spells every element of SL2(Z/e) once, every edge
    # closes up, and tree and Schreier words are the string BFS's, in order
    for e in (2, 3, 4, 6, 10):
        cosets = gamma_schreier(e)
        states = [decode(code, e) for code in cosets.states]
        assert len(set(states)) == len(states) == sl2_order(e)
        words, schreier = spelled_words(cosets)
        for x, wx in zip(states, words):
            assert mat_mod(evaluate_word(wx), e) == x
        for i, x in enumerate(states):
            for j, letter in enumerate(LETTERS):
                assert states[cosets.nbr[i, j]] == mat_mul(x, _LETTER_MATS[letter], e)
        transversal, order, oracle_schreier = coset_words(e)
        assert states == order
        assert words == [transversal[x] for x in order]
        assert schreier == oracle_schreier


def test_gamma2_example_matrix_fixes_cosets():
    # [[1,2],[0,1]] = 1 + 2 X_1 lies in Gamma(2): it fixes every coset
    word = word_from_matrix(((1, 2), (0, 1)))
    m = evaluate_word(word)
    for code in gamma_schreier(2).states:
        x = decode(code, 2)
        assert mat_mod(mat_mul(x, m), 2) == x


def test_budget(monkeypatch):
    with pytest.raises(BudgetError):
        gamma_schreier(6, budget=10)
    # the closed form refuses |SL2(Z/110)| = 950,400 before enumerating
    monkeypatch.setattr(congruence, "mul_codes", None)
    with pytest.raises(BudgetError):
        gamma_schreier(110)


def test_coset_table_checks_its_state_count(monkeypatch):
    monkeypatch.setattr(congruence, "sl2_order", lambda e: 7)
    with pytest.raises(RuntimeError, match="states"):
        congruence._coset_table.__wrapped__(3)


METABELIAN = ["S3", "D4", "D5", "D6", "Q8", "Heis27", "C7C3", "Z2xZ2", "Z3xZ3"]


@pytest.mark.parametrize("name", METABELIAN)
def test_verify_action_level_at_exponent(name):
    G = get_group(name)
    table = ActionTable(G)
    e = G.exponent
    assert verify_action_level(table, e)
    assert one_plus_eX_check(table, e)
    # Gamma(ke) <= Gamma(e): the 1 + eX check persists for multiples
    assert one_plus_eX_check(table, 2 * e)


def test_verify_soundness_random_word_pairs():
    G = get_group("S3")
    table = ActionTable(G)
    e = 6
    assert verify_action_level(table, e)
    rng = random.Random(5)
    for _ in range(100):
        w1, w2 = random_word(rng, 18), random_word(rng, 18)
        if mat_mod(evaluate_word(w1), e) == mat_mod(evaluate_word(w2), e):
            assert np.array_equal(table.word_perm(w1), table.word_perm(w2))
        # and in all cases a word times its inverse acts trivially
        assert np.array_equal(
            table.word_perm(w1 + invert_word(w1)), np.arange(len(table.classes))
        )


SMALL_GROUPS = sorted(name for name, G in builtin_groups().items() if G.order <= 64)


@pytest.mark.parametrize("name", SMALL_GROUPS)
def test_verify_action_level_agrees_with_word_oracle(name):
    table = ActionTable(get_group(name))
    verdicts = {e: verify_action_level(table, e) for e in range(2, 13)}
    assert verdicts == {e: verify_by_words(table, e) for e in range(2, 13)}


def test_word_oracle_sees_both_verdicts():
    table = ActionTable(get_group("S3"))
    assert [verify_action_level(table, e) for e in (2, 3, 6)] == [True, False, True]
    assert [verify_by_words(table, e) for e in (2, 3, 6)] == [True, False, True]


def test_level_1_means_trivial_action():
    table = ActionTable(get_group("Z2xZ2"))
    # the action is nontrivial, so it cannot factor through level 1;
    # level-1 factoring would mean every word acts trivially
    assert not np.array_equal(table.perm_t, np.arange(len(table.classes)))


def test_wohlfahrt_levels():
    t22 = ActionTable(get_group("Z2xZ2"))
    assert all(wohlfahrt_level(t22, orb) == 2 for orb in orbits(t22, "SL2"))
    ts3 = ActionTable(get_group("S3"))
    (orb,) = orbits(ts3, "SL2")
    assert wohlfahrt_level(ts3, orb) == 2
    # wohlfahrt divides any verified level
    assert verify_action_level(ts3, 6)
    assert 6 % wohlfahrt_level(ts3, orb) == 0


def test_certificate_shape():
    G = get_group("S3")
    table = ActionTable(G)
    cert = certify(table, 6, "S3")
    assert cert.verdict and cert.gamma_e_contained
    assert cert.e == 6 and cert.group == "S3"
    assert cert.wohlfahrt == 2
    assert cert.schreier_word_count == len(gamma_schreier(6).schreier) == 3 * 144 + 1
    data = cert.to_json()
    assert data["verdict"] is True and data["wohlfahrt"] == 2


def test_one_plus_ex_matrices_have_det_one():
    for e in range(1, 9):
        for m in one_plus_ex_matrices(e):
            assert m[0][0] * m[1][1] - m[0][1] * m[1][0] == 1


def test_s3_factors_through_level_2():
    # the S3 action on its 3 classes is the full SL2(Z/2) = S3 coset action
    table = ActionTable(get_group("S3"))
    assert verify_action_level(table, 2)
    cert = certify(table, 2, "S3")
    from metab.nielsen import stabilizer_mod

    H = stabilizer_mod(table, 0, cert, "SL2")
    assert H.ambient_order == 6 and H.order == 2  # index 3 mod 2


def test_convention_self_test():
    # the single matrix/word/action convention wires up coherently
    S4 = mat_mul(mat_mul(M_S, M_S), mat_mul(M_S, M_S))
    assert S4 == IDENT2
    ST = mat_mul(M_S, M_T)
    cube = mat_mul(mat_mul(ST, ST), ST)
    assert mat_mul(cube, cube) == IDENT2  # (ST)^6 = 1 (here already (ST)^3 = 1)
    for word in ("", "S", "T", "STst", "TTTsTT"):
        assert evaluate_word(word_from_matrix(evaluate_word(word))) == evaluate_word(word)
    # abelianized action: ab(act(T, P)) = P @ M_T on an abelian group
    G = get_group("Z3xZ3")
    table = ActionTable(G)
    N = 3

    def vec(h):  # (exponent of g1-part, exponent of g2-part)
        p = G.elements[h]
        return (p[0] % N, (p[N] - N) % N)

    for i, (h1, h2) in enumerate(table.classes[:10]):
        P = tuple(zip(vec(h1), vec(h2)))  # columns are the images
        for move, mat in (("S", M_S), ("T", M_T)):
            moved = table.classes[table.letter_perm(move)[i]]
            got = tuple(zip(vec(moved[0]), vec(moved[1])))
            want = mat_mod(mat_mul(P, mat), N)
            assert got == want, (move, P, got, want)
