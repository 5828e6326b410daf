"""The string-word path of level certification, kept as a test reference.

`coset_words(e)` is the original breadth-first coset enumeration of SL2(Z)
over SL2(Z/e), with matrices as tuples and transversal words as strings;
`verify_by_words` evaluates every Schreier word of Gamma(e) letter by letter
through `ActionTable.word_perm`.  `closure_tuples` closes matrices mod e as
a set of tuples.  The numpy coset table, `verify_action_level` and
`matrix_group_closure` are tested against these.
"""

from functools import lru_cache

import numpy as np

from metab.congruence import _LETTER_MATS, LETTERS
from metab.nielsen import IDENT2, M_S, M_T, m_u, mat_mod, mat_mul


def invert_word(word: str) -> str:
    return word[::-1].swapcase()


def decode(code: int, e: int):
    """Inverse of `mat_encode`."""
    code = int(code)
    return ((code // e**3, code // e**2 % e), (code // e % e, code % e))


@lru_cache(maxsize=None)
def coset_words(e: int):
    """BFS over SL2(Z/e): transversal words, state order, Schreier words."""
    transversal = {IDENT2: ""}
    order = [IDENT2]
    queue = [IDENT2]
    schreier = []
    while queue:
        x = queue.pop(0)
        wx = transversal[x]
        for letter in LETTERS:
            y = mat_mul(x, _LETTER_MATS[letter], e)
            if y not in transversal:
                transversal[y] = wx + letter
                order.append(y)
                queue.append(y)
            else:
                schreier.append(wx + letter + invert_word(transversal[y]))
    return transversal, order, schreier


def verify_by_words(table, e: int) -> bool:
    """Does every Schreier word of Gamma(e) act trivially on the classes?"""
    ident = np.arange(len(table.classes))
    return all(np.array_equal(table.word_perm(w), ident) for w in coset_words(e)[2])


def spelled_words(cosets):
    """Transversal words (BFS order) and Schreier words of a CosetTable."""
    words = [""]
    for edge in cosets.parent[1:]:
        words.append(words[edge // 4] + LETTERS[edge % 4])
    schreier = [
        words[i // 4] + LETTERS[i % 4] + invert_word(words[cosets.nbr.flat[i]])
        for i in cosets.schreier
    ]
    return words, schreier


def closure_tuples(generators, e: int) -> set:
    seen = {IDENT2}
    frontier = [IDENT2]
    gens = [mat_mod(g, e) for g in generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mat_mul(a, g, e)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def ambient_tuples(e: int, ambient: str) -> set:
    gens = [M_S, M_T]
    if ambient == "GL2":
        gens += [m_u(u) for u in range(1, e) if np.gcd(u, e) == 1]
    return closure_tuples(gens, e)
