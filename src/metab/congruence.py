"""SL2(Z) word machinery and congruence-level certification.

Words are strings over S, T and their inverses s, t, evaluated left to
right in the fixed convention M_S = [[0,-1],[1,0]], M_T = [[1,0],[1,1]]
(the abelianized Nielsen moves).  `gamma_schreier(e)` is the coset table of
SL2(Z) over SL2(Z/e): a BFS from I under the four letters, one numpy
frontier of encoded matrices per level.  Its non-tree edges x -L-> y are the
3N + 1 Schreier generators w_x L w_y^-1 of Gamma(e), w_x the tree word of x.
An action factors through level e exactly when all of them act trivially.
`verify_action_level` checks this without spelling a word: each state
carries the class permutation P_x of w_x, a tree edge sets
P_y = letter_perm(L)[P_x], and every non-tree edge must satisfy
letter_perm(L)[P_x] == P_y.  The budget is checked against the closed form
`sl2_order(e)` before any enumeration.  `one_plus_eX_check` tests the three
explicit generators 1 + e X_i whose triviality forces Gamma(e) into every
stabilizer, and `wohlfahrt_level` reads the generalized level off the
T-cycle structure (cusp widths).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache
from math import lcm

import numpy as np

from .errors import BudgetError
from .fingrp import perm_cycles
from .nielsen import (IDENT2, M_S, M_T, ActionTable, first_new, mat_det, mat_encode, mat_mul,
                      mul_codes, sl2_order)

LETTERS = "STst"
_LETTER_MATS = {
    "S": M_S,
    "T": M_T,
    "s": ((0, 1), (-1, 0)),
    "t": ((1, 0), (-1, 1)),
}


def evaluate_word(word: str):
    """Integer matrix of a word, letters multiplied left to right."""
    out = IDENT2
    for letter in word:
        out = mat_mul(out, _LETTER_MATS[letter])
    return out


def word_from_matrix(M) -> str:
    """A word evaluating exactly to M (det 1), O(log |M|) letters.

    Continued-fraction reduction on the first column peels T-runs and S
    swaps from the left; the remaining triangular matrix is S T^k S^-1 up
    to sign.
    """
    M = ((int(M[0][0]), int(M[0][1])), (int(M[1][0]), int(M[1][1])))
    if mat_det(M) != 1:
        raise ValueError("matrix must have determinant 1")
    target = M
    letters: list[str] = []

    def peel(letter: str):
        nonlocal M
        letters.append(letter)
        inv = _LETTER_MATS[letter.swapcase()]
        M = mat_mul(inv, M)

    while M[1][0] != 0:
        a, c = M[0][0], M[1][0]
        if a == 0:
            peel("S")
            continue
        k = c // a
        if k == 0:
            peel("S")
            continue
        for _ in range(abs(k)):
            peel("T" if k > 0 else "t")
    # now M = [[d, b], [0, d]] with d = +-1
    if M[0][0] == -1:
        letters.extend("SS")  # -I = S^2
        M = mat_mul(((-1, 0), (0, -1)), M)
    b = M[0][1]
    if b:
        run = ("t" if b > 0 else "T") * abs(b)  # S T^k S^-1 = [[1, -k], [0, 1]]
        letters.append("S" + run + "s")
    word = "".join(letters)
    if evaluate_word(word) != target:
        raise RuntimeError(f"word_from_matrix: {word!r} does not evaluate to {target}")
    return word


@dataclass(frozen=True, eq=False)
class CosetTable:
    """SL2(Z/e) as the BFS coset table of SL2(Z) under the letters S, T, s, t.

    `states` holds the encoded matrices (`mat_encode`) in BFS order and
    `levels[k]` the index of the first state at distance k from I, with N
    last.  `nbr[x, j]` is the state x * LETTERS[j]; `parent[y]` = 4x + j
    names the tree edge into y (-1 at I).  `schreier` lists the 3N + 1
    non-tree edges 4x + j in BFS order, the Schreier generators of Gamma(e).
    """

    e: int
    states: np.ndarray
    levels: np.ndarray
    nbr: np.ndarray
    parent: np.ndarray
    schreier: np.ndarray


def gamma_schreier(e: int, budget: int = 200_000) -> CosetTable:
    """The coset table of SL2(Z/e); its non-tree edges generate Gamma(e).

    Raises BudgetError from the closed form |SL2(Z/e)| before enumerating.
    """
    if e < 2:
        raise ValueError("level must be at least 2")
    if sl2_order(e) > budget:
        raise BudgetError(f"SL2(Z/{e}) exceeds coset budget {budget}")
    return _coset_table(e)


@lru_cache(maxsize=None)
def _coset_table(e: int) -> CosetTable:
    mats = [_LETTER_MATS[letter] for letter in LETTERS]
    levels, parents, targets = [0], [np.array([-1])], []
    prev, cur = np.empty(0, np.int64), np.array([mat_encode(IDENT2, e)], dtype=np.int64)
    states = [cur]
    while cur.size:
        # in row-major (state, letter) order first occurrences are the FIFO BFS
        # tree; the letters are closed under inverses, so every edge stays
        # within a level or joins adjacent ones
        codes = np.stack([mul_codes(cur, m, e) for m in mats], axis=1).ravel()
        edges = first_new(codes, np.sort(np.concatenate((prev, cur))))
        parents.append(4 * levels[-1] + edges)
        targets.append(codes)
        levels.append(levels[-1] + cur.size)
        prev, cur = cur, codes[edges]
        states.append(cur)
    flat = np.concatenate(states)
    n = flat.size
    if n != sl2_order(e):
        raise RuntimeError(f"coset BFS found {n} states, |SL2(Z/{e})| = {sl2_order(e)}")
    # all of SL2(Z/e) is in `flat`, so every neighbour code is found
    by_code = np.argsort(flat)
    nbr = by_code[np.searchsorted(flat, np.concatenate(targets), sorter=by_code)]
    parent = np.concatenate(parents)
    tree = np.zeros(nbr.size, dtype=bool)
    tree[parent[1:]] = True
    return CosetTable(e, flat, np.array(levels), nbr.reshape(n, 4), parent, np.flatnonzero(~tree))


def verify_action_level(table: ActionTable, e: int, budget: int = 200_000) -> bool:
    """Does the SL2(Z)-action on the classes factor through SL2(Z/e)?

    True iff every Schreier generator of Gamma(e) acts as the identity
    permutation, which, since they generate Gamma(e), is equivalent to
    Gamma(e) lying in every stabilizer.  Class permutations are held for
    three BFS levels at a time, as int32.
    """
    cosets = gamma_schreier(e, budget)
    n = len(table.classes)
    moves = [table.letter_perm(letter).astype(np.int32) for letter in LETTERS]
    levels, nbr, parent = cosets.levels, cosets.nbr, cosets.parent
    prev, cur = np.empty((0, n), np.int32), np.arange(n, dtype=np.int32)[None]
    for k in range(levels.size - 1):
        lo, r0, r1 = levels[max(k - 1, 0)], levels[k], levels[k + 1]
        r2 = levels[k + 2] if k + 2 < levels.size else r1
        # per letter: its permutation, the edge targets and which edges are tree edges
        edges = [(move, nbr[r0:r1, j], parent[nbr[r0:r1, j]] == 4 * np.arange(r0, r1) + j)
                 for j, move in enumerate(moves)]
        nxt = np.empty((r2 - r1, n), np.int32)
        for move, targets, tree in edges:
            nxt[targets[tree] - r1] = move[cur[tree]]
        window = np.concatenate((prev, cur, nxt))
        for move, targets, tree in edges:
            if not np.array_equal(move[cur[~tree]], window[targets[~tree] - lo]):
                return False
        prev, cur = cur, nxt
    return True


def one_plus_ex_matrices(e: int) -> list:
    """1 + e X_i for X_1 = [[0,1],[0,0]], X_2 = [[0,0],[1,0]], X_3 = [[1,-1],[1,-1]]."""
    return [
        ((1, e), (0, 1)),
        ((1, 0), (e, 1)),
        ((1 + e, -e), (e, 1 - e)),
    ]


def one_plus_eX_check(table: ActionTable, e: int) -> bool:
    """Do the three matrices 1 + e X_i act trivially on every class?

    Together with congruence of the stabilizers this forces Gamma(e) into
    all of them; implied by verify_action_level at the same e.
    """
    n = len(table.classes)
    ident = np.arange(n)
    for mat in one_plus_ex_matrices(e):
        word = word_from_matrix(mat)
        if not np.array_equal(table.word_perm(word), ident):
            return False
    return True


def wohlfahrt_level(table: ActionTable, orbit) -> int:
    """lcm of the T-cycle lengths through the members of an SL2-orbit (cusp widths)."""
    members = set(orbit)
    return lcm(*(len(c) for c in perm_cycles(table.perm_t) if c[0] in members))


@dataclass(frozen=True)
class LevelCertificate:
    """Witness that the class action factors through SL2(Z/e)."""

    group: str
    e: int
    schreier_word_count: int
    verdict: bool
    wohlfahrt: int
    gamma_e_contained: bool

    def to_json(self) -> dict:
        return asdict(self)


def certify(table: ActionTable, e: int, group_name: str = "", budget: int = 200_000) -> LevelCertificate:
    cosets = gamma_schreier(e, budget)
    verdict = verify_action_level(table, e, budget)
    one_plus = one_plus_eX_check(table, e)
    if verdict and not one_plus:
        raise RuntimeError("level verification must imply the 1 + eX_i check")
    return LevelCertificate(
        group=group_name,
        e=e,
        schreier_word_count=len(cosets.schreier),
        verdict=verdict,
        wohlfahrt=lcm(*(len(c) for c in perm_cycles(table.perm_t))),
        gamma_e_contained=one_plus,
    )
