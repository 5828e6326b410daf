"""Epimorphism classes of F2 onto a finite group and the mapping-class action.

Epi^ext(F2, G) is realized as the set of generating pairs of G up to
simultaneous conjugation, each class held by its lexicographically minimal
representative (element order = image-tuple order of the group).  Inn(G)
acts freely on generating pairs, so that representative needs no search:
it is (a, b) with a the least conjugate of h1 and b the least element of
the C_G(a)-orbit of t h2 t^-1, t any element conjugating h1 to a.
`ActionTable` reads a, t and b off the conjugation table
(`FinGroup.conj_table`), lists the classes as the pairs (a, b) with a a
class minimum, b a C_G(a)-orbit minimum and <a, b> = G, and finds the
class of any generating pairs with one gather and one binary search.  The
moves

    S: (h1, h2) -> (h2, h1^-1)      T: (h1, h2) -> (h2 h1, h2)
    U(u): (h1, h2) -> (h1, h2^u)    (gcd(u, e) = 1)

descend to classes and generate the SL2(Z)- resp. GL2(Z)-action.  Under
abelianization the moves act by right multiplication with

    M_S = [[0, -1], [1, 0]]   M_T = [[1, 0], [1, 1]]   M_U(u) = diag(1, u)

(column convention; T sends e1 to e1 + e2).  Orbits are connected
components of the move graph; stabilizers inside SL2/GL2(Z/e) are computed
by orbit-stabilizer with Schreier generators once the congruence module has
certified that the action factors through level e.  Matrix groups mod e are
closed over numpy frontiers of matrices encoded as one integer each
(`mat_encode`), and the ambient orders come in closed form.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from . import linalg
from .errors import InvariantViolation
from .fingrp import FinGroup, ModuleCtx, module_power, outer_representatives, perm_orbits
from .grpring import _factor_prime_powers, try_invert

M_S = ((0, -1), (1, 0))
M_T = ((1, 0), (1, 1))


def m_u(u: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((1, 0), (0, u))


def mat_mul(a, b, e: int | None = None):
    out = (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )
    if e is None:
        return out
    return ((out[0][0] % e, out[0][1] % e), (out[1][0] % e, out[1][1] % e))


def mat_mod(a, e: int):
    return ((a[0][0] % e, a[0][1] % e), (a[1][0] % e, a[1][1] % e))


def mat_det(a):
    return a[0][0] * a[1][1] - a[0][1] * a[1][0]


def mat_inv_mod(a, e: int):
    from .linalg import inv_mod

    d = inv_mod(mat_det(a) % e, e)
    return (
        ((a[1][1] * d) % e, (-a[0][1] * d) % e),
        ((-a[1][0] * d) % e, (a[0][0] * d) % e),
    )


IDENT2 = ((1, 0), (0, 1))


def mat_encode(a, e: int) -> int:
    """The matrix mod e as one integer in [0, e^4): its entries as base-e digits."""
    return ((a[0][0] % e * e + a[0][1] % e) * e + a[1][0] % e) * e + a[1][1] % e


def mul_codes(codes: np.ndarray, g, e: int) -> np.ndarray:
    """Encoded products x g mod e for an array of encoded matrices x."""
    (p, q), (r, s) = mat_mod(g, e)
    a, b, c, d = codes // e**3, codes // e**2 % e, codes // e % e, codes % e
    return (((a * p + b * r) % e * e + (a * q + b * s) % e) * e + (c * p + d * r) % e) * e + (
        c * q + d * s
    ) % e


def first_new(codes: np.ndarray, known: np.ndarray) -> np.ndarray:
    """Ascending positions of the first occurrences of codes absent from `known` (sorted)."""
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    keep = known[np.searchsorted(known, ranked).clip(max=known.size - 1)] != ranked
    keep[1:] &= ranked[1:] != ranked[:-1]
    return np.sort(order[keep])


def sl2_order(e: int) -> int:
    """|SL2(Z/e)| = e^3 prod_{p | e} (1 - p^-2)."""
    return prod(p ** (3 * k - 2) * (p * p - 1) for p, k in _factor_prime_powers(e))


def gl2_order(e: int) -> int:
    """|GL2(Z/e)| = phi(e) |SL2(Z/e)|."""
    return sl2_order(e) * prod(p ** (k - 1) * (p - 1) for p, k in _factor_prime_powers(e))


def _units(e: int) -> list[int]:
    return [u for u in range(1, e + 1) if gcd(u, e) == 1]


class ActionTable:
    """Classes of Epi^ext(F2, G) with the move permutations S, T, U(u).

    `classes` lists the canonical representatives (h1, h2) in ascending
    order; `class_of` finds the class of any generating pairs.
    """

    def __init__(self, group: FinGroup):
        G = self.group = group
        self.e = G.exponent
        conj, points = G.conj_table, np.arange(G.order)
        # least[x] = transporter[x] x transporter[x]^-1 is the least conjugate of x
        self._least = conj.min(axis=0)
        self._transporter = conj.argmin(axis=0)
        # for a class minimum a, orbit_least[a, y]: the least c y c^-1 over c in C_G(a)
        self._orbit_least = np.zeros_like(conj)
        firsts, seconds = [], []
        for a in np.flatnonzero(self._least == points):
            row = self._orbit_least[a] = conj[conj[:, a] == a].min(axis=0)
            seconds.append(np.flatnonzero(row == points))
            firsts.append(np.full(seconds[-1].size, a))
        h1, h2 = np.concatenate(firsts), np.concatenate(seconds)
        keep = G.generating(h1, h2)
        h1, h2 = h1[keep], h2[keep]
        self.classes = list(zip(h1.tolist(), h2.tolist()))
        self._codes = h1 * G.order + h2

        self.perm_s = self.class_of(h2, G.inverse[h1])
        self.perm_t = self.class_of(G.table[h2, h1], h2)
        self.units = _units(self.e)
        self.perm_u = {u: self.class_of(h1, G.powers[h2, u % self.e]) for u in self.units}

    def __len__(self):
        return len(self.classes)

    def class_of(self, h1, h2) -> np.ndarray:
        """Class indices of the pairs (h1[i], h2[i]); KeyError unless each generates G."""
        G = self.group
        h1, h2 = np.asarray(h1), np.asarray(h2)
        a = self._least[h1]
        b = self._orbit_least[a, G.conj_table[self._transporter[h1], h2]]
        codes = a.astype(np.int64) * G.order + b
        idx = np.searchsorted(self._codes, codes).clip(max=len(self._codes) - 1)
        if not np.array_equal(self._codes[idx], codes):
            raise KeyError("pair does not generate the group")
        return idx

    def letter_perm(self, letter: str) -> np.ndarray:
        """Permutation of a word letter: S, s, T, t or U<u>."""
        if letter == "S":
            return self.perm_s
        if letter == "T":
            return self.perm_t
        if letter in ("s", "t"):
            return np.argsort(self.perm_s if letter == "s" else self.perm_t)
        if letter.startswith("U"):
            return self.perm_u[int(letter[1:])]
        raise ValueError(f"unknown letter {letter!r}")

    def word_perm(self, word) -> np.ndarray:
        """Permutation of a word, letters applied left to right."""
        perm = np.arange(len(self.classes), dtype=np.int64)
        for letter in word:
            perm = self.letter_perm(letter)[perm]
        return perm

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "classes": [list(rep) for rep in self.classes],
            "perm_s": [int(x) for x in self.perm_s],
            "perm_t": [int(x) for x in self.perm_t],
            "perm_u": {str(u): [int(x) for x in p] for u, p in self.perm_u.items()},
        }

    @classmethod
    def from_json(cls, group: FinGroup, data: dict) -> ActionTable:
        """The table of the group, rebuilt; ValueError unless `data` is its `to_json`."""
        table = cls(group)
        if data != table.to_json():
            raise ValueError("cached table differs from the table rebuilt from the group")
        return table


def braid_u_perms(table: ActionTable) -> dict[int, np.ndarray]:
    """Class permutations of the braid-like lifts of diag(1, u), u a unit mod e.

    The plain u-twist gamma_u: (x1, x2) -> (x1, x2^u) has generalized
    determinant 1 + a2 + ... + a2^(u-1), which is braid-like only up to an
    IA part; mixing it with S and T therefore need not factor through
    GL2(Z/e) (it demonstrably does not for C7:C3).  The braid-like
    representative above diag(1, u) is beta_u = gamma_r o gamma_u with r
    solving

        r1 (1 - a2) + r2 (a1 - 1) = u * (1 + a2 + ... + a2^(u-1))^-1 - 1,

    which forces det_c(beta_u) = u modulo monomials.  On a class (h1, h2)
    it acts through the pair's own module structure:

        (h1, h2) -> (c^(r1) h1, c^(r2 * (1 + ... + a2^(u-1))) h2^u),  c = [h1, h2].

    The ring and the system for r belong to G, so the system is reduced
    once (`SpanSolver`), and per unit one solve and two `module_power`
    calls move every class at once.  Homomorphy in u is asserted; failures
    would falsify the finite-level braid section and must surface.
    """
    cached = getattr(table, "_braid_perms", None)
    if cached is not None:
        return cached
    G = table.group
    if G.is_abelian:
        table._braid_perms = dict(table.perm_u)
        return table._braid_perms
    ring = ModuleCtx(G).ring
    one = ring.one()
    v = one - ring.monomial(0, 1)
    w = ring.monomial(1, 0) - one
    gens = [(mono * v).vec() for mono in ring.monomials()]
    gens += [(mono * w).vec() for mono in ring.monomials()]
    solver = linalg.SpanSolver(gens, ring.n)
    h1, h2 = np.array(table.classes).T
    c = G.table[G.table[h1, h2], G.table[G.inverse[h1], G.inverse[h2]]]
    m2 = ring.m * ring.m
    out: dict[int, np.ndarray] = {}
    for u in table.units:
        geom = ring.geom2(u)
        geom_inv = try_invert(geom)
        if geom_inv is None:
            raise InvariantViolation(f"1 + a2 + ... + a2^{u - 1} is not a unit")
        delta = (u % ring.n) * geom_inv
        sol = solver.solve((delta - one).vec())
        if sol is None:
            raise InvariantViolation("braid determinant equation is unsolvable")
        r1 = ring.elem(sol[:m2].reshape(ring.m, ring.m))
        r2_geom = ring.elem(sol[m2:].reshape(ring.m, ring.m)) * geom
        out[u] = table.class_of(
            G.table[module_power(G, r1, c, h1, h2), h1],
            G.table[module_power(G, r2_geom, c, h1, h2), G.powers[h2, u % table.e]],
        )
    ident = np.arange(len(table.classes))
    if not np.array_equal(out[1], ident):
        raise InvariantViolation("braid u-twist at u = 1 is not the identity")
    for u1 in table.units:
        for u2 in table.units:
            u12 = _unit_rep(table, u1 * u2)
            if not np.array_equal(out[u2][out[u1]], out[u12]):
                raise InvariantViolation("braid u-twists fail homomorphy")
    table._braid_perms = out
    return out


def orbits(table: ActionTable, ambient: str = "SL2", braid: bool = False) -> list[list[int]]:
    """Connected components of the move graph, ordered by smallest member.

    With braid=True the GL2 part uses the braid-like u-twists (the grouping
    of Thm-5.5-type Q-components); the plain u-twists give a possibly
    coarser partition glued along target-side twists.
    """
    moves = [table.perm_s, table.perm_t]
    if ambient == "GL2":
        u_perms = braid_u_perms(table) if braid else table.perm_u
        moves += [u_perms[u] for u in table.units]
    elif ambient != "SL2":
        raise ValueError("ambient must be SL2 or GL2")
    return perm_orbits(moves, len(table.classes))


@dataclass(frozen=True)
class MatrixSubgroup:
    """A subgroup of SL2/GL2(Z/e): its order and its Schreier generators."""

    e: int
    ambient: str
    ambient_order: int
    order: int
    generators: tuple

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "ambient": self.ambient,
            "ambient_order": self.ambient_order,
            "order": self.order,
            "generators": [[list(row) for row in g] for g in self.generators],
        }


def matrix_group_closure(generators, e: int) -> np.ndarray:
    """Sorted codes (`mat_encode`) of the subgroup of GL2(Z/e) the generators generate.

    Breadth-first over right multiplication, one numpy frontier per level.
    """
    gens = list(generators)
    seen = frontier = np.array([mat_encode(IDENT2, e)], dtype=np.int64)
    while frontier.size and gens:
        cand = np.concatenate([mul_codes(frontier, g, e) for g in gens])
        frontier = cand[first_new(cand, seen)]
        seen = np.sort(np.concatenate((seen, frontier)))
    return seen


def stabilizer_mod(
    table: ActionTable, class_idx: int, certificate, ambient: str = "SL2"
) -> MatrixSubgroup:
    """Point stabilizer of a class inside SL2/GL2(Z/e), e from the certificate.

    Requires a level certificate with a true verdict (the action must be
    known to factor through matrices mod e for the stabilizer to be a
    subgroup of the finite matrix group at all).  A BFS over the orbit
    collects the Schreier generators, `matrix_group_closure` closes them to
    give |H|, and the ambient order is the closed form `sl2_order(e)` or
    `gl2_order(e)`.  The order identity |orbit| * |H| = |ambient| is checked
    and raises InvariantViolation when it fails.
    """
    if not getattr(certificate, "verdict", False):
        raise ValueError("level certification missing or failed")
    e = certificate.e
    letters = [("S", M_S, table.perm_s), ("T", M_T, table.perm_t)]
    if ambient == "GL2":
        # u-twists only factor mod e when exp(G) divides e
        if e % table.e != 0:
            raise ValueError(f"GL2 stabilizers need exp(G) = {table.e} to divide e = {e}")
        u_perms = braid_u_perms(table)
        for u in range(1, e + 1):
            if gcd(u, e) != 1:
                continue
            letters.append((f"U{u}", m_u(u % e), u_perms[_unit_rep(table, u)]))
    transversal = {class_idx: IDENT2}
    queue = deque([class_idx])
    schreier = set()
    while queue:
        x = queue.popleft()
        mx = transversal[x]
        for _, mat, perm in letters:
            y = int(perm[x])
            my = mat_mul(mx, mat, e)
            if y not in transversal:
                transversal[y] = my
                queue.append(y)
            else:
                gen = mat_mul(my, mat_inv_mod(transversal[y], e), e)
                if gen != IDENT2:
                    schreier.add(gen)
    order = matrix_group_closure(schreier, e).size
    amb = gl2_order(e) if ambient == "GL2" else sl2_order(e)
    if len(transversal) * order != amb:
        raise InvariantViolation(
            f"orbit-stabilizer mismatch: {len(transversal)} * {order} != {amb}"
        )
    return MatrixSubgroup(
        e=e,
        ambient=ambient,
        ambient_order=amb,
        order=order,
        generators=tuple(sorted(schreier)),
    )


def _unit_rep(table: ActionTable, u: int) -> int:
    """The table's unit exponent representing u mod exp(G): `units` are the units in 1..e."""
    return (u - 1) % table.e + 1


def out_action_on_orbits(
    G: FinGroup, table: ActionTable, ambient: str = "GL2", braid: bool = False
) -> tuple[list[list[int]], bool]:
    """Permutations of the GL2-orbits induced by Out(G), plus transitivity.

    Out(G) is taken from the table's own classes (`outer_representatives`).
    Post-composition with an automorphism commutes with the source moves, so
    each outer representative permutes the orbits; this is spot-checked on
    two members per orbit.  The expected verdict for metabelian G is a
    transitive action (on the braid orbits, hence also on the coarser
    plain-twist orbits).
    """
    orbs = orbits(table, ambient, braid)
    orbit_of = np.empty(len(table), dtype=np.int64)
    for i, orb in enumerate(orbs):
        orbit_of[orb] = i
    # the action permutes orbits (post-composition commutes with the moves):
    # map the smallest member of each orbit, spot-check one more
    spots = np.array([x for orb in orbs for x in orb[:2]])
    h1, h2 = np.array(table.classes)[spots].T
    maps = outer_representatives(G, table.classes)
    moved = orbit_of[table.class_of(maps[:, h1], maps[:, h2])]
    images = np.empty((len(maps), len(orbs)), dtype=np.int64)
    images[:, orbit_of[spots]] = moved
    if not np.array_equal(images[:, orbit_of[spots]], moved):
        raise InvariantViolation("outer action did not permute orbits")
    perms = images.tolist()
    return perms, len(perm_orbits(perms, len(orbs))) == 1
