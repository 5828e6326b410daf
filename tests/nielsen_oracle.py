"""Brute-force epimorphism classes and moves, kept as a test reference.

`epi_classes` tests every pair of G for generation (`fingrp_oracle.generates`,
one closure walk per pair) and brings each generating pair to its
lexicographically least simultaneous conjugate by scanning all of G
(`canonical_pair`); `act` applies a move to a pair and scans again.  `nielsen.ActionTable`, which reads the canonical
form off the conjugation table instead, is tested against these.

`pair_module_power` evaluates w^r in the module structure of one pair with
one `G.power`, `G.conj` and `G.mul` per monomial, and `braid_u_perms` moves
one class at a time through it: the references for `fingrp.module_power`
and `nielsen.braid_u_perms`, which move all classes at once.
"""

from math import gcd, lcm

import numpy as np

from fingrp_oracle import generates
from metab import linalg
from metab.fingrp import FinGroup
from metab.grpring import RingElem, ring_make, try_invert


def canonical_pair(G: FinGroup, pair: tuple[int, int]) -> tuple[int, int]:
    """Lexicographically minimal simultaneous conjugate of the pair."""
    if G.is_abelian:
        return (pair[0], pair[1])

    def conj(x, g):
        return G.mul(G.mul(g, x), G.inv(g))

    return min((conj(pair[0], g), conj(pair[1], g)) for g in range(G.order))


def epi_classes(G: FinGroup) -> list[tuple[int, int]]:
    """Canonical representatives of all classes of Epi^ext(F2, G), sorted."""
    reps = {
        canonical_pair(G, (h1, h2))
        for h1 in range(G.order)
        for h2 in range(G.order)
        if generates(G, (h1, h2))
    }
    return sorted(reps)


def act_pair(G: FinGroup, move: str, pair: tuple[int, int], u: int | None = None):
    h1, h2 = pair
    if move == "S":
        return (h2, G.inv(h1))
    if move == "T":
        return (G.mul(h2, h1), h2)
    if move == "U":
        return (h1, G.power(h2, u))
    raise ValueError(f"unknown move {move!r}")


def act(G: FinGroup, move: str, pair: tuple[int, int], u: int | None = None):
    """Canonical representative of the class a move sends the pair's class to."""
    if move == "U" and (u is None or gcd(u, G.exponent) != 1):
        raise ValueError(f"u = {u} is not a unit mod {G.exponent}")
    return canonical_pair(G, act_pair(G, move, pair, u))


def move_perms(G: FinGroup, units) -> dict[str, list[int]]:
    """Class permutations of S, T and U(u) for each unit u, keyed "S", "T", "U<u>"."""
    classes = epi_classes(G)
    index = {rep: i for i, rep in enumerate(classes)}

    def perm(move, u=None):
        return [index[act(G, move, rep, u)] for rep in classes]

    return {"S": perm("S"), "T": perm("T"), **{f"U{u}": perm("U", u) for u in units}}


def pair_module_power(G: FinGroup, r: RingElem, w: int, h1: int, h2: int) -> int:
    """w^r = prod over monomials (i, j) of (h1^i h2^j) w^(r_ij) (h1^i h2^j)^-1."""
    acc = G.identity
    for i in range(r.ctx.m):
        for j in range(r.ctx.m):
            cij = int(r.coeffs[i, j])
            if cij:
                by = G.mul(G.power(h1, i), G.power(h2, j))
                acc = G.mul(acc, G.conj(G.power(w, cij), by))
    return acc


def braid_u_perms(G: FinGroup, classes, units) -> dict[str, list[int]]:
    """Class permutations of the braid-like u-twists, keyed "U<u>", one class at a time.

    Solves r1 (1 - a2) + r2 (a1 - 1) = u (1 + a2 + ... + a2^(u-1))^-1 - 1
    in R(n, m) and sends (h1, h2) to (c^(r1) h1, c^(r2 (1 + ... + a2^(u-1))) h2^u)
    with c = [h1, h2]; abelian G has c = 1 and takes the plain twists.
    `classes` are the canonical representatives, as `epi_classes` lists them.
    """
    index = {rep: i for i, rep in enumerate(classes)}

    def perm(twist):
        return [index[canonical_pair(G, twist(h1, h2))] for h1, h2 in classes]

    if G.is_abelian:
        return {f"U{u}": perm(lambda h1, h2: (h1, G.power(h2, u))) for u in units}
    m = lcm(G.ab_order(G.g1), G.ab_order(G.g2))
    ring = ring_make(max(G.derived_exponent(), 2), max(m, 2))
    one = ring.one()
    v = one - ring.monomial(0, 1)
    w = ring.monomial(1, 0) - one
    A = np.array([(mono * x).vec() for x in (v, w) for mono in ring.monomials()]).T
    m2 = ring.m * ring.m
    out = {}
    for u in units:
        geom = ring.geom2(u)
        sol = linalg.solve(A, ((u % ring.n) * try_invert(geom) - one).vec(), ring.n)
        r1 = ring.elem(sol[:m2].reshape(ring.m, ring.m))
        r2_geom = ring.elem(sol[m2:].reshape(ring.m, ring.m)) * geom

        def beta(h1, h2):
            c = G.commutator_elem(h1, h2)
            return (
                G.mul(pair_module_power(G, r1, c, h1, h2), h1),
                G.mul(pair_module_power(G, r2_geom, c, h1, h2), G.power(h2, u)),
            )

        out[f"U{u}"] = perm(beta)
    return out
