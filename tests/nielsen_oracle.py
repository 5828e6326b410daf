"""Brute-force epimorphism classes and moves, kept as a test reference.

`epi_classes` tests every pair of G for generation (`fingrp_oracle.generates`,
one closure walk per pair) and brings each generating pair to its
lexicographically least simultaneous conjugate by scanning all of G
(`canonical_pair`); `act` applies a move to a pair and scans again.  `nielsen.ActionTable`, which reads the canonical
form off the conjugation table instead, is tested against these.
"""

from math import gcd

from fingrp_oracle import generates
from metab.fingrp import FinGroup


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
