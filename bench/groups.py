"""Group files for the benchmark, built from closed-form generators.

Every group is a pair of permutations of 0..d-1, written in the CLI's JSON
group-file format {name, degree, gen1, gen2} with generators as cycle lists.
A workload seed relabels the points (seed 0 keeps them as built), which
changes every element index the program sees but not the group.

Each builder states the order and exponent the group must have, and
`checked` confirms them, and the metabelian property, with sympy's
permutation groups, which share no code with `metab`.  A wrong input then
fails the run instead of passing as a speed-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import lcm


@dataclass(frozen=True)
class GroupSpec:
    name: str
    degree: int
    gen1: tuple[int, ...]  # images of 0..degree-1
    gen2: tuple[int, ...]
    order: int
    exponent: int

    def relabelled(self, seed: int) -> GroupSpec:
        """The same group on points renamed by a seeded shuffle."""
        if seed == 0:
            return self
        pi = list(range(self.degree))
        random.Random(f"{self.name}/{seed}").shuffle(pi)

        def conj(g):
            out = [0] * self.degree
            for x, gx in enumerate(g):
                out[pi[x]] = pi[gx]
            return tuple(out)

        return GroupSpec(self.name, self.degree, conj(self.gen1), conj(self.gen2),
                         self.order, self.exponent)

    def to_json(self) -> dict:
        return {"name": self.name, "degree": self.degree,
                "gen1": cycles(self.gen1), "gen2": cycles(self.gen2)}


def cycles(perm) -> list[list[int]]:
    seen, out = set(), []
    for start in range(len(perm)):
        if start in seen:
            continue
        cyc, x = [start], perm[start]
        seen.add(start)
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = perm[x]
        if len(cyc) > 1:
            out.append(cyc)
    return out


def _from_cycles(degree: int, cycle_list) -> tuple[int, ...]:
    perm = list(range(degree))
    for cyc in cycle_list:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            perm[a] = b
    return tuple(perm)


def _is_prime(p: int) -> bool:
    return p > 1 and all(p % q for q in range(2, int(p**0.5) + 1))


def primitive_root(p: int) -> int:
    """Least generator of (Z/p)^* for an odd prime p."""
    factors = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


def agl1(p: int) -> GroupSpec:
    """AGL(1, p) on Z/p, generated by x -> x + 1 and x -> g x; |G| = exp(G) = p(p-1)."""
    if not _is_prime(p) or p < 3:
        raise ValueError(f"AGL(1, p) needs an odd prime, got {p}")
    g = primitive_root(p)
    return GroupSpec(f"AGL1_{p}", p, tuple((x + 1) % p for x in range(p)),
                     tuple((g * x) % p for x in range(p)), p * (p - 1), p * (p - 1))


def heisenberg(p: int) -> GroupSpec:
    """Unitriangular 3x3 matrices over Z/p on the p^2 cosets of {(0, b, 0)}.

    Generated by (1, 0, 0) and (0, 1, 0); |G| = p^3 and, for odd p, exp(G) = p.
    """
    if not _is_prime(p) or p < 3:
        raise ValueError(f"H(p) needs an odd prime, got {p}")

    def mul(x, y):
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p, (x[2] + y[2] + x[0] * y[1]) % p)

    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    subgroup = [(0, b, 0) for b in range(p)]
    cosets = sorted({tuple(sorted(mul(x, h) for h in subgroup)) for x in elems})
    where = {c: i for i, c in enumerate(cosets)}

    def action(g):
        return tuple(where[tuple(sorted(mul(g, x) for x in c))] for c in cosets)

    return GroupSpec(f"Heis{p ** 3}", len(cosets), action((1, 0, 0)), action((0, 1, 0)),
                     p**3, p)


def cyclic_square(n: int) -> GroupSpec:
    """Z/n x Z/n on 2n points; |G| = n^2, exp(G) = n."""
    return GroupSpec(f"Z{n}xZ{n}", 2 * n, _from_cycles(2 * n, [list(range(n))]),
                     _from_cycles(2 * n, [list(range(n, 2 * n))]), n * n, n)


def frobenius21() -> GroupSpec:
    """C7 : C3, with g1 doubling mod 7 and g2 = x -> x + 1; |G| = exp(G) = 21."""
    return GroupSpec("C7C3", 7, _from_cycles(7, [[1, 2, 4], [3, 6, 5]]),
                     _from_cycles(7, [list(range(7))]), 21, 21)


def dihedral(k: int) -> GroupSpec:
    """D_k on k points: rotation and the reflection x -> -x; |G| = 2k."""
    refl = [[i, k - i] for i in range(1, (k + 1) // 2) if i != k - i]
    return GroupSpec(f"D{k}", k, _from_cycles(k, [list(range(k))]), _from_cycles(k, refl),
                     2 * k, lcm(2, k))


def checked(spec: GroupSpec) -> GroupSpec:
    """Confirm |G|, exp(G) and metabelian with sympy; raise ValueError otherwise."""
    from sympy.combinatorics import Permutation, PermutationGroup

    G = PermutationGroup([Permutation(list(spec.gen1)), Permutation(list(spec.gen2))])
    order = int(G.order())
    exponent = lcm(*(int(g.order()) for g in G.generate()))
    metabelian = G.derived_subgroup().is_abelian
    if (order, exponent, metabelian) != (spec.order, spec.exponent, True):
        raise ValueError(
            f"{spec.name}: sympy gives |G| = {order}, exp = {exponent}, "
            f"metabelian = {metabelian}; expected {spec.order}, {spec.exponent}, True"
        )
    return spec
