"""Brute-force group data, Aut(G) and Inn(G), kept as a test reference.

`product_table` and `inverse_table` fill the multiplication table and the
inverses with one permutation product per entry; `subgroup_closure` walks
a subgroup from its generators and `generates` compares its size with |G|;
`hom_extends` decides whether a map on generators extends by closing its
graph in G x G.  `FinGroup` reads the same data off its Cayley tree
instead, and is tested against these.

`automorphism_group` enumerates every automorphism by trying all candidate
image pairs of the generators; `inner_automorphism` is conjugation by one
element; `inner_cosets` folds a list of automorphisms into their cosets of
Inn(G), and `inner_order` is |Inn(G)| = |G|/|Z(G)|.
`fingrp.outer_representatives`, which reads Out(G) off the class list
instead, is tested against these.  `Endo` holds one endomorphism as a full
index mapping.
"""

import numpy as np

from metab.fingrp import FinGroup, Perm, perm_mul


class Endo:
    """Endomorphism of a FinGroup as a full index mapping."""

    __slots__ = ("group", "mapping")

    def __init__(self, group: FinGroup, mapping):
        self.group = group
        self.mapping = tuple(int(x) for x in mapping)

    def __eq__(self, other):
        return isinstance(other, Endo) and self.mapping == other.mapping

    @property
    def is_bijective(self) -> bool:
        return len(set(self.mapping)) == self.group.order


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def product_table(G: FinGroup) -> np.ndarray:
    """table[i, j] = index of elements[i] * elements[j], one `perm_mul` per entry."""
    return np.array([[G.index[perm_mul(p, q)] for q in G.elements] for p in G.elements])


def inverse_table(G: FinGroup) -> np.ndarray:
    return np.array([G.index[perm_inv(p)] for p in G.elements])


def subgroup_closure(G: FinGroup, generators) -> set[int]:
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in generators:
                y = G.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def generates(G: FinGroup, pair) -> bool:
    return len(subgroup_closure(G, pair)) == G.order


def hom_extends(G: FinGroup, pair, images) -> Endo | None:
    """The homomorphism G -> G with pair -> images, when one exists.

    Graph-subgroup criterion: close Delta = <(pair_i, images_i)> in G x G;
    the assignment extends iff Delta meets {1} x G trivially, equivalently
    iff |Delta| = |G| (the first projection is onto since pair generates).
    """
    seen = {(G.identity, G.identity)}
    frontier = [(G.identity, G.identity)]
    gens = list(zip(pair, images))
    while frontier:
        nxt = []
        for a, b in frontier:
            for ga, gb in gens:
                pt = (G.mul(a, ga), G.mul(b, gb))
                if pt not in seen:
                    if len(seen) >= G.order:
                        return None  # |Delta| > |G|: not a graph
                    seen.add(pt)
                    nxt.append(pt)
        frontier = nxt
    if len(seen) != G.order:
        return None
    mapping = [0] * G.order
    for a, b in seen:
        mapping[a] = b
    return Endo(G, mapping)


def class_size(G: FinGroup, i: int) -> int:
    return next(len(cls) for cls in G.conjugacy_classes() if i in cls)


def inner_automorphism(G: FinGroup, by: int) -> Endo:
    return Endo(G, tuple(G.conj(i, by) for i in range(G.order)))


def inner_order(G: FinGroup) -> int:
    centre = [z for z in range(G.order) if G.conj(G.g1, z) == G.g1 and G.conj(G.g2, z) == G.g2]
    return G.order // len(centre)


def automorphism_group(G: FinGroup) -> list[Endo]:
    """All automorphisms, by brute force over candidate image pairs.

    Candidates are filtered by element order and conjugacy class size before
    the graph-subgroup check; the remaining bijectivity is automatic once the
    images generate.  Deterministic ordering by mapping tuple.
    """
    orders = G.element_orders()
    o1, o2 = orders[G.g1], orders[G.g2]
    c1, c2 = class_size(G, G.g1), class_size(G, G.g2)
    cands1 = [i for i in range(G.order) if orders[i] == o1 and class_size(G, i) == c1]
    cands2 = [i for i in range(G.order) if orders[i] == o2 and class_size(G, i) == c2]
    out = []
    for h1 in cands1:
        for h2 in cands2:
            if not generates(G, (h1, h2)):
                continue
            endo = hom_extends(G, G.pair, (h1, h2))
            if endo is not None:
                out.append(endo)
    out.sort(key=lambda e: e.mapping)
    assert all(e.is_bijective for e in out)
    return out


def inner_cosets(G: FinGroup, auts) -> list[frozenset]:
    """The distinct cosets a Inn(G) of the given automorphisms (index mappings), as sets of mappings."""
    inner = {inner_automorphism(G, g).mapping for g in range(G.order)}
    cosets = {frozenset(tuple(int(a[x]) for x in i) for i in inner) for a in auts}
    return sorted(cosets, key=min)
