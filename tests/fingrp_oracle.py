"""Brute-force Aut(G) and Inn(G), kept as a test reference.

`automorphism_group` enumerates every automorphism by trying all candidate
image pairs of the generators; `inner_automorphism` is conjugation by one
element; `inner_cosets` folds a list of automorphisms into their cosets of
Inn(G), and `inner_order` is |Inn(G)| = |G|/|Z(G)|.
`fingrp.outer_representatives`, which reads Out(G) off the class list
instead, is tested against these.
"""

from metab.fingrp import Endo, FinGroup, hom_extends


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
            if not G.generates((h1, h2)):
                continue
            endo = hom_extends(G, G.pair, (h1, h2))
            if endo is not None:
                out.append(endo)
    out.sort(key=lambda e: e.mapping)
    assert all(e.is_bijective for e in out)
    return out


def inner_cosets(G: FinGroup, auts: list[Endo]) -> list[frozenset]:
    """The distinct cosets a Inn(G) of the given automorphisms, as sets of mappings."""
    inner = {inner_automorphism(G, g).mapping for g in range(G.order)}
    cosets = {frozenset(tuple(a.mapping[x] for x in i) for i in inner) for a in auts}
    return sorted(cosets, key=min)
