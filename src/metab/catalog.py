"""Built-in group catalog and the JSON group-file format.

A group file is a JSON object {name, degree, gen1, gen2} with the
generators as lists of cycles over 0-indexed points.  The built-ins are
constructed programmatically and exposed in the same shape.
"""

from __future__ import annotations

import json

from .fingrp import FinGroup, group_make, perm_cycles, perm_from_cycles


def _dihedral(k: int) -> tuple[int, list, list]:
    rot = [list(range(k))]
    refl = [[i, k - i] for i in range(1, (k + 1) // 2) if i != k - i]
    return k, rot, refl


def _heisenberg27() -> FinGroup:
    # upper unitriangular 3x3 over Z/3 as (a, b, c), acting on cosets of {(0, b, 0)}
    def mul(x, y):
        return ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3, (x[2] + y[2] + x[0] * y[1]) % 3)

    elems = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]
    subgroup = [(0, b, 0) for b in range(3)]
    cosets = sorted({tuple(sorted(mul(x, h) for h in subgroup)) for x in elems})
    coset_index = {c: i for i, c in enumerate(cosets)}

    def left_action(g):
        images = []
        for c in cosets:
            images.append(coset_index[tuple(sorted(mul(g, x) for x in c))])
        return tuple(images)

    return FinGroup(9, left_action((1, 0, 0)), left_action((0, 1, 0)))


def _builtin_groups() -> dict[str, FinGroup]:
    groups: dict[str, FinGroup] = {}
    groups["S3"] = group_make(3, [[0, 1]], [[0, 1, 2]])
    for k in (4, 5, 6):
        degree, rot, refl = _dihedral(k)
        groups[f"D{k}"] = group_make(degree, rot, refl)
    groups["Q8"] = FinGroup(8, (2, 3, 1, 0, 6, 7, 5, 4), (4, 5, 7, 6, 1, 0, 2, 3))
    groups["Heis27"] = _heisenberg27()
    # C7 : C3, the Frobenius group of order 21; g1 acts as doubling mod 7
    groups["C7C3"] = group_make(7, [[1, 2, 4], [3, 6, 5]], [list(range(7))])
    for N in range(2, 9):
        g1 = [list(range(N))]
        g2 = [list(range(N, 2 * N))]
        groups[f"Z{N}xZ{N}"] = group_make(2 * N, g1, g2)
    for N in range(2, 9):
        groups[f"Z{N}"] = group_make(N, [list(range(N))], [])
    groups["S4"] = group_make(4, [[0, 1]], [[0, 1, 2, 3]])
    return groups


_CACHE: dict[str, FinGroup] | None = None


def builtin_groups() -> dict[str, FinGroup]:
    global _CACHE
    if _CACHE is None:
        _CACHE = _builtin_groups()
    return _CACHE


def builtin_names() -> list[str]:
    return sorted(builtin_groups())


def get_group(name: str) -> FinGroup:
    groups = builtin_groups()
    if name not in groups:
        raise KeyError(f"unknown group {name!r}; catalog: {', '.join(sorted(groups))}")
    return groups[name]


def group_entry(name: str, G: FinGroup) -> dict:
    return {
        "name": name,
        "degree": G.degree,
        "order": G.order,
        "metabelian": G.is_metabelian,
        "abelian": G.is_abelian,
        "exponent": G.exponent,
        "gen1": [c for c in perm_cycles(G.elements[G.g1]) if len(c) > 1],
        "gen2": [c for c in perm_cycles(G.elements[G.g2]) if len(c) > 1],
    }


def load_group_file(path: str) -> tuple[str, FinGroup]:
    with open(path) as fh:
        data = json.load(fh)
    return load_group_dict(data)


def load_group_dict(data: dict) -> tuple[str, FinGroup]:
    """The group a group file describes; ValueError unless it has the documented shape."""
    if not isinstance(data, dict):
        raise ValueError("a group file holds a JSON object")
    name = data.get("name", "unnamed")
    degree, gens = data["degree"], [data["gen1"], data["gen2"]]
    if type(degree) is not int:
        raise ValueError("degree is not an integer")
    for key, gen in zip(("gen1", "gen2"), gens):
        if not (
            isinstance(gen, list)
            and all(isinstance(cyc, list) for cyc in gen)
            and all(type(x) is int and 0 <= x < degree for cyc in gen for x in cyc)
        ):
            raise ValueError(f"{key} is not a list of cycles over the points 0..{degree - 1}")
    return name, FinGroup(degree, *(perm_from_cycles(degree, gen) for gen in gens))
