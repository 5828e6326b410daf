"""Finite permutation groups and the group-algebra action on their derived subgroups.

`perm_cycles` walks the cycles of one permutation and `perm_orbits` the
orbits of a set of permutations; cusp widths, Wohlfahrt levels, SL2/GL2-
orbits and the Out(G)-action on orbits are all read off these two.

Groups are closures of an ordered generating pair (g1, g2) of permutations;
elements are stored sorted by image tuple and all canonical forms refer to
that order.  The closure is a breadth-first walk from 1 whose first visits
form a spanning tree of the Cayley graph, each element p * g_i one level
below its parent p (Schreier's method; Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005).  The multiplication table is filled one
tree level at a time by x * (p * g_i) = (x * p) * g_i.  `FinGroup.extend_pair`
defines f(p * g_i) = f(p) * h_i down the tree for a batch of image pairs
(h1, h2) and keeps the rows where f(x * g_i) = f(x) * h_i holds on all 2|G|
Cayley edges: exactly the homomorphisms G -> G.  `outer_representatives`
reads Out(G) off the classes of generating pairs with one such batch,
without enumerating Aut(G), and returns the automorphisms as the rows of
one index array.  `FinGroup.closure` is the one subgroup closure.
`FinGroup.powers` is the power table powers[g, k] = g^k for 0 <= k < exp(G),
filled one column per gather; `FinGroup.power` reads it.

A metabelian group has one module structure: the ring R(n, m) with
m = exponent of G^ab and n = exponent of G' belongs to G, and each
generating pair (h1, h2) lets a1^i a2^j act on G' by conjugation with
h1^i h2^j.  `module_power` evaluates w^r in that structure for a whole
array of pairs at once, one gather per monomial, so the action on every
class of generating pairs is one call.  A `ModuleCtx` holds the ring and
checks, once, that x^m centralizes G' for every x in G, which makes the
action well defined for every pair.  Through the group's own pair the
IA-calculus descends to G:

  * `ModuleCtx.module_evaluate` is the one-row case of `module_power`;
  * `kernel_ideal` computes I = {r : c^r = 1} for c = [g1, g2];
  * `ia_descend` builds the endomorphism g_i -> c^(r_i) g_i, which theory
    says always exists (a failure raises InvariantViolation);
  * `inertia_relation_check` verifies 1 + a1 + ... + a1^(d-1) = s (1 - a2)
    mod I where g1^d = c^s.

`metab components` runs `kernel_ideal` (whose [R : I] = |G'| check raises
InvariantViolation), `inertia_relation_check` and an `ia_descend` sweep on
every metabelian group it reports on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import lcm

import numpy as np

from . import linalg
from .errors import BudgetError, HypothesisError, InvariantViolation
from .grpring import RingCtx, RingElem, ring_make

Perm = tuple[int, ...]

TABLE_LIMIT = 2048  # largest |G| given a dense multiplication table


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composite "q first, then p"."""
    return tuple(p[x] for x in q)


def perm_from_cycles(degree: int, cycles) -> Perm:
    out = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            out[x] = cyc[(i + 1) % len(cyc)]
    return tuple(out)


def perm_cycles(p) -> list[list[int]]:
    """Cycles of a permutation (tuple or numpy array), fixed points included.

    Each cycle starts at its smallest point; cycles are ordered by that point.
    """
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        cyc, x = [], start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = int(p[x])
        if cyc:
            cycles.append(cyc)
    return cycles


def perm_orbits(perms, n: int) -> list[list[int]]:
    """Orbits of the group generated by `perms` on range(n), sorted, by smallest member."""
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        for x in orbit:  # breadth-first: the loop reaches members appended below
            for p in perms:
                y = int(p[x])
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        out.append(sorted(orbit))
    return out


class FinGroup:
    """The subgroup of S_degree generated by an ordered pair of permutations."""

    def __init__(self, degree: int, g1: Perm, g2: Perm):
        if degree < 1:
            raise ValueError("degree must be positive")
        for p in (g1, g2):
            if sorted(p) != list(range(degree)):
                raise ValueError("not a permutation of the stated degree")
        self.degree = degree
        ident = tuple(range(degree))
        # breadth-first Cayley tree from the identity: found[k] = found[parent[k]] * pair[gen[k]]
        found, where = [ident], {ident: 0}
        parent, gen = [0], [0]
        right = ([], [])  # right[i][k]: the index of found[k] * g_i
        levels, start = [], 0
        while start < len(found):
            end = len(found)
            levels.append((start, end))
            for k in range(start, end):
                for i, g in enumerate((g1, g2)):
                    q = perm_mul(found[k], g)
                    j = where.get(q)
                    if j is None:
                        if len(found) == TABLE_LIMIT:
                            raise BudgetError(
                                f"group of order above {TABLE_LIMIT} exceeds the table budget"
                            )
                        j = where[q] = len(found)
                        found.append(q)
                        parent.append(k)
                        gen.append(i)
                    right[i].append(j)
            start = end
        self.order = len(found)
        by_image = sorted(range(self.order), key=found.__getitem__)
        rank = np.empty(self.order, dtype=np.intp)
        rank[by_image] = np.arange(self.order)
        self.elements: list[Perm] = [found[k] for k in by_image]
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[ident]
        self.g1 = self.index[g1]
        self.g2 = self.index[g2]
        self.pair = (self.g1, self.g2)
        # _right[i, x] = x * g_i; each tree level as (elements, parents, generators)
        self._right = np.empty((2, self.order), dtype=np.intp)
        self._right[:, rank] = rank[np.array(right)]
        parent, gen = rank[parent], np.array(gen)
        self._tree = [(rank[a:b], parent[a:b], gen[a:b]) for a, b in levels[1:]]
        # x * (p * g) = (x * p) * g fills the table one tree level at a time
        tbl = np.empty((self.order, self.order), dtype=np.int32)
        tbl[:, self.identity] = np.arange(self.order)
        for elems, parents, gens in self._tree:
            tbl[:, elems] = self._right[gens, tbl[:, parents]]
        self.table = tbl
        self.inverse = np.nonzero(tbl == self.identity)[1].astype(np.int32)
        self._orders: list[int] | None = None
        self._derived: list[int] | None = None
        self._classes: list[list[int]] | None = None

    def __repr__(self):
        return f"FinGroup(degree={self.degree}, order={self.order})"

    def mul(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    @cached_property
    def conj_table(self) -> np.ndarray:
        """conj_table[g, x] = g x g^-1."""
        return self.table[self.table, self.inverse[:, None]]

    def conj(self, i: int, by: int) -> int:
        return int(self.conj_table[by, i])

    def commutator_elem(self, i: int, j: int) -> int:
        return self.mul(self.mul(i, j), self.mul(self.inv(i), self.inv(j)))

    @cached_property
    def powers(self) -> np.ndarray:
        """powers[g, k] = g^k for 0 <= k < exp(G), one gather per column."""
        out = np.empty((self.order, self.exponent), dtype=np.int32)
        out[:, 0] = self.identity
        for k in range(1, self.exponent):
            out[:, k] = self.table[out[:, k - 1], np.arange(self.order)]
        return out

    def power(self, i: int, k: int) -> int:
        return int(self.powers[i, k % self.exponent])

    def element_order(self, i: int) -> int:
        return self.element_orders()[i]

    def element_orders(self) -> list[int]:
        if self._orders is None:
            orders = []
            for i in range(self.order):
                k, x = 1, i
                while x != self.identity:
                    x = self.mul(x, i)
                    k += 1
                orders.append(k)
            self._orders = orders
        return self._orders

    @cached_property
    def exponent(self) -> int:
        return lcm(*self.element_orders()) if self.order > 1 else 1

    def closure(self, *gens) -> np.ndarray:
        """Masks of the subgroups generated by (gens[0][i], gens[1][i], ...), one row per i.

        All subgroups grow together, one right multiplication by each
        generator per round, until no row grows.
        """
        gens = [np.atleast_1d(g) for g in gens]
        rows = gens[0].size
        chunk = max(1, 2**20 // self.order)  # about 10 MB of arrays per round
        if rows > chunk:
            return np.concatenate(
                [self.closure(*(g[i : i + chunk] for g in gens)) for i in range(0, rows, chunk)]
            )
        # y is in seen h iff y h^-1 is in seen
        back = [self.table[:, self.inverse[g]].T for g in gens]
        seen = np.zeros((rows, self.order), dtype=bool)
        seen[:, self.identity] = True
        while True:
            grown = seen.copy()
            for b in back:
                grown |= np.take_along_axis(seen, b, 1)
            if np.array_equal(grown, seen):
                return seen
            seen = grown

    def generating(self, *gens) -> np.ndarray:
        """Mask of the generator rows (gens[0][i], gens[1][i], ...) that generate G."""
        return self.closure(*gens).all(axis=1)

    def extend_pair(self, h1, h2) -> tuple[np.ndarray, np.ndarray]:
        """The homomorphisms G -> G with pair -> (h1[i], h2[i]), along the Cayley tree.

        Returns the mask of the rows that extend and, for those rows only,
        the maps as index arrays.  Row i defines f(p * g) = f(p) * f(g) down
        the tree and extends iff f(x * g_j) = f(x) * h_j on every Cayley edge.
        """
        h1, h2 = np.atleast_1d(h1), np.atleast_1d(h2)
        chunk = max(1, 2**20 // self.order)  # about 10 MB of arrays per round
        if h1.size > chunk:
            parts = [self.extend_pair(h1[i : i + chunk], h2[i : i + chunk]) for i in range(0, h1.size, chunk)]
            return np.concatenate([ok for ok, _ in parts]), np.concatenate([f for _, f in parts])
        images = np.stack([h1, h2])
        f = np.empty((h1.size, self.order), dtype=np.int32)
        f[:, self.identity] = self.identity
        for elems, parents, gens in self._tree:
            f[:, elems] = self.table[f[:, parents], images[gens].T]
        ok = np.ones(h1.size, dtype=bool)
        for right, h in zip(self._right, images):
            ok &= (f[:, right] == self.table[f, h[:, None]]).all(axis=1)
        return ok, f[ok]

    def derived_subgroup(self) -> list[int]:
        """G' as a sorted index list: generated by the conjugacy class of [g1, g2]."""
        if self._derived is None:
            c = self.commutator_elem(self.g1, self.g2)
            c_class = next(k for k in self.conjugacy_classes() if c in k)
            self._derived = np.flatnonzero(self.closure(*c_class)[0]).tolist()
        return self._derived

    @property
    def is_abelian(self) -> bool:
        return self.commutator_elem(self.g1, self.g2) == self.identity

    @property
    def is_metabelian(self) -> bool:
        der = self.derived_subgroup()
        return all(
            self.mul(a, b) == self.mul(b, a) for a, b in itertools.combinations(der, 2)
        )

    def derived_exponent(self) -> int:
        der = self.derived_subgroup()
        return lcm(*(self.element_order(i) for i in der)) if len(der) > 1 else 1

    def ab_order(self, i: int) -> int:
        """Order of the image of element i in G^ab."""
        der = set(self.derived_subgroup())
        k, x = 1, i
        while x not in der:
            x = self.mul(x, i)
            k += 1
        return k

    def conjugacy_classes(self) -> list[list[int]]:
        if self._classes is None:
            least = self.conj_table.min(axis=0)
            self._classes = [
                np.flatnonzero(least == a).tolist()
                for a in np.flatnonzero(least == np.arange(self.order))
            ]
        return self._classes


def group_make(degree: int, g1, g2) -> FinGroup:
    """Build the closure of two permutations (tuples or cycle lists)."""
    if not (g1 and isinstance(g1[0], int)):
        g1 = perm_from_cycles(degree, g1)
    if not (g2 and isinstance(g2[0], int)):
        g2 = perm_from_cycles(degree, g2)
    return FinGroup(degree, tuple(g1), tuple(g2))


def outer_representatives(G: FinGroup, reps) -> np.ndarray:
    """One automorphism per coset of Inn(G) in Aut(G), read off the class list.

    `reps` are the representatives of the generating pairs of G up to
    simultaneous conjugation.  Aut(G) acts freely on generating pairs, so
    sigma -> class of sigma(G.pair) maps Out(G) bijectively onto the classes
    whose representative is the image of a homomorphism from G.pair; each
    such map is onto, hence an automorphism.  Returns the maps as the rows
    of a (|Out(G)|, |G|) index array.
    """
    h1, h2 = np.array(reps, dtype=np.intp).reshape(-1, 2).T
    maps = G.extend_pair(h1, h2)[1]
    if not (np.sort(maps, axis=1) == np.arange(G.order)).all():
        raise RuntimeError("outer representative is not a bijection")
    return maps


def module_power(G: FinGroup, r: RingElem, w, h1, h2) -> np.ndarray:
    """w[i]^r in the module structure of the pair (h1[i], h2[i]), for every row i.

    The monomial a1^i a2^j acts on G' by conjugation with h1^i h2^j, so
    w^r = prod over (i, j) of (h1^i h2^j) w^(r_ij) (h1^i h2^j)^-1; one
    gather through `powers` and `conj_table` per monomial.
    """
    e = G.exponent
    w, h1, h2 = np.broadcast_arrays(*(np.asarray(x, dtype=np.intp) for x in (w, h1, h2)))
    acc = np.full(w.shape, G.identity, dtype=np.intp)
    for (i, j), cij in np.ndenumerate(r.coeffs):
        if cij:
            by = G.table[G.powers[h1, i % e], G.powers[h2, j % e]]
            acc = G.table[acc, G.conj_table[by, G.powers[w, cij % e]]]
    return acc


class ModuleCtx:
    """R(n, m)-module structure on G' with m = exp(G^ab), n = exp(G').

    The ring depends on G alone; each generating pair (h1, h2) gives G' a
    module structure, a1^i a2^j acting by conjugation with h1^i h2^j
    (`module_power`).  That is well defined on exponents mod m because x^m
    centralizes G' for every x in G, which is checked on construction.  For
    abelian G the ring modulus is floored at 2 so the degenerate
    exp(G') = 1 still yields a valid (trivial) module.
    """

    def __init__(self, group: FinGroup):
        if not group.is_metabelian:
            raise HypothesisError("module structure requires a metabelian group")
        self.group = group
        m = lcm(group.ab_order(group.g1), group.ab_order(group.g2))
        n = group.derived_exponent()
        self.ring = ring_make(max(n, 2), max(m, 2))
        self.c = group.commutator_elem(group.g1, group.g2)
        self.derived = group.derived_subgroup()
        self._derived_set = set(self.derived)
        der = np.array(self.derived)
        x_m = group.powers[:, self.ring.m % group.exponent]
        if not (group.conj_table[x_m[:, None], der] == der).all():
            raise InvariantViolation("module action not well-defined mod m")

    def module_evaluate(self, r: RingElem, w: int) -> int:
        """w^r in the module structure of the group's own pair."""
        if r.ctx != self.ring:
            raise ValueError("ring context mismatch")
        if w not in self._derived_set:
            raise ValueError("element is not in the derived subgroup")
        return int(module_power(self.group, r, w, self.group.g1, self.group.g2))


class AbelianStructure:
    """Cyclic decomposition of a finite abelian group with discrete logs."""

    def __init__(self, group: FinGroup, elements: list[int]):
        self.group = group
        self.elements = sorted(elements)
        self._build()

    def _build(self):
        G = self.group
        target = len(self.elements)
        by_order = sorted(self.elements, key=lambda i: (-G.element_order(i), i))
        basis: list[int] = []
        dlog = {G.identity: ()}
        for w in by_order:
            if w in dlog:
                continue
            ow = G.element_order(w)
            powers = {G.power(w, k) for k in range(1, ow)}
            if powers & dlog.keys():
                continue
            new_dlog = {}
            for s, coords in dlog.items():
                x = s
                for k in range(ow):
                    new_dlog[x] = coords + (k,)
                    x = G.mul(x, w)
            dlog = new_dlog
            basis.append(w)
            if len(dlog) == target:
                break
        if len(dlog) != target:
            basis, dlog = self._exhaustive_basis()
        self.basis = basis
        self.orders = [self.group.element_order(b) for b in basis]
        self.dlog_table = dlog

    def _exhaustive_basis(self):
        # greedy choice can stall on awkward scan orders; tiny groups only
        G = self.group
        target = len(self.elements)
        candidates = sorted(self.elements, key=lambda i: (-G.element_order(i), i))

        def extend(basis, dlog):
            if len(dlog) == target:
                return basis, dlog
            for w in candidates:
                if w in dlog:
                    continue
                ow = G.element_order(w)
                if any(G.power(w, k) in dlog for k in range(1, ow)):
                    continue
                new_dlog = {}
                for s, coords in dlog.items():
                    x = s
                    for k in range(ow):
                        new_dlog[x] = coords + (k,)
                        x = G.mul(x, w)
                got = extend(basis + [w], new_dlog)
                if got is not None:
                    return got
            return None

        got = extend([], {G.identity: ()})
        if got is None:
            raise InvariantViolation("no cyclic basis found for abelian subgroup")
        return got

    def dlog(self, w: int) -> tuple[int, ...]:
        return self.dlog_table[w]


@dataclass(frozen=True)
class IdealBasis:
    """An ideal of R(n, m) as a Howell basis of coefficient vectors."""

    ring: RingCtx
    rows: np.ndarray  # Howell form, rows are vec'd ring elements

    def contains(self, r: RingElem) -> bool:
        if self.rows.shape[0] == 0:
            return r.is_zero()
        return linalg.in_span(self.rows, r.vec(), self.ring.n)

    def size(self) -> int:
        return linalg.span_size(self.rows, self.ring.n)

    def additive_index(self) -> int:
        return self.ring.size // self.size()


def _derived_structure(mc: ModuleCtx) -> AbelianStructure:
    return AbelianStructure(mc.group, mc.derived)


def _action_matrix(mc: ModuleCtx, base: int, structure: AbelianStructure) -> np.ndarray:
    """Columns: dlog of base^monomial for each monomial, rows scaled into Z/n."""
    n, m = mc.ring.n, mc.ring.m
    cols = []
    for i in range(m):
        for j in range(m):
            r = mc.ring.monomial(i, j)
            cols.append(structure.dlog(mc.module_evaluate(r, base)))
    A = np.array(cols, dtype=np.int64).T  # rows indexed by cyclic factors
    scaled = np.zeros_like(A)
    for row, d in enumerate(structure.orders):
        scaled[row] = (A[row] * (n // d)) % n
    return scaled


def _scaled_dlog(structure: AbelianStructure, w: int, n: int) -> np.ndarray:
    coords = structure.dlog(w)
    return np.array(
        [(c * (n // d)) % n for c, d in zip(coords, structure.orders)], dtype=np.int64
    )


def kernel_ideal(mc: ModuleCtx) -> IdealBasis:
    """I = {r : c^r = 1}, the kernel ideal of the commutator's module map."""
    n = mc.ring.n
    if mc.c == mc.group.identity:
        return IdealBasis(mc.ring, linalg.howell(np.eye(mc.ring.m**2, dtype=np.int64), n))
    structure = _derived_structure(mc)
    A = _action_matrix(mc, mc.c, structure)
    rows = linalg.kernel(A, n)
    ideal = IdealBasis(mc.ring, rows)
    if ideal.additive_index() != len(mc.derived):
        raise InvariantViolation("c does not generate G' as a module: [R : I] != |G'|")
    return ideal


def solve_commutator_power(mc: ModuleCtx, target: int) -> RingElem | None:
    """s with c^s = target in G', or None."""
    if mc.c == mc.group.identity:
        return mc.ring.zero() if target == mc.group.identity else None
    structure = _derived_structure(mc)
    A = _action_matrix(mc, mc.c, structure)
    b = _scaled_dlog(structure, target, mc.ring.n)
    x = linalg.solve(A, b, mc.ring.n)
    if x is None:
        return None
    s = mc.ring.elem(x.reshape(mc.ring.m, mc.ring.m))
    if mc.module_evaluate(s, mc.c) != target:
        raise RuntimeError("solve_commutator_power: c^s != target for the solved s")
    return s


def ia_descend(mc: ModuleCtx, r: tuple[RingElem, RingElem]) -> np.ndarray:
    """The endomorphism g_i -> c^(r_i) g_i of G induced by gamma_r, as an index map.

    IA-endomorphisms stabilize every kernel, so the extension always exists;
    a NoHom outcome is a hard invariant violation, not an error state.
    """
    G = mc.group
    h1 = G.mul(mc.module_evaluate(r[0], mc.c), G.g1)
    h2 = G.mul(mc.module_evaluate(r[1], mc.c), G.g2)
    ok, maps = G.extend_pair(h1, h2)
    if not ok[0]:
        raise InvariantViolation(
            f"IA-descent failed on {G} for r = ({r[0]}, {r[1]})"
        )
    return maps[0]


def inertia_relation_check(mc: ModuleCtx, ideal: IdealBasis) -> bool:
    """1 + a1 + ... + a1^(d-1) = s (1 - a2) mod I, where g1^d = c^s in G'.

    `ideal` is `kernel_ideal(mc)`.  d is the order of g1 in the
    abelianization; the congruence is the finite-level inertia relation and
    is expected to hold always.
    """
    G = mc.group
    d = G.ab_order(G.g1)
    target = G.power(G.g1, d)
    s = solve_commutator_power(mc, target)
    if s is None:
        raise InvariantViolation("g1^d is not a module power of the commutator")
    lhs = mc.ring.geom1(d)
    rhs = s * (mc.ring.one() - mc.ring.monomial(0, 1))
    return ideal.contains(lhs - rhs)
