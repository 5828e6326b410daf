"""The ideal-membership stability criterion, with its brute-force oracle.

`StabilityInstance` packages the data (I, s1, s2, d1, d2) of a subgroup
K = <I kappa, c^-s1 x1^d1, c^-s2 x2^d2> of the Magnus model W(n, m);
`stability_instance_from_group` reads that data off a metabelian group.
Comparing `stability_check` with `brute_stability` on 100 parameters
takes up to about a second per catalog group, several times a whole
`metab components` run, so the criterion lives here and only the test
suite exercises it.
"""

import numpy as np

from metab import linalg, magnus
from metab.errors import InvariantViolation
from metab.fingrp import IdealBasis, ModuleCtx, kernel_ideal, solve_commutator_power
from metab.grpring import RingCtx, RingElem
from metab.iacalc import IAEndo, ia_det

from magnus_extras import ann_kappa, ia_apply, kappa_line_basis


def intersect_spans(B1, B2, N: int) -> np.ndarray:
    """Howell basis of rowspan(B1) & rowspan(B2) over Z/N."""
    B1 = np.atleast_2d(np.asarray(B1, dtype=np.int64)) % N
    B2 = np.atleast_2d(np.asarray(B2, dtype=np.int64)) % N
    if B1.shape[0] == 0 or B2.shape[0] == 0:
        return np.zeros((0, B1.shape[1]), dtype=np.int64)
    stacked = np.vstack([B1, B2])
    K = linalg.kernel(stacked.T, N)  # rows c with c @ stacked = 0
    if K.shape[0] == 0:
        return np.zeros((0, B1.shape[1]), dtype=np.int64)
    vecs = (K[:, : B1.shape[0]] @ B1) % N
    return linalg.howell(vecs, N)


def ideal_generators(ideal: IdealBasis) -> list[RingElem]:
    return [ideal.ring.elem(row.reshape(ideal.ring.m, ideal.ring.m)) for row in ideal.rows]


class StabilityInstance:
    """Data (I, s1, s2, d1, d2) defining K = <I kappa, c^-s1 x1^d1, c^-s2 x2^d2> <= W.

    `stability_check(r)` evaluates the two ideal conditions
        r2 s1 (a1 - 1) in I   and   r1 s2 (a2 - 1) in I;
    `brute_stability(r)` instead applies gamma_r to the generators of K
    inside the Magnus model and tests containment directly.

    The two agree under the hypotheses checked by `hypothesis_check`:
    the derived-line part of K is exactly I kappa, the inertia congruences
    hold for (s_i, d_i), and Ann(kappa) is contained in I.  (The profinite
    hypothesis "K/I injects into the abelianization" is unattainable
    verbatim at finite level: x_i^(d_i o_i) wraps onto norm vectors outside
    the kappa line.  The conditions above are what the equivalence proof
    actually consumes.)
    """

    def __init__(
        self,
        ring: RingCtx,
        ideal: IdealBasis,
        s1: RingElem,
        s2: RingElem,
        d1: int,
        d2: int,
    ):
        if ideal.ring != ring:
            raise ValueError("ideal ring mismatch")
        if d1 < 1 or d2 < 1:
            raise ValueError("exponents must be positive")
        self.ring = ring
        self.ideal = ideal
        self.s1, self.s2 = s1, s2
        self.d1, self.d2 = d1, d2
        x1, x2 = magnus.gens(ring)
        self.k1 = magnus.derived_elem(ring, -s1) * (x1**d1)
        self.k2 = magnus.derived_elem(ring, -s2) * (x2**d2)
        self._lattice = None

    def ideal_kappa_rows(self) -> np.ndarray:
        rows = [magnus.derived_elem(self.ring, a).bvec() for a in ideal_generators(self.ideal)]
        if not rows:
            return np.zeros((0, 2 * self.ring.m**2), dtype=np.int64)
        return np.array(rows, dtype=np.int64)

    def k_lattice(self):
        """(T-part span of K, A-image data) via Schreier generators of ker(K -> A)."""
        if self._lattice is not None:
            return self._lattice
        ring = self.ring
        m = ring.m
        # coset BFS of <k1, k2> acting on its A-image
        start = (0, 0)
        transversal: dict[tuple[int, int], magnus.MagnusElem] = {
            start: magnus.identity(ring)
        }
        frontier = [start]
        gens_w = [self.k1, self.k2]
        schreier: list[magnus.MagnusElem] = []
        while frontier:
            nxt = []
            for v in frontier:
                rep = transversal[v]
                for g in gens_w:
                    w = rep * g
                    if w.v not in transversal:
                        transversal[w.v] = w
                        nxt.append(w.v)
                    else:
                        sg = w * transversal[w.v].inv()
                        if sg.v != (0, 0):
                            raise InvariantViolation("Schreier generator has A-part")
                        schreier.append(sg)
            frontier = nxt
        # Schreier's lemma: the collected generators span ker(K -> A) outright,
        # and K & T = I kappa + that span inside the abelian T-part.
        rows = [row for row in self.ideal_kappa_rows()]
        for sg in schreier:
            rows.append(sg.bvec())
        span = linalg.howell(np.array(rows, dtype=np.int64), ring.n) if rows else np.zeros(
            (0, 2 * m * m), dtype=np.int64
        )
        self._lattice = (span, transversal)
        return self._lattice

    def contains(self, z: magnus.MagnusElem) -> bool:
        """Membership in K = <I kappa, k1, k2>."""
        span, transversal = self.k_lattice()
        if z.v not in transversal:
            return False
        t_part = z * transversal[z.v].inv()
        if t_part.v != (0, 0):
            return False
        if span.shape[0] == 0:
            return t_part.b1.is_zero() and t_part.b2.is_zero()
        return linalg.in_span(span, t_part.bvec(), self.ring.n)

    def hypothesis_check(self) -> tuple[bool, list[str]]:
        """The exact finite-level hypotheses under which the criterion is two-sided."""
        ring = self.ring
        problems = []
        # (a) K's derived-line part is exactly I kappa
        span, _ = self.k_lattice()
        inter = intersect_spans(span, kappa_line_basis(ring), ring.n)
        ik = self.ideal_kappa_rows()
        ik_h = linalg.howell(ik, ring.n) if ik.shape[0] else np.zeros((0, inter.shape[1] if inter.size else 2 * ring.m**2), dtype=np.int64)
        for row in inter:
            ok = ik_h.shape[0] > 0 and linalg.in_span(ik_h, row, ring.n)
            if not ok and row.any():
                problems.append("derived part of K exceeds I kappa")
                break
        # (b) inertia congruences for (s_i, d_i)
        one = ring.one()
        if not self.ideal.contains(ring.geom1(self.d1) - self.s1 * (one - ring.monomial(0, 1))):
            problems.append("inertia congruence fails for (s1, d1)")
        if not self.ideal.contains(ring.geom2(self.d2) - self.s2 * (ring.monomial(1, 0) - one)):
            problems.append("inertia congruence fails for (s2, d2)")
        # (c) Ann(kappa) inside I, so exponents of c are read off exactly mod I
        for a in ann_kappa(ring):
            if not self.ideal.contains(a):
                problems.append("Ann(kappa) not contained in the ideal")
                break
        return (not problems, problems)

    def stability_check(self, r: tuple[RingElem, RingElem]) -> bool:
        """The two ideal-membership conditions of the stability criterion."""
        ring = self.ring
        one = ring.one()
        a1, a2 = ring.monomial(1, 0), ring.monomial(0, 1)
        return self.ideal.contains(r[1] * self.s1 * (a1 - one)) and self.ideal.contains(
            r[0] * self.s2 * (a2 - one)
        )

    def brute_stability(self, r: tuple[RingElem, RingElem]) -> bool:
        """gamma_r(K) <= K by direct application to the generators of K."""
        e = IAEndo(r[0], r[1])
        # ideal part: gamma_r scales I kappa by det, staying inside since I is an ideal
        det = ia_det(e)
        for iota in ideal_generators(self.ideal):
            if not self.ideal.contains(det * iota):
                return False
        return self.contains(ia_apply(e, self.k1)) and self.contains(
            ia_apply(e, self.k2)
        )


def stability_instance_from_group(mc: ModuleCtx) -> StabilityInstance:
    """The kernel data of (G, pair): I = kernel ideal, d_i = ab-orders, c^(s_i) = g_i^(d_i)."""
    G = mc.group
    g1, g2 = G.pair
    d1, d2 = G.ab_order(g1), G.ab_order(g2)
    s1 = solve_commutator_power(mc, G.power(g1, d1))
    s2 = solve_commutator_power(mc, G.power(g2, d2))
    if s1 is None or s2 is None:
        raise InvariantViolation("generator powers are not module powers of c")
    return StabilityInstance(mc.ring, kernel_ideal(mc), s1, s2, d1, d2)
