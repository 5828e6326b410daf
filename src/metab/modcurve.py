"""Modular-curve invariants of orbit components and the full component report.

Each SL2(Z)-orbit of classes is a connected cover of the modular curve; its
invariants are read off the permutation action after projectivization
(quotient by -I = S^2, which acts by simultaneous inversion):

    mu    = number of projective points (index in PSL2(Z)),
    nu2   = fixed points of S,
    nu3   = fixed points of the order-3 composite ST,
    cusps = number of T-cycles,
    genus = 1 + mu/12 - nu2/4 - nu3/3 - cusps/2  (asserted integral).

`component_report` runs the whole pipeline for a metabelian group: action
table, congruence certification at e = exp(G), SL2/GL2 orbits, stabilizers
H <= GL2(Z/e), per-component invariants, and the homogeneity assertions
(identical invariants within a GL2-orbit, Out(G)-transitivity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congruence import LevelCertificate, certify, wohlfahrt_level
from .errors import HypothesisError, InvariantViolation
from .fingrp import FinGroup, perm_cycles
from .nielsen import ActionTable, MatrixSubgroup, orbits, out_action_on_orbits, stabilizer_mod


@dataclass(frozen=True)
class CurveInvariants:
    mu: int
    nu2: int
    nu3: int
    cusps: int
    genus: int

    def to_json(self) -> dict:
        return {
            "mu": self.mu,
            "nu2": self.nu2,
            "nu3": self.nu3,
            "cusps": self.cusps,
            "genus": self.genus,
        }


@dataclass(frozen=True)
class ProjAction:
    """S- and T-permutations on the -I-quotient of one SL2-orbit."""

    points: tuple  # sorted tuples of merged class indices
    s: np.ndarray
    t: np.ndarray


def projectivize(table: ActionTable, orbit: list[int]) -> ProjAction:
    """Merge orbit classes along S^2 = -I and induce the S, T permutations.

    Well-definedness of the induced permutations is checked; a failure would
    mean S^2 is not central on the orbit, which the move relations forbid.
    """
    s, t = table.perm_s, table.perm_t
    minus_one = s[s]
    point_of = {}
    points = []
    for x in sorted(orbit):
        if x in point_of:
            continue
        members = tuple(sorted({x, int(minus_one[x])}))
        for y in members:
            point_of[y] = len(points)
        points.append(members)
    n = len(points)
    proj_s = np.empty(n, dtype=np.int64)
    proj_t = np.empty(n, dtype=np.int64)
    for i, members in enumerate(points):
        images_s = {point_of[int(s[y])] for y in members}
        images_t = {point_of[int(t[y])] for y in members}
        if len(images_s) != 1 or len(images_t) != 1:
            raise InvariantViolation("-I-quotient action is ill-defined")
        proj_s[i] = images_s.pop()
        proj_t[i] = images_t.pop()
    return ProjAction(points=tuple(points), s=proj_s, t=proj_t)


def curve_invariants(proj: ProjAction) -> CurveInvariants:
    """Classical invariants from a transitive projective (s, t)-action."""
    n = len(proj.points)
    s, t = proj.s, proj.t
    st = t[s]  # first S, then T: the order-3 elliptic composite
    st6 = st
    for _ in range(5):
        st6 = st[st6]
    if not np.array_equal(st6, np.arange(n)):
        raise InvariantViolation("(ST)^6 is not the identity on the quotient")
    nu2 = int(np.sum(s == np.arange(n)))
    nu3 = int(np.sum(st == np.arange(n)))
    widths = [len(c) for c in perm_cycles(t)]
    if sum(widths) != n:
        raise InvariantViolation("mu does not match the sum of cusp widths")
    cusps = len(widths)
    twelve_g = 12 + n - 3 * nu2 - 4 * nu3 - 6 * cusps
    if twelve_g % 12 or twelve_g < 0:
        raise InvariantViolation(
            f"genus formula gave a non-integer: mu={n} nu2={nu2} nu3={nu3} cusps={cusps}"
        )
    return CurveInvariants(mu=n, nu2=nu2, nu3=nu3, cusps=cusps, genus=twelve_g // 12)


@dataclass(frozen=True)
class ComponentReport:
    orbit_index: int
    e: int
    orbit_size: int
    gl_orbit_index: int | None
    degree: int | None  # [GL2(Z/e) : H], the degree of the Q-component over M(1)
    stabilizer: MatrixSubgroup | None
    invariants: CurveInvariants
    wohlfahrt: int

    def to_json(self) -> dict:
        return {
            "orbit": self.orbit_index,
            "e": self.e,
            "orbit_size": self.orbit_size,
            "gl_orbit": self.gl_orbit_index,
            "degree": self.degree,
            "stabilizer": self.stabilizer.to_json() if self.stabilizer else None,
            "invariants": self.invariants.to_json(),
            "wohlfahrt": self.wohlfahrt,
        }


@dataclass(frozen=True)
class PipelineResult:
    group: str
    e: int
    class_count: int
    certificate: LevelCertificate
    components: tuple[ComponentReport, ...]
    out_transitive: bool

    def to_json(self) -> dict:
        return {
            "group": self.group,
            "e": self.e,
            "classes": self.class_count,
            "certificate": self.certificate.to_json(),
            "out_transitive": self.out_transitive,
            "components": [c.to_json() for c in self.components],
        }

    def csv_rows(self) -> list[list]:
        rows = [
            [
                "group",
                "orbit",
                "e",
                "degree",
                "stabilizer_order",
                "mu",
                "nu2",
                "nu3",
                "cusps",
                "genus",
                "wohlfahrt",
            ]
        ]
        for c in self.components:
            inv = c.invariants
            rows.append(
                [
                    self.group,
                    c.orbit_index,
                    c.e,
                    c.degree,
                    c.stabilizer.order,
                    inv.mu,
                    inv.nu2,
                    inv.nu3,
                    inv.cusps,
                    inv.genus,
                    c.wohlfahrt,
                ]
            )
        return rows


def component_report(
    G: FinGroup,
    name: str = "",
    table: ActionTable | None = None,
    require_metabelian: bool = True,
    check_out_transitivity: bool = True,
) -> PipelineResult:
    """Full pipeline: classes -> certification -> orbits -> stabilizers -> invariants.

    Raises InvariantViolation when a theory-guaranteed step fails
    (certification at e = exp(G), GL2-orbit homogeneity of invariants,
    Out(G)-transitivity): such a failure would falsify the finite-level
    theory on a desk-scale instance and must surface loudly.
    """
    metabelian = G.is_metabelian
    if require_metabelian and not metabelian:
        raise HypothesisError(f"{name or 'group'} is not metabelian")
    if table is None:
        table = ActionTable(G)
    e = G.exponent
    cert = certify(table, e, name)
    if metabelian and not cert.verdict:
        raise InvariantViolation(f"action of {name} does not factor through level {e}")
    sl_orbits = orbits(table, "SL2")
    full = metabelian and cert.verdict  # stabilizer data needs the certificate
    gl_of_class: dict[int, int] = {}
    gl_stabs: dict[int, MatrixSubgroup] = {}
    gl_orbits: list[list[int]] = []
    if full:
        gl_orbits = orbits(table, "GL2", braid=True)
        for gi, orb in enumerate(gl_orbits):
            for x in orb:
                gl_of_class[x] = gi
        for gi, orb in enumerate(gl_orbits):
            H = stabilizer_mod(table, orb[0], cert, "GL2")
            if H.ambient_order % H.order or H.ambient_order // H.order != len(orb):
                raise InvariantViolation("GL2 orbit size disagrees with [GL2 : H]")
            gl_stabs[gi] = H
    components = []
    for oi, orb in enumerate(sl_orbits):
        proj = projectivize(table, orb)
        inv = curve_invariants(proj)
        wl = wohlfahrt_level(table, orb)
        if full and e % wl:
            raise InvariantViolation("wohlfahrt level does not divide the certified level")
        gi = gl_of_class.get(orb[0])
        H = gl_stabs.get(gi) if gi is not None else None
        components.append(
            ComponentReport(
                orbit_index=oi,
                e=e,
                orbit_size=len(orb),
                gl_orbit_index=gi,
                degree=H.ambient_order // H.order if H else None,
                stabilizer=H,
                invariants=inv,
                wohlfahrt=wl,
            )
        )
    if full:
        # all components of one GL2-orbit are isomorphic covers
        by_gl: dict[int, CurveInvariants] = {}
        for comp in components:
            prev = by_gl.setdefault(comp.gl_orbit_index, comp.invariants)
            if prev != comp.invariants:
                raise InvariantViolation(
                    f"components of GL2-orbit {comp.gl_orbit_index} have unequal invariants"
                )
        # bookkeeping: Q-component degrees exhaust the classes
        if sum(len(orb) for orb in gl_orbits) != len(table.classes):
            raise InvariantViolation("GL2 orbits do not partition the classes")
    out_transitive = True
    if check_out_transitivity and full:
        _, out_transitive = out_action_on_orbits(G, table, braid=True)
        if require_metabelian and not out_transitive:
            raise InvariantViolation(f"Out({name}) is not transitive on GL2-orbits")
    return PipelineResult(
        group=name,
        e=e,
        class_count=len(table.classes),
        certificate=cert,
        components=tuple(components),
        out_transitive=out_transitive,
    )
