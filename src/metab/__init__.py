"""Finite-level calculus on the rank-2 free metabelian group.

Truncated group-algebra arithmetic, the finite Magnus model, IA-endomorphism
classification by Bachmuth determinants, enumeration of SL2(Z)-orbits of
epimorphism classes onto finite 2-generated metabelian groups, congruence
certification of their stabilizers, and modular-curve invariants of the
resulting moduli components.
"""

__version__ = "0.1.0"

from .errors import BudgetError, HypothesisError, InvariantViolation, ParseError
from .grpring import RingCtx, RingElem, augmentation, monomial_part, ring_make, try_invert
from .magnus import MagnusElem, enumerate_w, gens, membership, section
from .iacalc import IAEndo, ia_classify, ia_det, ia_matrix
from .fingrp import (
    FinGroup,
    ModuleCtx,
    group_make,
    ia_descend,
    inertia_relation_check,
    kernel_ideal,
)
from .nielsen import ActionTable, orbits, out_action_on_orbits, stabilizer_mod
from .congruence import (
    LevelCertificate,
    certify,
    gamma_schreier,
    one_plus_eX_check,
    verify_action_level,
    wohlfahrt_level,
    word_from_matrix,
)
from .modcurve import CurveInvariants, component_report, curve_invariants, projectivize
