"""Spans around the public functions of each `metab` layer, from outside.

`Tracer.install` replaces a target function at every binding that holds it:
the attribute in its defining module, every `from ... import` copy in the
other loaded `metab` modules, and, for methods, the class attribute.  Each
wrapper counts its calls and appends one span (name, start, end, parent) to
an in-memory list; `restore` puts every original back and checks that it
did.  Spans are summarised after the op: inclusive time of the outermost
span of each name, and self time (duration minus the direct children).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the function to wrap
TARGETS: dict[str, tuple[str, str]] = {
    "cli.run": ("metab.cli", "run"),
    "fingrp.descent_sweep": ("metab.cli", "_descent_sweep"),
    "congruence.certify": ("metab.congruence", "certify"),
    "congruence.gamma_schreier": ("metab.congruence", "gamma_schreier"),
    "congruence.verify_action_level": ("metab.congruence", "verify_action_level"),
    "congruence.wohlfahrt_level": ("metab.congruence", "wohlfahrt_level"),
    "nielsen.stabilizer_mod": ("metab.nielsen", "stabilizer_mod"),
    "nielsen.matrix_group_closure": ("metab.nielsen", "matrix_group_closure"),
    "nielsen.ActionTable": ("metab.nielsen", "ActionTable.__init__"),
    "nielsen.orbits": ("metab.nielsen", "orbits"),
    "nielsen.braid_u_perms": ("metab.nielsen", "braid_u_perms"),
    "nielsen.out_action_on_orbits": ("metab.nielsen", "out_action_on_orbits"),
    "fingrp.load_group_file": ("metab.catalog", "load_group_file"),
    "fingrp.outer_representatives": ("metab.fingrp", "outer_representatives"),
    "fingrp.ModuleCtx": ("metab.fingrp", "ModuleCtx.__init__"),
    "fingrp.ia_descend": ("metab.fingrp", "ia_descend"),
    "modcurve.component_report": ("metab.modcurve", "component_report"),
    "modcurve.projectivize": ("metab.modcurve", "projectivize"),
    "modcurve.curve_invariants": ("metab.modcurve", "curve_invariants"),
    "grpring.mul": ("metab.grpring", "RingElem.__mul__"),
    "grpring.try_invert": ("metab.grpring", "try_invert"),
    "linalg.howell": ("metab.linalg", "howell"),
    "linalg.solve": ("metab.linalg", "solve"),
    "linalg.SpanSolver.solve": ("metab.linalg", "SpanSolver.solve"),
    "magnus.enumerate_w": ("metab.magnus", "enumerate_w"),
    "magnus.membership": ("metab.magnus", "membership"),
    "iacalc.ia_classify": ("metab.iacalc", "ia_classify"),
}

# counters read off return values: span name -> {counter: fn(result, args)}
COUNTERS = {
    "congruence.certify": {"congruence.schreier_words": lambda r, a: r.schreier_word_count},
    "nielsen.stabilizer_mod": {"nielsen.ambient_elems": lambda r, a: r.ambient_order},
    "nielsen.ActionTable": {
        "nielsen.pairs": lambda r, a: a[0].group.order ** 2,
        "nielsen.classes": lambda r, a: len(a[0].classes),
    },
    "modcurve.component_report": {"modcurve.components": lambda r, a: len(r.components)},
    "iacalc.ia_classify": {"iacalc.verdict." + k: (lambda k: lambda r, a: int(r.kind == k))(k)
                           for k in ("inner", "automorphism", "not_automorphism")},
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, calls, counts = self.spans, self._stack, self.calls, self.counts
        counters = COUNTERS.get(name, {})
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for counter, read in counters.items():
                counts[counter] += read(result, args)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "metab" or key.startswith("metab."))]
        for name, (module, path) in TARGETS.items():
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            # a method is looked up on its class, under every alias there
            # (`__rmul__ = __mul__`); a function under every module binding
            homes = [owner] if isinstance(owner, type) else modules
            bindings = [(home, key) for home in homes for key, val in list(vars(home).items())
                        if val is original]
            for obj, key in bindings:
                setattr(obj, key, wrapper)
                self._patched.append((obj, key, original))

    def restore(self) -> None:
        for obj, key, original in reversed(self._patched):
            setattr(obj, key, original)
        leftover = [f"{getattr(obj, '__name__', obj)}.{key}"
                    for obj, key, original in self._patched
                    if getattr(obj, "__dict__", {}).get(key) is not original]
        self._patched.clear()
        if leftover:
            raise RuntimeError(f"tracer left wrappers in place: {leftover}")

    def summary(self) -> dict:
        """Per span name: calls, inclusive s (outermost spans only), self s."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            if not self._inside_same(i):
                row["incl_s"] += end - start
        return out

    def _inside_same(self, i: int) -> bool:
        name, parent = self.spans[i][0], self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
