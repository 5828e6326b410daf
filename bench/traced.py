"""Per-layer metrics: one untraced pass, then one traced pass of the same ops.

Layer times are self times (span duration minus direct children) summed
over the spans of the layer, so layers never overlap and their shares of
the traced `cli.run` time add up to at most 1.  Named `_s` metrics of one
function are inclusive times of its outermost spans.  The tracing overhead
is traced minus untraced wall time of the pass.
"""

from __future__ import annotations

from collections import defaultdict

import harness
from harness import Runner, workload_ops

# the matrix part of nielsen: SL2/GL2(Z/e) closures and stabilizers
NIELSEN_MATRIX = {"nielsen.stabilizer_mod", "nielsen.matrix_group_closure"}
LAYERS = ("congruence", "nielsen_matrix", "nielsen_group", "fingrp", "modcurve", "cli",
          "grpring", "linalg", "magnus", "iacalc")
ALGEBRA = ("grpring", "linalg", "magnus", "iacalc")

# wrappers that must fire on each workload; one that stays silent means a
# binding was missed and the layer figures would be wrong
_GROUP_OPS = {
    "cli.run", "fingrp.load_group_file", "modcurve.component_report", "congruence.certify",
    "congruence.gamma_schreier", "congruence.verify_action_level", "congruence.wohlfahrt_level",
    "nielsen.orbits", "nielsen.braid_u_perms", "nielsen.stabilizer_mod",
    "nielsen.matrix_group_closure", "nielsen.out_action_on_orbits",
    "fingrp.outer_representatives", "fingrp.ModuleCtx", "fingrp.descent_sweep",
    "fingrp.ia_descend", "modcurve.projectivize", "modcurve.curve_invariants",
    "nielsen.ActionTable", "grpring.mul", "grpring.try_invert", "linalg.solve", "linalg.howell",
}
PREDICTED = {
    "level": _GROUP_OPS,
    "order": _GROUP_OPS,
    "ia": {"cli.run", "iacalc.ia_classify", "grpring.mul", "grpring.try_invert", "linalg.howell",
           "linalg.SpanSolver.solve", "magnus.membership", "magnus.enumerate_w"},
}


def layer_of(span: str) -> str:
    if span in NIELSEN_MATRIX:
        return "nielsen_matrix"
    head = span.split(".")[0]
    return "nielsen_group" if head == "nielsen" else head


def traced_metrics(workload, seed, smoke, golden, deadline):
    plain = Runner(seed, golden, deadline)
    plain_results = [plain.run(op) for op in workload_ops(workload, seed, 0, smoke)]
    trace_dir = harness.WORK / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    traced = Runner(seed, golden, deadline, trace_dir)
    traced_results = [traced.run(op) for op in workload_ops(workload, seed, 1, smoke)]

    incl, self_s, calls, counts = (defaultdict(float) for _ in range(4))
    cold_wall = cold_table_out = 0.0
    problems = []
    for r in traced_results:
        if r.trace is None:
            problems.append(f"no trace from {r.op.label}")
            continue
        for name, row in r.trace["summary"].items():
            incl[name] += row["incl_s"]
            self_s[name] += row["self_s"]
            calls[name] += row["calls"]
        for name, v in r.trace["counts"].items():
            counts[name] += v
        if r.op.spec is not None and r.op.cold:
            cold_wall += r.trace["summary"]["cli.run"]["incl_s"]
            cold_table_out += sum(r.trace["summary"].get(k, {}).get("incl_s", 0.0)
                                  for k in ("nielsen.ActionTable", "nielsen.out_action_on_orbits"))
    silent = sorted(PREDICTED[workload] - {k for k, v in calls.items() if v})
    if silent:
        problems.append(f"wrappers predicted to fire never did: {', '.join(silent)}")

    layer = defaultdict(float)
    for name, v in self_s.items():
        layer[layer_of(name)] += v
    wall = incl["cli.run"]
    untraced_wall = sum(r.op_s for r in plain_results)
    traced_wall = sum(r.op_s for r in traced_results)

    def share(x):
        return x / wall if wall else 0.0

    m = [
        ("congruence.certify_s", "s", incl["congruence.certify"]),
        ("congruence.coset_s", "s", incl["congruence.gamma_schreier"]),
        ("congruence.verify_s", "s", incl["congruence.verify_action_level"]),
        ("congruence.schreier_words", "count", counts["congruence.schreier_words"]),
        ("congruence.wohlfahrt_s", "s", incl["congruence.wohlfahrt_level"]),
        ("congruence.wohlfahrt_calls", "count", calls["congruence.wohlfahrt_level"]),
        ("nielsen.stabilizer_s", "s", incl["nielsen.stabilizer_mod"]),
        ("nielsen.stabilizer_calls", "count", calls["nielsen.stabilizer_mod"]),
        ("nielsen.closure_s", "s", incl["nielsen.matrix_group_closure"]),
        ("nielsen.ambient_elems", "count", counts["nielsen.ambient_elems"]),
        ("nielsen.table_s", "s", incl["nielsen.ActionTable"]),
        ("nielsen.pairs", "count", counts["nielsen.pairs"]),
        ("nielsen.classes", "count", counts["nielsen.classes"]),
        ("nielsen.class_ratio", "ratio",
         counts["nielsen.classes"] / counts["nielsen.pairs"] if counts["nielsen.pairs"] else 0.0),
        ("nielsen.orbits_s", "s", incl["nielsen.orbits"]),
        ("nielsen.orbits_calls", "count", calls["nielsen.orbits"]),
        ("nielsen.braid_s", "s", incl["nielsen.braid_u_perms"]),
        ("nielsen.out_action_s", "s", incl["nielsen.out_action_on_orbits"]),
        ("fingrp.group_s", "s", incl["fingrp.load_group_file"]),
        ("fingrp.outer_s", "s", incl["fingrp.outer_representatives"]),
        ("fingrp.modulectx_s", "s", incl["fingrp.ModuleCtx"]),
        ("fingrp.descent_s", "s", incl["fingrp.descent_sweep"]),
        ("fingrp.descent_calls", "count", calls["fingrp.ia_descend"]),
        ("modcurve.report_s", "s", incl["modcurve.component_report"]),
        ("modcurve.invariants_s", "s", incl["modcurve.projectivize"] + incl["modcurve.curve_invariants"]),
        ("modcurve.components", "count", counts["modcurve.components"]),
        ("cli.self_s", "s", self_s["cli.run"]),
        ("cli.report_bytes", "bytes", float(sum(r.report_bytes for r in traced_results))),
        ("grpring.mul_calls", "count", calls["grpring.mul"]),
        ("grpring.mul_s", "s", incl["grpring.mul"]),
        ("grpring.invert_calls", "count", calls["grpring.try_invert"]),
        ("grpring.invert_s", "s", incl["grpring.try_invert"]),
        ("linalg.howell_calls", "count", calls["linalg.howell"]),
        ("linalg.howell_s", "s", incl["linalg.howell"]),
        ("linalg.solve_calls", "count", calls["linalg.solve"] + calls["linalg.SpanSolver.solve"]),
        ("linalg.solve_s", "s", incl["linalg.solve"] + incl["linalg.SpanSolver.solve"]),
        ("magnus.enumerate_w_s", "s", incl["magnus.enumerate_w"]),
        ("magnus.membership_calls", "count", calls["magnus.membership"]),
        ("iacalc.classify_calls", "count", calls["iacalc.ia_classify"]),
        ("iacalc.classify_s", "s", incl["iacalc.ia_classify"]),
        ("iacalc.verdict.inner", "count", counts["iacalc.verdict.inner"]),
        ("iacalc.verdict.automorphism", "count", counts["iacalc.verdict.automorphism"]),
        ("iacalc.verdict.not_automorphism", "count", counts["iacalc.verdict.not_automorphism"]),
    ]
    m += [(f"layer.{name}_s", "s", layer[name]) for name in LAYERS]
    m += [
        ("share.congruence_matrix", "ratio", share(layer["congruence"] + layer["nielsen_matrix"])),
        ("share.table_out_action_cold", "ratio", cold_table_out / cold_wall if cold_wall else 0.0),
        ("share.algebra", "ratio", share(sum(layer[k] for k in ALGEBRA))),
        ("trace.wall_s", "s", traced_wall),
        ("trace.untraced_wall_s", "s", untraced_wall),
        ("trace.overhead_s", "s", traced_wall - untraced_wall),
        ("trace.spans", "count", float(sum(len(r.trace["spans"]) for r in traced_results if r.trace))),
    ]
    return [(k, u, float(v)) for k, u, v in m], plain_results + traced_results, problems
