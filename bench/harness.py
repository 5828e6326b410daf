"""Inputs, output checks and the op runner of the metab benchmark.

Each op is `metab.cli.run(argv)` in a worker process (worker.py), one worker
at a time.  Interpreter start plus `import metab` is set-up time; the op is
timed inside the worker around `cli.run`.  The seed relabels the points of
every group file and draws the `classify` parameters.  Every report is
checked against golden.json (see record_golden.py).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import groups

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / ".work"
GOLDEN = BENCH / "golden.json"

RUN_DEADLINE_S = 170.0  # every run, probe included, ends before this
OP_CAP_S = 90.0  # a timed op slower than this is a failed op
RUNG_CAP_S = 60.0  # per reach rung; AGL(1,7), the largest the seed completes, takes 22-42 s
PROBE_BUDGET_S = 60.0  # all rungs of one probe together
LADDER = (7, 11, 13, 17, 19, 23, 29, 31)

E2E_UNITS = {"wall_s": "s", "max_op_s": "s", "peak_rss_mb": "MB", "setup_s": "s",
             "reach_order": "count", "reach_e": "count"}


# ---------------------------------------------------------------- inputs


@dataclass
class Op:
    label: str  # unique within a pass; also the golden key of a classify op
    args: list[str]  # CLI arguments after --out
    spec: groups.GroupSpec | None = None  # components ops: the group
    cold: bool = True  # builds its action table (no warm cache)
    same_as: str | None = None  # a warm op must reproduce this op's report bytes


def _ring_expr(rng: random.Random, n: int, m: int, terms: int) -> str:
    parts = []
    for _ in range(terms):
        c, i, j = rng.randrange(1, n), rng.randrange(m), rng.randrange(m)
        mono = "".join(f"*a{k}^{e}" for k, e in ((1, i), (2, j)) if e)
        parts.append(f"{c}{mono}")
    return " + ".join(parts)


def ia_pool(n: int, m: int, size: int = 8) -> list[tuple[str, str]]:
    """Fixed parameter pool for single classify ops at R(n, m)."""
    rng = random.Random(f"pool/{n},{m}")
    return [(_ring_expr(rng, n, m, rng.randrange(1, 4)), _ring_expr(rng, n, m, rng.randrange(1, 4)))
            for _ in range(size)]


def classify_label(n: int, m: int, r1: str, r2: str) -> str:
    return f"classify {n} {m} [{r1}] [{r2}]"


def group_file(spec: groups.GroupSpec, seed: int) -> Path:
    """Write the seeded, sympy-checked group file once per run."""
    path = WORK / "groups" / f"{spec.name}-{seed}.json"
    if not path.exists():
        rel = groups.checked(spec.relabelled(seed))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rel.to_json()))
    return path


def components_op(spec, seed, cache=None, cold=True, label=None, same_as=None) -> Op:
    args = ([] if cache is None else ["--cache-dir", str(cache)])
    return Op(label or spec.name, args + ["components", str(group_file(spec, seed))],
              spec=spec, cold=cold, same_as=same_as)


def workload_ops(workload: str, seed: int, pass_no: int, smoke: bool = False) -> list[Op]:
    if workload == "level":
        specs = [groups.dihedral(5)] if smoke else [
            groups.frobenius21(), groups.agl1(5), groups.dihedral(5)]
        return [components_op(s, seed) for s in specs]
    if workload == "order":
        specs = [groups.heisenberg(3)] if smoke else [
            groups.heisenberg(5), groups.heisenberg(3), groups.cyclic_square(7),
            groups.cyclic_square(8)]
        ops = []
        for s in specs:
            cache = WORK / f"cache-{pass_no}-{s.name}"
            ops.append(components_op(s, seed, cache, True, f"{s.name}/cold"))
            if s.order < 125:  # a warm Heis125 op would mostly repeat the Out(G) search
                ops.append(components_op(s, seed, cache, False, f"{s.name}/warm", f"{s.name}/cold"))
        return ops
    if workload == "ia":
        rng = random.Random(f"ia/{seed}")
        picks = [(3, 2, p) for p in rng.sample(ia_pool(3, 2), 1 if smoke else 2)]
        if not smoke:
            picks += [(8, 8, p) for p in rng.sample(ia_pool(8, 8), 3)]
        ops = [] if smoke else [Op("classify 3 2 --exhaustive", ["classify", "3", "2", "--exhaustive"])]
        for n, m, (r1, r2) in picks:
            ops.append(Op(classify_label(n, m, r1, r2), ["classify", str(n), str(m), r1, r2]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- checks


def summary(report: dict) -> dict:
    """The label-independent part of a components report."""
    comps = sorted(
        [c["orbit_size"], c["degree"], c["stabilizer"]["order"] if c["stabilizer"] else None,
         [c["invariants"][k] for k in ("mu", "nu2", "nu3", "cusps", "genus")], c["wohlfahrt"]]
        for c in report["components"]
    )
    return {"e": report["e"], "classes": report["classes"], "certificate": report["certificate"],
            "out_transitive": report["out_transitive"],
            "ia_descent_samples": report.get("ia_descent_samples"), "components": comps}


def check_report(op: Op, blob: bytes, seed: int, golden: dict, done: dict) -> str | None:
    """None when the report is right, else the reason it is not."""
    digest = hashlib.sha256(blob).hexdigest()
    if op.same_as is not None and blob != done.get(op.same_as):
        return f"report differs from {op.same_as}"
    if op.spec is None:
        want = golden["classify"].get(op.label)
        if want is None:
            return "no golden digest for this op"
        return None if digest == want else "report digest differs from golden"
    want = golden["components"].get(op.spec.name)
    if want is None:  # a reach rung beyond what the seed completed
        return None
    if summary(json.loads(blob)) != want["summary"]:
        return "report summary differs from golden"
    if seed == 0 and digest != want["sha256"]:
        return "report digest differs from golden"
    return None


# ---------------------------------------------------------------- running


@dataclass
class OpResult:
    op: Op
    ok: bool
    op_s: float = 0.0
    setup_s: float = 0.0
    rss_mb: float = 0.0
    code: int | None = None
    timed_out: bool = False
    reason: str = ""
    report_bytes: int = 0
    trace: dict | None = field(default=None, repr=False)


class Runner:
    def __init__(self, seed: int, golden: dict, deadline: float, trace_dir: Path | None = None):
        self.seed = seed
        self.golden = golden
        self.deadline = deadline
        self.trace_dir = trace_dir
        self.done: dict[str, bytes] = {}
        self.results: list[OpResult] = []

    def run(self, op: Op, cap: float = OP_CAP_S, expect_codes=(0,)) -> OpResult:
        out = WORK / "out" / f"{hashlib.sha256(op.label.encode()).hexdigest()[:16]}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.unlink(missing_ok=True)
        trace_file = "-"
        if self.trace_dir is not None:
            trace_file = str(self.trace_dir / (out.stem + ".trace.json"))
        cmd = [sys.executable, str(BENCH / "worker.py"), str(SRC), trace_file,
               "--out", str(out), *op.args]
        env = {k: v for k, v in os.environ.items() if k not in ("METAB_CACHE_DIR", "PYTHONPATH")}
        timeout = max(1.0, min(cap, self.deadline - time.monotonic()))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)
        except subprocess.TimeoutExpired:
            res = OpResult(op, False, op_s=time.monotonic() - spawned, timed_out=True,
                           reason=f"timed out after {timeout:.0f} s")
            self.results.append(res)
            return res
        try:
            info = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            res = OpResult(op, False, reason=f"worker died: {proc.stderr.strip()[-300:]}")
            self.results.append(res)
            return res
        res = OpResult(op, True, op_s=info["op_s"], setup_s=info["ready"] - spawned,
                       rss_mb=info["maxrss_kb"] / 1024, code=info["code"])
        if info["crash"]:
            res.ok, res.reason = False, f"crash: {info['crash']}"
        elif info["code"] not in expect_codes:
            res.ok, res.reason = False, f"exit {info['code']}: {proc.stderr.strip()[-300:]}"
        elif info["code"] == 0:
            blob = out.read_bytes()
            res.report_bytes = len(blob)
            res.reason = check_report(op, blob, self.seed, self.golden, self.done) or ""
            res.ok = not res.reason
            self.done[op.label] = blob
        if trace_file != "-" and Path(trace_file).exists():
            res.trace = json.loads(Path(trace_file).read_text())
        self.results.append(res)
        return res


def completed_reach(results: list[OpResult]) -> tuple[int, int]:
    """Largest |G| and largest e of a completed components op (1 if none)."""
    done = [r.op.spec for r in results if r.ok and r.op.spec is not None]
    return max((s.order for s in done), default=1), max((s.exponent for s in done), default=1)


def reach_probe(runner: Runner, seed: int, reach: tuple[int, int]) -> tuple[int, int]:
    """Walk up the AGL(1,p) ladder from `reach` until a rung is beyond reach.

    A rung that exits 2 (budget) or passes its cap is beyond reach and ends
    the probe; it is not a failed op.  A wrong report, a crash or any other
    exit code is a failed op and also ends it.
    """
    budget_end = time.monotonic() + PROBE_BUDGET_S
    for p in LADDER:
        cap = min(RUNG_CAP_S, budget_end - time.monotonic(), runner.deadline - time.monotonic())
        if cap <= 0:
            break
        spec = groups.agl1(p)
        res = runner.run(components_op(spec, seed, label=f"reach/{spec.name}"), cap, (0, 2))
        if res.timed_out:
            res.ok, res.reason = True, "beyond reach: rung cap"
            break
        if not res.ok:
            break
        if res.code == 2:
            res.reason = "beyond reach: budget exit"
            break
        reach = (max(reach[0], spec.order), max(reach[1], spec.exponent))
    return reach


def op_medians(passes: list[list[OpResult]]) -> dict:
    """Per-op medians over the passes, combined over the ops of one pass."""
    per_op = list(zip(*passes))
    op_s = [statistics.median(r.op_s for r in runs) for runs in per_op]
    return {
        "wall_s": sum(op_s),
        "max_op_s": max(op_s),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
        "setup_s": sum(statistics.median(r.setup_s for r in runs) for runs in per_op),
    }


def run_passes(workload, seed, seconds, smoke, runner, deadline_for_passes) -> list[list[OpResult]]:
    """Whole passes until `seconds` of op time are measured; smoke runs one pass.

    A pass that would likely end after the deadline is not started, so a
    slow program gets fewer passes instead of a cut run.
    """
    passes = []
    measured = 0.0
    while not passes or not smoke and measured < seconds:
        if passes:
            last = sum(r.op_s + r.setup_s for r in passes[-1])
            if time.monotonic() + 1.5 * last > deadline_for_passes:
                break
        results = [runner.run(op) for op in workload_ops(workload, seed, len(passes), smoke)]
        passes.append(results)
        measured += sum(r.op_s for r in results)
    return passes


def run_untraced(workload: str, seed: int, seconds: float, smoke: bool, golden: dict,
                 deadline: float) -> tuple[dict, list[OpResult]]:
    runner = Runner(seed, golden, deadline)
    probe_room = PROBE_BUDGET_S + 5 if workload == "level" and not smoke else 0.0
    passes = run_passes(workload, seed, seconds, smoke, runner, deadline - probe_room)
    metrics = op_medians(passes)
    reach = completed_reach([r for p in passes for r in p])
    if workload == "level" and not smoke:
        reach = reach_probe(runner, seed, reach)
    metrics["reach_order"], metrics["reach_e"] = reach
    return metrics, runner.results
