"""Record golden.json: the expected report of every benchmark op.

    python3 bench/record_golden.py

Runs each op once with the program in src/ and stores, for components ops,
the sha256 of the seed-0 report and its label-independent summary (which
is confirmed on a relabelled copy, seed 1), and for classify ops the sha256
of the report.  Reach rungs are recorded up the ladder until the first one
the program does not complete.  Re-record only when a change is meant to
alter reports, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
import time

import groups
from harness import (GOLDEN, LADDER, SRC, WORK, Op, Runner, classify_label, components_op,
                     ia_pool, summary)


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    empty = {"components": {}, "classify": {}}
    golden = {"src_sha256": src_digest(), "components": {}, "classify": {}}
    specs = [groups.frobenius21(), groups.agl1(5), groups.dihedral(5), groups.heisenberg(5),
             groups.heisenberg(3), groups.cyclic_square(7), groups.cyclic_square(8)]
    specs += [groups.agl1(p) for p in LADDER]
    for spec in specs:
        runs = []
        for seed in (0, 1):
            runner = Runner(seed, empty, time.monotonic() + 600)
            res = runner.run(components_op(spec, seed), cap=600, expect_codes=(0, 2))
            if not res.ok or res.code != 0:
                break
            runs.append(runner.done[spec.name])
        if len(runs) < 2:
            print(f"{spec.name}: not completed, no golden (exit {res.code}, {res.reason})")
            if spec.name.startswith("AGL1_") and spec.order > 20:
                break  # the ladder ends at the first rung the program does not complete
            continue
        first, second = (summary(json.loads(b)) for b in runs)
        if first != second:
            print(f"{spec.name}: summary depends on point labels", file=sys.stderr)
            return 1
        golden["components"][spec.name] = {"sha256": hashlib.sha256(runs[0]).hexdigest(),
                                           "summary": first}
        print(f"{spec.name}: recorded")
    ops = [Op("classify 3 2 --exhaustive", ["classify", "3", "2", "--exhaustive"])]
    for n, m in ((3, 2), (8, 8)):
        for r1, r2 in ia_pool(n, m):
            ops.append(Op(classify_label(n, m, r1, r2), ["classify", str(n), str(m), r1, r2]))
    runner = Runner(0, empty, time.monotonic() + 600)
    for op in ops:
        res = runner.run(op, cap=600)
        if res.code != 0:
            print(f"{op.label}: exit {res.code}, {res.reason}", file=sys.stderr)
            return 1
        golden["classify"][op.label] = hashlib.sha256(runner.done[op.label]).hexdigest()
        print(f"{op.label}: recorded")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
