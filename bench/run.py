"""The metab benchmark: real CLI invocations, one fresh interpreter per op.

    python3 bench/run.py --workload level|order|ia --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all            # every workload, every metric with its unit
    python3 bench/run.py --workload all --smoke    # one short op per workload

Run from the root of a checkout; `metab` is imported from `src/` there.  With
--trace 0 the metrics are the end-to-end ones, medians over whole passes of
the workload's ops, repeated until --seconds of op time are measured; on
`level` the AGL(1,p) reach probe follows.  With --trace 1 one untraced and
one traced pass run, and the metrics are per-layer figures (traced.py).
The last line of output is one JSON object: correct, attempted, failed,
metrics.  See NOTES.md for the workloads and the layer table.
"""

from __future__ import annotations

import argparse
import compileall
import json
import shutil
import sys
import time

from harness import E2E_UNITS, GOLDEN, RUN_DEADLINE_S, SRC, WORK, run_untraced

WORKLOADS = ("level", "order", "ia")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metab benchmark")
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true", help="one short op per workload")
    args = parser.parse_args(argv)

    if not (SRC / "metab" / "cli.py").is_file():
        print(f"error: no metab sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    compileall.compile_dir(str(SRC), quiet=1)  # the build; not part of any metric

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    out_metrics, attempted, failed = {}, 0, 0
    for wl in workloads:
        deadline = time.monotonic() + RUN_DEADLINE_S
        if args.trace:
            from traced import traced_metrics

            rows, results, problems = traced_metrics(wl, args.seed, args.smoke, golden, deadline)
            units = {k: u for k, u, _ in rows}
            values = {k: v for k, _, v in rows}
        else:
            values, results = run_untraced(wl, args.seed, args.seconds, args.smoke, golden, deadline)
            units, problems = E2E_UNITS, []
        bad = [r for r in results if not r.ok]
        for r in bad:
            print(f"FAILED {wl} {r.op.label}: {r.reason}", file=sys.stderr)
        for p in problems:
            print(f"FAILED {wl} trace: {p}", file=sys.stderr)
        attempted += len(results)
        failed += len(bad) + len(problems)
        print(f"# {wl}: {len(results)} ops, {len(bad)} failed, "
              f"fail_ratio {len(bad) / max(1, len(results)):.3f}")
        for k, v in values.items():
            print(f"{wl:6s} {k:36s} {v:14.6f} {units[k]}")
            name = k if len(workloads) == 1 else f"{wl}.{k}"
            out_metrics[name] = {"value": v, "unit": units[k]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
