"""Run-to-run spread of the end-to-end metrics, and the seed record.

    python3 bench/spread.py --seeds 1 2 3 4 5 [--workload level order ia]
                            [--sets 2] [--traced] [--out FILE]

Each set runs `run.py --trace 0` once per seed and workload (workloads
interleaved, so drift of the machine reaches all of them alike); set k uses
the seeds plus 100 k.  For each metric it prints the median and the spread
(Q3 - Q1) / median, with quartiles from statistics.quantiles(values, n=4),
next to the metric's bound in BENCHMARK.json, and how far each later set's
median moved from the first set's, in the metric's worse direction.
--traced adds one --trace 1 run per workload; --out writes all of it,
with the Python and numpy versions and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=200)
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["exit"] = proc.returncode
    return doc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", nargs="+", default=["level", "order", "ia"])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    import numpy

    record = {"python": platform.python_version(), "numpy": numpy.__version__,
              "nproc": os.cpu_count(), "run_seconds": spec["run_seconds"], "sets": []}
    ok = True
    for k in range(args.sets):
        seeds = [s + 100 * k for s in args.seeds]
        runs = {wl: [] for wl in args.workload}
        for seed in seeds:
            for wl in args.workload:
                doc = run(wl, seed, spec["run_seconds"], 0)
                ok &= doc["exit"] == 0 and doc["correct"]
                runs[wl].append(doc)
                print(f"set {k} {wl} seed {seed}: correct={doc['correct']} failed={doc['failed']} "
                      + " ".join(f"{n}={v['value']:.4g}" for n, v in doc["metrics"].items()),
                      flush=True)
        summary = {}
        for wl, docs in runs.items():
            summary[wl] = {}
            for name, m in metrics.items():
                values = [d["metrics"][name]["value"] for d in docs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                row = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else 0.0, "values": values}
                if record["sets"]:
                    first = record["sets"][0]["workloads"][wl][name]["median"]
                    change = (med - first) / first if first else 0.0
                    row["worse_than_first"] = change if m["better"] == "lower" else -change
                summary[wl][name] = row
                moved = (f"  vs set 0: {row['worse_than_first']:+.4f}"
                         if "worse_than_first" in row else "")
                print(f"  {wl:6s} {name:12s} median {med:10.4f}  spread {row['spread']:.4f}  "
                      f"(bound {m['bound']}, third {m['bound'] / 3:.4f}){moved}", flush=True)
        record["sets"].append({"seeds": seeds, "workloads": summary})
    if args.traced:
        record["traced"] = {}
        for wl in args.workload:
            doc = run(wl, 0, spec["run_seconds"], 1)
            ok &= doc["exit"] == 0 and doc["correct"]
            record["traced"][wl] = {n: v["value"] for n, v in doc["metrics"].items()}
            print(f"traced {wl}: correct={doc['correct']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
