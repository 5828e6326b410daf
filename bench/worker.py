"""One benchmark op in a fresh interpreter: `metab.cli.run(argv)`, timed.

Usage: python3 worker.py SRC_DIR TRACE_FILE|- ARG...

Imports `metab` from SRC_DIR, notes when it is ready (CLOCK_MONOTONIC, which
the parent compares with its spawn time), optionally installs the tracer,
times `cli.run(argv)` and prints one JSON line: exit code, op seconds, ready
time and peak RSS.  With a TRACE_FILE the span summary and the raw spans
are written there after the op; the wrappers are restored first.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    src, trace_file, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    import metab.cli  # noqa: F401  (interpreter start plus this import is set-up)

    ready = time.monotonic()
    tracer = None
    if trace_file != "-":
        from tracer import Tracer  # next to this script, on sys.path

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    try:
        code = metab.cli.run(argv)
    except Exception as err:  # a crash is a failed op, reported to the parent
        code, crash = None, f"{type(err).__name__}: {err}"
    else:
        crash = None
    op_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
        Path(trace_file).write_text(json.dumps({
            "summary": tracer.summary(),
            "calls": dict(tracer.calls),
            "counts": dict(tracer.counts),
            "spans": [[n, round(s - start, 7), round(e - s, 7), p] for n, s, e, p in tracer.spans],
        }))
    print(json.dumps({
        "code": code,
        "crash": crash,
        "op_s": op_s,
        "ready": ready,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
