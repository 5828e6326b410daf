"""Tests of the benchmark itself: python3 -m pytest -q bench/test_bench.py

They run real, short ops, so each takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import groups  # noqa: E402
import harness  # noqa: E402


def run_bench(*args, cwd=None):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args], capture_output=True,
                          text=True, timeout=170, cwd=cwd)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "WORK", tmp_path)
    return tmp_path


def test_smoke_every_workload_every_metric():
    proc, last = run_bench("--workload", "all", "--smoke")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(last)
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 4
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    for wl in ("level", "order", "ia"):
        for metric in bench["end_to_end"]:
            got = doc["metrics"][f"{wl}.{metric['name']}"]
            assert got["unit"] == metric["unit"] and got["value"] > 0


def test_smoke_traced_gives_every_layer_metric():
    proc, last = run_bench("--workload", "level", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(last)
    assert doc["correct"], proc.stderr
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == set(doc["metrics"])
    assert doc["metrics"]["congruence.certify_s"]["value"] > 0


def test_silent_predicted_wrapper_fails_the_traced_run(work, monkeypatch):
    import traced

    monkeypatch.setitem(traced.PREDICTED, "level", traced.PREDICTED["level"] | {"magnus.enumerate_w"})
    golden = json.loads(harness.GOLDEN.read_text())
    rows, results, problems = traced.traced_metrics("level", 0, True, golden, time.monotonic() + 120)
    assert all(r.ok for r in results)
    assert problems and "magnus.enumerate_w" in problems[0]


def test_corrupted_golden_digest_fails(work):
    golden = json.loads(harness.GOLDEN.read_text())
    good = golden["components"]["D5"]["sha256"]
    golden["components"]["D5"]["sha256"] = ("0" if good[0] != "0" else "1") + good[1:]
    runner = harness.Runner(0, golden, time.monotonic() + 60)
    res = runner.run(harness.components_op(groups.dihedral(5), 0))
    assert res.code == 0 and not res.ok and "digest differs" in res.reason


def test_summary_mismatch_fails_on_relabelled_seed(work):
    golden = json.loads(harness.GOLDEN.read_text())
    golden["components"]["D5"]["summary"]["classes"] += 1
    runner = harness.Runner(3, golden, time.monotonic() + 60)
    res = runner.run(harness.components_op(groups.dihedral(5), 3))
    assert not res.ok and "summary differs" in res.reason


def test_rung_over_cap_is_beyond_reach_not_failure(work, monkeypatch):
    monkeypatch.setattr(harness, "RUNG_CAP_S", 0.5)
    golden = json.loads(harness.GOLDEN.read_text())
    runner = harness.Runner(0, golden, time.monotonic() + 60)
    timed = [runner.run(harness.components_op(groups.dihedral(5), 0))]
    assert timed[0].ok
    reach = harness.reach_probe(runner, 0, harness.completed_reach(timed))
    rung = runner.results[-1]
    assert rung.timed_out and rung.ok and "beyond reach" in rung.reason
    assert reach == (10, 10)
    assert all(r.ok for r in runner.results)


def test_missing_sources_exit_nonzero(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for f in BENCH.glob("*.py"):
        (copy / f.name).write_bytes(f.read_bytes())
    (copy / "golden.json").write_bytes(harness.GOLDEN.read_bytes())
    proc = subprocess.run([sys.executable, str(copy / "run.py"), "--workload", "ia"],
                          capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert proc.returncode != 0 and not proc.stdout.strip()


def test_group_check_rejects_wrong_input():
    spec = groups.agl1(7)
    groups.checked(spec.relabelled(5))
    wrong = groups.GroupSpec(spec.name, spec.degree, spec.gen1, spec.gen1, spec.order, spec.exponent)
    with pytest.raises(ValueError):
        groups.checked(wrong)


def test_tracer_restores_every_binding():
    import metab.cli
    import metab.congruence
    import metab.grpring
    from tracer import Tracer

    originals = (metab.cli.certify, metab.congruence.certify, metab.grpring.RingElem.__mul__,
                 metab.grpring.RingElem.__rmul__)
    tracer = Tracer()
    tracer.install()
    try:
        assert metab.cli.certify is metab.congruence.certify is not originals[0]
        assert metab.grpring.RingElem.__rmul__ is metab.grpring.RingElem.__mul__
        assert metab.grpring.RingElem.__mul__ is not originals[2]
    finally:
        tracer.restore()
    assert (metab.cli.certify, metab.congruence.certify, metab.grpring.RingElem.__mul__,
            metab.grpring.RingElem.__rmul__) == originals
