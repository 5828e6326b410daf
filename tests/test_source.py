"""Checks on the package source itself."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "metab").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips assert statements; checks must raise named errors
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert statements at lines {lines}"


def test_sources_found():
    assert len(SOURCES) > 10


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_targets_resolve():
    # the benchmark tracer wraps these functions by name; a rename fails here
    tracer = load_tracer()
    missing = []
    for name, (module, path) in tracer.TARGETS.items():
        try:
            owner, attr = tracer._resolve(module, path)
            found = attr in vars(owner)
        except (ImportError, AttributeError):
            found = False
        if not found:
            missing.append(name)
    assert not missing, f"tracer targets missing from metab: {missing}"


def metab_bindings():
    modules = [m for key, m in sys.modules.items() if key == "metab" or key.startswith("metab.")]
    homes = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return {
        (id(home), key): val
        for home in homes
        for key, val in list(vars(home).items())
        if callable(val)
    }


def test_tracer_counts_a_components_run(capsys):
    # the counters read the shape of what they wrap (ActionTable.classes,
    # the component report); a reshaped object fails here, not only in the
    # traced benchmark
    from metab import cli

    before = metab_bindings()
    trace = load_tracer().Tracer()
    trace.install()
    try:
        assert cli.run(["components", "C7C3"]) == 0
    finally:
        trace.restore()
    report = json.loads(capsys.readouterr().out)
    after = metab_bindings()
    assert [key for key, val in before.items() if after.get(key) is not val] == []
    assert trace.counts["nielsen.classes"] == 16
    assert trace.counts["nielsen.pairs"] == 441
    assert trace.counts["modcurve.components"] == len(report["components"]) > 0
