"""Checks on the package source itself."""

import ast
import importlib.util
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


def test_tracer_targets_resolve():
    # the benchmark tracer wraps these functions by name; a rename fails here
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
