"""Checks on the package source itself."""

import ast
from pathlib import Path

import hh1lab


def test_package_source_has_no_assert_statements():
    # invariants raise errors.InvariantViolation, which `python -O` keeps
    offenders = []
    for path in sorted(Path(hh1lab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    # perfbench/spans.py wraps package functions by name; a renamed or
    # deleted one makes every traced benchmark run fail
    from hh1lab import groupalgebra
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import spans
    original = groupalgebra.block_decompose
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert groupalgebra.block_decompose is not original
    finally:
        tracer.restore()
    assert groupalgebra.block_decompose is original
