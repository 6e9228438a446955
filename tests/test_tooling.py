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


def test_benchmark_tracer_tags_each_compute_with_its_prime(
        tmp_path, monkeypatch, capsys):
    # sweep.p<p>_s adds up cli.compute spans whose item ends in @<p>; the
    # item comes from hh1_doc_cached's group (argument 0) and prime
    # (argument 3), so moving either would zero those metrics silently
    import json
    from importlib import resources
    from hh1lab import cli
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import spans
    data = resources.files("hh1lab").joinpath("data/groups/S3.grp")
    (tmp_path / "S3.grp").write_bytes(data.read_bytes())
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"entries": [
        {"name": "S3", "file": "S3.grp", "order": 6}]}))
    tracer = spans.Tracer()
    before = dict(cli.CACHE_STATS)
    try:
        tracer.install()
        code = cli.main(["report", "--corpus", str(manifest),
                         "--primes", "2,3"])
    finally:
        tracer.restore()
    capsys.readouterr()
    assert code == 0
    misses = cli.CACHE_STATS["misses"] - before["misses"]
    assert misses == 2
    items = sorted(s["item"] for s in tracer.spans
                   if s["name"] == "cli.compute")
    assert items == ["S3@2", "S3@3"]
    assert sum(s["name"] == "cli.resolve" for s in tracer.spans) == misses
