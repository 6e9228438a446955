"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

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
    # one group build serves both primes that miss
    assert sum(s["name"] == "cli.resolve" for s in tracer.spans) == 1


def test_benchmark_tracer_times_the_cache_and_the_render(
        tmp_path, monkeypatch, capsys):
    # perfbench/spans.py wraps cache_get, cache_put and render_document by
    # name, and counts cli.cache_bytes_written from the file named by
    # cache_put's first argument, the key
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
    argv = ["report", "--corpus", str(manifest), "--primes", "2,3"]
    tracer = spans.Tracer()
    outputs = []
    try:
        tracer.install()
        for _ in range(2):  # cold, then warm
            assert cli.main(argv) == 0
            outputs.append(capsys.readouterr().out)
    finally:
        tracer.restore()
    assert outputs[0] == outputs[1]
    names = [s["name"] for s in tracer.spans]
    assert names.count("cli.cache_get") == 4
    assert names.count("cli.cache_put") == 2
    # one render per cache entry written and one per report
    assert names.count("cli.render") == 4
    written = sorted((tmp_path / "cache").glob("*.json"))
    assert len(written) == 2
    assert tracer.counts["cli.cache_bytes_written"] == sum(
        path.stat().st_size for path in written)


@pytest.mark.parametrize("p,calls,nnz,rank", [(2, 19, 22860, 921),
                                              (3, 18, 22888, 920)])
def test_benchmark_tracer_counts_a_happel_probe(corpus, monkeypatch, p,
                                                calls, nnz, rank):
    # perfbench/spans.py wraps catalgebra's rank_nullspace_raw and
    # echelonize by name and counts len(row) of every row they consume, so
    # the probe must hand them dict rows; the rows may come from either
    # side of a coboundary, but the entries and the ranks may not change;
    # each block of a coboundary is ranked on its own and a block without
    # entries not at all, so the bar complex makes 11 calls (BS3's three
    # conjugacy classes, less the class of 1 in delta^0) and the nerve 3
    # (its delta^0 is 0), where each made 4 on whole coboundaries
    from hh1lab import catalgebra
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import spans
    tracer = spans.Tracer()
    try:
        tracer.install()
        verdict = catalgebra.happel_probe(
            catalgebra.one_object_category(corpus["S3"]), p, 3)
    finally:
        tracer.restore()
    assert verdict.hh_dims == ([3, 2, 2, 2] if p == 2 else [3, 1, 1, 2])
    assert [tracer.counts[f"ffield.elim_{name}"]
            for name in ("calls", "nnz", "rank")] == [calls, nnz, rank]


def _workloads(monkeypatch):
    # the benchmark's workloads call the package directly; a renamed
    # function or a changed return shape shows here, not only as a failed
    # benchmark run
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import workloads
    return workloads


def test_benchmark_category_checks_pass(monkeypatch):
    workloads = _workloads(monkeypatch)
    probe, = (entry for entry in workloads.PROBES if entry[0] == "BS3@3")
    assert workloads._probe(*probe[1:], seed=0) == []
    assert workloads._restriction() == []


@pytest.mark.stretch
def test_benchmark_j1_checks_pass(monkeypatch):
    workloads = _workloads(monkeypatch)
    assert workloads._j1_blocks(0) == []
    assert workloads._j1_oracle() == []
