import json
import os
import subprocess
import sys

import pytest

from hh1lab import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_blocks_s3_at_2(capsys):
    code, doc = run_cli(capsys, ["blocks", "--group", "S3", "--prime", "2"])
    assert code == 0
    assert [(b["dim"], b["defect"]) for b in doc["blocks"]] == [(2, 1), (4, 0)]
    assert doc["blocks"][0]["principal"] is True


def test_blocks_s3_at_5_semisimple(capsys):
    code, doc = run_cli(capsys, ["blocks", "--group", "S3", "--prime", "5"])
    assert code == 0
    assert len(doc["blocks"]) == 3
    assert all(b["defect"] == 0 for b in doc["blocks"])


def test_blocks_a4_at_2(capsys):
    code, doc = run_cli(capsys, ["blocks", "--group", "A4", "--prime", "2"])
    assert code == 0
    assert len(doc["blocks"]) == 1
    assert doc["blocks"][0]["defect"] == 2


def test_hh1_v4_both_methods_agree(capsys):
    code, doc = run_cli(capsys, ["hh1", "--group", "V4", "--prime", "2",
                                 "--method", "both"])
    assert code == 0
    assert doc["totals"]["hh1_total"] == 8
    assert doc["totals"]["oracle_total"] == 8
    assert doc["consistency"]["oracle_equals_solver"] is True


@pytest.mark.parametrize("group,p", [("V4", 2147483647), ("S3", 2147483647),
                                     ("S3", 4294967311)])
def test_hh1_at_a_large_prime(capsys, group, p):
    # sums of products of residues overflow int64 at these primes, and the
    # oracle must not form a^p as p products
    code, doc = run_cli(capsys, ["hh1", "--group", group, "--prime", str(p),
                                 "--method", "both"])
    assert code == 0
    assert sum(b["hh1_dim"] for b in doc["blocks"]) == 0
    assert doc["consistency"]["whole_algebra_hh1"] == 0
    assert doc["consistency"]["block_sum_equals_whole"] is True
    assert doc["totals"]["oracle_total"] == 0


def test_hh1_s3_at_3_verdict(capsys):
    code, doc = run_cli(capsys, ["hh1", "--group", "S3", "--prime", "3"])
    assert code == 0
    assert [b["hh1_dim"] for b in doc["blocks"]] == [1]
    assert doc["verdicts"]["all_positive_defect_nonvanishing"] is True


def test_hh1_oracle_only(capsys):
    code, doc = run_cli(capsys, ["hh1", "--group", "D8", "--prime", "2",
                                 "--method", "oracle"])
    assert code == 0
    assert doc["totals"]["hh1_total"] == 9
    assert doc["blocks"] == []


def test_happel_group_as_category(capsys):
    code, doc = run_cli(capsys, ["happel", "--group-as-category", "C2",
                                 "--prime", "2", "--degrees", "4"])
    assert code == 0
    assert doc["verdict"]["hh_dims"] == [2, 2, 2, 2, 2]
    assert doc["verdict"]["gldim"] == "infinite"


def test_happel_transporter(capsys):
    code, doc = run_cli(capsys, ["happel", "--transporter", "C2",
                                 "--points", "3", "--prime", "2",
                                 "--degrees", "3"])
    assert code == 0
    assert doc["verdict"]["frobenius_symmetric"] is True
    assert all(r["injective"] for r in doc["restriction"])


def test_happel_category_file(capsys):
    code, doc = run_cli(capsys, [
        "happel", "--category", "src/hh1lab/data/categories/poset_a_to_b.cat",
        "--prime", "2", "--degrees", "2"])
    assert doc["verdict"]["frobenius_certified"] is False
    assert doc["verdict"]["gldim"] == "unknown"


def sphere_poset_file(path):
    """The poset a, b < c, d < e, f, whose order complex is a 2-sphere, as a
    category file: 6 identities and 12 arrows x -> y."""
    less = ([(x, y) for x in "ab" for y in "cdef"]
            + [(x, y) for x in "cd" for y in "ef"])
    arrows = {(x, x): f"id{x}" for x in "abcdef"}
    arrows.update({(x, y): f"{x}{y}" for x, y in less})
    lines = ["objects 6"]
    lines += [f"morphism {name} {'abcdef'.index(x)} {'abcdef'.index(y)}"
              + (" identity" if x == y else "")
              for (x, y), name in arrows.items()]
    lines += [f"comp {g} {f} {arrows[x, z]}"
              for (x, y), f in arrows.items()
              for (y2, z), g in arrows.items() if y == y2]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("p", [2, 3])
def test_happel_sphere_poset(tmp_path, capsys, p):
    # 18 morphisms; only the cochain count bounds the string complex
    code, doc = run_cli(capsys, ["happel", "--category",
                                 sphere_poset_file(tmp_path / "s2.cat"),
                                 "--prime", str(p)])
    assert code == 0
    assert doc["verdict"]["hh_dims"] == [1, 0, 1, 0]
    assert doc["verdict"]["nerve_dims"] == [1, 0, 1, 0]
    assert doc["inputs"]["caps"]["cochain_cap"] == 10 ** 6


def test_happel_over_the_cochain_cap_is_an_error(capsys):
    # BA4 has 12 * 11^5 cochains on its strings of length 5
    code = cli.main(["happel", "--group-as-category", "A4", "--prime", "2",
                     "--degrees", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: string complex exceeds 1000000 cochains "
                            "by degree 5\n")


def test_tensor_command(capsys):
    code, doc = run_cli(capsys, ["tensor", "--group", "S3", "--group-b", "S3",
                                 "--prime", "2"])
    assert code == 0
    assert doc["blocks"]["product_dims"] == [4, 8, 8, 16]
    assert doc["blocks"]["pairwise_matches_product"] is True
    assert doc["kuenneth"]["matches"] is True


@pytest.mark.parametrize("p,pairwise", [(2, [576]),
                                         (3, [36] + [54] * 4 + [81] * 4)])
def test_tensor_over_the_materialise_cap(capsys, p, pairwise):
    # S4 x S4 has order 576 > MATERIALIZE_DIM_CAP, so the product's block
    # dims are unknown and only the Kuenneth check can fail the command
    code, doc = run_cli(capsys, ["tensor", "--group", "S4", "--group-b", "S4",
                                 "--prime", str(p)])
    assert code == 0
    assert doc["blocks"]["pairwise_products"] == pairwise
    assert set(doc["blocks"]["product_dims"]) == {None}
    assert doc["blocks"]["pairwise_matches_product"] is None
    assert doc["kuenneth"]["matches"] is True


@pytest.mark.parametrize("groups,skew,totals,code", [
    (("S4", "S4"), 0, (60, None, 60), 0),
    (("C2", "S3"), 0, (10, 10, 10), 0),
    (("C2", "S3"), 1, (10, 10, 11), 2),
], ids=["S4xS4", "C2xS3", "C2xS3_oracle_off_by_one"])
def test_tensor_compares_the_prediction_with_each_total(
        capsys, monkeypatch, groups, skew, totals, code):
    # totals: (predicted, solver, oracle) for the product; S4 x S4 is over
    # the solver cap.  skew adds to the oracle of C2 x S3 (order 12) alone,
    # so the prediction and the solver still agree
    from hh1lab import hhone
    oracle = hhone.additive_oracle
    monkeypatch.setattr(hhone, "additive_oracle", lambda G, p: (
        oracle(G, p) + skew * (G.order == 12)))
    got, doc = run_cli(capsys, ["tensor", "--group", groups[0],
                                "--group-b", groups[1], "--prime", "2"])
    kuenneth = doc["kuenneth"]
    assert (kuenneth["predicted_hh1"], kuenneth["solver_hh1"],
            kuenneth["oracle_hh1"]) == totals
    assert kuenneth["matches"] is (code == 0)
    assert got == code


def test_unknown_group_exits_nonzero(capsys):
    code = cli.main(["blocks", "--group", "NoSuchGroup", "--prime", "2"])
    assert code == 2


def test_missing_stretch_file_is_a_clean_error(capsys):
    # J2 is in the manifest but its generator file is user-supplied
    if cli.CorpusManifest.packaged().entry("J2") is None:
        return
    try:
        cli.resolve_group("J2", allow_large=True)
    except cli.HH1LabError as exc:
        assert "J2" in str(exc) or "packaged" in str(exc)
    else:
        # a supplied J2.grp makes this path succeed; nothing to assert
        pass


def test_report_marks_missing_files_unavailable(tmp_path, capsys):
    import json as _json
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(_json.dumps({"entries": [
        {"name": "Ghost", "file": "ghost.grp", "order": 1, "notes": "",
         "stretch": False}]}))
    code, doc = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                                 "--primes", "2"])
    assert doc["entries"][0]["status"] == "unavailable"


def test_blocks_deterministic_output(capsys):
    _, doc1 = run_cli(capsys, ["blocks", "--group", "S4", "--prime", "3"])
    _, doc2 = run_cli(capsys, ["blocks", "--group", "S4", "--prime", "3"])
    assert cli.render_document(doc1) == cli.render_document(doc2)


def test_report_small_corpus_caches(tmp_path, capsys, monkeypatch):
    # a reduced corpus manifest keeps this test quick
    from importlib import resources
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    entries = []
    for name in ["C2", "C3", "S3"]:
        data = resources.files("hh1lab").joinpath(f"data/groups/{name}.grp")
        (corpus_dir / f"{name}.grp").write_bytes(data.read_bytes())
        order = {"C2": 2, "C3": 3, "S3": 6}[name]
        entries.append({"name": name, "file": f"{name}.grp",
                        "order": order, "notes": "", "stretch": False})
    manifest_path = corpus_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": entries}))

    cli.CACHE_STATS.update(hits=0, misses=0)
    code1, doc1 = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                                   "--primes", "2,3"])
    assert code1 == 0
    misses_first = cli.CACHE_STATS["misses"]
    assert misses_first == 6 and cli.CACHE_STATS["hits"] == 0
    assert doc1["counterexamples"] == []

    code2, doc2 = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                                   "--primes", "2,3"])
    assert code2 == 0
    assert cli.CACHE_STATS["hits"] == 6
    assert cli.CACHE_STATS["misses"] == misses_first  # no recompute
    assert cli.render_document(doc1) == cli.render_document(doc2)


def test_report_jobs_deterministic(tmp_path, capsys):
    import json as _json
    from importlib import resources
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    entries = []
    for name, order in [("C2", 2), ("C3", 3), ("V4", 4), ("S3", 6)]:
        data = resources.files("hh1lab").joinpath(f"data/groups/{name}.grp")
        (corpus_dir / f"{name}.grp").write_bytes(data.read_bytes())
        entries.append({"name": name, "file": f"{name}.grp", "order": order,
                        "notes": "", "stretch": False})
    manifest_path = corpus_dir / "manifest.json"
    manifest_path.write_text(_json.dumps({"entries": entries}))
    _, doc1 = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                               "--primes", "2", "--jobs", "1"])
    _, doc2 = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                               "--primes", "2", "--jobs", "3"])
    assert cli.render_document(doc1) == cli.render_document(doc2)


def test_report_empty_manifest(tmp_path, capsys):
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": []}))
    code, doc = run_cli(capsys, ["report", "--corpus", str(manifest_path)])
    assert code == 0
    assert doc["entries"] == []


def test_report_counterexample_exit_code(tmp_path, capsys, monkeypatch):
    # forge a document with a counterexample to check the exit-code contract
    fake_doc = {
        "schema_version": 1, "kind": "hh1",
        "inputs": {}, "blocks": [],
        "totals": {"hh1_total": 0, "oracle_total": 0},
        "verdicts": {"counterexamples": [0],
                     "all_positive_defect_nonvanishing": False},
        "consistency": {}, "timings": {"seconds": "0.000"},
    }
    monkeypatch.setattr(cli, "hh1_doc_cached",
                        lambda *a, **k: fake_doc)
    code, doc = run_cli(capsys, ["report", "--primes", "2"])
    assert code == 1
    assert doc["counterexamples"]


def test_out_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "doc.json"
    code, doc = run_cli(capsys, ["blocks", "--group", "C2", "--prime", "2",
                                 "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == doc


def test_module_entry_point():
    env = dict(os.environ, HH1LAB_CACHE="/tmp/hh1lab-test-cache")
    proc = subprocess.run(
        [sys.executable, "-m", "hh1lab", "blocks", "--group", "C2",
         "--prime", "2"],
        capture_output=True, text=True, env=env, cwd=os.getcwd())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "blocks"


@pytest.mark.parametrize("argv", [
    ["hh1", "--group", "S4", "--prime", "2"],
    ["happel", "--group-as-category", "S3", "--prime", "3"],
    ["blocks", "--group", "S4", "--prime", "3"]])
def test_optimized_mode_prints_the_same_document(tmp_path, argv):
    # the invariants are checks that raise, not asserts that -O strips
    docs = []
    for flags in (["-O"], []):
        cache = tmp_path / f"cache{len(docs)}"
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hh1lab", *argv],
            capture_output=True, text=True, cwd=os.getcwd(),
            env=dict(os.environ, HH1LAB_CACHE=str(cache)))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        doc.pop("timings", None)
        docs.append(doc)
    assert docs[0] == docs[1]


def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys):
    argv = ["hh1", "--group", "S3", "--prime", "2"]
    code, fresh = run_cli(capsys, argv)
    assert code == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    entry.write_bytes(entry.read_bytes()[:40])
    code, again = run_cli(capsys, argv)
    assert code == 0
    fresh.pop("timings")
    again.pop("timings")
    assert again == fresh
    rewritten = json.loads(entry.read_text())
    rewritten.pop("timings")
    assert rewritten == fresh


def test_invariant_violation_is_a_report_error(tmp_path, capsys, monkeypatch):
    from importlib import resources
    from hh1lab import hhone
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    data = resources.files("hh1lab").joinpath("data/groups/S3.grp")
    (corpus_dir / "S3.grp").write_bytes(data.read_bytes())
    manifest_path = corpus_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": [
        {"name": "S3", "file": "S3.grp", "order": 6, "notes": "",
         "stretch": False}]}))
    real = hhone._block_hh1

    def skewed(whole, b):
        # one more HH^1 dimension on every block breaks the
        # block sum == whole-algebra identity
        return real(whole, b) + 1

    monkeypatch.setattr(hhone, "_block_hh1", skewed)
    code, doc = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                                 "--primes", "2"])
    assert code == 2
    assert doc["entries"][0]["status"] == "error"
    assert doc["errors"] == [{"group": "S3", "prime": 2,
                              "error": "block sum 4 != whole-algebra 2"}]


BAD_GROUP_FILES = {
    "not_a_number.grp": b"degree 3\n2 3 x\n",
    "bad_degree.grp": b"degree three\n2 3 1\n",
    "not_utf8.grp": b"degree 3\n\xff\xfe\n",
    "a_directory.grp": None,
}


@pytest.mark.parametrize("command", ["blocks", "hh1"])
@pytest.mark.parametrize("filename", sorted(BAD_GROUP_FILES))
def test_malformed_group_file_is_an_error(tmp_path, capsys, command,
                                          filename):
    path = tmp_path / filename
    if BAD_GROUP_FILES[filename] is None:
        path.mkdir()
    else:
        path.write_bytes(BAD_GROUP_FILES[filename])
    code = cli.main([command, "--group", str(path), "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("generators", [0, 1])
def test_group_file_of_degree_above_65536_is_an_error(tmp_path, capsys,
                                                      generators):
    # image rows hold points as uint16, so degree 65537 does not fit
    degree = 65537
    cycle = " ".join(str(x % degree + 1) for x in range(1, degree + 1))
    path = tmp_path / "big.grp"
    path.write_text(f"degree {degree}\n" + f"{cycle}\n" * generators)
    code = cli.main(["blocks", "--group", str(path), "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: degree 65537 exceeds 65536")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("content", [
    b"objects two\n",
    b"objects 1\nmorphism id0 0 zero identity\ncomp id0 id0 id0\n",
    b"objects 1\nmorphism id0 0 0 identity\nmorphism a 5 0\n"
    b"comp id0 id0 id0\ncomp id0 a a\n",
    b"objects 1\n\xff\n",
    None,
    b"objects 1\nmorphism e 0 0 identity\nmorphism f 0 0\ncomp e e e\n"
    b"comp e f f\ncomp f e f\ncomp f f e\ncomp f f f\n",
])
def test_malformed_or_missing_category_file_is_an_error(tmp_path, capsys,
                                                        content):
    path = tmp_path / "bad.cat"
    if content is not None:
        path.write_bytes(content)
    code = cli.main(["happel", "--category", str(path), "--prime", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_report_survives_one_malformed_group_file(tmp_path, capsys):
    from importlib import resources
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    data = resources.files("hh1lab").joinpath("data/groups/S3.grp")
    (corpus_dir / "S3.grp").write_bytes(data.read_bytes())
    (corpus_dir / "Bad.grp").write_bytes(BAD_GROUP_FILES["not_a_number.grp"])
    manifest_path = corpus_dir / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": [
        {"name": "Bad", "file": "Bad.grp", "order": 3, "notes": "",
         "stretch": False},
        {"name": "S3", "file": "S3.grp", "order": 6, "notes": "",
         "stretch": False}]}))
    code, doc = run_cli(capsys, ["report", "--corpus", str(manifest_path),
                                 "--primes", "2"])
    assert code == 2
    bad, good = doc["entries"]
    assert bad["status"] == "error" and "line 2" in bad["error"]
    assert doc["errors"] == [{"group": "Bad", "prime": 2,
                              "error": bad["error"]}]
    assert good["status"] == "ok"
    assert good["document"]["totals"]["hh1_total"] == 2


def test_report_marks_an_unreadable_group_file_an_error(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    manifest = write_corpus(corpus_dir, {"C2": 2, "S3": 6})
    (corpus_dir / "C2.grp").unlink()
    (corpus_dir / "C2.grp").mkdir()
    code, doc = run_cli(capsys, ["report", "--corpus", manifest,
                                 "--primes", "2"])
    assert code == 2
    bad, good = doc["entries"]
    assert bad["status"] == "error" and "Is a directory" in bad["error"]
    assert doc["errors"] == [{"group": "C2", "prime": 2,
                              "error": bad["error"]}]
    assert good["status"] == "ok"


def test_source_change_misses_the_cache(capsys, monkeypatch):
    argv = ["hh1", "--group", "S3", "--prime", "2"]
    computed = []
    real = cli.compute_hh1_doc

    def counting(*args):
        computed.append(args[0])
        return real(*args)

    monkeypatch.setattr(cli, "compute_hh1_doc", counting)
    run_cli(capsys, argv)
    run_cli(capsys, argv)
    assert computed == ["S3"]  # the second run is a hit
    monkeypatch.setattr(cli, "source_fingerprint", lambda: "0" * 64)
    before = dict(cli.CACHE_STATS)
    code, doc = run_cli(capsys, argv)
    assert code == 0
    assert computed == ["S3", "S3"]
    assert cli.CACHE_STATS["misses"] == before["misses"] + 1
    assert cli.CACHE_STATS["hits"] == before["hits"]
    assert doc["totals"]["hh1_total"] == 2


@pytest.mark.parametrize("case", ["missing", "truncated", "no_name",
                                  "no_file", "bad_primes"])
def test_bad_report_input_is_an_error(tmp_path, capsys, case):
    manifest_path = tmp_path / "manifest.json"
    manifest = {
        "truncated": '{"entries": [{"name": "S3", "fi',
        "no_name": json.dumps({"entries": [
            {"file": "S3.grp", "order": 6, "notes": "", "stretch": False}]}),
        "no_file": json.dumps({"entries": [
            {"name": "S3", "order": 6, "notes": "", "stretch": False}]}),
    }
    if case in manifest:
        manifest_path.write_text(manifest[case])
    argv = ["report", "--primes", "2,x" if case == "bad_primes" else "2"]
    if case != "bad_primes":
        argv += ["--corpus", str(manifest_path)]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_undecided_positive_defect_block_leaves_the_verdict_open(
        capsys, monkeypatch):
    from hh1lab import hhone
    from hh1lab.errors import DimCapExceeded

    def over_cap(A, *args, **kwargs):
        raise DimCapExceeded("the whole algebra is over the cap here")

    monkeypatch.setattr(hhone, "cocycle_space", over_cap)
    code, doc = run_cli(capsys, ["hh1", "--group", "S3", "--prime", "2"])
    assert code == 0
    assert [(b["defect"], b["hh1_dim"]) for b in doc["blocks"]] == \
        [(1, None), (0, None)]
    assert doc["verdicts"] == {"counterexamples": [],
                               "all_positive_defect_nonvanishing": None}
    assert doc["totals"] == {"hh1_total": 2, "oracle_total": 2}


@pytest.mark.parametrize("argv", [
    ["hh1", "--group", "S3", "--prime", "4"],
    ["blocks", "--group", "S3", "--prime", "4"],
    ["blocks", "--group", "C3", "--prime", "9"],
    ["hh1", "--group", "S3", "--prime", "1", "--method", "oracle"],
    ["hh1", "--group", "S3", "--prime", "0"],
    ["tensor", "--group", "S3", "--group-b", "C2", "--prime", "6"],
    ["report", "--primes", "2,4"],
])
def test_non_prime_is_an_error(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["happel", "--group-as-category", "C2", "--prime", "2", "--degrees", "-1"],
    ["happel", "--transporter", "C2", "--points", "0", "--prime", "2"],
    ["happel", "--transporter", "C2", "--points", "-2", "--prime", "2"],
    ["report", "--jobs", "0"],
    ["report", "--jobs", "-3"],
], ids=["degrees", "points_0", "points_negative", "jobs_0", "jobs_negative"])
def test_out_of_range_integer_flag_is_an_error(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flags were checked")

    monkeypatch.setattr(cli, "resolve_group", no_work)
    monkeypatch.setattr(cli.CorpusManifest, "packaged", no_work)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error:")


def write_corpus(directory, entries, filename="manifest.json"):
    """A manifest over copies of packaged group files.  `entries` maps a
    name to its manifest order; a name with no packaged file gets none."""
    from importlib import resources
    directory.mkdir(exist_ok=True)
    rows = []
    for name, order in entries.items():
        data = resources.files("hh1lab").joinpath(f"data/groups/{name}.grp")
        if data.is_file():
            (directory / f"{name}.grp").write_bytes(data.read_bytes())
        rows.append({"name": name, "file": f"{name}.grp", "order": order,
                     "notes": "", "stretch": not data.is_file()})
    path = directory / filename
    path.write_text(json.dumps({"entries": rows}))
    return str(path)


def test_report_logs_the_cache_counts_of_its_own_call(tmp_path, capsys):
    argv = ["report", "--corpus", write_corpus(tmp_path / "corpus", {"C2": 2}),
            "--primes", "2,3"]
    logged = []
    for _ in range(2):
        assert cli.main(argv) == 0
        logged.append(capsys.readouterr().err.splitlines()[-1])
    assert logged == ["cache: 0 hits, 2 misses", "cache: 2 hits, 0 misses"]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_wrong_manifest_order_is_a_report_error(tmp_path, capsys, warm):
    corpus = tmp_path / "corpus"
    if warm:
        # the same file bytes, computed under the right order claim
        right = write_corpus(corpus, {"S3": 6}, "right.json")
        code, doc = run_cli(capsys, ["report", "--corpus", right,
                                     "--primes", "2"])
        assert code == 0 and doc["entries"][0]["status"] == "ok"
    wrong = write_corpus(corpus, {"S3": 7}, "wrong.json")
    code, doc = run_cli(capsys, ["report", "--corpus", wrong, "--primes", "2"])
    assert code == 2
    (entry,) = doc["entries"]
    assert entry["status"] == "error"
    assert entry["error"] == "group S3 has order 6, manifest says 7"
    assert doc["errors"] == [{"group": "S3", "prime": 2,
                              "error": entry["error"]}]


def test_cache_hit_does_no_group_work(tmp_path, capsys, monkeypatch):
    from hh1lab import permgroup
    manifest = write_corpus(tmp_path / "corpus",
                            {"C2": 2, "S3": 6, "Ghost": 1})
    calls = [
        (["report", "--corpus", manifest, "--primes", "2,3", "--jobs", "2",
          "--allow-large"], 4),
        (["hh1", "--group", "S4", "--prime", "3"], 1),
    ]
    cold = []
    for argv, _ in calls:
        code = cli.main(argv)
        cold.append((code, capsys.readouterr().out))

    def forbidden(what):
        def fail(*args, **kwargs):
            raise AssertionError(f"a cache hit {what}")
        return fail

    monkeypatch.setattr(cli, "resolve_group", forbidden("built a group"))
    monkeypatch.setattr(cli, "group_from_generators",
                        forbidden("enumerated a group"))
    monkeypatch.setattr(permgroup, "group_from_generators",
                        forbidden("enumerated a group"))
    for (argv, entries), (cold_code, cold_out) in zip(calls, cold):
        before = dict(cli.CACHE_STATS)
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == cold_code == 0
        assert out == cold_out
        assert cli.CACHE_STATS["hits"] == before["hits"] + entries
        assert cli.CACHE_STATS["misses"] == before["misses"]
    statuses = {(e["group"], e["prime"]): e["status"]
                for e in json.loads(cold[0][1])["entries"]}
    assert statuses == {("C2", 2): "ok", ("C2", 3): "ok", ("S3", 2): "ok",
                        ("S3", 3): "ok", ("Ghost", 2): "unavailable",
                        ("Ghost", 3): "unavailable"}


def test_report_reads_each_group_file_once(tmp_path, capsys, monkeypatch):
    manifest = write_corpus(tmp_path / "corpus", {"C2": 2, "S3": 6})
    reads = []
    real_open = open

    def counting_open(path, *args, **kwargs):
        if str(path).endswith(".grp"):
            reads.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    for _ in range(2):
        reads.clear()
        code, doc = run_cli(capsys, ["report", "--corpus", manifest,
                                     "--primes", "2,3,5"])
        assert code == 0 and len(doc["entries"]) == 6
        assert sorted(reads) == ["C2.grp", "S3.grp"]
