"""The benchmark's three workloads and the values their outputs are pinned to.

A workload runs one pass and records every item it attempts in a Tally.
Checks are explicit comparisons, so they still run under ``python -O``.
Layer functions are looked up through their modules at call time, so the
tracer's wrappers see every call.  The seed goes to the ``seed`` argument
of ``block_decompose``, ``happel_probe`` and ``report``.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import sys
import tempfile
import traceback
from time import perf_counter

from hh1lab import catalgebra, cli, ffield, groupalgebra, hhone

CORPUS = ("C2", "C3", "C4", "V4", "S3", "D8", "Q8", "A4", "S4", "C2xS3",
          "S3xS3")
# dim HH^1(kG) at each prime: oracle, whole-algebra solve and block sum
# must all give these
EXPECTED_HH1 = {
    2: dict(zip(CORPUS, (2, 0, 4, 8, 2, 9, 7, 2, 6, 10, 12))),
    3: dict(zip(CORPUS, (0, 3, 0, 0, 1, 0, 0, 3, 1, 2, 6))),
    5: dict.fromkeys(CORPUS, 0),
}

J1_ORDER = 175560
J1_CLASSES = 15
J1_PRINCIPAL_DEFECT = 3
J1_OTHER_DEFECTS = (0, 1)
J1_ORACLE = 7

REPORT_PRIMES = tuple(EXPECTED_HH1)
REPORT_ENTRIES = len(CORPUS) * len(REPORT_PRIMES)
# warm report calls per pass: the p90 has at least ten samples beyond it
WARM_CALLS = 120

CATEGORY_FILE = "poset_a_to_b.cat"
# (item, how the category is built, source, prime, top degree N,
#  HH^0..HH^N dims, nerve H^0..H^N dims); for a one-object category BG,
#  HH^1 must also equal the corpus value of G at that prime
PROBES = (
    ("BC2@2", "group", "C2", 2, 4, [2, 2, 2, 2, 2], [1, 1, 1, 1, 1]),
    ("BC3@3", "group", "C3", 3, 4, [3, 3, 3, 3, 3], [1, 1, 1, 1, 1]),
    ("BV4@2", "group", "V4", 2, 3, [4, 8, 12, 16], [1, 2, 3, 4]),
    ("BS3@2", "group", "S3", 2, 3, [3, 2, 2, 2], [1, 1, 1, 1]),
    ("BS3@3", "group", "S3", 3, 3, [3, 1, 1, 2], [1, 0, 0, 1]),
    ("C2.trivial@2", "trivial", "C2", 2, 3, [6, 6, 6, 6], [3, 3, 3, 3]),
    ("C3.natural@3", "natural", "C3", 3, 3, [1, 0, 0, 0], [1, 0, 0, 0]),
    ("poset@2", "file", CATEGORY_FILE, 2, 3, [1, 0, 0, 0], [1, 0, 0, 0]),
)
RESTRICTION = [{"degree": q, "dim_source": 3, "dim_target": 1, "rank": 1,
                "injective": True} for q in range(4)]

GROUPS = {
    "corpus_report": CORPUS,
    "j1_stretch": ("J1",),
    "category_probe": ("C2", "C3", "V4", "S3"),
}


def category_path(name):
    return os.path.join(os.path.dirname(catalgebra.__file__), "data",
                        "categories", name)


def prepare(workload):
    """Load the manifest and check that every input file the workload
    reads is present (part of the measured set-up)."""
    manifest = cli.CorpusManifest.packaged()
    for name in GROUPS[workload]:
        entry = manifest.entry(name)
        if entry is None:
            raise SystemExit(f"corpus entry {name} is missing")
        manifest.file_bytes(entry)
    if workload == "category_probe" and not os.path.isfile(
            category_path(CATEGORY_FILE)):
        raise SystemExit(f"category file {CATEGORY_FILE} is missing")


class Tally:
    """Items attempted and failed; each failure is logged to stderr."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0

    def run(self, item, fn):
        """Run one item under a span; `fn` returns a list of problems.
        Returns the item's wall time in seconds."""
        start = perf_counter()
        try:
            with self.tracer.span("bench.item", item):
                problems = fn()
        except Exception:
            problems = ["raised\n" + traceback.format_exc()]
        elapsed = perf_counter() - start
        self.record(item, problems)
        return elapsed

    def record(self, item, problems):
        """Count one item, failed when `problems` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAIL {item}: {problem}", file=sys.stderr)


def expect(label, got, want):
    return [] if got == want else [f"{label} is {got!r}, expected {want!r}"]


# ---------------------------------------------------------------------------
# j1_stretch
# ---------------------------------------------------------------------------


def _j1_blocks(seed):
    G, _, _ = cli.resolve_group("J1", allow_large=True)
    classes = G.conjugacy_classes()
    A = groupalgebra.group_algebra(G, 2, allow_large=True)
    blocks = groupalgebra.block_decompose(A, G, 2, seed=seed)
    principal = [b.defect for b in blocks if b.is_principal]
    others = sorted({b.defect for b in blocks if not b.is_principal})
    return (expect("order", G.order, J1_ORDER)
            + expect("classes", len(classes), J1_CLASSES)
            + expect("principal block defects", principal,
                     [J1_PRINCIPAL_DEFECT])
            + expect("other block defects outside (0, 1)",
                     [d for d in others if d not in J1_OTHER_DEFECTS], []))


def _j1_oracle():
    G, _, _ = cli.resolve_group("J1", allow_large=True)
    return expect("oracle total", hhone.additive_oracle(G, 2), J1_ORACLE)


def j1_stretch(tally, seed, work_dir):
    # each task enumerates J1 itself, as each CLI command does; the first
    # task's tables are freed before the second starts
    blocks_s = tally.run("J1.blocks@2", lambda: _j1_blocks(seed))
    gc.collect()
    oracle_s = tally.run("J1.oracle@2", _j1_oracle)
    gc.collect()
    return {"shown": {"j1_blocks_s": (blocks_s, "s"),
                      "j1_oracle_s": (oracle_s, "s")}}


# ---------------------------------------------------------------------------
# corpus_report
# ---------------------------------------------------------------------------


def _report_call(argv):
    """cli.main in-process: (exit code, stdout text, cache hits, misses)."""
    before = dict(cli.CACHE_STATS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return (code, out.getvalue(), cli.CACHE_STATS["hits"] - before["hits"],
            cli.CACHE_STATS["misses"] - before["misses"])


def _report_cold(argv, cache, cold):
    code, text, hits, misses = _report_call(argv)
    cold["text"] = text
    doc = cold["doc"] = json.loads(text)
    return (expect("exit code", code, 0)
            + expect("cold cache hits", hits, 0)
            + expect("cold cache misses", misses, REPORT_ENTRIES)
            + expect("cache files", len(os.listdir(cache)), REPORT_ENTRIES)
            + expect("errors", doc["errors"], [])
            + expect("counterexamples", doc["counterexamples"], []))


def _entry_problems(entry, want):
    """One cold report entry: its total, oracle, whole-algebra solve and
    block sum all equal `want`."""
    if entry is None:
        return ["missing from the cold report"]
    if entry["status"] != "ok":
        return [f"status {entry['status']}: {entry.get('error')}"]
    doc = entry["document"]
    solved = [b["hh1_dim"] for b in doc["blocks"] if b["hh1_dim"] is not None]
    return (expect("total", doc["totals"]["hh1_total"], want)
            + expect("oracle total", doc["totals"]["oracle_total"], want)
            + expect("whole-algebra HH1",
                     doc["consistency"].get("whole_algebra_hh1"), want)
            + expect("blocks solved", len(solved), len(doc["blocks"]))
            + expect("block sum", sum(solved), want)
            + expect("counterexamples", doc["verdicts"]["counterexamples"],
                     []))


def _report_warm(argv, cold_text):
    code, text, hits, misses = _report_call(argv)
    return (expect("exit code", code, 0)
            + expect("warm cache hits", hits, REPORT_ENTRIES)
            + expect("warm cache misses", misses, 0)
            + ([] if text == cold_text
               else ["warm document differs from the cold one"]))


def corpus_report(tally, seed, work_dir):
    jobs = min(2, len(os.sched_getaffinity(0)))
    argv = ["report", "--primes", ",".join(map(str, REPORT_PRIMES)),
            "--jobs", str(jobs), "--seed", str(seed)]
    # a fresh cache per pass: the tracked .hh1lab-cache/ would answer the
    # whole sweep, and cache keys ignore code changes
    cache = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    saved = os.environ.get("HH1LAB_CACHE")
    os.environ["HH1LAB_CACHE"] = cache
    tracer = tally.tracer
    try:
        busy = tracer.total("cli.hh1_doc_cached")
        cold = {}
        cold_s = tally.run("report.cold", lambda: _report_cold(argv, cache, cold))
        busy = tracer.total("cli.hh1_doc_cached") - busy
        warm = [tally.run("report.warm",
                          lambda: _report_warm(argv, cold.get("text")))
                for _ in range(WARM_CALLS)]
    finally:
        if saved is None:
            os.environ.pop("HH1LAB_CACHE", None)
        else:
            os.environ["HH1LAB_CACHE"] = saved
        shutil.rmtree(cache, ignore_errors=True)
    # each (group, prime) entry of the cold document is an item of its own
    entries = {(e["group"], e["prime"]): e
               for e in cold.get("doc", {}).get("entries", [])}
    column = dict.fromkeys(REPORT_PRIMES, 0.0)
    for p in REPORT_PRIMES:
        for name in CORPUS:
            entry = entries.get((name, p))
            tally.record(f"{name}@{p}",
                         _entry_problems(entry, EXPECTED_HH1[p][name]))
            if entry is not None and entry["status"] == "ok":
                column[p] += float(entry["document"]["timings"]["seconds"])
    p50 = statistics.median(warm)
    p90 = statistics.quantiles(warm, n=10)[-1]
    shown = {"cold_s": (cold_s, "s"),
             "warm_p50_ms": (p50 * 1e3, "ms"),
             "warm_p90_ms": (p90 * 1e3, "ms"),
             "warm_calls": (len(warm), "count"),
             "jobs": (jobs, "count")}
    shown.update({f"sweep_p{p}_s": (column[p], "s") for p in REPORT_PRIMES})
    return {"shown": shown,
            "layer": {"cli.jobs_efficiency": busy / (cold_s * jobs)}}


# ---------------------------------------------------------------------------
# category_probe
# ---------------------------------------------------------------------------


def _category(kind, source):
    if kind == "file":
        return catalgebra.load_category_file(category_path(source))
    G, _, _ = cli.resolve_group(source)
    if kind == "group":
        return catalgebra.one_object_category(G)
    return catalgebra.transporter_category(G, [0, 1, 2], action=kind)


def _probe(kind, source, p, N, hh, nerve, seed):
    v = catalgebra.happel_probe(_category(kind, source), p, N, seed=seed)
    problems = (expect("HH dims", v.hh_dims, hh)
                + expect("nerve dims", v.nerve_dims, nerve)
                + expect("summand inequality", v.summand_ok, True)
                + expect("Happel consistent", v.happel_consistent, True))
    if kind == "group":
        problems += expect("bar HH^1 against the corpus oracle", v.hh_dims[1],
                           EXPECTED_HH1[p][source])
    return problems


def _restriction():
    T = _category("trivial", "C2")
    res = catalgebra.restriction_map(catalgebra.transporter_projection(T),
                                     ffield.field_make(2, 1), 3)
    return expect("restriction", res, RESTRICTION)


def category_probe(tally, seed, work_dir):
    field_s = {2: 0.0, 3: 0.0}
    for item, kind, source, p, N, hh, nerve in PROBES:
        field_s[p] += tally.run(
            item, lambda: _probe(kind, source, p, N, hh, nerve, seed))
        if kind == "trivial":
            field_s[p] += tally.run(f"{item}/restriction", _restriction)
    return {"shown": {"gf2_probes_s": (field_s[2], "s"),
                      "gf3_probes_s": (field_s[3], "s")}}


WORKLOADS = {
    "corpus_report": corpus_report,
    "j1_stretch": j1_stretch,
    "category_probe": category_probe,
}
