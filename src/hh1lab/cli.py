"""Command-line frontend: blocks | hh1 | happel | tensor | report.

Reports are JSON documents with sorted keys and canonical formatting, so
byte-identical inputs (group file, prime, caps, seed) produce byte-identical
output; wall-clock timings and cache statistics go to stderr only, except
that cached hh1 documents keep the timing of the run that first produced
them.  The cache lives under $HH1LAB_CACHE (default .hh1lab-cache/), one
JSON file per hash of those inputs, the order the corpus manifest claims
and the package source, written via temp-file-then-rename so concurrent
writers are safe.  A hit reads only the group file's bytes.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from . import catalgebra, hhone
from .errors import HH1LabError, NotPrime
from .ffield import field_make, is_prime
from .groupalgebra import block_decompose, group_algebra
from .permgroup import (DEFAULT_MEMORY_CAP, DEFAULT_ORDER_CAP,
                        group_from_generators, parse_group_file)

SCHEMA_VERSION = 1
LARGE_MEMORY_CAP = 2 << 30

CACHE_STATS = {"hits": 0, "misses": 0}


def _log(msg):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


class CorpusManifest:
    """Named group corpus: desk-scale entries shipped with the package,
    stretch entries as external generator files."""

    def __init__(self, entries, base=None):
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "name" in e and "file" in e
                for e in entries):
            raise HH1LabError("corpus entries must be a list of objects "
                              "with a name and a file")
        names = [e["name"] for e in entries]
        if len(set(names)) != len(names):
            raise HH1LabError("duplicate corpus names")
        self.entries = entries
        self.base = base  # directory for file resolution (None: packaged)
        self._bytes = {}  # file -> its bytes, read once per manifest

    @classmethod
    def packaged(cls):
        data = resources.files("hh1lab").joinpath("data/groups/manifest.json")
        manifest = json.loads(data.read_text(encoding="utf-8"))
        return cls(manifest["entries"])

    @classmethod
    def from_path(cls, path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (OSError, ValueError) as exc:
            raise HH1LabError(
                f"cannot read corpus manifest {path!r}: {exc}") from None
        if not isinstance(manifest, dict) or "entries" not in manifest:
            raise HH1LabError(f"corpus manifest {path!r} has no entries")
        return cls(manifest["entries"],
                   base=os.path.dirname(os.path.abspath(path)))

    def entry(self, name):
        for e in self.entries:
            if e["name"] == name:
                return e
        return None

    def desk_entries(self):
        return [e for e in self.entries if not e.get("stretch")]

    def file_bytes(self, entry):
        name = entry["file"]
        if name not in self._bytes:
            self._bytes[name] = self._read(name)
        return self._bytes[name]

    def _read(self, name):
        if self.base is not None:
            with open(os.path.join(self.base, name), "rb") as fh:
                return fh.read()
        ref = resources.files("hh1lab").joinpath(f"data/groups/{name}")
        if not ref.is_file():
            raise FileNotFoundError(
                f"group file {name} is not packaged; stretch "
                "entries may need to be supplied (see README)")
        return ref.read_bytes()


class GroupSource(NamedTuple):
    """A group file as read, before any parsing: its display name, its bytes
    and the order the manifest claims for it (None when it claims none)."""
    name: str
    raw: bytes
    order: int | None


def read_group_source(name_or_path, manifest=None):
    """Read a corpus group's file by name, or any group file by path.

    A file that cannot be read raises HH1LabError caused by the OSError;
    `report` marks a missing one (FileNotFoundError) as unavailable and any
    other as an error.
    """
    manifest = manifest or CorpusManifest.packaged()
    entry = manifest.entry(name_or_path)
    if entry is None and not os.path.exists(name_or_path):
        raise HH1LabError(
            f"{name_or_path!r} is neither a corpus name nor a file")
    try:
        if entry is not None:
            return GroupSource(entry["name"], manifest.file_bytes(entry),
                               entry.get("order"))
        with open(name_or_path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise HH1LabError(str(exc)) from exc
    return GroupSource(os.path.splitext(os.path.basename(name_or_path))[0],
                       raw, None)


def resolve_group(name_or_path, *, allow_large=False, manifest=None):
    """Load a corpus group by name or any group file by path.  A GroupSource
    already read is built from its bytes, not read again, so a cached
    document is computed from the bytes its key hashes.

    Returns (PermGroup, canonical file bytes, display name).  Stretch runs
    need allow_large, which raises the enumeration memory cap and prints an
    estimate of the element table first.  A group whose order is not the
    one its manifest claims is an error.
    """
    source = (name_or_path if isinstance(name_or_path, GroupSource)
              else read_group_source(name_or_path, manifest))
    name, raw, order = source
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise HH1LabError(
            f"group file of {name} is not UTF-8: {exc}") from None
    degree, gens = parse_group_file(text)
    memory_cap = LARGE_MEMORY_CAP if allow_large else DEFAULT_MEMORY_CAP
    if allow_large and order is not None:
        itemsize = 1 if degree <= 255 else 2
        est = order * degree * itemsize
        _log(f"estimated element table for {name}: "
             f"{est / (1 << 20):.0f} MiB ({order} x {degree})")
    G = group_from_generators(degree, gens, DEFAULT_ORDER_CAP, memory_cap)
    if order is not None and G.order != order:
        raise HH1LabError(
            f"group {name} has order {G.order}, manifest says {order}")
    return G, raw, name


# ---------------------------------------------------------------------------
# documents and cache
# ---------------------------------------------------------------------------


def caps_dict(allow_large):
    return {
        "order_cap": DEFAULT_ORDER_CAP,
        "memory_cap": LARGE_MEMORY_CAP if allow_large else DEFAULT_MEMORY_CAP,
        "sparse_dim_cap": hhone.SPARSE_DIM_CAP,
        "bar_dim_cap": catalgebra.BAR_DIM_CAP,
        "bar_degree_cap": catalgebra.BAR_DEGREE_CAP,
        "nerve_chain_cap": catalgebra.NERVE_CHAIN_CAP,
    }


def render_document(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cache_dir():
    return os.environ.get("HH1LAB_CACHE", ".hh1lab-cache")


@functools.lru_cache(maxsize=None)
def source_fingerprint():
    """SHA-256 of the package's Python files, read once per process, so a
    code change never serves documents that older code computed."""
    h = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return h.hexdigest()


def cache_key(kind, group_bytes, prime, caps, seed, extra=""):
    h = hashlib.sha256()
    payload = json.dumps({
        "schema": SCHEMA_VERSION,
        "code": source_fingerprint(),
        "kind": kind,
        "group_sha": hashlib.sha256(group_bytes).hexdigest(),
        "prime": prime,
        "caps": caps,
        "seed": seed,
        "extra": extra,
    }, sort_keys=True)
    h.update(payload.encode("utf-8"))
    return h.hexdigest()


def cache_get(key):
    """The cached document for key, or None on a miss.  An entry that cannot
    be read or decoded counts as a miss, so the recompute rewrites it."""
    path = os.path.join(cache_dir(), f"{key}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = None
    CACHE_STATS["misses" if doc is None else "hits"] += 1
    return doc


def cache_put(key, doc):
    d = cache_dir()
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(render_document(doc))
        os.replace(tmp, os.path.join(d, f"{key}.json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def compute_blocks_doc(name, G, prime, seed, allow_large):
    A = group_algebra(G, prime, allow_large=allow_large)
    blocks = block_decompose(A, G, prime, seed=seed)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "blocks",
        "inputs": {"group": name, "prime": prime, "seed": seed,
                   "caps": caps_dict(allow_large),
                   "field_degree": A.field.m},
        "blocks": [{"index": b.index, "dim": b.dim, "defect": b.defect,
                    "principal": b.is_principal} for b in blocks],
        "counts": {"blocks": len(blocks),
                   "p_regular_classes": G.p_regular_class_count(prime)},
    }


def compute_hh1_doc(name, G, prime, method, seed, allow_large):
    started = time.monotonic()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "hh1",
        "inputs": {"group": name, "prime": prime, "seed": seed,
                   "method": method, "caps": caps_dict(allow_large)},
    }
    if method == "oracle":
        total = hhone.additive_oracle(G, prime)
        doc["blocks"] = []
        doc["totals"] = {"hh1_total": total, "oracle_total": total}
        doc["verdicts"] = {"counterexamples": [], "all_positive_defect_nonvanishing": None}
        doc["consistency"] = {}
    else:
        rep = hhone.hh1_blocks(G, prime, name=name, seed=seed,
                               allow_large=allow_large,
                               run_oracle=(method == "both"))
        doc["blocks"] = [
            {"index": r.block_index, "dim": r.dim, "defect": r.defect,
             "hh1_dim": r.hh1_dim, "method": r.method, "error": r.error}
            for r in rep.per_block]
        doc["totals"] = {"hh1_total": rep.total_hh1,
                         "oracle_total": rep.consistency.get("oracle_total")}
        # a counterexample decides the verdict; otherwise a block of
        # positive defect without an HH^1 value leaves it open
        undecided = any(r.defect >= 1 and r.hh1_dim is None
                        for r in rep.per_block)
        doc["verdicts"] = {
            "counterexamples": rep.counterexamples,
            "all_positive_defect_nonvanishing": (
                False if rep.counterexamples else None if undecided
                else True),
        }
        doc["consistency"] = {k: v for k, v in rep.consistency.items()}
    doc["timings"] = {"seconds": f"{time.monotonic() - started:.3f}"}
    return doc


def hh1_doc_cached(group, manifest, allow_large, prime, method, seed):
    """The hh1 document of a corpus group or group file at one prime.

    The cache key needs only the file bytes and the order the manifest
    claims, so a hit parses and enumerates nothing; a miss builds the group,
    order check included, and computes.
    """
    source = read_group_source(group, manifest)
    key = cache_key("hh1", source.raw, prime, caps_dict(allow_large), seed,
                    extra={"method": method, "order": source.order})
    doc = cache_get(key)
    if doc is None:
        G, _, name = resolve_group(source, allow_large=allow_large)
        doc = compute_hh1_doc(name, G, prime, method, seed, allow_large)
        cache_put(key, doc)
    return doc


def _check_at_least(value, low, flag):
    if value < low:
        raise HH1LabError(f"{flag} must be at least {low}, not {value}")


def cmd_blocks(args):
    G, raw, name = resolve_group(args.group, allow_large=args.allow_large)
    doc = compute_blocks_doc(name, G, args.prime, args.seed, args.allow_large)
    return doc, 0


def cmd_hh1(args):
    doc = hh1_doc_cached(args.group, None, args.allow_large, args.prime,
                         args.method, args.seed)
    code = 0
    if doc["verdicts"]["counterexamples"]:
        _log("COUNTEREXAMPLE: block(s) with positive defect and zero HH1: "
             f"{doc['verdicts']['counterexamples']}")
        code = 1
    if args.method == "both":
        ok = doc["consistency"].get("oracle_equals_solver")
        if ok is False:
            _log("METHOD MISMATCH: oracle and solver disagree: "
                 f"{doc['totals']}")
            code = 2
    return doc, code


def cmd_happel(args):
    _check_at_least(args.degrees, 0, "--degrees")
    _check_at_least(args.points, 1, "--points")
    if args.category:
        cat = catalgebra.load_category_file(args.category)
        source = os.path.basename(args.category)
    elif args.transporter:
        G, _, name = resolve_group(args.transporter,
                                   allow_large=args.allow_large)
        cat = catalgebra.transporter_category(
            G, list(range(args.points)), action="trivial")
        source = f"transporter({name}, {args.points} points, trivial)"
    elif args.group_as_category:
        G, _, name = resolve_group(args.group_as_category,
                                   allow_large=args.allow_large)
        cat = catalgebra.one_object_category(G)
        source = f"one-object({name})"
    else:
        raise HH1LabError(
            "one of --category/--transporter/--group-as-category is required")
    verdict = catalgebra.happel_probe(cat, args.prime, args.degrees,
                                      seed=args.seed)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "happel",
        "inputs": {"category": source, "prime": args.prime,
                   "degrees": args.degrees, "seed": args.seed,
                   "caps": caps_dict(args.allow_large)},
        "verdict": {
            "frobenius_certified": verdict.frobenius is not None,
            "frobenius_symmetric": (verdict.frobenius.symmetric
                                    if verdict.frobenius else None),
            "semisimple": verdict.semisimple,
            "radical_dim": verdict.radical_dim,
            "gldim": verdict.gldim,
            "hh_dims": verdict.hh_dims,
            "nerve_dims": verdict.nerve_dims,
            "summand_inequality": verdict.summand_ok,
            "first_positive_nonvanishing": verdict.first_positive_nonvanishing,
            "happel_consistent": verdict.happel_consistent,
        },
    }
    if args.transporter:
        pi = catalgebra.transporter_projection(cat)
        res = catalgebra.restriction_map(pi, field_make(args.prime, 1),
                                         args.degrees)
        doc["restriction"] = res
    return doc, 0 if verdict.happel_consistent else 1


def cmd_tensor(args):
    Ga, _, name_a = resolve_group(args.group, allow_large=args.allow_large)
    Gb, _, name_b = resolve_group(args.group_b, allow_large=args.allow_large)
    from .permgroup import direct_product
    p = args.prime
    GaxGb = direct_product(Ga, Gb)
    rep_a = hhone.hh1_blocks(Ga, p, name=name_a, seed=args.seed)
    rep_b = hhone.hh1_blocks(Gb, p, name=name_b, seed=args.seed)
    rep_prod = hhone.hh1_blocks(GaxGb, p, name=f"{name_a}x{name_b}",
                                seed=args.seed)

    def block_dims(rep):
        # all None above the materialise cap, which leaves the pairwise
        # comparison undecided
        dims = [r.dim for r in rep.per_block]
        return dims if None in dims else sorted(dims)

    dims_a, dims_b, dims_prod = map(block_dims, (rep_a, rep_b, rep_prod))
    dims_pairwise = (None if None in dims_a + dims_b else
                     sorted(da * db for da in dims_a for db in dims_b))
    # a factor over the cap puts the product over it too
    pairwise_ok = None if None in dims_prod else dims_prod == dims_pairwise
    za = len(Ga.conjugacy_classes())
    zb = len(Gb.conjugacy_classes())
    predicted = hhone.kuenneth_hh1(rep_a.total_hh1, za, rep_b.total_hh1, zb)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "tensor",
        "inputs": {"group": name_a, "group_b": name_b, "prime": p,
                   "seed": args.seed, "caps": caps_dict(args.allow_large)},
        "blocks": {
            "factor_a_dims": dims_a,
            "factor_b_dims": dims_b,
            "product_dims": dims_prod,
            "pairwise_products": dims_pairwise,
            "pairwise_matches_product": pairwise_ok,
        },
        "kuenneth": {
            "hh1_a": rep_a.total_hh1, "z_a": za,
            "hh1_b": rep_b.total_hh1, "z_b": zb,
            "predicted_hh1": predicted,
            "solver_hh1": rep_prod.total_hh1,
            "matches": predicted == rep_prod.total_hh1,
        },
    }
    ok = pairwise_ok is not False and predicted == rep_prod.total_hh1
    return doc, 0 if ok else 2


def cmd_report(args):
    _check_at_least(args.jobs, 1, "--jobs")
    manifest = (CorpusManifest.from_path(args.corpus) if args.corpus
                else CorpusManifest.packaged())
    try:
        primes = [int(t) for t in args.primes.split(",") if t.strip()]
    except ValueError:
        raise HH1LabError(
            f"--primes takes comma-separated integers, not {args.primes!r}"
        ) from None
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    entries = manifest.desk_entries()
    if args.allow_large:
        entries = manifest.entries

    def run_one(e, p):
        try:
            doc = hh1_doc_cached(e["name"], manifest, args.allow_large, p,
                                 args.method, args.seed)
            return {"group": e["name"], "prime": p, "status": "ok",
                    "document": doc}
        except HH1LabError as exc:
            missing = isinstance(exc.__cause__, FileNotFoundError)
            return {"group": e["name"], "prime": p,
                    "status": "unavailable" if missing else "error",
                    "error": str(exc)}

    before = dict(CACHE_STATS)
    results = [run_one(e, p) for e in entries for p in primes]
    hits = CACHE_STATS["hits"] - before["hits"]
    misses = CACHE_STATS["misses"] - before["misses"]

    counterexamples = []
    errors = []
    for r in results:
        if r["status"] == "ok":
            ces = r["document"]["verdicts"]["counterexamples"]
            for ce in ces:
                counterexamples.append(
                    {"group": r["group"], "prime": r["prime"], "block": ce})
        elif r["status"] == "error":
            errors.append({"group": r["group"], "prime": r["prime"],
                           "error": r["error"]})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "report",
        "inputs": {"primes": primes, "method": args.method,
                   "seed": args.seed, "caps": caps_dict(args.allow_large),
                   "corpus": [e["name"] for e in entries]},
        "entries": results,
        "counterexamples": counterexamples,
        "errors": errors,
    }
    _log(f"cache: {hits} hits, {misses} misses")
    code = 0
    if errors:
        code = 2
    if counterexamples:
        code = 1
    return doc, code


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hh1lab",
        description="first Hochschild cohomology of modular group algebras, "
                    "blocks, and finite category algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="PRNG seed for idempotent splitting and searches")
        p.add_argument("--allow-large", action="store_true",
                       help="raise memory/field caps for stretch groups")
        p.add_argument("--out", help="also write the document to this path")

    p = sub.add_parser("blocks", help="block decomposition of a group algebra")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("hh1", help="per-block HH^1 dimensions and verdicts")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--method", choices=["direct", "oracle", "both"],
                   default="both")
    common(p)
    p.set_defaults(func=cmd_hh1)

    p = sub.add_parser("happel", help="Happel probe for a finite category")
    p.add_argument("--category", help="category file")
    p.add_argument("--transporter",
                   help="group name: transporter category of a trivial action")
    p.add_argument("--points", type=int, default=3,
                   help="point count for --transporter")
    p.add_argument("--group-as-category",
                   help="group name: the one-object category")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--degrees", type=int, default=3,
                   help="top cohomology degree probed")
    common(p)
    p.set_defaults(func=cmd_happel)

    p = sub.add_parser("tensor",
                       help="block/HH1 checks for a product of two groups")
    p.add_argument("--group", required=True)
    p.add_argument("--group-b", required=True)
    p.add_argument("--prime", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("report", help="corpus-wide hh1 sweep with caching")
    p.add_argument("--corpus", help="manifest path (default: packaged corpus)")
    p.add_argument("--primes", default="2,3")
    p.add_argument("--method", choices=["direct", "oracle", "both"],
                   default="both")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for existing command lines; entries run "
                        "one after another")
    common(p)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        doc, code = args.func(args)
    except HH1LabError as exc:
        _log(f"error: {exc}")
        return 2
    text = render_document(doc)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
