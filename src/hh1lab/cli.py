"""Command-line frontend: blocks | hh1 | happel | tensor | report.

Reports are JSON documents with sorted keys and canonical formatting, so
byte-identical inputs (group file, prime, caps, seed) produce byte-identical
output; wall-clock timings and cache statistics go to stderr only, except
that cached hh1 documents keep the timing of the run that first produced
them.  The cache lives under $HH1LAB_CACHE (default .hh1lab-cache/), one
JSON file per hash of those inputs, the order the corpus manifest claims
and the package source, written via temp-file-then-rename so concurrent
writers are safe.  A hit reads only the group file's bytes, and its
document keeps the text of its cache file, which rendering embeds,
re-indented to its depth, instead of encoding the document again.
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
from .groupalgebra import block_decompose, field_degree, group_algebra
from .permgroup import (DEFAULT_MEMORY_CAP, DEFAULT_ORDER_CAP,
                        enumeration_bytes, group_from_generators,
                        parse_group_file)

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
                isinstance(e, dict) and isinstance(e.get("name"), str)
                and isinstance(e.get("file"), str)
                and type(e.get("order", 1)) is int and e.get("order", 1) >= 1
                and isinstance(e.get("stretch", False), bool)
                for e in entries):
            raise HH1LabError("corpus entries must be a list of objects "
                              "with a string name and file, an order of at "
                              "least 1 and a true or false stretch")
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
    need allow_large, which raises the enumeration memory cap and first
    prints the order and what the cap counts for it.  A group whose order
    is not the one its manifest claims is an error.
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
        est = enumeration_bytes(order, degree, len(gens))
        _log(f"{name}: {order} elements of degree {degree}, "
             f"{est / (1 << 20):.0f} MiB against the memory cap")
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
        "cochain_cap": catalgebra.COCHAIN_CAP,
    }


class CachedDocument(dict):
    """A document as its cache entry holds it: a read-only dict of the
    decoded value whose `text` is the JSON text it was decoded from, the
    value rendered at depth 0 without the final newline."""

    __slots__ = ("text",)

    def __init__(self, value, text):
        super().__init__(value)
        self.text = text

    def _read_only(self, *args, **kwargs):
        raise TypeError("a cached document is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


_encode_str = json.encoder.encode_basestring_ascii


def _render(value, newline, out):
    """Append value's JSON text to out; `newline` is a line break followed
    by the indentation of value's depth."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, CachedDocument):
        # string literals hold no raw line break, so indenting every line
        # break re-indents the whole text
        out.append(value.text.replace("\n", newline))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out.append(sep + _encode_str(key) + ": ")  # TypeError unless str
            _render(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        "is not JSON serializable")


def render_document(doc):
    """doc as json.dumps(doc, sort_keys=True, indent=2) + "\\n" renders it;
    each CachedDocument in it contributes its text, re-indented.  Documents
    hold str, int, bool and None in lists, tuples and str-keyed dicts;
    anything else, a float or an int key included, is a TypeError."""
    out = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


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
    """The cached document for key as a CachedDocument, or None on a miss.
    An entry that cannot be read or decoded, or that is not a JSON object
    with this schema_version, kind "hh1" and the verdicts.counterexamples,
    consistency and totals the commands read, counts as a miss, so the
    recompute rewrites it."""
    path = os.path.join(cache_dir(), f"{key}.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        value = json.loads(text)
    except (OSError, ValueError):
        value = None
    hit = (isinstance(value, dict)
           and value.get("schema_version") == SCHEMA_VERSION
           and value.get("kind") == "hh1"
           and isinstance(value.get("verdicts"), dict)
           and isinstance(value["verdicts"].get("counterexamples"), list)
           and isinstance(value.get("consistency"), dict)
           and "totals" in value)
    CACHE_STATS["hits" if hit else "misses"] += 1
    return CachedDocument(value, text.strip()) if hit else None


def cache_put(key, doc):
    """Write doc as the entry for key; returns it as a CachedDocument of
    the text written.  A cache that cannot be written raises HH1LabError
    caused by the OSError."""
    text = render_document(doc)
    d = cache_dir()
    tmp = None
    try:
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(d, f"{key}.json"))
    except OSError as exc:
        raise HH1LabError(f"cannot write the cache {d}: {exc}") from exc
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
    return CachedDocument(doc, text[:-1])


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
                   "field_degree": field_degree(blocks)},
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


def hh1_doc_cached(group, manifest, allow_large, prime, method, seed,
                   build=None):
    """The hh1 document of a corpus group or group file at one prime.

    The cache key needs only the file bytes and the order the manifest
    claims, so a hit parses and enumerates nothing; a miss builds the group
    with ``build`` (`resolve_group` by default), order check included,
    and computes.  Either way the document is a CachedDocument holding the
    text of its cache file.
    """
    source = read_group_source(group, manifest)
    key = cache_key("hh1", source.raw, prime, caps_dict(allow_large), seed,
                    extra={"method": method, "order": source.order})
    doc = cache_get(key)
    if doc is None:
        G, _, name = (build or resolve_group)(source,
                                              allow_large=allow_large)
        doc = cache_put(key, compute_hh1_doc(name, G, prime, method, seed,
                                             allow_large))
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
    rep_a, rep_b, rep_prod = (
        hhone.hh1_blocks(G, p, name=name, seed=args.seed,
                         allow_large=args.allow_large)
        for G, name in ((Ga, name_a), (Gb, name_b),
                        (GaxGb, f"{name_a}x{name_b}")))

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
    # the solver's total is null above its cap; the oracle's always runs
    solver = rep_prod.consistency.get("whole_algebra_hh1")
    oracle = rep_prod.consistency["oracle_total"]
    matches = all(t == predicted for t in (solver, oracle) if t is not None)
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
            "solver_hh1": solver,
            "oracle_hh1": oracle,
            "matches": matches,
        },
    }
    ok = pairwise_ok is not False and matches
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
    if not primes:
        raise HH1LabError(f"--primes names no prime: {args.primes!r}")
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if primes.count(p) > 1:
            raise HH1LabError(f"--primes names {p} more than once")
    entries = manifest.desk_entries()
    if args.allow_large:
        entries = manifest.entries

    def run_one(e, p, build):
        try:
            doc = hh1_doc_cached(e["name"], manifest, args.allow_large, p,
                                 args.method, args.seed, build)
            return {"group": e["name"], "prime": p, "status": "ok",
                    "document": doc}
        except HH1LabError as exc:
            missing = isinstance(exc.__cause__, FileNotFoundError)
            return {"group": e["name"], "prime": p,
                    "status": "unavailable" if missing else "error",
                    "error": str(exc)}

    before = dict(CACHE_STATS)
    results = []
    for e in entries:  # one group build serves every prime that misses
        build = functools.cache(resolve_group)
        results += [run_one(e, p, build) for p in primes]
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
    return doc, 2 if errors else 1 if counterexamples else 0


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
                       help="raise memory caps for stretch groups")
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
                   help="top cohomology degree probed; the string "
                        "complexes may hold 10^6 cochains in all (a bound "
                        "on memory, not time); the radical check first "
                        "refuses algebras of over 64 dimensions over F_p")
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
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            _log(f"error: cannot write {args.out}: {exc}")
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
