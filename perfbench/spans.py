"""Span and count tracing for the benchmark, kept outside the package.

`Tracer.install` wraps public functions of each hh1lab module at the place
their callers look them up (a module global or a class attribute) and
`Tracer.restore` puts the originals back.  Spans are kept in memory and
written out once, when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans on the same thread.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# per-layer metric -> (span name, "self" or "total"); the sweep.p<p>_s
# metrics add up cli.compute spans by prime, and every other per-layer
# metric is a count
SWEEP_PRIMES = (2, 3, 5)
SPAN_METRICS = {
    "permgroup.enumerate_s": ("permgroup.enumerate", "self"),
    "permgroup.classes_s": ("permgroup.classes", "self"),
    "permgroup.inverse_s": ("permgroup.inverse", "self"),
    "permgroup.centralizer_s": ("permgroup.centralizer", "self"),
    "permgroup.p_rank_s": ("permgroup.p_rank", "self"),
    "groupalgebra.center_s": ("groupalgebra.center", "self"),
    "groupalgebra.block_decompose_s": ("groupalgebra.block_decompose", "self"),
    "groupalgebra.block_algebra_s": ("groupalgebra.block_algebra", "self"),
    "ffield.poly_factor_s": ("ffield.poly_factor", "self"),
    "ffield.elim_gf2_s": ("ffield.elim_gf2", "self"),
    "ffield.elim_gfq_s": ("ffield.elim_gfq", "self"),
    "hhone.derivation_block_s": ("hhone.derivation_block", "self"),
    "hhone.derivation_whole_s": ("hhone.derivation_whole", "self"),
    "hhone.oracle_s": ("hhone.oracle", "self"),
    "catalgebra.bar_hh_s": ("catalgebra.bar_hh", "self"),
    "catalgebra.nerve_s": ("catalgebra.nerve", "self"),
    "catalgebra.radical_s": ("catalgebra.radical", "self"),
    "catalgebra.frobenius_s": ("catalgebra.frobenius", "self"),
    "catalgebra.restriction_s": ("catalgebra.restriction", "self"),
    "cli.resolve_s": ("cli.resolve", "self"),
    "cli.compute_s": ("cli.compute", "self"),
    "cli.cache_get_s": ("cli.cache_get", "self"),
    "cli.cache_put_s": ("cli.cache_put", "self"),
    "cli.render_s": ("cli.render", "self"),
}

COUNT_METRICS = (
    "permgroup.order", "permgroup.class_count", "permgroup.p_rank_calls",
    "groupalgebra.blocks", "groupalgebra.field_degree",
    "ffield.poly_factor_calls", "ffield.elim_calls", "ffield.elim_rows",
    "ffield.elim_cols", "ffield.elim_nnz", "ffield.elim_rank",
    "hhone.leibniz_unknowns", "catalgebra.bar_cochain_dim",
    "cli.cache_bytes_written",
)

_END = object()


class NullTracer:
    """Stands in for a Tracer in untraced runs."""

    @contextmanager
    def span(self, name, item=None):
        yield

    def total(self, name):
        return 0.0


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    # -- spans and counts ---------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, item=None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is None and stack is not self._main_stack and self._main_stack:
            # a worker thread's outermost span belongs to the span the main
            # thread has open; its time is not subtracted from that span
            outer = self._main_stack[-1]
            parent_id, parent_item = outer["id"], outer["item"]
        elif parent is not None:
            parent_id, parent_item = parent["id"], parent["item"]
        else:
            parent_id, parent_item = None, None
        if item is None:
            item = parent_item
        elif parent_item is not None:
            item = f"{parent_item}/{item}"
        rec = {"id": next(self._ids), "parent": parent_id, "name": name,
               "item": item, "thread": threading.get_ident(),
               "start": perf_counter(), "child": 0.0}
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            stack.pop()
            duration = rec["end"] - rec["start"]
            rec["self"] = duration - rec.pop("child")
            if parent is not None:
                parent["child"] += duration - rec.pop("credit", 0.0)
            self.spans.append(rec)

    def add(self, name, value):
        with self._lock:
            self.counts[name] += value

    def total(self, name):
        """Summed duration of the finished spans called `name`."""
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, owner, attr, name, *, before=None, after=None, item=None):
        """Replace owner.attr by a wrapper that opens span `name` (a string,
        a function of the call's args, or None for counts only), calls
        `before(args)` first and `after(args, result)` last, and tags the
        span with item `item(args)` when given."""
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            if name is None:
                result = original(*args, **kwargs)
            else:
                label = name(args) if callable(name) else name
                with self.span(label, item(args) if item else None):
                    result = original(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap_elimination(self, owner, attr, dense, rank_of):
        """Wrap an elimination kernel.  Only the outermost elimination on a
        thread is a span; the rows it consumes are counted as they pass."""
        original = vars(owner)[attr]
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if getattr(local, "in_elim", False):
                return original(*args, **kwargs)
            if dense:
                mat, p = args[0], args[1]
                arr = np.asarray(mat)
                ncols = arr.shape[1]
                self.add("ffield.elim_rows", arr.shape[0])
                self.add("ffield.elim_nnz", int(np.count_nonzero(arr % p)))
                q = p
            else:
                rows, ncols, spec = args[0], args[1], args[2]
                q = spec.p ** spec.m

                def passthrough(rows):
                    # rows may come from a lazy generator: the time spent
                    # making them belongs to the caller, not the kernel
                    n = nnz = 0
                    rows = iter(rows)
                    try:
                        while True:
                            t0 = perf_counter()
                            row = next(rows, _END)
                            produced[0] += perf_counter() - t0
                            if row is _END:
                                break
                            n += 1
                            nnz += len(row)
                            yield row
                    finally:
                        self.add("ffield.elim_rows", n)
                        self.add("ffield.elim_nnz", nnz)

                args = (passthrough(rows),) + args[1:]
            produced = [0.0]
            local.in_elim = True
            try:
                with self.span("ffield.elim_gf2" if q == 2
                               else "ffield.elim_gfq") as rec:
                    result = original(*args, **kwargs)
                    rec["child"] += produced[0]
                    rec["credit"] = produced[0]
            finally:
                local.in_elim = False
            self.add("ffield.elim_calls", 1)
            self.add("ffield.elim_cols", ncols)
            self.add("ffield.elim_rank", rank_of(result, ncols))
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self):
        from hh1lab import (catalgebra, cli, ffield, groupalgebra, hhone,
                            permgroup)

        def count(metric, fn):
            return lambda args, result: self.add(metric, fn(args, result))

        # permgroup
        self.wrap(cli, "group_from_generators", "permgroup.enumerate",
                  after=count("permgroup.order", lambda a, r: r.order))
        self.wrap(permgroup.PermGroup, "_compute_classes", "permgroup.classes",
                  after=count("permgroup.class_count", lambda a, r: len(r)))
        self.wrap(permgroup.PermGroup, "inverse_rows", "permgroup.inverse")
        self.wrap(hhone, "centralizer", "permgroup.centralizer")
        self.wrap(hhone, "p_rank_abelianization", "permgroup.p_rank",
                  after=count("permgroup.p_rank_calls", lambda a, r: 1))

        # groupalgebra
        for mod in (cli, hhone, groupalgebra):
            self.wrap(mod, "group_algebra", None,
                      after=count("groupalgebra.field_degree",
                                  lambda a, r: r.field.m))
            self.wrap(mod, "block_decompose", "groupalgebra.block_decompose",
                      after=count("groupalgebra.blocks", lambda a, r: len(r)))
        for mod in (hhone, groupalgebra):
            self.wrap(mod, "block_algebra", "groupalgebra.block_algebra")
        self.wrap(groupalgebra, "center", "groupalgebra.center")

        # ffield: elimination as imported by its callers, and inside ffield
        # itself (groupalgebra imports from ffield inside its functions)
        sparse_rank = {"echelonize": lambda r, n: len(r[0]),
                       "rank_nullspace_raw": lambda r, n: r[0]}
        dense_rank = {"np_rref_mod_p": lambda r, n: len(r[1]),
                      "np_kernel_mod_p": lambda r, n: n - r.shape[0]}
        for mod in (ffield, hhone, catalgebra):
            for attr, rank_of in sparse_rank.items():
                self.wrap_elimination(mod, attr, False, rank_of)
        for mod in (ffield, hhone):
            for attr, rank_of in dense_rank.items():
                self.wrap_elimination(mod, attr, True, rank_of)
        self.wrap(groupalgebra, "poly_factor", "ffield.poly_factor",
                  after=count("ffield.poly_factor_calls", lambda a, r: 1))

        # hhone
        self.wrap(hhone, "derivation_space",
                  lambda a: ("hhone.derivation_block" if a[0].group is None
                             else "hhone.derivation_whole"),
                  before=lambda a: self.add("hhone.leibniz_unknowns",
                                            a[0].dim ** 2))
        self.wrap(hhone, "additive_oracle", "hhone.oracle")

        # catalgebra: the calls happel_probe makes, plus restriction_map
        self.wrap(catalgebra, "bar_hh", "catalgebra.bar_hh",
                  before=lambda a: self.add(
                      "catalgebra.bar_cochain_dim",
                      sum(a[0].dim ** (q + 1) for q in range(a[1] + 2))))
        self.wrap(catalgebra, "nerve_cohomology", "catalgebra.nerve")
        self.wrap(catalgebra, "radical_and_semisimplicity", "catalgebra.radical")
        self.wrap(catalgebra, "frobenius_certificate", "catalgebra.frobenius")
        self.wrap(catalgebra, "verify_frobenius_certificate",
                  "catalgebra.frobenius")
        self.wrap(catalgebra, "restriction_map", "catalgebra.restriction")

        # cli
        self.wrap(cli, "resolve_group", "cli.resolve")
        self.wrap(cli, "hh1_doc_cached", "cli.hh1_doc_cached",
                  item=lambda a: f"{a[0]}@{a[3]}")
        self.wrap(cli, "compute_hh1_doc", "cli.compute")
        self.wrap(cli, "cache_get", "cli.cache_get")
        self.wrap(cli, "cache_put", "cli.cache_put",
                  after=count("cli.cache_bytes_written",
                              lambda a, r: os.path.getsize(os.path.join(
                                  cli.cache_dir(), f"{a[0]}.json"))))
        self.wrap(cli, "render_document", "cli.render")

    # -- results ------------------------------------------------------------

    def layer_metrics(self, passes):
        """Per-pass per-layer values: span times and counts over `passes`."""
        self_time = defaultdict(float)
        total_time = defaultdict(float)
        for s in self.spans:
            self_time[s["name"]] += s["self"]
            total_time[s["name"]] += s["end"] - s["start"]
        out = {}
        for metric, (span, kind) in SPAN_METRICS.items():
            value = (self_time if kind == "self" else total_time)[span]
            out[metric] = value / passes
        for p in SWEEP_PRIMES:
            # a cli.compute span's item ends in @<prime>
            out[f"sweep.p{p}_s"] = sum(
                s["end"] - s["start"] for s in self.spans
                if s["name"] == "cli.compute"
                and (s["item"] or "").endswith(f"@{p}")) / passes
        for metric in COUNT_METRICS:
            out[metric] = self.counts[metric] / passes
        return out

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps({
                    "id": s["id"], "parent": s["parent"], "name": s["name"],
                    "item": s["item"], "thread": s["thread"],
                    "start_s": round(s["start"] - t0, 6),
                    "end_s": round(s["end"] - t0, 6),
                    "self_s": round(s["self"], 6)}) + "\n")
