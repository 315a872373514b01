"""Span and counter tracing installed from outside the program.

``Tracer.install`` wraps the public functions and methods of each
``twigstore`` module.  A wrapped name is replaced in every ``twigstore.*``
module that binds the same function object, so names a caller imported
directly (``planner.axis_holds``, ``planner.serialize_node``,
``store.parse_document``, ``store.eval_naive``, ``store.fnv1a64``) are
patched where the caller looks them up.  The benchmark itself calls
module-level functions through their module (``twigstore.store.snapshot``)
so that it sees the patched name too.  Hot functions are counted, not
spanned.  Spans stay in memory until ``write`` is called.

A span is ``(name, start, end, parent index, op id)``.  Self time is a
span's duration minus the durations of its direct children; calls are
synchronous in one thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from typing import Callable

# (module, attribute path, kind, metric name); kinds:
#   span  - record a span
#   net   - record a span and the messages/bytes the simulator delivered
#           during it (the first argument must lead to a Network)
#   count - count calls only
#   hit   - count calls and results other than None and False
# every kind counts calls under the metric name
TARGETS = [
    ("document", "parse_document", "span", "document.parse"),
    ("document", "serialize_subtree", "span", "document.serialize"),
    ("document", "serialize_node", "span", "document.serialize_node"),
    ("document", "serialize_document", "span", "document.serialize_document"),
    ("document", "extract_resources", "span", "document.extract_resources"),
    ("netsim", "Network.send", "count", "netsim.send"),
    ("netsim", "Network.run_until_quiescent", "span", "netsim.drain"),
    ("netsim", "NetworkStats.copy", "count", "netsim.stats_copy"),
    ("overlay", "fnv1a64", "count", "overlay.fnv1a64"),
    ("overlay", "ring_hash", "count", "overlay.ring_hash"),
    ("overlay", "HashOverlay.owner_of", "count", "overlay.owner_of"),
    ("overlay", "RangeOverlay.owner_of", "count", "overlay.owner_of"),
    ("overlay", "DhtService.put", "net", "overlay.put"),
    ("overlay", "DhtService.get", "net", "overlay.get"),
    ("overlay", "DhtService.get_range", "net", "overlay.get_range"),
    ("indexing", "IndexService.index_document", "span", "indexing.index_document"),
    ("indexing", "IndexService.lookup_tag", "span", "indexing.lookup"),
    ("indexing", "IndexService.lookup_word", "span", "indexing.lookup"),
    ("indexing", "IndexService.lookup_value_range", "span", "indexing.lookup"),
    ("indexing", "IndexService.known_tags", "span", "indexing.lookup"),
    ("indexing", "IndexService.lookup_all", "span", "indexing.lookup"),
    ("pattern", "parse_pattern", "span", "pattern.parse"),
    ("twigjoin", "axis_holds", "hit", "twigjoin.axis_holds"),
    ("twigjoin", "eval_naive", "span", "twigjoin.eval_naive"),
    ("twigjoin", "QueryCache.lookup", "hit", "twigjoin.cache_lookup"),
    ("planner", "decompose", "span", "planner.decompose"),
    ("planner", "PlanBuilder.build", "span", "planner.build"),
    ("planner", "rewrite", "span", "planner.rewrite"),
    ("planner", "place", "span", "planner.place"),
    ("planner", "execute", "span", "planner.execute"),
    ("planner", "ExecutionContext.ship", "net", "planner.ship"),
    ("planner", "ExecutionContext.fetch_subtree", "net", "planner.fetch"),
    ("rdfstore", "index_triples", "span", "rdfstore.index_triples"),
    ("rdfstore", "eval_conjunctive", "span", "rdfstore.eval_conjunctive"),
    ("rdfstore", "eval_nested_loop", "span", "rdfstore.eval_nested_loop"),
    ("store", "Store.store_resource", "span", "store.store_resource"),
    ("store", "Store._register", "span", "store.register"),
    ("store", "Store.get_resource", "span", "store.get_resource"),
    ("store", "Store.query", "span", "store.query"),
    ("store", "Store.build_plan", "span", "store.build_plan"),
    ("store", "Store.rdf_load", "span", "store.rdf_load"),
    ("store", "Store.rdf_query", "span", "store.rdf_query"),
    ("store", "snapshot", "span", "store.snapshot"),
    ("store", "restore", "span", "store.restore"),
    ("cli", "main", "span", "cli.main"),
]
# the store's snapshot checksum shares fnv1a64 with ring hashing; the
# store's binding is spanned, the overlay's (hot) binding only counted
OVERRIDES = [("store", "fnv1a64", "span", "store.checksum")]


# items a span's result carries, counted under "<name>.items"
RESULT_ITEMS = {
    "document.parse": lambda doc: len(doc.nodes),
    "indexing.index_document": lambda published: published,
    "store.query": lambda result: len(result.resources),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn: Callable, net: bool) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        items = RESULT_ITEMS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            counts[name] += 1
            if net:  # first argument is a DhtService or an ExecutionContext
                stats = args[0].net.stats
                msgs, byts = stats.messages_sent, stats.bytes_sent
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
                if net:
                    counts[name + ".msgs"] += stats.messages_sent - msgs
                    counts[name + ".bytes"] += stats.bytes_sent - byts
            if items is not None:
                counts[name + ".items"] += items(result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable, hits: bool) -> Callable:
        counts = self.counts
        if not hits:
            def count(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return count

        def count_hits(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name] += 1
            if result is not None and result is not False:
                counts[name + ".hit"] += 1
            return result

        return count_hits

    def _wrap(self, kind: str, name: str, fn: Callable) -> Callable:
        if kind in ("span", "net"):
            return self._span(name, fn, kind == "net")
        return self._counter(name, fn, kind == "hit")

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import twigstore.cli  # noqa: F401 - loads every module

        modules = {
            name.rsplit(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("twigstore.") and mod is not None
        }
        for mod_name, path, kind, name in TARGETS:
            owner = modules[mod_name]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
                self._set(owner, attr, self._wrap(kind, name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(kind, name, original)
            for mod in modules.values():
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, bound, wrapper)
        for mod_name, attr, kind, name in OVERRIDES:
            mod = modules[mod_name]
            self._set(mod, attr, self._wrap(kind, name, self._original(mod, attr)))

    def _original(self, owner, attr):
        for patched_owner, patched_attr, original in self._patched:
            if patched_owner is owner and patched_attr == attr:
                return original
        return getattr(owner, attr)

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def aggregate(self) -> dict[str, list]:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child_time: Counter = Counter()
        for span in self.spans:
            if span is not None and span[3] >= 0:
                child_time[span[3]] += span[2] - span[1]
        out: dict[str, list] = {}
        for i, span in enumerate(self.spans):
            if span is None:
                continue
            entry = out.setdefault(span[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += span[2] - span[1]
            entry[2] += span[2] - span[1] - child_time[i]
        return out

    def parents_named(self, name: str, parent: str) -> int:
        """How many ``name`` spans were called directly by a ``parent`` span."""
        spans = self.spans
        return sum(
            1 for span in spans
            if span is not None and span[0] == name and span[3] >= 0
            and spans[span[3]] is not None and spans[span[3]][0] == parent
        )

    def write(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
