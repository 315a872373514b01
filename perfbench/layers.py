"""Per-layer metrics of a traced run.

Counts (calls, envelopes, messages) are taken over the first traced pass,
so they are exact and repeat for a seed.  Times are seconds per call of
the named function, over every traced call; ``_s`` metrics are inclusive
unless they say self time.  A layer the workload never calls takes its
per-call time and rates from a small fixed scenario run after the
workload under its own tracer (``probe``), so every time is measured.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

import corpus as gen
from tracing import Tracer
from workloads import (
    SWEEP_ARTICLES,
    SWEEP_PEERS,
    SWEEP_SEED,
    Run,
    child_env,
    config,
    triples,
    workdir,
)

import twigstore.store as store_module
from twigstore import Store, cli
from twigstore.rdfstore import ConjunctiveQuery, TriplePattern
from twigstore.store import CENTRALIZED, P2P

SNAPSHOT_TAGS = ("CONF", "DOC", "RSRC", "TRPL", "NSTA")
IMPORT_REPEATS = 3

# name -> unit, in the order BENCHMARK.json lists them
UNITS = {
    "document.parse_s": "s",
    "document.nodes_per_s": "1/s",
    "document.serialize_s": "s",
    "document.serialize_calls": "count",
    "netsim.envelopes": "count",
    "netsim.drains": "count",
    "netsim.drain_s": "s",
    "netsim.envelopes_per_s": "1/s",
    "netsim.stats_copies": "count",
    "netsim.query_msgs_per_op": "msg",
    "netsim.query_bytes_per_op": "B",
    "netsim.ingest_msgs_per_doc": "msg",
    "overlay.put_calls": "count",
    "overlay.get_calls": "count",
    "overlay.get_range_calls": "count",
    "overlay.msgs_per_put": "msg",
    "overlay.msgs_per_get": "msg",
    "overlay.put_s": "s",
    "overlay.get_s": "s",
    "overlay.ring_hash_calls": "count",
    "overlay.owner_of_calls": "count",
    **{f"overlay.msgs_per_{op}.n{n}": "msg" for op in ("put", "get") for n in SWEEP_PEERS},
    "indexing.index_document_s": "s",
    "indexing.postings_per_doc": "count",
    "indexing.lookup_s": "s",
    "pattern.parse_s": "s",
    "twigjoin.eval_naive_s": "s",
    "twigjoin.axis_checks": "count",
    "twigjoin.axis_hit_ratio": "ratio",
    "twigjoin.axis_checks_per_result": "count",
    "twigjoin.cache_lookups": "count",
    "twigjoin.cache_hit_ratio": "ratio",
    "planner.plan_s": "s",
    "planner.rewrite_s": "s",
    "planner.place_s": "s",
    "planner.execute_s": "s",
    "planner.ships_per_query": "count",
    "planner.ship_bytes_per_query": "B",
    "planner.fetches_per_result": "count",
    "planner.remote_fetch_ratio": "ratio",
    "rdfstore.eval_conjunctive_s": "s",
    "rdfstore.gets_per_query": "count",
    "rdfstore.index_triples_s": "s",
    "store.snapshot_s": "s",
    "store.restore_s": "s",
    "store.checksum_s": "s",
    "store.register_s": "s",
    **{f"store.snapshot_bytes.{tag}": "B" for tag in SNAPSHOT_TAGS},
    "cli.import_s": "s",
    "cli.main_s": "s",
    "trace.overhead_ratio": "ratio",
}


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Spans:
    """Per-call times from the workload's tracer, else from the probe's."""

    def __init__(self, workload: Tracer, probe: Tracer):
        self.sources = [(workload, workload.aggregate()), (probe, probe.aggregate())]

    def _source(self, name: str):
        for tracer, agg in self.sources:
            if name in agg:
                return tracer, agg[name]
        return None, (0, 0.0, 0.0)

    def per_call(self, name: str, self_time: bool = False) -> float:
        _, (calls, incl, own) = self._source(name)
        return ratio(own if self_time else incl, calls)

    def per_second(self, counter: str, name: str, self_time: bool = False) -> float:
        tracer, (_, incl, own) = self._source(name)
        return ratio(tracer.counts[counter], own if self_time else incl) if tracer else 0.0

    def per_span(self, counter: str, name: str) -> float:
        tracer, (calls, _, _) = self._source(name)
        return ratio(tracer.counts[counter], calls) if tracer else 0.0

    def gets_per_query(self) -> float:
        tracer, (calls, _, _) = self._source("rdfstore.eval_conjunctive")
        if tracer is None:
            return 0.0
        return ratio(tracer.parents_named("overlay.get", "rdfstore.eval_conjunctive"), calls)


def derive(run: Run) -> None:
    """Fill ``run.layers`` with every per-layer metric."""
    c = run.info["pass_counts"]
    spans = Spans(run.tracer, probe())
    queries, results = c["store.query"], c["store.query.items"]
    checks = c["twigjoin.axis_holds"]
    m = run.layers
    m.update({
        "document.parse_s": spans.per_call("document.parse"),
        "document.nodes_per_s": spans.per_second("document.parse.items", "document.parse"),
        "document.serialize_s": spans.per_call("document.serialize"),
        "document.serialize_calls": c["document.serialize"],
        "netsim.envelopes": c["netsim.send"],
        "netsim.drains": c["netsim.drain"],
        "netsim.drain_s": spans.per_call("netsim.drain", self_time=True),
        "netsim.envelopes_per_s": spans.per_second("netsim.send", "netsim.drain", True),
        "netsim.stats_copies": c["netsim.stats_copy"],
        "netsim.query_msgs_per_op": run.exact.get("query_msgs_per_op", 0.0),
        "netsim.query_bytes_per_op": run.exact.get("query_bytes_per_op", 0.0),
        "netsim.ingest_msgs_per_doc": run.exact.get("ingest_msgs_per_doc", 0.0),
        "overlay.put_calls": c["overlay.put"],
        "overlay.get_calls": c["overlay.get"],
        "overlay.get_range_calls": c["overlay.get_range"],
        "overlay.msgs_per_put": ratio(c["overlay.put.msgs"], c["overlay.put"]),
        "overlay.msgs_per_get": ratio(c["overlay.get.msgs"], c["overlay.get"]),
        "overlay.put_s": spans.per_call("overlay.put"),
        "overlay.get_s": spans.per_call("overlay.get"),
        "overlay.ring_hash_calls": c["overlay.ring_hash"],
        "overlay.owner_of_calls": c["overlay.owner_of"],
        "indexing.index_document_s": spans.per_call("indexing.index_document"),
        "indexing.postings_per_doc": spans.per_span(
            "indexing.index_document.items", "indexing.index_document"),
        "indexing.lookup_s": spans.per_call("indexing.lookup"),
        "pattern.parse_s": spans.per_call("pattern.parse"),
        "twigjoin.eval_naive_s": spans.per_call("twigjoin.eval_naive"),
        "twigjoin.axis_checks": checks,
        "twigjoin.axis_hit_ratio": ratio(c["twigjoin.axis_holds.hit"], checks),
        "twigjoin.axis_checks_per_result": ratio(checks, results),
        "twigjoin.cache_lookups": c["twigjoin.cache_lookup"],
        "twigjoin.cache_hit_ratio": ratio(c["twigjoin.cache_lookup.hit"],
                                          c["twigjoin.cache_lookup"]),
        "planner.plan_s": spans.per_call("store.build_plan"),
        "planner.rewrite_s": spans.per_call("planner.rewrite"),
        "planner.place_s": spans.per_call("planner.place"),
        "planner.execute_s": spans.per_call("planner.execute", self_time=True),
        # a ship that moves data is one message; a remote fetch is two
        "planner.ships_per_query": ratio(c["planner.ship.msgs"], queries),
        "planner.ship_bytes_per_query": ratio(c["planner.ship.bytes"], queries),
        "planner.fetches_per_result": ratio(c["planner.fetch"], results),
        "planner.remote_fetch_ratio": ratio(c["planner.fetch.msgs"] / 2, c["planner.fetch"]),
        "rdfstore.eval_conjunctive_s": spans.per_call("rdfstore.eval_conjunctive"),
        "rdfstore.gets_per_query": spans.gets_per_query(),
        "rdfstore.index_triples_s": spans.per_call("rdfstore.index_triples"),
        "store.snapshot_s": spans.per_call("store.snapshot"),
        "store.restore_s": spans.per_call("store.restore"),
        "store.checksum_s": spans.per_call("store.checksum"),
        "store.register_s": spans.per_call("store.register"),
        "cli.import_s": import_seconds(),
        "cli.main_s": spans.per_call("cli.main"),
    })
    m.update(snapshot_bytes(run.info["snapshot_path"]))
    m.update(peer_sweep())
    missing = set(UNITS) ^ set(m)
    if missing:
        raise AssertionError(f"per-layer metrics out of step: {sorted(missing)}")


def snapshot_bytes(path: Path) -> dict[str, float]:
    """Bytes per record tag of a snapshot file, headers included."""
    blob = path.read_bytes()
    out = {f"store.snapshot_bytes.{tag}": 0 for tag in SNAPSHOT_TAGS}
    off = blob.index(b"\n") + 1
    end = len(blob) - 8  # trailing checksum
    while off < end:
        tag = blob[off : off + 4].rstrip(b"\x00").decode("ascii")
        (length,) = struct.unpack_from(">Q", blob, off + 4)
        out[f"store.snapshot_bytes.{tag}"] += 12 + length
        off += 12 + length
    return out


def peer_sweep() -> dict[str, float]:
    """Messages per put and per get at several peer counts, on a fixed corpus."""
    corpus = gen.make_corpus(SWEEP_SEED, SWEEP_ARTICLES, 1)
    ids = list(corpus.resources())
    out = {}
    for peers in SWEEP_PEERS:
        tracer = Tracer()
        tracer.install()
        try:
            store = Store(config(P2P, peers))
            for doc in corpus.docs:
                store.store_resource(doc.xml)
            for resource_id in ids:
                store.get_resource(resource_id)
        finally:
            tracer.uninstall()
        c = tracer.counts
        out[f"overlay.msgs_per_put.n{peers}"] = ratio(c["overlay.put.msgs"], c["overlay.put"])
        out[f"overlay.msgs_per_get.n{peers}"] = ratio(c["overlay.get.msgs"], c["overlay.get"])
    return out


def probe() -> Tracer:
    """Trace one call into every layer on a four-article corpus."""
    corpus = gen.make_corpus(SWEEP_SEED, 4, 2)
    work = workdir("probe")
    rdf = ConjunctiveQuery([TriplePattern("?a", "venue", "?v")], ["?a", "?v"])
    tracer = Tracer()
    tracer.install()
    try:
        for backend in (CENTRALIZED, P2P):
            path = work / f"{backend}.snap"
            store = Store(config(backend, 4, str(path)))
            for doc in corpus.docs:
                store.store_resource(doc.xml)
            store.rdf_load(triples(corpus.triples))
            store.query("//article[/year in 1970..2009]/title!")
            store.get_resource(next(iter(corpus.resources())))
            store.rdf_query(rdf)
            store_module.snapshot(store, str(path))
            store_module.restore(str(path))
        cfg = work / "store.cfg"
        cfg.write_text(store.config.to_text(), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["stats", "--config", str(cfg)])
    finally:
        tracer.uninstall()
    return tracer


def import_seconds() -> float:
    """Median wall time of a fresh interpreter importing ``twigstore.cli``."""
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import twigstore.cli"],
                       env=child_env(), check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
