"""The four workloads, their answer checks, and the metrics they report.

Every workload is closed loop with one client in one process: the next
operation starts when the previous one returned.  ``cli-session`` runs
its ``store`` commands as child processes, one at a time.

Why these four: each module does most of the work in one workload and
little in another.
  p2p-query      planner (decompose, place, execute, recompose) and the
                 per-document StructJoin; ingest happens only in set-up.
  p2p-ingest     overlay routing, netsim delivery and posting publication
                 at 32 peers; the planner and the join do almost nothing.
  central-query  the centralized engine (eval_naive) on large documents;
                 no netsim, overlay or planner.
  cli-session    the CLI and cold start (import, checksum, full restore).

An operation that raises, or whose answer differs from the expected one,
counts as failed and the run continues.  Answers are checked outside the
timed calls.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import corpus as gen
from cli_child import RESTORE_LINE
from corpus import rid
from tracing import Tracer

import twigstore.store as store_module
from twigstore import Store, StoreConfig, cli
from twigstore.rdfstore import ConjunctiveQuery, Triple, TriplePattern
from twigstore.store import CENTRALIZED, P2P

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUPS = 3  # set-ups per run; setup_s is their median
REPEATS = 5  # restores per run, and twice as many snapshots
GRANULARITY = ("article", "sec")

# corpus shapes and pass lengths; a pass is the fixed operation list that
# exact counts and the traced run are measured on
SIZES = {
    "p2p-query": {"peers": 8, "articles": 500, "per_doc": 50, "pass_ops": 60},
    "central-query": {"articles": 1000, "per_doc": 200, "pass_ops": 40},
    "p2p-ingest": {"peers": 32, "base": 16, "stream": 64, "rdf_every": 8,
                   "query_every": 4},
    "cli-session": {"peers": 8, "articles": 60, "per_doc": 10, "pass_ops": 6},
}
INGEST_QUERY = "//article[/year in 1990..1999]/title!"
ROUND_SLICES = 8
CLI_CYCLE = "qgqgr"  # query, get, stats (an RDF slot runs "store stats")
SWEEP_PEERS = (4, 16, 64)
SWEEP_SEED, SWEEP_ARTICLES = 0, 16
FAILED = object()
# Speed normalization.  On machines shared with other tenants a CPU changes
# speed by tens of percent within seconds, alike for all interpreted code
# running on it (run.py pins the benchmark to one CPU for that reason).
# Between operations the benchmark times a fixed pure-Python kernel (at
# most once per CAL_EVERY seconds) and reports each operation's wall time
# rescaled to the speed at which the kernel takes K_REF seconds, using the
# median kernel time among the nearest CAL_WINDOW kernel runs.  After an
# operation longer than CAL_EVERY the kernel runs CAL_BURST times at once,
# so a long operation is bracketed by kernel runs.
K_REF = 0.002
CAL_EVERY = 0.05
CAL_BURST = 5
CAL_WINDOW = 10


def config(backend: str, peers: int = 8, snapshot_path: str = "store.snap") -> StoreConfig:
    return StoreConfig(
        backend=backend, peer_count=peers,
        resource_granularity=set(GRANULARITY), snapshot_path=snapshot_path,
    )


def triples(rows) -> list[Triple]:
    return [Triple(*row) for row in rows]


def conjunctive(op: gen.Op) -> ConjunctiveQuery:
    patterns, projection = op.args
    return ConjunctiveQuery([TriplePattern(*p) for p in patterns], list(projection))


def doc_ids(doc: gen.Doc) -> list[str]:
    """Resource ids ``store_resource`` returns for a generated document."""
    ids = [rid(doc.doc_id, doc.root)]
    for art in doc.articles:
        ids.append(rid(doc.doc_id, art.elem))
        ids.extend(rid(doc.doc_id, sec) for sec in art.elem.all("sec"))
    return ids


def pairs(resources) -> list[tuple[str, str]]:
    return [(r.resource_id, r.payload) for r in resources]


def workdir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def percentile(values: list[float], p: float) -> float:
    """Percentile by linear interpolation between ranks, ``p`` in [0, 1]."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    low = math.floor(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def kernel() -> None:
    """Fixed calibration work: dicts, tuples, strings and a sort.

    The collector is off while it runs, so its time does not grow with
    the heap the store has built.
    """
    gc.disable()
    try:
        table = {}
        for i in range(4500):
            key = (i * 7919) % 3001
            table[key] = (i, str(key))
        sorted(table.values())
    finally:
        gc.enable()


class Run:
    """Samples, exact counts and failure accounting of one benchmark run.

    A sample is a list of (start, seconds) parts: one part for a single
    operation, several for a set-up made of many operations.
    """

    def __init__(self, workload: str, input_bytes: int, tracer: Tracer | None):
        self.workload = workload
        self.input_bytes = input_bytes
        self.tracer = tracer
        self.samples: dict[str, list[list[tuple[float, float]]]] = {}
        self.cal_start: list[float] = []
        self.cal_seconds: list[float] = []
        self._group: list[tuple[float, float]] | None = None
        self.exact: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_mb = 0.0

    def op(self, key: str | None, fn, *args, per: int = 1):
        """Time one operation; returns FAILED if it raised.

        ``per`` > 1 marks a burst of that many like calls, recorded as one
        sample of their mean time.
        """
        self.attempted += 1
        if self.tracer is None:
            self._calibrate()
        else:
            self.tracer.op_id = self.attempted
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation, not a crash
            self.fail(f"{key}: {exc!r}")
            return FAILED
        part = (start, (time.perf_counter() - start) / per)
        if part[1] * per > CAL_EVERY and self.tracer is None:
            for _ in range(CAL_BURST):
                self._calibrate(force=True)
        if self._group is not None:
            self._group.append(part)
        if key is not None:
            self.samples.setdefault(key, []).append([part])
        return result

    @contextlib.contextmanager
    def group(self, key: str):
        """Record the operations inside the block as one sample."""
        self._group = []
        try:
            yield
        finally:
            self.samples.setdefault(key, []).append(self._group)
            self._group = None

    def _calibrate(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and self.cal_start and now - self.cal_start[-1] < CAL_EVERY:
            return
        kernel()
        self.cal_start.append(now)
        self.cal_seconds.append(time.perf_counter() - now)

    def scale(self, at: float) -> float:
        """K_REF over the local kernel time around ``at``; 1 if uncalibrated."""
        if not self.cal_start:
            return 1.0
        i = bisect.bisect(self.cal_start, at)
        half = CAL_WINDOW // 2
        near = self.cal_seconds[max(0, i - half) : i + half]
        return K_REF / statistics.median(near)

    def values(self, key: str, normalized: bool) -> list[float]:
        """Seconds per sample, as measured or speed-normalized."""
        return [
            sum(sec * (self.scale(at) if normalized else 1.0) for at, sec in parts)
            for parts in self.samples.get(key, [])
        ]

    def check(self, result, expected, what: str) -> None:
        if result is not FAILED and result != expected:
            self.fail(f"wrong answer: {what}")

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


# -- shared pieces ---------------------------------------------------------------


def ingest(run: Run, store: Store, docs: list[gen.Doc]) -> None:
    for doc in docs:
        run.check(run.op(None, store.store_resource, doc.xml), doc_ids(doc),
                  f"ids of document {doc.doc_id}")


def snapshot_restore(run: Run, store: Store, path: Path, repeats: int, probe,
                     restore_key: str | None = "restore") -> Store:
    """Time snapshot and restore; the restored store must report the same stats."""
    for _ in range(2 * repeats):  # a snapshot is cheap and short, so take more
        run.op("snapshot", store_module.snapshot, store, str(path))
    # the first call of a run defines the exact ratio and the stats report
    run.exact.setdefault("snapshot_bytes_per_input_byte",
                         path.stat().st_size / run.input_bytes)
    saved = store.stats_report()
    run.info.setdefault("stats_report", saved)
    restored = FAILED
    for _ in range(repeats):
        restored = None
        gc.collect()  # a store holds reference cycles; free the last one first
        restored = run.op(restore_key, store_module.restore, str(path))
        if restored is not FAILED:
            run.check(restored.stats_report(), saved, "restored stats report")
            probe(restored)
    return restored


def timed_passes(run: Run, seconds: float, do_pass) -> None:
    """Traced run: alternate untraced and traced passes of the same operations."""
    tracer = run.tracer
    plain = traced = 0.0
    start = time.perf_counter()
    first = True
    while first or time.perf_counter() - start < seconds:
        tracer.uninstall()
        t0 = time.perf_counter()
        do_pass(False)
        plain += time.perf_counter() - t0
        tracer.install()
        before = tracer.counts.copy()
        t0 = time.perf_counter()
        do_pass(first)
        traced += time.perf_counter() - t0
        if first:
            run.info["pass_counts"] = tracer.counts - before
        first = False
    run.layers["trace.overhead_ratio"] = traced / plain - 1.0


# -- p2p-query and central-query ------------------------------------------------------


def query_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    sizes = SIZES[name]
    backend = P2P if name == "p2p-query" else CENTRALIZED
    corpus = gen.make_corpus(seed, sizes["articles"], sizes["per_doc"])
    run = Run(name, corpus.input_bytes, Tracer() if trace else None)
    work = workdir(name)

    def setup() -> Store:
        with run.group("setup"):
            store = run.op(None, Store, config(backend, sizes.get("peers", 8)))
            ingest(run, store, corpus.docs)
            run.op(None, store.rdf_load, triples(corpus.triples))
        return store

    expected = Expected(corpus, backend)
    if run.tracer is not None:
        run.tracer.install()
    store = None
    for _ in range(1 if trace else SETUPS):
        store = None  # release the previous set-up before building the next
        gc.collect()
        store = setup()

    answers: list[tuple[gen.Op, object]] = []
    exact = {"msgs": 0, "bytes": 0, "queries": 0}

    def do(op: gen.Op, count: bool) -> None:
        if op.kind == "query":
            result = run.op("query", store.query, op.text)
            if result is FAILED:
                answers.append((op, result))
                return
            if count:
                exact["msgs"] += result.stats.messages_sent
                exact["bytes"] += result.stats.bytes_sent
                exact["queries"] += 1
            answers.append((op, pairs(result.resources)))
        elif op.kind == "get":
            got = run.op("get", lambda: [store.get_resource(r).payload for r in op.args],
                         per=len(op.args))
            for i, resource_id in enumerate(op.args):
                answers.append((gen.Op("get", "get", resource_id),
                                got if got is FAILED else got[i]))
        else:
            answers.append((op, run.op("rdf", store.rdf_query, conjunctive(op))))

    stream = gen.op_stream(seed, corpus)
    first_pass = [next(stream) for _ in range(sizes["pass_ops"])]
    if trace:
        def do_pass(count: bool) -> None:
            for op in first_pass:
                do(op, count)
        timed_passes(run, seconds, do_pass)
    else:
        start = time.perf_counter()
        for op in first_pass:
            do(op, True)
        while time.perf_counter() - start < seconds:
            do(next(stream), False)
    # a traced run repeats one pass, so its share is that of the pass
    texts = [op.text for op in (first_pass if trace else (op for op, _ in answers))
             if op.kind == "query"]
    run.info["query_repeat_share"] = gen.repeat_share(texts)

    if run.tracer is not None:
        run.tracer.uninstall()  # the reference store's work is not the workload's
    for op, answer in answers:
        run.check(answer, expected.answer(op), f"{op.kind} {op.text}")
    if run.tracer is not None:
        run.tracer.install()
    if exact["queries"] and backend == P2P:
        run.exact["query_msgs_per_op"] = exact["msgs"] / exact["queries"]
        run.exact["query_bytes_per_op"] = exact["bytes"] / exact["queries"]

    probe_op = next(op for op in first_pass if op.kind == "query")

    def probe(restored: Store) -> None:
        run.check(run.op(None, lambda: pairs(restored.query(probe_op.text).resources)),
                  expected.answer(probe_op), "query on the restored store")

    path = work / "store.snap"
    snapshot_restore(run, store, path, 1 if trace else REPEATS, probe)
    run.info["snapshot_path"] = path
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


class Expected:
    """Expected answers: a centralized store for p2p, the records otherwise."""

    def __init__(self, corpus: gen.Corpus, backend: str):
        self.corpus = corpus
        self.resources = corpus.resources()
        self.reference = None
        if backend == P2P:
            self.reference = Store(config(CENTRALIZED))
            for doc in corpus.docs:
                self.reference.store_resource(doc.xml)
            self.reference.rdf_load(triples(corpus.triples))
        self._memo: dict[gen.Op, object] = {}

    def answer(self, op: gen.Op):
        if op not in self._memo:
            self._memo[op] = self._compute(op)
        return self._memo[op]

    def _compute(self, op: gen.Op):
        ref = self.reference
        if op.kind == "get":
            if ref is not None:
                return ref.get_resource(op.text).payload
            return self.resources[op.text]
        if op.kind == "rdf":
            if ref is not None:
                return ref.rdf_query(conjunctive(op))
            return gen.expected_rdf(self.corpus, op)
        if ref is not None:
            return pairs(ref.query(op.text).resources)
        return gen.expected_query(self.corpus, op)


# -- p2p-ingest ----------------------------------------------------------------------------


def ingest_workload(seed: int, seconds: float, trace: bool) -> Run:
    """Rounds of: a fresh 32-peer store with a small base (the set-up), a
    stream of one-article documents with interleaved gets, RDF loads and one
    fixed query, then snapshots and restores of the resulting store.  Every
    round has the same shape; round r streams slice r % ROUND_SLICES of the
    corpus, so the run samples more documents.  The traced run and the exact
    counts use slice 0."""
    sizes = SIZES["p2p-ingest"]
    n_base, n_stream = sizes["base"], sizes["stream"]
    corpus = gen.make_corpus(seed, n_base + n_stream * ROUND_SLICES, 1)
    base = corpus.docs[:n_base]
    run = Run("p2p-ingest", 1, Tracer() if trace else None)
    work = workdir("p2p-ingest")
    path = work / "store.snap"
    rounds: dict[int, tuple] = {}

    def plan(slice_index: int) -> tuple:
        """The slice's documents, renumbered as a fresh store numbers them,
        its triples, its input bytes and the expected fixed-query answers."""
        first = n_base + slice_index * n_stream
        stream = [replace(doc, doc_id=n_base + i)
                  for i, doc in enumerate(corpus.docs[first : first + n_stream], 1)]
        rows = corpus.triples[3 * first : 3 * (first + n_stream)]
        reference = Store(config(CENTRALIZED))
        for doc in base + stream:
            reference.store_resource(doc.xml)
        expected = {}
        for i in range(sizes["query_every"], n_stream + 1, sizes["query_every"]):
            docs = base + stream[:i]
            expected[i] = [(a, b) for a, b in pairs(reference.query(INGEST_QUERY).resources)
                           if int(a.split("#")[0]) <= docs[-1].doc_id]
        size = sum(len(doc.xml.encode("utf-8")) for doc in base + stream)
        return stream, rows, size, expected

    def one_round(slice_index: int, count: bool) -> None:
        if slice_index not in rounds:
            rounds[slice_index] = plan(slice_index)
        stream, rows, size, expected = rounds[slice_index]
        gc.collect()  # free the previous round's stores
        with run.group("setup"):
            store = run.op(None, Store, config(P2P, sizes["peers"]))
            ingest(run, store, base)
            run.op(None, store.rdf_load, triples(corpus.triples[: 3 * n_base]))
        msgs = 0
        for i, doc in enumerate(stream, 1):
            before = store.stats.messages_sent
            run.check(run.op("ingest", store.store_resource, doc.xml), doc_ids(doc),
                      f"ids of document {doc.doc_id}")
            msgs += store.stats.messages_sent - before
            art = doc.articles[0]
            got = run.op("get", store.get_resource, rid(doc.doc_id, art.elem))
            run.check(got if got is FAILED else got.payload, art.elem.xml,
                      f"get after ingest of document {doc.doc_id}")
            if i % sizes["rdf_every"] == 0:
                batch = triples(rows[3 * (i - sizes["rdf_every"]) : 3 * i])
                run.check(run.op("rdf_load", store.rdf_load, batch), len(batch),
                          "rdf_load count")
            if i % sizes["query_every"] == 0:
                got = run.op("query", store.query, INGEST_QUERY)
                run.check(got if got is FAILED else pairs(got.resources), expected[i],
                          f"fixed query after {i} documents")
        if count:
            run.exact["ingest_msgs_per_doc"] = msgs / n_stream
        final = expected[max(expected)]

        def probe(restored: Store) -> None:
            run.check(run.op(None, lambda: pairs(restored.query(INGEST_QUERY).resources)),
                      final, "query on the restored store")

        run.input_bytes = size
        snapshot_restore(run, store, path, 1 if trace else 2, probe)

    if trace:
        timed_passes(run, seconds, lambda count: one_round(0, count))
    else:
        start = time.perf_counter()
        one_round(0, True)
        r = 1
        while time.perf_counter() - start < seconds:
            one_round(r % ROUND_SLICES, False)
            r += 1
    run.info["snapshot_path"] = path
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return run


# -- cli-session -------------------------------------------------------------------------------


def cli_workload(seed: int, seconds: float, trace: bool) -> Run:
    sizes = SIZES["cli-session"]
    corpus = gen.make_corpus(seed, sizes["articles"], sizes["per_doc"])
    run = Run("cli-session", corpus.input_bytes, Tracer() if trace else None)
    work = workdir("cli-session")
    snap = work / "store.snap"
    cfg = work / "store.cfg"
    cfg.write_text(config(P2P, sizes["peers"], str(snap)).to_text(), encoding="utf-8")
    files = []
    for doc in corpus.docs:
        files.append(work / f"doc{doc.doc_id}.xml")
        files[-1].write_text(doc.xml, encoding="utf-8")
    resources = corpus.resources()
    restore_seconds: list[float] = []

    def command(*argv: str) -> tuple[int, str, str]:
        """One ``store`` process; its restore time joins the restore samples."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_child.py"), *argv, "--config", str(cfg)],
            capture_output=True, text=True, env=child_env(), timeout=150,
        )
        err, _, last = proc.stderr.rstrip("\n").rpartition("\n")
        if last.startswith(RESTORE_LINE) and argv[0] != "init":
            restore_seconds.append(float(last[len(RESTORE_LINE) :]))
        return proc.returncode, proc.stdout, err + "\n" if err else ""

    def in_process(*argv: str) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--config", str(cfg)])
        return code, out.getvalue(), err.getvalue()

    for _ in range(SETUPS):
        with run.group("setup"):
            got = run.op(None, command, "init")
            run.check(got if got is FAILED else got[0], 0, "store init")
            got = run.op(None, command, "ingest", *map(str, files))
        want = "".join(f"{f}: {' '.join(doc_ids(d))}\n" for f, d in zip(files, corpus.docs))
        run.check(got if got is FAILED else got[:2], (0, want), "store ingest")
        if trace:
            break
    # the snapshot as set up; commands later rewrite it with grown stats
    snapshot_bytes = snap.stat().st_size

    ops = gen.op_stream(seed, corpus, CLI_CYCLE)
    state = {"total": (0, 0), "msgs": 0, "bytes": 0, "queries": 0}

    def do(op: gen.Op, runner, count: bool) -> None:
        if op.kind == "query":
            argv, want = ("query", op.text), "".join(
                f"{i}\t{p}\n" for i, p in gen.expected_query(corpus, op))
        elif op.kind == "get":
            argv, want = ("get", op.args[0]), resources[op.args[0]] + "\n"
        else:
            argv, want = ("stats",), None
        got = run.op("cli", runner, *argv)
        if got is FAILED:
            return
        start = run.samples["cli"][-1][0][0]
        if restore_seconds:
            run.samples.setdefault("restore", []).append([(start, restore_seconds.pop())])
        if op.kind == "get":
            run.samples.setdefault("get", []).append(run.samples["cli"][-1])
        code, out, err = got
        if want is not None:
            run.check((code, out), (0, want), " ".join(argv))
        else:
            check_stats(run, state, code, out)
        if op.kind == "query" and count and code == 0:
            words = err.split()  # "transferred B bytes in M messages"
            state["bytes"] += int(words[1])
            state["msgs"] += int(words[4])
            state["queries"] += 1

    first_pass = [next(ops) for _ in range(sizes["pass_ops"])]
    if trace:
        def do_pass(count: bool) -> None:
            for op in first_pass:
                do(op, in_process, count)
        timed_passes(run, seconds, do_pass)
    else:
        start = time.perf_counter()
        for op in first_pass:
            do(op, command, True)
        while time.perf_counter() - start < seconds:
            do(next(ops), command, False)
    if state["queries"]:
        run.exact["query_msgs_per_op"] = state["msgs"] / state["queries"]
        run.exact["query_bytes_per_op"] = state["bytes"] / state["queries"]

    store = run.op(None, store_module.restore, str(snap))
    if store is not FAILED:
        # restores were timed inside the commands; these only check
        snapshot_restore(run, store, work / "copy.snap", 1 if trace else REPEATS,
                         lambda restored: None, restore_key=None)
        run.exact["snapshot_bytes_per_input_byte"] = snapshot_bytes / run.input_bytes
    run.info["snapshot_path"] = snap
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return run


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_stats(run: Run, state: dict, code: int, out: str) -> None:
    """``store stats``: edge lines sum to the total, which never decreases."""
    lines = [line.split() for line in out.splitlines()]
    ok = code == 0 and lines and lines[-1][0] == "total"
    if ok:
        edges = [tuple(map(int, parts)) for parts in lines[:-1]]
        total = (int(lines[-1][1]), int(lines[-1][2]))
        ok = (total == (sum(e[2] for e in edges), sum(e[3] for e in edges))
              and total >= state["total"])
        state["total"] = total
    if not ok:
        run.fail("store stats report")


# -- entry point -------------------------------------------------------------------------------

WORKLOADS = ("p2p-query", "p2p-ingest", "central-query", "cli-session")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    if name in ("p2p-query", "central-query"):
        run = query_workload(name, seed, seconds, trace)
    elif name == "p2p-ingest":
        run = ingest_workload(seed, seconds, trace)
    elif name == "cli-session":
        run = cli_workload(seed, seconds, trace)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if trace:
        import layers  # only the traced run needs the per-layer derivation

        run.tracer.uninstall()
        layers.derive(run)
        run.tracer.write(str(WORK / f"trace-{name}.jsonl"))
    return run
