"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is deferred.
"""

import random
import time

from twigstore import planner
from twigstore.document import serialize_document
from twigstore.netsim import Network
from twigstore.overlay import DhtService, Overlay
from twigstore.planner import PlanBuilder, decompose, execute, place
from twigstore.rdfstore import (
    ConjunctiveQuery,
    Triple,
    eval_conjunctive,
    eval_nested_loop,
    index_triples,
    parse_query_text,
)
from twigstore.store import Store, StoreConfig, snapshot
from twigstore.twigjoin import eval_naive

from helpers import (
    check_partition,
    check_ring,
    dataset_to_bindings,
    eval_local,
    index_corpus,
    make_cluster,
    planner_bindings,
    random_corpus,
    random_pattern,
    random_pattern_text,
    skew_cluster,
)
from test_rdfstore import OBJECTS, PREDICATES, SUBJECTS, random_query


class Criterion:
    """Context manager printing the criterion verdict and enforcing its budget."""

    def __init__(self, number: int, name: str, budget_s: float):
        self.number = number
        self.name = name
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"CRITERION {self.number} ({self.name}): {verdict} "
              f"[{elapsed:.1f}s / budget {self.budget_s:.0f}s]")
        if exc_type is None:
            assert elapsed < self.budget_s, (
                f"criterion {self.number} exceeded its {self.budget_s}s budget"
            )
        return False


def test_criterion_1_tree_pattern_oracle_equivalence():
    with Criterion(1, "tree-pattern oracle equivalence", 60):
        rng = random.Random(0xC1)
        trials = 0
        while trials < 500:
            max_docs = 50 if trials % 100 == 0 else rng.randint(2, 12)
            max_nodes = 60 if trials % 20 == 0 else rng.randint(5, 40)
            store = Store(StoreConfig(backend="p2p", peer_count=4))
            for doc in random_corpus(rng, max_docs=max_docs, max_nodes=max_nodes):
                store.store_resource(serialize_document(doc))
            docs = list(store.documents.values())
            for _ in range(5):
                pattern = random_pattern(rng, max_nodes=5)
                naive = eval_naive(pattern, docs)
                assert planner_bindings(store, pattern) == naive, (
                    f"divergence on {pattern}"
                )
                assert eval_local(pattern, docs) == naive, (
                    f"local divergence on {pattern}"
                )
                trials += 1
        assert trials >= 500


def _pipeline_trial(rng, collect_bytes=None):
    docs = random_corpus(rng, max_docs=6, max_nodes=40)
    net, dht, index = make_cluster(4)
    homes = index_corpus(index, docs, [1, 2, 3, 4])
    ctx = planner.ExecutionContext(index, homes)
    builder = PlanBuilder(dht, 1)
    pattern = random_pattern(rng, max_nodes=5)
    want = eval_naive(pattern, docs)
    naive_plan = builder.build(decompose(pattern)).kids[0]
    placed_plan = place(naive_plan, index.stats, 1)
    placed_result, placed_delta = execute(placed_plan, ctx)
    assert dataset_to_bindings(pattern, placed_plan, placed_result) == want, (
        f"pipeline divergence on {pattern}"
    )
    if collect_bytes is not None:
        naive_result, naive_delta = execute(naive_plan, ctx)
        assert dataset_to_bindings(pattern, naive_plan, naive_result) == want
        collect_bytes.append((placed_delta.bytes_sent, naive_delta.bytes_sent))


def test_criterion_2_end_to_end_plan_correctness():
    with Criterion(2, "end-to-end plan correctness", 60):
        rng = random.Random(0xC2)
        for _ in range(200):
            _pipeline_trial(rng)


def test_criterion_3_transfer_reduction():
    with Criterion(3, "transfer reduction", 10):
        net, index, ctx, builder, pattern, _, doc = skew_cluster(1000, 10)
        dec = decompose(pattern)
        naive_plan = builder.build(dec).kids[0]
        placed_plan = place(naive_plan, index.stats, 1)
        want = eval_naive(pattern, [doc])
        naive_result, naive_delta = execute(naive_plan, ctx)
        placed_result, placed_delta = execute(placed_plan, ctx)
        assert dataset_to_bindings(pattern, naive_plan, naive_result) == want
        assert dataset_to_bindings(pattern, placed_plan, placed_result) == want
        assert placed_delta.bytes_sent <= 0.2 * naive_delta.bytes_sent, (
            f"placed {placed_delta.bytes_sent} vs naive {naive_delta.bytes_sent}"
        )
        # no regression across randomized trials
        rng = random.Random(0xC3)
        measured: list[tuple[int, int]] = []
        for _ in range(120):
            _pipeline_trial(rng, collect_bytes=measured)
        for placed_bytes, naive_bytes in measured:
            assert placed_bytes <= naive_bytes, (placed_bytes, naive_bytes)


def test_criterion_4_dht_consistency_under_churn():
    with Criterion(4, "DHT consistency under churn", 30):
        rng = random.Random(0xC4)
        pool = list(range(1, 40))
        net = Network()
        dht = DhtService(net)
        for p in pool:
            dht.add_peer(p)
        overlays = (dht.hash, dht.range)
        members: dict[Overlay, list[int]] = {ov: [] for ov in overlays}
        for p in pool[:3]:
            for ov in overlays:
                dht.join(ov, p)
                members[ov].append(p)
        shadow: dict[Overlay, dict[str, list[bytes]]] = {ov: {} for ov in overlays}

        for step in range(1000):
            ov = rng.choice(overlays)
            roll = rng.random()
            if roll < 0.10 and len(members[ov]) < 16:
                p = rng.choice([q for q in pool if q not in members[ov]])
                dht.join(ov, p)
                members[ov].append(p)
            elif roll < 0.18 and len(members[ov]) > 3:
                p = rng.choice(members[ov])
                dht.leave(ov, p)
                members[ov].remove(p)
            elif roll < 0.62:
                key = f"key{rng.randint(0, 60):03d}"
                value = f"v{step}".encode()
                dht.put(ov, rng.choice(members[ov]), [(key, value)])
                shadow[ov].setdefault(key, []).append(value)
            else:
                key = f"key{rng.randint(0, 60):03d}"
                via = rng.choice(members[ov])
                if ov is dht.hash:
                    got = dht.get(via, key)
                else:  # the range overlay reads the one-key interval
                    got = dht.get_range(via, key, key + "\x00")
                assert sorted(got) == sorted(shadow[ov].get(key, [])), (
                    f"step {step}: get({key}) diverged from shadow map"
                )
            check_ring(dht.hash)
            check_partition(dht.range)


def test_criterion_5_interval_search():
    with Criterion(5, "interval search", 10):
        rng = random.Random(0xC5)
        pool = list(range(1, 30))
        net = Network()
        dht = DhtService(net)
        for p in pool:
            dht.add_peer(p)
        ov = dht.range
        members = []
        for p in pool[:4]:
            dht.join(ov, p)
            members.append(p)
        shadow: dict[str, list[bytes]] = {}
        for step in range(1000):
            roll = rng.random()
            if roll < 0.06 and len(members) < 12:
                p = rng.choice([q for q in pool if q not in members])
                dht.join(ov, p)
                members.append(p)
            elif roll < 0.10 and len(members) > 2:
                p = rng.choice(members)
                dht.leave(ov, p)
                members.remove(p)
            elif roll < 0.55:
                key = f"key{rng.randint(0, 80):03d}"
                value = f"v{step}".encode()
                dht.put(ov, rng.choice(members), [(key, value)])
                shadow.setdefault(key, []).append(value)
            else:
                lo = f"key{rng.randint(0, 80):03d}"
                hi = f"key{rng.randint(0, 80):03d}"
                via = rng.choice(members)
                before = net.stats.copy()
                got = dht.get_range(via, lo, hi)
                delta = net.stats.delta_since(before)
                # key order, then put order
                want = [v for k in sorted(shadow) if lo <= k < hi for v in shadow[k]]
                assert got == want, f"step {step}: range scan diverged"
                if lo < hi:
                    # member i owns [bounds[i], bounds[i + 1]), the last one
                    # every key from its boundary up
                    blo, bhi = lo.encode(), hi.encode()
                    tops = ov.bounds[1:] + [None]
                    expected_contacts = tuple(
                        owner for owner, start, top in zip(ov.owners, ov.bounds, tops)
                        if (top is None or top > blo) and start < bhi
                    )
                else:
                    expected_contacts = ()
                assert tuple(ov.intersecting(lo, hi)) == expected_contacts
                # via scans its own interval; each other intersecting peer
                # gets one range scan and sends one answer, no one else a byte
                others = [p for p in expected_contacts if p != via]
                assert {edge: msgs for edge, (msgs, _) in delta.per_edge.items()} == {
                    **{(via, p): 1 for p in others}, **{(p, via): 1 for p in others}
                }


def test_criterion_6_o1_resource_access(tmp_path):
    with Criterion(6, "O(1) resource access", 30):
        for backend, sizes in (("centralized", (100, 1000, 10000)),
                               ("p2p", (100,))):
            for target in sizes:
                per_doc = 99
                doc_count = max(1, target // (per_doc + 1))
                config = StoreConfig(
                    backend=backend,
                    peer_count=4,
                    resource_granularity={"p"},
                    snapshot_path=str(tmp_path / "a.snap"),
                )
                store = Store(config)
                ids = []
                body = "".join(f"<p>w{i}</p>" for i in range(per_doc))
                for _ in range(doc_count):
                    ids.extend(store.store_resource(f"<r>{body}</r>"))
                assert len(ids) >= min(target, doc_count * (per_doc + 1))
                rng = random.Random(target)
                for _ in range(40):
                    rid = rng.choice(ids)
                    before = store.probe_count
                    store.get_resource(rid)
                    assert store.probe_count - before == 1, (
                        f"{backend}@{target}: probes != 1"
                    )


def test_criterion_7_backend_transparency(tmp_path):
    with Criterion(7, "backend transparency", 60):
        rng = random.Random(0xC7)
        trials = 0
        while trials < 200:
            central = Store(StoreConfig(
                backend="centralized", snapshot_path=str(tmp_path / "c.snap"),
                resource_granularity=set(),
            ))
            p2p = Store(StoreConfig(
                backend="p2p", peer_count=4,
                snapshot_path=str(tmp_path / "p.snap"),
                resource_granularity=set(),
            ))
            docs = random_corpus(rng, max_docs=5, max_nodes=25)
            for doc in docs:
                text = serialize_document(doc)
                assert central.store_resource(text) == p2p.store_resource(text)
            for _ in range(8):
                pattern_text = random_pattern_text(rng, max_nodes=5)
                a = central.query(pattern_text)
                b = p2p.query(pattern_text)
                assert [(r.resource_id, r.payload) for r in a.resources] == [
                    (r.resource_id, r.payload) for r in b.resources
                ], f"transparency broke on {pattern_text}"
                assert a.stats.bytes_sent == 0
                trials += 1


def test_criterion_8_rdf_conjunctive_queries():
    with Criterion(8, "RDF conjunctive queries", 20):
        rng = random.Random(0xC8)
        trials = 0
        while trials < 200:
            triples = list(
                {
                    Triple(rng.choice(SUBJECTS), rng.choice(PREDICATES),
                           rng.choice(OBJECTS))
                    for _ in range(rng.randint(5, 120))
                }
            )
            net, dht, index = make_cluster(4, with_range=False)
            index_triples(triples, 1, dht)
            for _ in range(20):
                query = random_query(rng, triples)
                if query is None:
                    continue
                got = eval_conjunctive(query, 1, dht)
                assert got == eval_nested_loop(query, triples)
                shuffled = list(query.patterns)
                rng.shuffle(shuffled)
                assert eval_conjunctive(
                    ConjunctiveQuery(shuffled, query.projection), 1, dht
                ) == got
                trials += 1


def _determinism_scenario(tmp_path, run_no: int) -> str:
    """Every traffic source once: ingest, twig queries, ranges, rdf, fetches."""
    config = StoreConfig(
        backend="p2p", peer_count=5,
        resource_granularity={"b"},
        snapshot_path=str(tmp_path / f"det{run_no}.snap"),
    )
    store = Store(config)
    rng = random.Random(0xD0)
    reports = []
    for doc in random_corpus(rng, max_docs=8, max_nodes=35):
        store.store_resource(serialize_document(doc))
    for pattern_text in ("//a!", "//a[/b]!", '//b="xml"!', "//c in 1990..2005!",
                         "//a//*[/b]!"):
        result = store.query(pattern_text)
        reports.append(result.stats.report())
    store.rdf_load([Triple("a", "type", "Doc"), Triple("a", "author", "b")])
    store.rdf_query(parse_query_text("SELECT ?x\n?x type Doc\n"))
    store.get_resource("1#1")
    snapshot(store, str(tmp_path / f"det{run_no}.snap"))
    reports.append(store.stats.report())
    return "\n--\n".join(reports)


def test_criterion_9_determinism(tmp_path):
    with Criterion(9, "determinism", 60):
        first = _determinism_scenario(tmp_path, 1)
        second = _determinism_scenario(tmp_path, 2)
        assert first == second
        assert first.encode("utf-8") == second.encode("utf-8")
