"""The benchmark's own checks: exact counts repeat for a seed, seeds differ.

Run from the repository root:

    python3 -m unittest perfbench/test_perfbench.py

The workloads run on shrunken corpora with ``seconds=0``, so each run is
exactly its first pass.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus as gen  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "p2p-query": {"peers": 8, "articles": 60, "per_doc": 10, "pass_ops": 30},
    "central-query": {"articles": 60, "per_doc": 20, "pass_ops": 20},
    "p2p-ingest": {"peers": 32, "base": 4, "stream": 16, "rdf_every": 8,
                   "query_every": 4},
    "cli-session": {"peers": 8, "articles": 20, "per_doc": 10, "pass_ops": 3},
}
EXACT = ("query_bytes_per_op", "query_msgs_per_op", "ingest_msgs_per_doc",
         "snapshot_bytes_per_input_byte")
EXACT_LAYERS = ("netsim.envelopes", "netsim.drains", "overlay.put_calls",
                "overlay.msgs_per_put", "twigjoin.axis_checks",
                "overlay.msgs_per_put.n64", "overlay.msgs_per_get.n64",
                "store.snapshot_bytes.DOC")


class ShrunkenSizes(unittest.TestCase):
    def setUp(self):
        self.saved = dict(workloads.SIZES), workloads.SETUPS
        workloads.SIZES.update(SMALL)
        workloads.SETUPS = 1

    def tearDown(self):
        workloads.SIZES.clear()
        workloads.SIZES.update(self.saved[0])
        workloads.SETUPS = self.saved[1]

    def run_twice(self, name: str, seed: int, trace: bool):
        runs = [workloads.run_workload(name, seed, 0, trace) for _ in range(2)]
        for run in runs:
            self.assertEqual(run.failed, 0, run.errors)
            self.assertGreater(run.attempted, 0)
        return runs


class ExactCountsRepeat(ShrunkenSizes):
    def test_every_workload_repeats_its_exact_counts(self):
        for name in workloads.WORKLOADS:
            with self.subTest(name):
                first, second = self.run_twice(name, 3, trace=False)
                self.assertTrue(first.exact)
                self.assertEqual({k: first.exact.get(k) for k in EXACT},
                                 {k: second.exact.get(k) for k in EXACT})
                self.assertEqual(first.info["stats_report"], second.info["stats_report"])

    def test_p2p_query_costs_messages(self):
        first, _ = self.run_twice("p2p-query", 4, trace=False)
        self.assertGreater(first.exact["query_msgs_per_op"], 0)
        self.assertGreater(first.exact["query_bytes_per_op"], 0)

    def test_traced_runs_repeat_their_counts(self):
        for name in ("p2p-query", "p2p-ingest"):
            with self.subTest(name):
                first, second = self.run_twice(name, 5, trace=True)
                self.assertGreater(first.layers["netsim.envelopes"], 0)
                self.assertEqual({k: first.layers[k] for k in EXACT_LAYERS},
                                 {k: second.layers[k] for k in EXACT_LAYERS})


class Corpus(unittest.TestCase):
    def test_same_seed_same_corpus(self):
        one, two = gen.make_corpus(7, 30, 5), gen.make_corpus(7, 30, 5)
        self.assertEqual([d.xml for d in one.docs], [d.xml for d in two.docs])
        self.assertEqual(one.triples, two.triples)

    def test_other_seed_other_corpus(self):
        one, two = gen.make_corpus(7, 30, 5), gen.make_corpus(8, 30, 5)
        self.assertNotEqual([d.xml for d in one.docs], [d.xml for d in two.docs])

    def test_query_texts_repeat(self):
        corpus = gen.make_corpus(1, 200, 50)
        stream = gen.op_stream(1, corpus)
        texts = [op.text for op in (next(stream) for _ in range(300)) if op.kind == "query"]
        self.assertGreater(gen.repeat_share(texts), 0)


if __name__ == "__main__":
    unittest.main()
