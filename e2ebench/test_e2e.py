#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

    python3 e2ebench/test_e2e.py

Builds e2e_bench like run.py does, then runs every workload small:
  * twice with one seed — the exact work counters and the compression
    ratio must be identical, and so must the generated inputs;
  * once with another seed — the generated inputs must differ;
  * once traced — the trace must nest cleanly, the replayed write legs
    must not outgrow the real write (median publish leg not negative,
    median unattributed leg above -10% of the write), and the read-only
    workload must show no write-path work.
Each small run makes exactly two rounds (each round draws its own
inputs from the seed), and both rounds' counters are compared.
"""

import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import trace_table  # noqa: E402

EXACT = ("compression_ratio", "repair.rounds", "repair.rules_rescanned",
         "repair.replacements", "service.merges", "store.fsyncs",
         "store.journal_bytes", "store.replayed_batches",
         "query.rules_visited", "query.memo_entries", "query.memo_hits")

WRITE_PATH_PREFIXES = ("update.", "grammar.", "repair.", "store.",
                       "tree_repair", "service.write", "service.merge")

BINARY = None


def setUpModule():
    global BINARY
    BINARY = run.build()
    if BINARY is None:
        raise RuntimeError("e2e_bench did not build")


def small(workload, seed, trace=0):
    """Runs a small two-round e2e_bench; traced runs also return the trace."""
    workdir = tempfile.mkdtemp(prefix="e2e-test-", dir=run.build_dir())
    try:
        result = run.run_binary(BINARY, workload, seed, 0, trace, workdir,
                                extra=("--small",))
        if trace:
            return result, trace_table.load(os.path.join(workdir, "trace.json"))
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


class DeterminismTest(unittest.TestCase):
    def check_workload(self, workload):
        a = small(workload, 7)
        b = small(workload, 7)
        c = small(workload, 8)
        for r in (a, b, c):
            self.assertTrue(r["correct"], r["errors"])
            self.assertEqual(r["failed"], 0)
        self.assertEqual(len(a["round_counters"]), 2)
        self.assertEqual(len(b["round_counters"]), 2)
        for ra, rb in zip(a["round_counters"], b["round_counters"]):
            for key in EXACT:
                self.assertIn(key, ra)
                self.assertEqual(ra[key], rb[key], key)
        self.assertEqual(a["inputs_digest"], b["inputs_digest"])
        self.assertNotEqual(a["inputs_digest"], c["inputs_digest"])
        return a["round_counters"][0]

    def test_mixed_medline(self):
        a = self.check_workload("mixed-medline")
        self.assertGreater(a["service.merges"], 0)
        self.assertGreater(a["repair.rules_rescanned"], 0)
        self.assertEqual(a["store.fsyncs"], 0)

    def test_durable_treebank(self):
        a = self.check_workload("durable-treebank")
        self.assertGreater(a["store.fsyncs"], 0)
        self.assertGreater(a["store.replayed_batches"], 0)

    def test_query_xmark(self):
        a = self.check_workload("query-xmark")
        self.assertEqual(a["service.merges"], 0)
        self.assertEqual(a["repair.rounds"], 0)
        self.assertGreater(a["query.rules_visited"], 0)


class TraceTest(unittest.TestCase):
    def test_replayed_legs_fit_in_the_write(self):
        for workload in ("mixed-medline", "durable-treebank"):
            result, (spans, violations) = small(workload, 7, trace=1)
            self.assertTrue(result["correct"], result["errors"])
            self.assertEqual(violations, [])
            split = trace_table.write_split(spans)
            self.assertGreater(len(split), 0)
            # GrammarSnapshot::Make contains the two index builds, so
            # its remainder (the publish leg) cannot be negative.
            publish = trace_table.median([s["publish"] for s in split])
            self.assertGreaterEqual(publish, 0, workload)
            # The real write's own extra work (lock, commit bookkeeping)
            # is tens of microseconds, within the per-sample noise, so
            # its median may dip below zero; replayed legs that outgrow
            # the real write by a tenth mean a leg is counted twice or
            # times work the write does not do.
            write = trace_table.median([s["write"] for s in split])
            unattributed = trace_table.median([s["unattributed"] for s in split])
            self.assertGreaterEqual(unattributed, -0.1 * write, workload)
            store = [s["store"] for s in split]
            if workload == "durable-treebank":
                self.assertTrue(all(v > 0 for v in store))
            else:
                self.assertTrue(all(v == 0 for v in store))

    def test_read_only_workload_does_no_write_path_work(self):
        result, (spans, violations) = small("query-xmark", 7, trace=1)
        self.assertTrue(result["correct"], result["errors"])
        self.assertEqual(violations, [])
        # Ingest runs the pipeline's repairs; serving may not.
        wins = trace_table.windows(spans)
        serving = [s.name for s in spans
                   if trace_table.phase_of(s, wins) != "setup"
                   and s.name.startswith(WRITE_PATH_PREFIXES)]
        self.assertEqual(serving, [])
        self.assertEqual(trace_table.write_split(spans), [])
        names = {s.name for s in spans}
        self.assertIn("query.eval", names)
        self.assertIn("read.label_at", names)


if __name__ == "__main__":
    unittest.main()
