"""Self-tests of the perfbench benchmark: its correctness oracle, its
watchdog, the exact-count property of the traced ledger and the output
contract.

Run from the repository root (builds the benchmark on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")

SERIAL = ["pingpong_small", "stream_large", "allreduce_hier"]
# threaded_rate runs and is tested, but is not in BENCHMARK.json (see README).
WORKLOADS = SERIAL + ["threaded_rate"]
# Work counts of the traced run. Event and frame counts move with the seed
# only where it changes a protocol decision (segment count, an op crossing
# the eager/rendezvous threshold, window interleaving); byte ratios move
# with every seed.
COUNTS = ["sim.events_per_op", "proto.frames_per_op", "proto.wire_bytes_per_payload_byte",
          "drv.bytes_copied_per_payload_byte", "strat.aggregation_ratio",
          "strat.chunks_per_large_msg", "coll.rounds_per_op",
          "core.rail_guard.acks_per_frame", "core.rail_guard.retransmits_per_op"]


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, seconds=1, trace=0, inject=None, cwd=ROOT, script=RUN):
    cmd = [sys.executable, script, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if inject:
        cmd += ["--inject", inject]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result


class OracleTest(unittest.TestCase):
    def assert_failed_run(self, workload, inject):
        code, result = run(workload, inject=inject)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"], f"{workload} {inject}")
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreaterEqual(result["attempted"], result["failed"])

    def test_corrupted_byte_is_a_failure(self):
        for workload in ["pingpong_small", "stream_large", "allreduce_hier"]:
            self.assert_failed_run(workload, "corrupt")

    def test_dropped_op_is_a_failure(self):
        # Serial worlds drain; the threaded wait trips the library's own
        # stall watchdog, which the benchmark turns into a counted failure.
        for workload in ["pingpong_small", "stream_large", "allreduce_hier",
                         "threaded_rate"]:
            self.assert_failed_run(workload, "drop")

    def test_watchdog_turns_a_hang_into_a_failure(self):
        for workload in ["pingpong_small", "stream_large", "allreduce_hier"]:
            self.assert_failed_run(workload, "stall")

    def test_clean_run_reports_every_end_to_end_metric(self):
        names = {m["name"] for m in spec()["end_to_end"]}
        for workload in WORKLOADS:
            code, result = run(workload)
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0)
            self.assertEqual(set(result["metrics"]), names)
            for name, m in result["metrics"].items():
                self.assertGreater(m["value"], 0, f"{workload} {name}")


class LedgerTest(unittest.TestCase):
    def test_traced_run_reports_every_per_layer_metric(self):
        names = {m["name"] for m in spec()["per_layer"]}
        code, result = run("threaded_rate", trace=1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), names)

    def test_counts_repeat_for_a_seed_and_change_with_it(self):
        for workload in SERIAL:
            runs = [run(workload, seed=s, trace=1)[1] for s in (3, 3, 4)]
            for r in runs:
                self.assertTrue(r["correct"], workload)
            counts = [[r["metrics"][c]["value"] for c in COUNTS] for r in runs]
            self.assertEqual(counts[0], counts[1], workload)
            self.assertNotEqual(counts[0], counts[2], workload)


class ContractTest(unittest.TestCase):
    def test_fails_without_library_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(os.path.join(ROOT, "perfbench"),
                            os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "pingpong_small",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
