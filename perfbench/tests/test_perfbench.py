"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench/tests -v

Builds the benchmark (as perfbench/run.py does) plus the statistics test
binary, then checks:
  - the statistics helpers on hand vectors (tests/stats_test.cpp);
  - exact-count determinism: two runs with one seed and a fixed op count
    give identical wire bytes, pairing and hash-to-point counts per op,
    denial count and cheater count;
  - a different seed gives different inputs.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402  (perfbench/run.py)

# Ops per determinism run: two cheater periods for threshold_robust, two
# revocation writes for sem_gateway_churn.
OPS = {"ibe_decrypt": 24, "gdh_sign_verify": 24, "threshold_robust": 16,
       "sem_gateway_churn": 34}
EXACT_PER_LAYER = ("pairing.miller_per_op", "pairing.final_exp_per_op",
                   "ec.hash_to_point_per_op", "mediated.denials_per_kop",
                   "threshold.cheaters_named", "sim.bytes_to_server_per_op",
                   "sim.bytes_to_client_per_op", "ec.h1_cache_hit_ratio")


def bench(binary, workload, seed, trace):
    out = subprocess.run(
        [str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", "120", "--trace", str(trace), "--max-ops",
         str(OPS[workload])],
        check=True, stdout=subprocess.PIPE, text=True, timeout=170).stdout
    lines = out.splitlines()
    counts = next(json.loads(l[len("# counts "):]) for l in lines
                  if l.startswith("# counts "))
    return counts, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        subprocess.run(["cmake", "--build", str(run.BUILD), "--target",
                        "perfbench_stats_test"], check=True,
                       stdout=subprocess.DEVNULL, timeout=600)

    def test_stats_helpers_on_hand_vectors(self):
        subprocess.run([str(run.BUILD / "perfbench_stats_test")], check=True,
                       timeout=60)

    def test_exact_counts_repeat_for_one_seed(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                counts_a, traced_a = bench(self.binary, workload, 7, 1)
                counts_b, traced_b = bench(self.binary, workload, 7, 1)
                self.assertTrue(traced_a["correct"])
                self.assertEqual(traced_a["failed"], 0)
                self.assertEqual(counts_a, counts_b)
                for name in EXACT_PER_LAYER:
                    self.assertEqual(traced_a["metrics"][name],
                                     traced_b["metrics"][name], name)
                _, plain_a = bench(self.binary, workload, 7, 0)
                _, plain_b = bench(self.binary, workload, 7, 0)
                self.assertEqual(plain_a["metrics"]["wire_bytes_per_op"],
                                 plain_b["metrics"]["wire_bytes_per_op"])
                self.assertEqual(plain_a["metrics"]["ok_ratio"]["value"], 1)

    def test_counts_are_not_trivially_zero(self):
        counts, traced = bench(self.binary, "threshold_robust", 7, 1)
        self.assertEqual(counts["cheaters_named"], 2)
        self.assertGreater(traced["metrics"]["pairing.miller_per_op"]["value"], 0)
        counts, _ = bench(self.binary, "sem_gateway_churn", 7, 1)
        self.assertGreater(counts["dropped_spans"] + counts["final_exp_batch"], 0)

    def test_another_seed_gives_other_inputs(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                seven, _ = bench(self.binary, workload, 7, 0)
                eight, _ = bench(self.binary, workload, 8, 0)
                self.assertNotEqual(seven["input_digest"],
                                    eight["input_digest"])


if __name__ == "__main__":
    unittest.main()
