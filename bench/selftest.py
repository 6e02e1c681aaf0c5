"""Self-tests of the benchmark itself (not part of the oiekit test suite).

Run from the repository root:

    python3 bench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import unittest

import run  # sets the BLAS thread variables before numpy loads
import tracing

sys.path.insert(0, str(run.SRC))

TINY = run.Sizes(train=30, dev=10, heldout=10, epochs=3, rl_epochs=1, setup_reps=2,
                 setup_seconds=0.0)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
        spans = [
            ["root", 0.0, 10.0, None, None],
            ["a", 1.0, 4.0, 0, None],
            ["c", 2.0, 3.0, 1, None],
            ["b", 5.0, 9.0, 0, None],
        ]
        self.assertEqual(tracing.self_times(spans), [3.0, 2.0, 1.0, 4.0])

    def test_nested_same_name_counts_once(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            ["tagger.forward", 0.0, 4.0, None, None],
            ["tagger.forward", 1.0, 2.0, 0, None],
        ]
        metrics = tracing.layer_metrics(tracer)
        self.assertEqual(metrics["tagger.forward.s"], 4.0)
        self.assertEqual(metrics["tagger.forward.calls"], 2.0)


class PatchTest(unittest.TestCase):
    def snapshot(self):
        owners = [tracing._module(m) for m in tracing.MODULES]
        owners += [getattr(tracing._module(m), c) for m, c, _, _ in tracing.METHODS]
        return {(id(owner), attr): value
                for owner in owners for attr, value in list(vars(owner).items())}

    def test_install_and_remove_restores_every_attribute(self):
        before = self.snapshot()
        patches = tracing.install(tracing.Tracer())
        patched = {(id(owner), attr) for owner, attr, _ in patches}
        for key in [("rl", "allowed_labels"), ("rl", "syn_score"),
                    ("tagger", "identify_predicates"), ("mle", "spans_from_tags")]:
            module = tracing._module(key[0])
            self.assertIn((id(module), key[1]), patched, key)
        self.assertNotEqual(before, self.snapshot())
        tracing.remove(patches)
        after = self.snapshot()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)


class SmokeTest(unittest.TestCase):
    def smoke(self, workload, seed, trace):
        work = run.ROOT / ".bench_work" / f"selftest-{workload}-{seed}-{trace}"
        bench = run.Run(work, TINY, seed)
        metrics, detail = run_workload(bench, workload, trace)
        self.assertEqual(bench.failures, [], detail)
        units = run.load_units(trace)
        self.assertEqual(set(units) - set(metrics), set())
        for name, value in metrics.items():
            self.assertIsInstance(value, float, name)
        return metrics, detail

    def test_each_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _ = self.smoke(workload, 0, False)
                self.assertGreater(metrics["stage_items_per_ref_s"], 0.0)

    def test_each_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                metrics, _ = self.smoke(workload, 0, True)
                self.assertGreater(metrics["tagger.forward.calls"], 0.0)
                self.assertGreater(metrics["trace.overhead"], 0.0)

    def test_second_seed_runs_clean(self):
        _, first = self.smoke("rl", 1, False)
        _, again = self.smoke("rl", 1, False)
        _, other = self.smoke("rl", 2, False)
        self.assertEqual(first["fingerprint"], again["fingerprint"])
        self.assertNotEqual(first["fingerprint"], other["fingerprint"])


def run_workload(bench, workload, trace):
    try:
        return run.run_workload(bench, workload, 0.0, trace)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
