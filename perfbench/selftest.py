"""Self-test of the benchmark's gate: it must be able to fail.

Usage: ``python3 perfbench/selftest.py`` (from the repository root).

* an altered pinned value or exit code is detected, while the unaltered
  reference and ignored or added keys pass;
* broken span trees are detected;
* self time and inclusive time come out right on a hand-built span set;
* instrumenting qwalk records a well-formed span tree through directly
  imported names, and leaving the context restores the program.
"""

import copy
import json
import sys
import unittest

from run import REFERENCE, SRC
from spans import Tracer
from workloads import check_cli_experiment, check_experiment

sys.path.insert(0, str(SRC))


def _first_pinned(name):
    refs = json.loads((REFERENCE / f"{name}.json").read_text())
    return next(iter(refs.values()))


class PinnedGate(unittest.TestCase):
    def test_reference_passes_and_altered_value_or_exit_code_fails(self):
        ref = _first_pinned("walk_long")
        code = ref["exit_code"]
        report = {k: copy.deepcopy(v) for k, v in ref.items() if k != "exit_code"}
        report.update(version="9.9", passed=not code, checks=[], extra={"new": 1})
        report["per_trial"][0]["added_field"] = 3
        self.assertEqual(check_cli_experiment((code, json.dumps(report)), ref), [])
        self.assertEqual(len(check_cli_experiment((1 - code, json.dumps(report)), ref)), 1)
        report["per_trial"][0]["walk_edges"] += 1
        self.assertEqual(len(check_cli_experiment((code, json.dumps(report)), ref)), 1)

    def test_altered_prediction_fails(self):
        ref = _first_pinned("tree_star")
        report = copy.deepcopy(ref)
        self.assertEqual(check_experiment(json.dumps(report), ref), [])
        report["predicted"]["value"] = report["predicted"]["value"] * (1 + 1e-15) + 1e-12
        self.assertTrue(check_experiment(json.dumps(report), ref))


def _hand_built():
    t = Tracer()
    root = t.add("experiments.run", -1, 0.0, 10.0)
    a = t.add("walks.run_walk", root, 1.0, 4.0, count=100)
    b = t.add("walks.walk_subgraph", root, 5.0, 9.0)
    t.add("walks.walk_subgraph", b, 6.0, 7.0)   # re-entry counts once in total_s
    t.add("rng.draw", a, 2.0, 2.5, count=8)
    return t


class SpanTree(unittest.TestCase):
    def test_self_and_total_time(self):
        t = _hand_built()
        self.assertEqual(t.validate(), [])
        self.assertEqual(t.self_times(), [3.0, 2.5, 3.0, 1.0, 0.5])
        rows = t.summary()
        self.assertEqual(rows["experiments.run"]["self_s"], 3.0)
        self.assertEqual(rows["walks.walk_subgraph"]["total_s"], 4.0)
        self.assertEqual(rows["walks.walk_subgraph"]["self_s"], 4.0)
        self.assertEqual(rows["walks.walk_subgraph"]["calls"], 2)
        self.assertEqual(rows["walks.run_walk"]["count"], 100)
        self.assertEqual(rows["rng.draw"]["total_s"], 0.5)

    def test_child_leaking_out_of_parent_is_detected(self):
        t = _hand_built()
        t.end[4] = 4.5
        self.assertTrue(any("leaks" in p for p in t.validate()))

    def test_overlapping_siblings_are_detected(self):
        t = _hand_built()
        t.start[2] = 3.5
        self.assertTrue(any("overlaps" in p for p in t.validate()))

    def test_unclosed_span_and_bad_parent_are_detected(self):
        t = _hand_built()
        t.end[1] = float("nan")
        t.parent[3] = 7
        problems = t.validate()
        self.assertTrue(any("not closed" in p for p in problems))
        self.assertTrue(any("does not precede" in p for p in problems))


class Instrumentation(unittest.TestCase):
    def test_spans_cover_directly_imported_names_and_are_removed(self):
        import qwalk
        from qwalk import experiments, walks
        original = walks.run_walk
        cfg = experiments.ExperimentConfig(experiment="density", n=40, seed=3, trials=2)
        plain = qwalk.run_experiment(cfg).to_json()
        t = Tracer()
        with t.instrument(qwalk):
            self.assertIsNot(experiments.run_walk, original)
            traced = qwalk.run_experiment(cfg).to_json()
        self.assertIs(experiments.run_walk, original)
        self.assertIs(walks.run_walk, original)
        self.assertEqual(plain, traced)
        self.assertEqual(t.validate(), [])
        rows = t.summary()
        self.assertEqual(rows["walks.run_walk"]["calls"], 2)
        self.assertEqual(rows["walks.run_walk"]["count"], 2 * 800)
        self.assertEqual(rows["experiments.run_experiment"]["calls"], 1)
        self.assertIn("graph.build_graph", rows)
        self.assertGreater(t.list_words, 0)


if __name__ == "__main__":
    unittest.main()
