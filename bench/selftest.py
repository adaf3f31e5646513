"""Self-tests of the benchmark's generator and checker; they do not run the program.

    python3 bench/selftest.py
"""
from __future__ import annotations

import unittest
from pathlib import Path

import workloads
from foonfmt import Unit, bench_problems, derivation_depths, obj, parse_spec, tree_problem
from pipeline import check_outcome, scratch_dir

ROOT = Path(__file__).resolve().parent.parent


def enter(test, context):
    """Enters ``context`` until the test ends (``TestCase.enterContext`` needs Python 3.11)."""
    value = context.__enter__()
    test.addCleanup(context.__exit__, None, None, None)
    return value


class GeneratorTest(unittest.TestCase):
    def setUp(self):
        self.scratch = enter(self, scratch_dir(ROOT, "selftest-"))

    def files(self, name, seed, tag):
        work = self.scratch / f"{name}-{seed}-{tag}"
        workloads.GENERATORS[name](seed, work, ROOT)
        return {p.relative_to(work): p.read_bytes() for p in sorted(work.rglob("*")) if p.is_file()}

    def test_same_seed_gives_identical_files(self):
        for name in workloads.GENERATORS:
            with self.subTest(workload=name):
                first = self.files(name, 7, "a")
                self.assertEqual(first, self.files(name, 7, "b"))
                self.assertNotEqual(first, self.files(name, 8, "c"))

    def test_corpus_merge_half_of_inputs_are_duplicates(self):
        workload = workloads.corpus_merge(3, self.scratch, ROOT)
        self.assertEqual(workload.total_units, 2 * workloads.REPLICAS * 63)
        self.assertLess(len(workload.units), workload.total_units / 2 + 1)

    def test_shape_depths(self):
        workload = workloads.goal_sweep(3, self.scratch, ROOT)
        specs = workload.goals.read_text().splitlines()[-12:]
        depths = [workload.depths.get(parse_spec(spec)) for spec in specs]
        levels, length = workloads.LADDER_LEVELS, workloads.CHAIN_LENGTH
        # The last two goals have no IDS solution: one is past the depth
        # limit, the other is not derivable.
        self.assertEqual(workload.max_depth, length)
        self.assertEqual(depths, [2 * (levels - 6), 2 * (levels - 4), 2 * (levels - 2),
                                  2 * levels, length // 4, length // 2, 3 * length // 4,
                                  length, 2, 2, length + 1, None])


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.scratch = enter(self, scratch_dir(ROOT, "selftest-"))
        self.workload = workloads.goal_sweep(5, self.scratch, ROOT)
        self.specs = self.workload.goals.read_text().splitlines()
        # The goal at the end of the chain, exactly at the depth limit.
        self.spec = next(spec for spec in self.specs
                         if self.workload.depths.get(parse_spec(spec)) == workloads.CHAIN_LENGTH)
        self.goal = parse_spec(self.spec)
        # The chain's units, in executable order, form its only task tree.
        by_output = {u.outputs[0]: u for u in self.workload.units}
        tree, current = [], self.goal
        while current in by_output:
            tree.append(by_output[current])
            current = by_output[current].inputs[0]
        self.tree = tree[::-1]

    def test_accepts_the_executable_tree(self):
        self.assertIsNone(tree_problem(self.tree, self.workload.kitchen_objects, self.goal,
                                       self.workload.identities))

    def test_rejects_a_tree_with_two_units_swapped(self):
        swapped = list(self.tree)
        swapped[3], swapped[4] = swapped[4], swapped[3]
        self.assertIn("not available", tree_problem(
            swapped, self.workload.kitchen_objects, self.goal, self.workload.identities))

    def test_rejects_a_tree_that_stops_short_of_the_goal(self):
        self.assertIn("does not yield", tree_problem(
            self.tree[:-1], self.workload.kitchen_objects, self.goal, self.workload.identities))

    def test_rejects_a_flipped_bench_verdict(self):
        header = "goal\tids\th1\th2\tids_ms\th1_ms\th2_ms\tids_exp\th1_exp\th2_exp"
        specs = self.specs
        depths, limit = self.workload.depths, self.workload.max_depth
        rows = [f"{spec}\t{'1' if depths.get(parse_spec(spec), limit + 1) <= limit else '-'}"
                f"\t-\t-\t0.1\t0.1\t0.1\t1\t1\t1" for spec in specs]
        tsv = "\n".join([header, *rows]) + "\n"
        self.assertEqual(bench_problems(tsv, depths, limit), (3 * len(specs), []))
        flipped = tsv.replace(f"{self.spec}\t1\t", f"{self.spec}\t-\t")
        self.assertEqual(len(bench_problems(flipped, depths, limit)[1]), 1)
        unsolvable = specs[-1]
        flipped = tsv.replace(f"{unsolvable}\t-\t", f"{unsolvable}\t1\t")
        self.assertEqual(len(bench_problems(flipped, depths, limit)[1]), 1)

    def test_rejects_an_ids_verdict_that_ignores_the_depth_limit(self):
        depth = self.workload.depths[self.goal]
        self.assertEqual(check_outcome(self.workload, self.goal, "ids", True, self.tree,
                                       depth, depth), [])
        self.assertTrue(check_outcome(self.workload, self.goal, "ids", True, self.tree,
                                      depth, depth - 1))
        self.assertTrue(check_outcome(self.workload, self.goal, "ids", True, self.tree,
                                      depth + 1, depth))

    def test_derivation_depth_is_minimal(self):
        a, b, c = obj("a"), obj("b"), obj("c")
        units = [Unit((a,), "m", (b,)), Unit((b,), "m", (c,)), Unit((a,), "m", (c,))]
        self.assertEqual(derivation_depths(units, {a}), {a: 0, b: 1, c: 1})


if __name__ == "__main__":
    unittest.main()
