"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 6 needs the original full-scale dataset and is skipped
unless FOON_DATASET_DIR points at a directory with universal.txt,
kitchen.txt, rates.txt.
"""
import os
import random
import time
from pathlib import Path

import pytest

from foon import (
    MotionRateTable,
    merge,
    merge_stats,
    parse_goal,
    parse_kitchen,
    parse_rates,
    parse_subgraph,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    serialize_subgraph,
    validate_task_tree,
)
from foon.cli import main as cli_main

from conftest import CORPUS_DIR, FIXTURES, obj
from oracle import GeneratorConfig, generate_instance, oracle_search

ICE = FIXTURES / "ice"
DIVERGENCE = FIXTURES / "divergence"


def _report(number, name):
    def decorator(fn):
        import functools

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[ACCEPTANCE] criterion {number} ({name}): FAIL")
                raise
            print(f"[ACCEPTANCE] criterion {number} ({name}): PASS")
        return wrapper
    return decorator


@_report(1, "parser round-trip")
def test_criterion_1_parser_round_trip(corpus_paths):
    started = time.perf_counter()
    total_units = 0
    for path in corpus_paths:
        first = parse_subgraph(path.read_text(encoding="utf-8"))
        second = parse_subgraph(serialize_subgraph(first))
        assert len(first.units) == len(second.units)
        for a, b in zip(first.units, second.units):
            assert a == b
            assert a.motion.start_time == b.motion.start_time
            assert a.motion.end_time == b.motion.end_time
            assert [o.motion_tag for o in a.inputs + a.outputs] == \
                   [o.motion_tag for o in b.inputs + b.outputs]
        total_units += len(first.units)
    assert len(corpus_paths) >= 10
    assert total_units >= 60
    assert time.perf_counter() - started < 1.0


@_report(2, "merge properties")
def test_criterion_2_merge_properties(corpus_docs):
    started = time.perf_counter()
    single = merge(corpus_docs)
    doubled = merge(corpus_docs + corpus_docs)
    assert len(doubled) == len(single)
    assert set(doubled.units) == set(single.units)

    reference = set(single.units)
    rng = random.Random(2024)
    for _ in range(20):
        shuffled = list(corpus_docs)
        rng.shuffle(shuffled)
        assert set(merge(shuffled).units) == reference

    seen = []
    pairwise_duplicates = 0
    for doc in corpus_docs:
        for u in doc.units:
            if any(u == earlier for earlier in seen):
                pairwise_duplicates += 1
            else:
                seen.append(u)
    _, removed = merge_stats(corpus_docs, single)
    assert removed == pairwise_duplicates
    assert time.perf_counter() - started < 5.0


@_report(3, "oracle equivalence on solvability")
def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    solvable = unsolvable = 0
    for seed in range(500):
        cfg = GeneratorConfig(max_units=12, max_branching=3, max_inputs_per_unit=3,
                              kitchen_fraction=0.75, seed=seed)
        foon, goal, kitchen = generate_instance(cfg)
        reference = oracle_search(foon, goal, kitchen)
        outcome = search_ids(foon, goal, kitchen, max_depth=14)
        assert outcome.ok == (reference is not None), f"disagreement at seed {seed}"
        if reference is not None:
            solvable += 1
        else:
            unsolvable += 1
    assert solvable > 0 and unsolvable > 0
    assert time.perf_counter() - started < 60.0


@_report(4, "soundness of all three algorithms")
def test_criterion_4_soundness():
    rates = MotionRateTable({"pour": 0.9, "slice": 0.8, "mix": 0.6, "stir": 0.5,
                             "fry": 0.4, "boil": 0.7})
    for seed in range(500):
        cfg = GeneratorConfig(max_units=40, max_branching=4, max_inputs_per_unit=3,
                              kitchen_fraction=0.8, seed=seed)
        foon, goal, kitchen = generate_instance(cfg)
        outcomes = (
            search_ids(foon, goal, kitchen, max_depth=20),
            search_gbfs_rate(foon, goal, kitchen, rates),
            search_gbfs_inputs(foon, goal, kitchen),
        )
        for outcome in outcomes:
            if outcome.ok:
                assert validate_task_tree(outcome.tree, kitchen, goal), f"seed {seed}"


@_report(5, "reference sizes at fixture scale + heuristic divergence")
def test_criterion_5_fixture_scale_table():
    foon = merge([parse_subgraph((ICE / "foon.txt").read_text())])
    kitchen = parse_kitchen((ICE / "kitchen.txt").read_text())
    rates = parse_rates((ICE / "rates.txt").read_text())
    goal = parse_goal("ice;solid")
    sizes = [
        len(search_ids(foon, goal, kitchen).tree.units),
        len(search_gbfs_rate(foon, goal, kitchen, rates).tree.units),
        len(search_gbfs_inputs(foon, goal, kitchen).tree.units),
    ]
    assert sizes == [1, 1, 1]

    foon = merge([parse_subgraph((DIVERGENCE / "foon.txt").read_text())])
    kitchen = parse_kitchen((DIVERGENCE / "kitchen.txt").read_text())
    rates = parse_rates((DIVERGENCE / "rates.txt").read_text())
    goal = parse_goal("juice;fresh")
    h1 = search_gbfs_rate(foon, goal, kitchen, rates)
    h2 = search_gbfs_inputs(foon, goal, kitchen)
    assert h1.ok and h2.ok
    # max-rate and min-input select different candidate units for the goal
    assert h1.tree.units[-1] != h2.tree.units[-1]
    assert len(h1.tree.units) == 2
    assert len(h2.tree.units) == 1


_DATASET_DIR = os.environ.get("FOON_DATASET_DIR", "")
_REFERENCE_SIZES = {
    "greek salad": (31, 32, 28),
    "ice": (1, 1, 1),
    "macaroni": (7, 7, 8),
    "sweet potato": (3, 3, 3),
    "whipped cream": (10, 10, 15),
}


@pytest.mark.skipif(
    not _DATASET_DIR or not Path(_DATASET_DIR).is_dir(),
    reason="full-scale dataset not supplied (set FOON_DATASET_DIR)",
)
@_report(6, "reference sizes at full scale")
def test_criterion_6_full_scale_table(tmp_path):
    dataset = Path(_DATASET_DIR)
    goals = tmp_path / "goals.txt"
    goals.write_text("\n".join(_REFERENCE_SIZES) + "\n")
    out = tmp_path / "bench.tsv"
    code = cli_main([
        "bench", "--foon", str(dataset / "universal.txt"),
        "--kitchen", str(dataset / "kitchen.txt"),
        "--rates", str(dataset / "rates.txt"),
        "--goals", str(goals), "--out", str(out),
    ])
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        cols = line.split("\t")
        expected = _REFERENCE_SIZES[cols[0]]
        assert tuple(int(c) for c in cols[1:4]) == expected, cols[0]


@_report(7, "IDS expansion accounting")
def test_criterion_7_ids_accounting(chain):
    foon, goal, kitchen, _ = chain
    outcome = search_ids(foon, goal, kitchen)
    stats = outcome.tree.stats
    assert stats.expansions == sum(stats.per_depth_expansions)
    # chain depth D = 3: found at depth 3, root expanded exactly D + 1 times
    assert stats.depth_limit_reached == 3
    assert stats.object_visits[obj("goal", "done")] == 4
    # shallower levels are re-expanded every iteration
    assert stats.per_depth_expansions == [0, 1, 2, 3]


@_report(8, "CLI determinism")
def test_criterion_8_cli_determinism(tmp_path, capsys):
    corpus = [str(p) for p in sorted(CORPUS_DIR.glob("*.txt"))]

    def bench_without_timing(text):
        rows = []
        for line in text.splitlines():
            cols = line.split("\t")
            rows.append("\t".join(cols[:4] + cols[7:]))
        return "\n".join(rows)

    commands = {
        "merge": lambda out: ["merge", *corpus, "--out", out],
        "search": lambda out: ["search", "--foon", str(ICE / "foon.txt"),
                               "--goal", "ice;solid",
                               "--kitchen", str(ICE / "kitchen.txt"), "--out", out],
        "bench": lambda out: ["bench", "--foon", str(ICE / "foon.txt"),
                              "--kitchen", str(ICE / "kitchen.txt"),
                              "--goals", str(ICE / "goals.txt"),
                              "--rates", str(ICE / "rates.txt"), "--out", out],
        "dot": lambda out: ["dot", "--foon", str(ICE / "foon.txt"), "--out", out],
    }
    for name, argv in commands.items():
        results = []
        for attempt in range(2):
            out = tmp_path / f"{name}{attempt}.out"
            assert cli_main(argv(str(out))) == 0
            capsys.readouterr()
            text = out.read_text()
            results.append(bench_without_timing(text) if name == "bench" else text)
        assert results[0] == results[1], name
