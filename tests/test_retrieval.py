import itertools
import random

import pytest

from foon import (
    Kitchen,
    MotionRateTable,
    UniversalFOON,
    derivation_depths,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    validate_task_tree,
)
from foon.retrieval import FailureReason, TaskTree

from conftest import build_foon, obj, unit
from oracle import GeneratorConfig, generate_instance, oracle_search


def test_goal_in_kitchen_all_algorithms():
    goal = obj("water", "liquid")
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    kitchen = Kitchen([goal])
    for outcome in (
        search_ids(foon, goal, kitchen),
        search_gbfs_rate(foon, goal, kitchen),
        search_gbfs_inputs(foon, goal, kitchen),
    ):
        assert outcome.ok
        assert len(outcome.tree.units) == 0
        assert validate_task_tree(outcome.tree, kitchen, goal)


def test_ids_unreachable_goal():
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    outcome = search_ids(foon, obj("nothing"), Kitchen())
    assert not outcome.ok
    assert outcome.failure.reason is FailureReason.GOAL_UNREACHABLE
    assert [o.name for o in outcome.failure.blocked_objects] == ["nothing"]


def test_ids_chain_solved_at_depth_three(chain):
    foon, goal, kitchen, units = chain
    outcome = search_ids(foon, goal, kitchen)
    assert outcome.ok
    tree = outcome.tree
    assert tree.units == units  # dependencies before dependents
    assert tree.stats.depth_limit_reached == 3
    assert validate_task_tree(tree, kitchen, goal)
    # the exhaustive oracle agrees no smaller tree exists
    minimal = oracle_search(foon, goal, kitchen, max_units=3)
    assert minimal is not None and len(minimal.units) == 3


def test_ids_depth_exhausted(chain):
    foon, goal, kitchen, _ = chain
    outcome = search_ids(foon, goal, kitchen, max_depth=2)
    assert not outcome.ok
    assert outcome.failure.reason is FailureReason.DEPTH_EXHAUSTED
    # The goal is 3 deep, so no iteration runs.
    stats = outcome.failure.stats
    assert (stats.expansions, stats.per_depth_expansions, stats.depth_limit_reached) == (0, [], 0)


def test_ids_expansion_accounting(chain):
    foon, goal, kitchen, _ = chain
    stats = search_ids(foon, goal, kitchen).tree.stats
    assert stats.expansions == sum(stats.per_depth_expansions)
    assert stats.per_depth_expansions == sorted(stats.per_depth_expansions)
    # chain depth D = 3: the root object is expanded once per iteration 0..3
    assert stats.object_visits[obj("goal", "done")] == 4


def test_ids_cycle_guard_terminates():
    a = obj("a", "s")
    b = obj("b", "s")
    base = obj("base", "raw")
    goal = obj("goal", "done")
    # a and b produce each other; an honest path also exists via base
    foon = build_foon(
        unit([b], "mix", [a]),
        unit([a], "stir", [b]),
        unit([base], "chop", [a]),
        unit([a], "bake", [goal]),
    )
    outcome = search_ids(foon, goal, Kitchen([base]), max_depth=10)
    assert outcome.ok
    assert validate_task_tree(outcome.tree, Kitchen([base]), goal)


def test_ids_pure_cycle_is_unreachable():
    a = obj("a", "s")
    b = obj("b", "s")
    foon = build_foon(unit([b], "mix", [a]), unit([a], "stir", [b]))
    outcome = search_ids(foon, a, Kitchen(), max_depth=10)
    assert not outcome.ok
    # Neither object can be derived, so IDS fails before its first
    # iteration; with no producer-less leaf, the cycle itself is blocked.
    assert outcome.failure.reason is FailureReason.GOAL_UNREACHABLE
    assert outcome.failure.blocked_objects == [a, b]
    assert outcome.failure.stats.expansions == 0


def test_ids_counts_no_visit_to_an_underivable_object():
    # x is made only from y, which nothing makes, so the first candidate's
    # input is a dead end: no visit and no stack level, at any bound.
    x, y, base, goal = obj("x", "s"), obj("y", "s"), obj("base", "raw"), obj("goal", "done")
    fallback = unit([base], "bake", [goal])
    foon = build_foon(unit([y], "mix", [x]), unit([x], "stir", [goal]), fallback)
    outcome = search_ids(foon, goal, Kitchen([base]), max_depth=5)
    assert outcome.tree.units == [fallback]
    stats = outcome.tree.stats
    assert (stats.per_depth_expansions, stats.max_stack_depth) == ([0, 2], 0)
    assert stats.object_visits == {goal: 2}


def test_ids_deduplicates_shared_dependency():
    base = obj("base", "raw")
    mid = obj("mid", "made")
    left = obj("left", "made")
    right = obj("right", "made")
    goal = obj("goal", "done")
    shared = unit([base], "chop", [mid])
    foon = build_foon(
        shared,
        unit([mid], "mix", [left]),
        unit([mid], "stir", [right]),
        unit([left, right], "bake", [goal]),
    )
    outcome = search_ids(foon, goal, Kitchen([base]))
    assert outcome.ok
    assert len(set(outcome.tree.units)) == len(outcome.tree.units)
    assert len(outcome.tree.units) == 4


def _two_candidate_foon():
    goal = obj("goal", "done")
    fast = unit([obj("k1", "raw")], "blend", [goal])
    slow = unit([obj("k2", "raw"), obj("k3", "raw"), obj("k4", "raw")], "mix", [goal])
    foon = build_foon(slow, fast)
    kitchen = Kitchen([obj(f"k{i}", "raw") for i in range(1, 5)])
    return foon, goal, kitchen, fast, slow


def test_gbfs_rate_picks_max_rate():
    foon, goal, kitchen, fast, slow = _two_candidate_foon()
    rates = MotionRateTable({"blend": 0.9, "mix": 0.4})
    outcome = search_gbfs_rate(foon, goal, kitchen, rates)
    assert outcome.ok
    assert outcome.tree.units[0] == fast


def test_gbfs_rate_tie_breaks_to_earliest_inserted():
    foon, goal, kitchen, fast, slow = _two_candidate_foon()
    outcome = search_gbfs_rate(foon, goal, kitchen, MotionRateTable())
    assert outcome.tree.units[0] is foon.units[0]
    assert outcome.tree.units[0] == slow


def test_gbfs_inputs_picks_fewest_inputs():
    foon, goal, kitchen, fast, slow = _two_candidate_foon()
    outcome = search_gbfs_inputs(foon, goal, kitchen)
    assert outcome.ok
    assert outcome.tree.units[0] == fast


def test_gbfs_unsatisfied_leaves():
    # The goal can be baked, but the rates prefer mix, whose input nothing
    # makes: the greedy choice, not the goal, is the dead end.
    goal, base, missing = obj("goal", "done"), obj("base", "raw"), obj("missing", "raw")
    foon = build_foon(unit([missing], "mix", [goal]), unit([base], "bake", [goal]))
    kitchen = Kitchen([base])
    outcome = search_gbfs_rate(foon, goal, kitchen, MotionRateTable({"mix": 0.9, "bake": 0.1}))
    assert not outcome.ok
    assert outcome.failure.reason is FailureReason.UNSATISFIED_LEAVES
    assert [o.name for o in outcome.failure.blocked_objects] == ["missing"]
    assert search_ids(foon, goal, kitchen).ok


def test_gbfs_goal_unreachable():
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    outcome = search_gbfs_inputs(foon, obj("nothing"), Kitchen())
    assert not outcome.ok
    assert outcome.failure.reason is FailureReason.GOAL_UNREACHABLE
    # A goal whose one producer needs what nothing makes cannot be derived
    # either: both searches fail it as IDS does, before expanding anything.
    goal, missing = obj("goal", "done"), obj("missing", "raw")
    foon = build_foon(unit([missing], "mix", [goal]))
    for search in (search_ids, search_gbfs_rate, search_gbfs_inputs):
        failure = search(foon, goal, Kitchen()).failure
        assert (failure.reason, failure.blocked_objects) == (
            FailureReason.GOAL_UNREACHABLE, [missing])
        assert failure.stats.expansions == 0


def test_gbfs_output_is_executable_order(chain):
    foon, goal, kitchen, units = chain
    for outcome in (
        search_gbfs_rate(foon, goal, kitchen),
        search_gbfs_inputs(foon, goal, kitchen),
    ):
        assert outcome.ok
        assert outcome.tree.units == units
        assert validate_task_tree(outcome.tree, kitchen, goal)


def test_validate_reports_first_violation():
    kitchen = Kitchen()
    goal = obj("goal", "done")
    bad = TaskTree([unit([obj("missing", "raw")], "mix", [goal])], goal)
    report = validate_task_tree(bad, kitchen, goal)
    assert not report
    assert report.position == 0
    assert report.obj.name == "missing"


def test_validate_with_a_foon_refuses_an_equal_unit_that_is_not_its_own():
    water, goal = obj("water", "liquid"), obj("ice", "solid")
    own = unit([water], "freeze", [goal])
    twin = unit([water], "freeze", [goal])
    assert twin == own and twin is not own
    foon, kitchen = build_foon(own), Kitchen([water])
    assert validate_task_tree(TaskTree([twin], goal), kitchen, goal)
    report = validate_task_tree(TaskTree([twin], goal), kitchen, goal, foon)
    assert not report
    assert (report.position, report.obj, report.message) == (
        0, None, "unit 0 is not one of the FOON's units")
    assert validate_task_tree(TaskTree([own], goal), kitchen, goal, foon)


def test_validate_empty_tree_goal_in_kitchen():
    goal = obj("ice", "solid")
    assert validate_task_tree(TaskTree([], goal), Kitchen([goal]), goal)
    assert not validate_task_tree(TaskTree([], goal), Kitchen(), goal)


@pytest.mark.parametrize("seed", range(60))
def test_searches_are_sound_on_random_instances(seed):
    cfg = GeneratorConfig(max_units=20, max_branching=4, max_inputs_per_unit=3, seed=seed)
    foon, goal, kitchen = generate_instance(cfg)
    rates = MotionRateTable({"pour": 0.9, "mix": 0.5, "slice": 0.7, "boil": 0.3})
    for outcome in (
        search_ids(foon, goal, kitchen, max_depth=15),
        search_gbfs_rate(foon, goal, kitchen, rates),
        search_gbfs_inputs(foon, goal, kitchen),
    ):
        if outcome.ok:
            assert validate_task_tree(outcome.tree, kitchen, goal)


@pytest.mark.parametrize("seed", range(40))
def test_ids_solvability_matches_oracle(seed):
    cfg = GeneratorConfig(max_units=10, max_branching=3, max_inputs_per_unit=2, seed=seed)
    foon, goal, kitchen = generate_instance(cfg)
    reference = oracle_search(foon, goal, kitchen)
    outcome = search_ids(foon, goal, kitchen, max_depth=12)
    assert outcome.ok == (reference is not None)


def _metamorphic_instances():
    """Metamorphic relations compare IDS with itself on a changed instance,
    so they need no oracle and hold at any size; these are their 300
    instances, each with its case and a random source of its own."""
    cases = itertools.product((10, 40, 200), (0.5, 0.8), range(50))
    for max_units, kitchen_fraction, seed in cases:
        foon, goal, kitchen = generate_instance(GeneratorConfig(
            max_units=max_units, kitchen_fraction=kitchen_fraction, seed=seed))
        yield (max_units, kitchen_fraction, seed), random.Random(seed), foon, goal, kitchen


def _is_unreachable(outcome):
    return not outcome.ok and outcome.failure.reason is FailureReason.GOAL_UNREACHABLE


def test_ids_verdict_is_monotone_in_the_kitchen():
    # A stocked object ends every path through it, and the depth-bounded
    # DFS tries every candidate, so more items never undo a success. More
    # items derive no less, and nothing deeper, so no search finds a goal
    # unreachable that a smaller kitchen could reach.
    gained = 0
    for case, rng, foon, goal, kitchen in _metamorphic_instances():
        objects = dict.fromkeys(o for u in foon.units for o in (*u.inputs, *u.outputs))
        larger = Kitchen(kitchen.items + [o for o in objects if rng.random() < 0.3])
        depths, larger_depths = derivation_depths(foon, kitchen), derivation_depths(foon, larger)
        assert all(larger_depths.get(o, depth + 1) <= depth for o, depth in depths.items()), case
        for max_depth in (4, 10):
            before = search_ids(foon, goal, kitchen, max_depth).ok
            after = search_ids(foon, goal, larger, max_depth).ok
            assert after or not before, (case, max_depth)
            gained += after and not before
        for search in (search_gbfs_rate, search_gbfs_inputs):
            assert (not _is_unreachable(search(foon, goal, larger))
                    or _is_unreachable(search(foon, goal, kitchen))), case
    # Some failures turn into successes, so the larger kitchens matter.
    assert gained


def _verdict(outcome):
    failure = outcome.failure
    found = failure and (failure.reason, failure.blocked_objects)
    return outcome.ok, found, (outcome.tree or failure).stats.depth_limit_reached


def test_ids_verdict_does_not_depend_on_unit_order():
    # The verdict, the failure's reason and blocked objects, and the bound
    # reached all follow from the goal's derivability and depth alone. So
    # do the greedy searches' on a goal that cannot be derived; elsewhere
    # their ties go to the earliest unit, by design.
    underivable = 0
    for case, rng, foon, goal, kitchen in _metamorphic_instances():
        shuffled = UniversalFOON(rng.sample(foon.units, len(foon.units)))
        for max_depth in (4, 10):
            assert (_verdict(search_ids(shuffled, goal, kitchen, max_depth))
                    == _verdict(search_ids(foon, goal, kitchen, max_depth))), (case, max_depth)
        if goal not in derivation_depths(foon, kitchen):
            underivable += 1
            for search in (search_gbfs_rate, search_gbfs_inputs):
                assert (_verdict(search(shuffled, goal, kitchen))
                        == _verdict(search(foon, goal, kitchen))), case
    assert underivable


def test_depths_of_a_chain_count_its_links(chain):
    foon, _, kitchen, units = chain
    links = [units[0].inputs[0]] + [u.outputs[0] for u in units]
    assert derivation_depths(foon, kitchen) == dict(zip(links, [0, 1, 2, 3]))


def test_depth_of_an_object_is_its_shallowest_producers():
    base, mid, goal = obj("base", "raw"), obj("mid", "made"), obj("goal", "done")
    foon = build_foon(unit([base], "chop", [mid]), unit([mid], "mix", [goal]),
                      unit([base], "blend", [goal]))
    assert derivation_depths(foon, Kitchen([base])) == {base: 0, mid: 1, goal: 1}


def test_depths_of_a_cycle_fed_from_the_kitchen():
    base, a, b = obj("base", "raw"), obj("a", "made"), obj("b", "made")
    foon = build_foon(unit([a], "mix", [b]), unit([b], "mix", [a]), unit([base], "chop", [a]))
    assert derivation_depths(foon, Kitchen([base])) == {base: 0, a: 1, b: 2}
    # Without its feed, the cycle derives nothing.
    assert derivation_depths(foon, Kitchen()) == {}


def test_depths_hold_every_kitchen_item_and_no_underivable_object():
    base, spare, mid = obj("base", "raw"), obj("spare", "raw"), obj("mid", "made")
    stuck, after = obj("stuck", "made"), obj("after", "made")
    foon = build_foon(unit([base], "chop", [mid]), unit([mid, stuck], "mix", [after]))
    # ``spare`` is in no unit of the FOON.
    assert derivation_depths(foon, Kitchen([base, spare])) == {base: 0, spare: 0, mid: 1}


def test_determinism_repeated_runs(chain):
    from foon import SubgraphDocument, serialize_subgraph

    foon, goal, kitchen, _ = chain
    def run_all():
        return [
            serialize_subgraph(SubgraphDocument(units=o.tree.units))
            for o in (
                search_ids(foon, goal, kitchen),
                search_gbfs_rate(foon, goal, kitchen),
                search_gbfs_inputs(foon, goal, kitchen),
            )
        ]
    assert run_all() == run_all()
