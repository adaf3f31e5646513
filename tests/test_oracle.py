import hashlib
import itertools

import pytest

from foon import (
    FailureReason,
    Kitchen,
    SubgraphDocument,
    object_key,
    search_ids,
    serialize_subgraph,
    validate_task_tree,
)

from conftest import build_foon, obj, unit
from oracle import (
    BudgetExceeded,
    GeneratorConfig,
    _execution_order,
    accepts_depth_exhausted,
    accepts_unreachable,
    generate_instance,
    oracle_search,
)


def test_oracle_goal_in_kitchen():
    goal = obj("water", "liquid")
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    tree = oracle_search(foon, goal, Kitchen([goal]))
    assert tree is not None and len(tree.units) == 0


def test_oracle_unreachable():
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    assert oracle_search(foon, obj("nothing"), Kitchen()) is None


def test_oracle_chain_minimal(chain):
    foon, goal, kitchen, units = chain
    tree = oracle_search(foon, goal, kitchen)
    assert tree is not None
    assert tree.units == units
    # no smaller subset validates
    for size in range(3):
        for subset in itertools.combinations(foon.units, size):
            order = _execution_order(subset, kitchen)
            produced = {
                object_key(o) for u in (order or []) for o in u.outputs
            }
            assert order is None or object_key(goal) not in produced


def test_oracle_prefers_fewer_units():
    goal = obj("goal", "done")
    base = obj("base", "raw")
    mid = obj("mid", "made")
    foon = build_foon(
        unit([base], "chop", [mid]),
        unit([mid], "mix", [goal]),
        unit([base], "blend", [goal]),
    )
    tree = oracle_search(foon, goal, Kitchen([base]))
    assert len(tree.units) == 1
    assert tree.units[0].motion.label == "blend"


def test_oracle_budget_exceeded():
    # 12-unit chain: the minimal tree needs all 12 units, so every smaller
    # combination is enumerated first and the budget trips.
    links = [obj(f"link{k}", "made") for k in range(13)]
    units = [unit([links[k]], "mix", [links[k + 1]]) for k in range(12)]
    foon = build_foon(*units)
    kitchen = Kitchen([links[0]])
    with pytest.raises(BudgetExceeded):
        oracle_search(foon, links[12], kitchen, budget=100)


def test_oracle_full_power_set_spot_check():
    """Independent check on small instances: oracle minimum equals the
    minimum over the entire power set of units."""
    for seed in range(15):
        cfg = GeneratorConfig(max_units=7, max_branching=2, max_inputs_per_unit=2, seed=seed)
        foon, goal, kitchen = generate_instance(cfg)
        tree = oracle_search(foon, goal, kitchen)

        best = None
        for size in range(len(foon.units) + 1):
            for subset in itertools.combinations(foon.units, size):
                order = _execution_order(subset, kitchen)
                if order is None:
                    continue
                produced = {object_key(o) for u in order for o in u.outputs}
                if object_key(goal) in produced or goal in kitchen:
                    best = len(subset) if best is None else min(best, len(subset))
            if best is not None:
                break
        if tree is None:
            assert best is None
        else:
            assert best == len(tree.units)
            assert validate_task_tree(tree, kitchen, goal)


def _blocked_by_ids(foon, goal, kitchen):
    failure = search_ids(foon, goal, kitchen).failure
    assert failure.reason is FailureReason.GOAL_UNREACHABLE
    return failure.blocked_objects


def test_certificate_of_leaves_refuses_a_derivable_or_foreign_object():
    # goal <- (mid, missing); mid <- base, from the kitchen; extra is made
    # from base too, outside the goal's cone; missing has no producer.
    base, mid, missing = obj("base", "raw"), obj("mid", "made"), obj("missing", "raw")
    goal, extra, spare = obj("goal", "done"), obj("extra", "made"), obj("spare", "raw")
    foon = build_foon(unit([base], "chop", [mid]), unit([mid, missing], "mix", [goal]),
                      unit([base], "stir", [extra]))
    kitchen = Kitchen([base])
    blocked = _blocked_by_ids(foon, goal, kitchen)
    assert blocked == [missing]
    assert accepts_unreachable(foon, goal, kitchen, blocked)
    # Derivable (in the cone or not), stocked, outside the cone, or the goal
    # beside a leaf: each is refused, as is an empty list.
    for added in (mid, extra, base, spare, goal):
        assert not accepts_unreachable(foon, goal, kitchen, blocked + [added]), added
    assert not accepts_unreachable(foon, goal, kitchen, [])
    # A derivable goal has no certificate.
    assert not accepts_unreachable(foon, mid, kitchen, [missing])


def test_certificate_of_a_pure_cycle_is_the_whole_cycle():
    a, b, base = obj("a", "s"), obj("b", "s"), obj("base", "raw")
    cycle = [unit([b], "mix", [a]), unit([a], "stir", [b])]
    foon = build_foon(*cycle)
    blocked = _blocked_by_ids(foon, a, Kitchen())
    assert blocked == [a, b]
    assert accepts_unreachable(foon, a, Kitchen(), blocked)
    # Dropping a member opens the cycle.
    assert not accepts_unreachable(foon, a, Kitchen(), [a])
    assert not accepts_unreachable(foon, a, Kitchen(), [b])
    # Fed from the kitchen, the cycle is derivable.
    fed = build_foon(*cycle, unit([base], "chop", [b]))
    assert not accepts_unreachable(fed, a, Kitchen([base]), blocked)


def test_depth_certificate_refuses_a_goal_within_the_bound_or_underivable(chain):
    foon, goal, kitchen, _ = chain
    # The chain's goal is 3 deep, and fed from the kitchen a cycle's goal 2.
    failure = search_ids(foon, goal, kitchen, max_depth=2).failure
    assert failure.reason is FailureReason.DEPTH_EXHAUSTED
    assert accepts_depth_exhausted(foon, goal, kitchen, 2)
    for max_depth in (3, 4):
        assert not accepts_depth_exhausted(foon, goal, kitchen, max_depth)
    a, b, base = obj("a", "s"), obj("b", "s"), obj("base", "raw")
    cycle = build_foon(unit([b], "mix", [a]), unit([a], "stir", [b]), unit([base], "chop", [a]))
    assert accepts_depth_exhausted(cycle, b, Kitchen([base]), 1)
    assert not accepts_depth_exhausted(cycle, b, Kitchen([base]), 2)
    # Without its feed neither goal is derivable, at any bound.
    for max_depth in (-1, 0, 5):
        assert not accepts_depth_exhausted(foon, goal, Kitchen(), max_depth)
        assert not accepts_depth_exhausted(cycle, b, Kitchen([obj("spare", "raw")]), max_depth)
    assert search_ids(foon, goal, Kitchen(), 2).failure.reason is FailureReason.GOAL_UNREACHABLE


def test_generator_deterministic():
    cfg = GeneratorConfig(max_units=12, seed=99)
    a_foon, a_goal, a_kitchen = generate_instance(cfg)
    b_foon, b_goal, b_kitchen = generate_instance(cfg)
    assert a_foon.units == b_foon.units
    assert object_key(a_goal) == object_key(b_goal)
    assert sorted(map(object_key, a_kitchen.items)) == sorted(map(object_key, b_kitchen.items))


def test_generator_single_unit_solvable():
    cfg = GeneratorConfig(max_units=1, max_branching=1, kitchen_fraction=1.0, seed=3)
    foon, goal, kitchen = generate_instance(cfg)
    assert len(foon.units) == 1
    assert oracle_search(foon, goal, kitchen) is not None


def test_generator_goal_is_produced():
    for seed in range(25):
        foon, goal, _ = generate_instance(GeneratorConfig(max_units=8, seed=seed))
        assert foon.producing(goal)


def test_generator_multiple_producers_when_branching():
    hits = 0
    for seed in range(25):
        foon, _, _ = generate_instance(
            GeneratorConfig(max_units=8, max_branching=3, seed=seed))
        counts = {}
        for u in foon.units:
            for out in u.outputs:
                counts[object_key(out)] = counts.get(object_key(out), 0) + 1
        if max(counts.values()) > 1:
            hits += 1
    assert hits == 25


def test_generator_solvable_fraction_near_frozen_target():
    # Frozen by labelling seeds 0..199 with the oracle at kitchen_fraction=0.8.
    target = 0.76
    cfg_kwargs = dict(max_units=8, max_branching=2, max_inputs_per_unit=2,
                      kitchen_fraction=0.8)
    solvable = 0
    total = 200
    for seed in range(total):
        foon, goal, kitchen = generate_instance(GeneratorConfig(seed=seed, **cfg_kwargs))
        if oracle_search(foon, goal, kitchen) is not None:
            solvable += 1
    assert abs(solvable / total - target) <= 0.10


def _object_text(o):
    # The fields themselves, so that the pin follows the instance and not
    # the text form ``object_key`` prints.
    return repr((o.name, sorted(o.states), sorted(o.ingredients)))


def _instance_text(cfg):
    foon, goal, kitchen = generate_instance(cfg)
    return "\n".join([serialize_subgraph(SubgraphDocument(list(foon.units))),
                      _object_text(goal), *map(_object_text, kitchen.items), ""])


# SHA-256 of every instance below. The pin was first computed while the
# generator still inserted units one by one. It was computed again, on the
# same generator, when ``_object_text`` took the place of ``object_key``
# here. Any change to a seed's instance changes it.
_INSTANCES_DIGEST = "d3e342fcc716ddd1a2d24be0dc70793715e2c13e70b0fceb935dd6e2ab893740"


def test_generator_instances_are_pinned():
    digest = hashlib.sha256()
    for max_units, kitchen_fraction in [(1, 1.0), (8, 0.8), (40, 0.5), (40, 0.8), (200, 0.6)]:
        for max_branching in (1, 3):
            for seed in range(20):
                cfg = GeneratorConfig(max_units=max_units, max_branching=max_branching,
                                      kitchen_fraction=kitchen_fraction, seed=seed)
                digest.update(_instance_text(cfg).encode("utf-8"))
    assert digest.hexdigest() == _INSTANCES_DIGEST
