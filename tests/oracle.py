"""Brute-force reference search, a failure certificate check and a random
instance generator.

The oracle enumerates unit subsets in increasing size and returns a valid
task tree of minimum unit count, so it is an independent ground truth for
solvability and minimality. It is deliberately naive; keep instances small
(roughly 15 units or fewer). ``accepts_unreachable`` and
``accepts_depth_exhausted`` check a ``GoalUnreachable`` and a
``DepthExhausted`` failure with fixpoints of their own, so they run on
FOONs of any size.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from foon.model import (
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    UniversalFOON,
)
from foon.retrieval import TaskTree

DEFAULT_NODE_BUDGET = 10**6

_MOTION_LABELS = (
    "pour", "slice", "mix", "stir", "fry", "boil", "chop", "bake", "whisk", "grate",
)


class BudgetExceeded(Exception):
    """Enumeration surpassed the configured node budget."""


def _execution_order(subset, kitchen):
    """A feasible execution order of ALL units in subset, or None.

    Deterministic: always emits the ready unit that comes first in subset.
    If this greedy emission gets stuck, no order exists (executing extra
    units never removes availability).
    """
    available = set(kitchen.items)
    remaining = list(subset)
    order = []
    while remaining:
        ready = None
        for unit in remaining:
            if all(inp in available for inp in unit.inputs):
                ready = unit
                break
        if ready is None:
            return None
        remaining.remove(ready)
        order.append(ready)
        available.update(ready.outputs)
    return order


def oracle_search(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    max_units: int | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> TaskTree | None:
    """Exhaustive minimal-tree search. Returns None when no tree exists.

    Subsets are enumerated by size, then lexicographically by insertion
    order, so the result is the minimum-count tree with deterministic
    tie-breaking. Raises BudgetExceeded past ``budget`` enumeration steps.
    """
    if goal in kitchen:
        return TaskTree([], goal)
    # If the goal is not derivable with every unit available, no subset
    # can derive it either; skip the exponential enumeration.
    if goal not in derivable_objects(foon, kitchen):
        return None

    limit = len(foon) if max_units is None else min(max_units, len(foon))
    steps = 0
    for size in range(1, limit + 1):
        for subset in itertools.combinations(foon.units, size):
            steps += 1
            if steps > budget:
                raise BudgetExceeded(f"oracle exceeded {budget} enumeration steps")
            if not any(goal in unit.outputs for unit in subset):
                continue
            order = _execution_order(subset, kitchen)
            if order is not None:
                return TaskTree(order, goal)
    return None


def derivable_objects(foon: UniversalFOON, kitchen: Kitchen) -> set[ObjectNode]:
    """Every object the kitchen can make: fire any unit whose inputs are all
    made until none adds an output. Naive on purpose, and independent of
    the package's forward chaining."""
    made = set(kitchen.items)
    grew = True
    while grew:
        grew = False
        for unit in foon.units:
            if made.issuperset(unit.inputs) and not made.issuperset(unit.outputs):
                made.update(unit.outputs)
                grew = True
    return made


def accepts_depth_exhausted(foon: UniversalFOON, goal: ObjectNode, kitchen: Kitchen,
                            max_depth: int) -> bool:
    """Whether a ``DepthExhausted`` failure holds: ``goal`` can be made, but
    only deeper than ``max_depth``. Its depth is the round in which it is
    first made, when each round fires every unit whose inputs earlier
    rounds made (the kitchen is round 0). Naive on purpose."""
    made, depth = set(kitchen.items), 0
    while goal not in made:
        grown = {out for unit in foon.units if made.issuperset(unit.inputs)
                 for out in unit.outputs} - made
        if not grown:
            return False
        made |= grown
        depth += 1
    return depth > max_depth


def _producers(foon: UniversalFOON) -> dict[ObjectNode, list[FunctionalUnit]]:
    producers: dict[ObjectNode, list[FunctionalUnit]] = {}
    for unit in foon.units:
        for out in unit.outputs:
            producers.setdefault(out, []).append(unit)
    return producers


def backward_cone(foon: UniversalFOON, goal: ObjectNode, kitchen: Kitchen) -> set[ObjectNode]:
    """The goal and every input of a producer of a member, stopping at kitchen items."""
    producers = _producers(foon)
    cone, todo = {goal}, [goal]
    while todo:
        member = todo.pop()
        if member not in kitchen:
            for unit in producers.get(member, ()):
                todo.extend(inp for inp in unit.inputs if inp not in cone)
                cone.update(unit.inputs)
    return cone


def accepts_unreachable(foon: UniversalFOON, goal: ObjectNode, kitchen: Kitchen,
                        blocked: list[ObjectNode]) -> bool:
    """Whether ``blocked`` certifies that ``goal`` cannot be made: the goal
    and every listed object are neither stocked nor derivable, every listed
    object lies in the goal's backward cone, and either every listed object
    has no producer, or none has and every producer of each has an input
    in the list (an unfounded set: no order of units can make one first)."""
    made, cone = derivable_objects(foon, kitchen), backward_cone(foon, goal, kitchen)
    listed = set(blocked)
    if not listed or goal in made or listed & made or not listed <= cone:
        return False
    index = _producers(foon)
    producers = [index.get(member, []) for member in listed]
    return (all(not units for units in producers)
            or all(units and all(listed.intersection(unit.inputs) for unit in units)
                   for units in producers))


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for random FOON instances; generation is pure in (config, seed)."""

    max_units: int = 10
    max_branching: int = 3
    max_inputs_per_unit: int = 3
    kitchen_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if min(self.max_units, self.max_branching, self.max_inputs_per_unit) < 1:
            raise ValueError("all generator counts must be >= 1")
        if not 0.0 <= self.kitchen_fraction <= 1.0:
            raise ValueError("kitchen_fraction must be in [0, 1]")


def generate_instance(cfg: GeneratorConfig):
    """Random (FOON, goal, kitchen) instance.

    The goal is always the output of some unit. When max_branching > 1 and
    at least two units fit, some object gets multiple producers. Kitchen
    items are pruned with probability 1 - kitchen_fraction, which yields a
    mix of solvable and unsolvable instances.
    """
    rng = random.Random(f"{cfg.seed}:{cfg.max_units}:{cfg.max_branching}:"
                        f"{cfg.max_inputs_per_unit}:{cfg.kitchen_fraction}")
    want_branching = cfg.max_branching > 1 and cfg.max_units >= 2
    n_units = rng.randint(2 if want_branching else 1, cfg.max_units)

    base = [ObjectNode(f"base{i}", frozenset({"raw"}))
            for i in range(max(2, cfg.max_inputs_per_unit))]
    units: dict[FunctionalUnit, None] = {}
    pool = list(base)
    produced: list[ObjectNode] = []
    producer_count: dict[ObjectNode, int] = {}
    next_id = 0

    def add_unit(output):
        nonlocal next_id
        choices = [obj for obj in pool if obj != output]
        k_in = rng.randint(1, min(cfg.max_inputs_per_unit, len(choices)))
        inputs = rng.sample(choices, k_in)
        unit = FunctionalUnit(inputs, MotionNode(rng.choice(_MOTION_LABELS)), [output])
        if unit in units:
            return False
        units[unit] = None
        if producer_count.get(output, 0) == 0:
            produced.append(output)
            pool.append(output)
        producer_count[output] = producer_count.get(output, 0) + 1
        return True

    target = n_units - 1 if want_branching else n_units
    attempts = 0
    while len(units) < target and attempts < 50 * n_units:
        attempts += 1
        reusable = [obj for obj in produced
                    if producer_count[obj] < cfg.max_branching]
        if reusable and rng.random() < 0.35:
            output = rng.choice(reusable)
        else:
            output = ObjectNode(f"item{next_id}", frozenset({"made"}))
            next_id += 1
        add_unit(output)

    if want_branching and not any(count > 1 for count in producer_count.values()):
        # Force at least one object with multiple producers.
        candidates = [obj for obj in produced
                      if producer_count[obj] < cfg.max_branching]
        forced = False
        for _ in range(50):
            output = rng.choice(candidates) if candidates else rng.choice(produced)
            if add_unit(output):
                forced = True
                break
        if not forced:
            add_unit(ObjectNode(f"item{next_id}", frozenset({"made"})))

    goal = rng.choice(produced)
    kitchen = Kitchen(obj for obj in base if rng.random() < cfg.kitchen_fraction)
    return UniversalFOON(units), goal, kitchen
