"""The searches as they were before the linear search core: a frozen reference.

``search_ids``, ``_dependency_sort`` and ``_search_greedy`` below are
copied unchanged from ``foon.retrieval`` as it stood before IDS moved to
an explicit stack with one mutable path set and the greedy ordering
became Kahn's algorithm. ``tests/test_search_core.py`` asserts that
the current searches return exactly what these return. Do not edit them
to follow the library; they are the reference. One edit was made when
units stopped storing their ordinal: the greedy tie-break reads the
unit's index in ``foon.units``, the value the stored ordinal held.
"""
from __future__ import annotations

from collections import deque

from foon.model import (
    FunctionalUnit,
    Kitchen,
    ObjectNode,
    SearchStats,
    UniversalFOON,
    object_key,
)
from foon.retrieval import (
    DEFAULT_MAX_DEPTH,
    FailureReason,
    SearchFailure,
    SearchOutcome,
    TaskTree,
    validate_task_tree,
)


def search_ids(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SearchOutcome:
    """Iterative deepening backward search.

    For each depth bound d = 0..max_depth, run a depth-limited DFS:
    an object is solved if it is in the kitchen, otherwise each producing
    unit is tried in insertion order, solving every input with budget
    d - 1 (first success wins). Units are emitted post-order (dependencies
    first) and deduplicated. A DFS path carries the set of in-progress
    objects so cyclic knowledge cannot loop the search.
    """
    stats = SearchStats()
    if goal not in kitchen and not foon.producing(goal):
        return SearchOutcome(failure=SearchFailure(
            FailureReason.GOAL_UNREACHABLE, [goal], stats))

    visits: dict[ObjectNode, int] = {}
    dead_ends: dict[ObjectNode, ObjectNode] = {}
    depth_limit_hit = False

    def solve(obj, budget, path, level):
        nonlocal depth_limit_hit
        if obj in kitchen:
            return []
        visits[obj] = visits.get(obj, 0) + 1
        stats.max_stack_depth = max(stats.max_stack_depth, level)
        if budget == 0:
            depth_limit_hit = True
            return None
        candidates = foon.producing(obj)
        if not candidates:
            dead_ends[obj] = obj
            return None
        inner_path = path | {obj}
        for unit in candidates:
            stats.per_depth_expansions[-1] += 1
            if any(inp in inner_path for inp in unit.inputs):
                continue
            collected = []
            solved_all = True
            for inp in unit.inputs:
                sub = solve(inp, budget - 1, inner_path, level + 1)
                if sub is None:
                    solved_all = False
                    break
                collected.extend(sub)
            if solved_all:
                collected.append(unit)
                return collected
        return None

    result = None
    reason = FailureReason.DEPTH_EXHAUSTED
    for depth in range(max_depth + 1):
        stats.per_depth_expansions.append(0)
        stats.depth_limit_reached = depth
        dead_ends.clear()
        depth_limit_hit = False
        result = solve(goal, depth, frozenset(), 0)
        if result is not None:
            break
        if not depth_limit_hit:
            # The failure did not touch the depth bound, so no deeper
            # iteration can succeed: the goal is structurally unreachable.
            reason = FailureReason.GOAL_UNREACHABLE
            break
    stats.expansions = sum(stats.per_depth_expansions)
    stats.object_visits = {object_key(obj): count for obj, count in visits.items()}
    if result is not None:
        # A unit shared by several subtrees is collected once per subtree.
        unique = {id(unit): unit for unit in result}
        return SearchOutcome(tree=TaskTree(list(unique.values()), goal, stats))
    return SearchOutcome(failure=SearchFailure(
        reason, sorted(dead_ends.values(), key=object_key) or [goal], stats))


def _dependency_sort(selected, kitchen):
    """Stable executable ordering of the greedy selection.

    Repeatedly emits the earliest-discovered unit whose inputs are all
    available (kitchen plus outputs of already-emitted units). Returns
    (ordered units, blocked objects); blocked is non-empty when the
    selection cannot be made executable.
    """
    available = set(kitchen.items)
    remaining = list(selected)
    ordered = []
    while remaining:
        ready = None
        for unit in remaining:
            if all(inp in available for inp in unit.inputs):
                ready = unit
                break
        if ready is None:
            blocked = {inp for unit in remaining for inp in unit.inputs if inp not in available}
            return ordered, sorted(blocked, key=object_key)
        remaining.remove(ready)
        ordered.append(ready)
        available.update(ready.outputs)
    return ordered, []


def _search_greedy(foon, goal, kitchen, selection_key) -> SearchOutcome:
    stats = SearchStats()
    if goal in kitchen:
        stats.per_depth_expansions = [0]
        return SearchOutcome(tree=TaskTree([], goal, stats))

    queue = deque([goal])
    visited = {goal}
    # Chosen units, once each, in discovery order. One unit can be chosen
    # for several of its outputs; a FOON holds each unit as one object.
    selected: dict[int, FunctionalUnit] = {}
    visits: dict[ObjectNode, int] = {}
    blocked = set()
    ordinal = {id(unit): position for position, unit in enumerate(foon.units)}
    while queue:
        node = queue.popleft()
        if node in kitchen:
            continue
        candidates = foon.producing(node)
        stats.expansions += len(candidates)
        visits[node] = visits.get(node, 0) + 1
        if not candidates:
            blocked.add(node)
            continue
        best = min(candidates, key=lambda unit: (selection_key(unit), ordinal[id(unit)]))
        selected.setdefault(id(best), best)
        for inp in best.inputs:
            if inp not in visited:
                visited.add(inp)
                queue.append(inp)

    stats.per_depth_expansions = [stats.expansions]
    stats.object_visits = {object_key(obj): count for obj, count in visits.items()}
    if blocked:
        reason = (FailureReason.GOAL_UNREACHABLE if goal in blocked
                  else FailureReason.UNSATISFIED_LEAVES)
        return SearchOutcome(failure=SearchFailure(
            reason, sorted(blocked, key=object_key), stats))

    ordered, sort_blocked = _dependency_sort(selected.values(), kitchen)
    if sort_blocked:
        return SearchOutcome(failure=SearchFailure(
            FailureReason.UNSATISFIED_LEAVES, sort_blocked, stats))
    tree = TaskTree(ordered, goal, stats)
    report = validate_task_tree(tree, kitchen, goal)
    if not report:
        return SearchOutcome(failure=SearchFailure(
            FailureReason.UNSATISFIED_LEAVES,
            [report.obj] if report.obj is not None else [goal], stats))
    return SearchOutcome(tree=tree)
