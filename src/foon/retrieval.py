"""Task-tree retrieval: iterative deepening search and two greedy heuristics.

All three algorithms search backwards from the goal object. A candidate
unit for an object is any unit producing it; a unit is usable once every
input is in the kitchen or derivable. IDS explores with an increasing
depth bound and backtracks; the greedy searches commit to one candidate
per object (best motion rate, or fewest inputs) and never backtrack, so
they can fail on instances IDS solves.
"""
from __future__ import annotations

import enum
import heapq
from collections import deque
from dataclasses import dataclass, field

from .model import (
    FunctionalUnit,
    Kitchen,
    MotionRateTable,
    ObjectNode,
    SearchStats,
    UniversalFOON,
    object_key,
)

DEFAULT_MAX_DEPTH = 50


class FailureReason(enum.Enum):
    GOAL_UNREACHABLE = "GoalUnreachable"
    DEPTH_EXHAUSTED = "DepthExhausted"
    UNSATISFIED_LEAVES = "UnsatisfiedLeaves"


@dataclass
class TaskTree:
    """An executable sequence of functional units yielding the goal."""

    units: list
    goal: ObjectNode
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class SearchFailure:
    reason: FailureReason
    blocked_objects: list
    stats: SearchStats = field(default_factory=SearchStats)


@dataclass
class SearchOutcome:
    """Exactly one of ``tree`` / ``failure`` is set."""

    tree: TaskTree | None = None
    failure: SearchFailure | None = None

    @property
    def ok(self) -> bool:
        return self.tree is not None


@dataclass
class ValidationReport:
    ok: bool
    position: int | None = None
    obj: ObjectNode | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


def validate_task_tree(tree: TaskTree, kitchen: Kitchen, goal: ObjectNode) -> ValidationReport:
    """Check executable order and that the tree actually yields the goal.

    Reports the first violating (position, object) on failure.
    """
    produced = set()
    for position, unit in enumerate(tree.units):
        for obj in unit.inputs:
            if obj not in produced and obj not in kitchen:
                return ValidationReport(
                    False, position, obj,
                    f"input {object_key(obj)!r} of unit {position} is not available",
                )
        produced.update(unit.outputs)
    if goal not in produced and goal not in kitchen:
        return ValidationReport(False, None, goal, "goal is neither produced nor in the kitchen")
    return ValidationReport(True)


def search_ids(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SearchOutcome:
    """Iterative deepening backward search.

    For each depth bound d = 0..max_depth, run a depth-limited DFS:
    an object is solved if it is in the kitchen, otherwise each producing
    unit is tried in FOON order, solving every input with budget
    d - 1 (first success wins). Units are emitted post-order (dependencies
    first) and deduplicated. The set of in-progress objects on the DFS
    path is one mutable set per iteration, so cyclic knowledge cannot
    loop the search. The DFS runs on an explicit stack of frames, not on
    the Python stack, so any ``max_depth`` is safe. A frame holds an
    iterator over its object's candidates and one over the inputs of the
    unit it is trying, so a child's result resumes the frame where it
    stopped.
    """
    stats = SearchStats()
    if goal not in kitchen and not foon.producing(goal):
        return SearchOutcome(failure=SearchFailure(
            FailureReason.GOAL_UNREACHABLE, [goal], stats))

    producing = foon.producing
    visits: dict[ObjectNode, int] = {}
    deepest = 0
    solved = False
    reason = FailureReason.DEPTH_EXHAUSTED
    for depth in range(max_depth + 1):
        stats.depth_limit_reached = depth
        dead_ends = set()
        depth_limit_hit = False
        expansions = 0
        path = set()
        # ``emitted`` holds the post-order units of every solved subtree;
        # a frame's subtree is the slice from its ``mark``. A frame is
        # [object, its candidates left, the unit being tried, that unit's
        # inputs left, mark]; the two iterators are the frame's cursors.
        emitted = []
        stack = []
        obj = goal
        while True:
            if obj is not None:
                # Open ``obj`` at level len(stack), with budget depth - level.
                if obj in kitchen:
                    ok = True
                else:
                    ok = False
                    level = len(stack)
                    visits[obj] = visits.get(obj, 0) + 1
                    if level > deepest:
                        deepest = level
                    if level == depth:
                        depth_limit_hit = True
                    else:
                        candidates = producing(obj)
                        if candidates:
                            path.add(obj)
                            stack.append([obj, iter(candidates), None, None, len(emitted)])
                        else:
                            dead_ends.add(obj)
            if not stack:
                solved = ok
                break
            frame = stack[-1]
            if not ok:
                # The current unit failed (or none was tried yet): try the
                # next candidate whose inputs avoid the path.
                for unit in frame[1]:
                    expansions += 1
                    if path.isdisjoint(unit.inputs):
                        break
                else:
                    stack.pop()
                    path.discard(frame[0])
                    obj = None
                    continue
                frame[2] = unit
                frame[3] = iter(unit.inputs)
                del emitted[frame[4]:]
            obj = next(frame[3], None)
            if obj is None:
                emitted.append(frame[2])
                stack.pop()
                path.discard(frame[0])
                ok = True
        stats.per_depth_expansions.append(expansions)
        if solved:
            break
        if not depth_limit_hit:
            # The failure did not touch the depth bound, so no deeper
            # iteration can succeed: the goal is structurally unreachable.
            reason = FailureReason.GOAL_UNREACHABLE
            break
    stats.max_stack_depth = deepest
    stats.expansions = sum(stats.per_depth_expansions)
    stats.object_visits = visits
    if solved:
        # A unit shared by several subtrees is emitted once per subtree.
        unique = {id(unit): unit for unit in emitted}
        return SearchOutcome(tree=TaskTree(list(unique.values()), goal, stats))
    return SearchOutcome(failure=SearchFailure(
        reason, sorted(dead_ends, key=object_key) or [goal], stats))


def _dependency_sort(selected, kitchen):
    """Stable executable ordering of the greedy selection, in linear time.

    Emits, at each step, the earliest-discovered unit whose inputs are all
    available (kitchen plus outputs of already-emitted units). This is
    Kahn's topological sort: each unit counts its input occurrences not
    in the kitchen, each such object lists the units waiting on it, and
    a min-heap holds the positions of ready units. Readiness is monotone,
    so popping the lowest ready position gives the earliest ready unit.
    Returns (ordered units, blocked objects); blocked, the inputs of the
    units that never became ready that are neither produced nor in the
    kitchen, is non-empty when the selection cannot be made executable.
    """
    units = list(selected)
    missing = [0] * len(units)
    waiting: dict[ObjectNode, list[int]] = {}
    for position, unit in enumerate(units):
        for inp in unit.inputs:
            if inp not in kitchen:
                missing[position] += 1
                waiting.setdefault(inp, []).append(position)
    # Ascending, so already a heap.
    ready = [position for position, count in enumerate(missing) if not count]
    ordered = []
    while ready:
        unit = units[heapq.heappop(ready)]
        ordered.append(unit)
        # Popping releases each object once, however often it is produced;
        # what stays in ``waiting`` is never produced.
        for out in unit.outputs:
            for position in waiting.pop(out, ()):
                missing[position] -= 1
                if not missing[position]:
                    heapq.heappush(ready, position)
    if len(ordered) == len(units):
        return ordered, []
    blocked = {inp for unit, count in zip(units, missing) if count
               for inp in unit.inputs if inp in waiting}
    return ordered, sorted(blocked, key=object_key)


def _search_greedy(foon, goal, kitchen, selection_key) -> SearchOutcome:
    stats = SearchStats()
    # Each object not in the kitchen is queued once, when it enters ``visits``.
    visits: dict[ObjectNode, int] = {} if goal in kitchen else {goal: 1}
    queue = deque(visits)
    # Chosen units, once each, in discovery order. One unit can be chosen
    # for several of its outputs; a FOON holds each unit as one object.
    selected: dict[int, FunctionalUnit] = {}
    blocked = set()
    while queue:
        node = queue.popleft()
        candidates = foon.producing(node)
        stats.expansions += len(candidates)
        if not candidates:
            blocked.add(node)
            continue
        # Candidates are in FOON order and min keeps the first of equal
        # keys, so ties go to the earliest unit.
        best = min(candidates, key=selection_key)
        selected.setdefault(id(best), best)
        for inp in best.inputs:
            if inp not in visits and inp not in kitchen:
                visits[inp] = 1
                queue.append(inp)

    stats.per_depth_expansions = [stats.expansions]
    stats.object_visits = visits
    if blocked:
        reason = (FailureReason.GOAL_UNREACHABLE if goal in blocked
                  else FailureReason.UNSATISFIED_LEAVES)
        return SearchOutcome(failure=SearchFailure(
            reason, sorted(blocked, key=object_key), stats))

    ordered, sort_blocked = _dependency_sort(selected.values(), kitchen)
    if sort_blocked:
        return SearchOutcome(failure=SearchFailure(
            FailureReason.UNSATISFIED_LEAVES, sort_blocked, stats))
    # Kahn's sort emitted every selected unit, so the order is executable,
    # and the unit chosen for the goal produces it.
    return SearchOutcome(tree=TaskTree(ordered, goal, stats))


def search_gbfs_rate(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    rates: MotionRateTable | None = None,
) -> SearchOutcome:
    """Greedy best-first retrieval choosing the candidate with the highest
    motion success rate (ties to the earliest unit)."""
    table = rates if rates is not None else MotionRateTable()
    return _search_greedy(foon, goal, kitchen, lambda unit: -table.rate(unit.motion.label))


def search_gbfs_inputs(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
) -> SearchOutcome:
    """Greedy best-first retrieval choosing the candidate with the fewest
    input nodes (ties to the earliest unit)."""
    return _search_greedy(foon, goal, kitchen, lambda unit: len(unit.inputs))
