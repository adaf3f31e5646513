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
import functools
import heapq
from collections import deque

from .model import (
    Kitchen,
    MotionRateTable,
    ObjectNode,
    SearchStats,
    SearchView,
    UniversalFOON,
    _Record,
    object_key,
)

DEFAULT_MAX_DEPTH = 50


class FailureReason(enum.Enum):
    GOAL_UNREACHABLE = "GoalUnreachable"
    DEPTH_EXHAUSTED = "DepthExhausted"
    UNSATISFIED_LEAVES = "UnsatisfiedLeaves"


class TaskTree(_Record):
    """An executable sequence of functional units yielding the goal."""

    _fields = ("units", "goal", "stats")

    def __init__(self, units, goal, stats=None):
        self.units = units
        self.goal = goal
        self.stats = SearchStats() if stats is None else stats


class SearchFailure(_Record):
    _fields = ("reason", "blocked_objects", "stats")

    def __init__(self, reason, blocked_objects, stats=None):
        self.reason = reason
        self.blocked_objects = blocked_objects
        self.stats = SearchStats() if stats is None else stats


class SearchOutcome(_Record):
    """Exactly one of ``tree`` / ``failure`` is set."""

    _fields = ("tree", "failure")

    def __init__(self, tree=None, failure=None):
        self.tree = tree
        self.failure = failure

    @property
    def ok(self) -> bool:
        return self.tree is not None


class ValidationReport(_Record):
    _fields = ("ok", "position", "obj", "message")

    def __init__(self, ok, position=None, obj=None, message=""):
        self.ok = ok
        self.position = position
        self.obj = obj
        self.message = message

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
                    f"input '{object_key(obj)}' of unit {position} is not available",
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
    first), each once. The set of in-progress objects on the DFS
    path is one mutable set per iteration, so cyclic knowledge cannot
    loop the search. The DFS runs on an explicit stack of frames, not on
    the Python stack, so any ``max_depth`` is safe. A frame holds an
    iterator over its object's candidates and one over the inputs of the
    unit it is trying, so a child's result resumes the frame where it
    stopped. The DFS walks the FOON's ``SearchView`` for ``kitchen``: the
    path, dead ends and visit counts hold object ids, and objects come
    back only in the result.
    """
    stats = SearchStats()
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    stocked, known, expand = view.stocked, view.candidates, view.expand
    visits: dict[int, int] = {}
    if not stocked[start] and not expand(start):
        return _outcome(view, goal, stats, visits, FailureReason.GOAL_UNREACHABLE)

    deepest = 0
    reason = FailureReason.DEPTH_EXHAUSTED
    # ``emitted`` maps id(unit) to unit for every solved subtree's units,
    # post-order, each once; a frame's subtree is what came after its
    # ``mark``. A frame is [object, its candidates left, the unit being
    # tried, that unit's inputs left, mark]; the iterators are its cursors.
    dead_ends, emitted = set(), {}
    for depth in range(max_depth + 1):
        stats.depth_limit_reached = depth
        dead_ends.clear()
        emitted.clear()
        depth_limit_hit = False
        expansions = 0
        path = set()
        stack = []
        node = start
        while True:
            if node is not None:
                # Open ``node`` at level len(stack), with budget depth - level.
                ok = stocked[node]
                if not ok:
                    level = len(stack)
                    visits[node] = visits.get(node, 0) + 1
                    if level > deepest:
                        deepest = level
                    if level == depth:
                        depth_limit_hit = True
                    else:
                        candidates = known[node]
                        if candidates is None:
                            candidates = expand(node)
                        if candidates:
                            path.add(node)
                            stack.append([node, iter(candidates), None, None, len(emitted)])
                        else:
                            dead_ends.add(node)
            if not stack:
                break
            frame = stack[-1]
            if not ok:
                # The current unit failed (or none was tried yet): try the
                # next candidate whose inputs avoid the path.
                for unit, inputs, _ in frame[1]:
                    expansions += 1
                    if path.isdisjoint(inputs):
                        break
                else:
                    stack.pop()
                    path.discard(frame[0])
                    node = None
                    continue
                frame[2] = unit
                frame[3] = iter(inputs)
                # Drop, newest first, what the failed candidates added.
                while len(emitted) > frame[4]:
                    emitted.popitem()
            node = next(frame[3], None)
            if node is None:
                emitted[id(frame[2])] = frame[2]
                stack.pop()
                path.discard(frame[0])
                ok = True
        stats.per_depth_expansions.append(expansions)
        if ok:
            reason = None
            break
        if not depth_limit_hit:
            # The failure did not touch the depth bound, so no deeper
            # iteration can succeed: the goal is structurally unreachable.
            reason = FailureReason.GOAL_UNREACHABLE
            break
    stats.max_stack_depth = deepest
    return _outcome(view, goal, stats, visits, reason, list(emitted.values()), dead_ends)


def _outcome(view, goal, stats, visits, reason, units=(), blocked=()):
    """What every search returns: the tree of ``units`` if ``reason`` is
    None, else a failure on the ``blocked`` ids (in ``object_key`` order) or
    the goal. ``stats`` gets the expansions' sum and ``visits`` as objects."""
    objects = view.objects
    stats.expansions = sum(stats.per_depth_expansions)
    stats.object_visits = {objects[node]: count for node, count in visits.items()}
    if reason is None:
        return SearchOutcome(tree=TaskTree(units, goal, stats))
    blocked = sorted([objects[node] for node in blocked], key=object_key)
    return SearchOutcome(failure=SearchFailure(reason, blocked or [goal], stats))


def _forward_chain(rules, stocked):
    """Linear forward chaining (Dowling & Gallier, 1984) on ``SearchView`` ids.

    Each rule ``(unit, input ids, output ids)`` counts its inputs not
    ``stocked``, and each such object lists the rules waiting on it.
    Returns the rules ready at the start (positions, ascending); ``waiting``,
    where the objects never released stay; and ``release(objects, fire)``,
    which releases each object once and calls ``fire`` on each rule it readies.
    """
    missing = [0] * len(rules)
    waiting: dict[int, list[int]] = {}
    for position, (_, inputs, _) in enumerate(rules):
        for inp in inputs:
            if not stocked[inp]:
                missing[position] += 1
                waiting.setdefault(inp, []).append(position)

    def release(objects, fire):
        for obj in objects:
            for position in waiting.pop(obj, ()):
                missing[position] -= 1
                if not missing[position]:
                    fire(position)

    return [position for position, count in enumerate(missing) if not count], waiting, release


def derivation_depths(foon: UniversalFOON, kitchen: Kitchen) -> dict[ObjectNode, int]:
    """Every object derivable from ``kitchen``, with its depth: 0 for a
    kitchen item, else one more than the deepest input of its shallowest
    producer. ``search_ids`` succeeds exactly when the goal's depth is at
    most ``max_depth``. Chains level by level on a ``SearchView`` of its
    own, so the view the searches share is left as it was."""
    view = SearchView(foon.producers, kitchen)
    objects, rules = view.objects, view.rules(foon.units)
    depths = dict.fromkeys(kitchen.items, 0)
    level, _, release = _forward_chain(rules, view.stocked)
    depth = 0
    while level:
        depth += 1
        following = []
        for position in level:
            outputs = rules[position][2]
            for out in outputs:
                depths.setdefault(objects[out], depth)
            release(outputs, following.append)
        level = following
    return depths


def _search_greedy(foon, goal, kitchen, selection_key) -> SearchOutcome:
    """Forward-committing backward search: each object reached, from the
    goal breadth-first, gets the candidate with the least
    ``selection_key``, which takes a ``(unit, input ids, output ids)``
    candidate of the FOON's ``SearchView`` for ``kitchen``. The visits,
    the queue and the blocked set hold object ids; objects come back only
    in the result."""
    stats = SearchStats()
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    stocked, known, expand = view.stocked, view.candidates, view.expand
    # Each object not in the kitchen is queued once, when it enters ``visits``.
    visits: dict[int, int] = {} if stocked[start] else {start: 1}
    queue = deque(visits)
    # Chosen candidates, once each, in discovery order. One unit can be
    # chosen for several of its outputs; a FOON holds each unit as one object.
    selected: dict[int, tuple] = {}
    blocked = set()
    expansions = 0
    while queue:
        node = queue.popleft()
        candidates = known[node]
        if candidates is None:
            candidates = expand(node)
        expansions += len(candidates)
        if not candidates:
            blocked.add(node)
            continue
        # Candidates are in FOON order and min keeps the first of equal
        # keys, so ties go to the earliest unit.
        best = min(candidates, key=selection_key)
        selected.setdefault(id(best[0]), best)
        for inp in best[1]:
            if inp not in visits and not stocked[inp]:
                visits[inp] = 1
                queue.append(inp)

    stats.per_depth_expansions = [expansions]
    if blocked:
        reason = (FailureReason.GOAL_UNREACHABLE if start in blocked
                  else FailureReason.UNSATISFIED_LEAVES)
        return _outcome(view, goal, stats, visits, reason, blocked=blocked)

    # Forward chaining orders the selection, firing the earliest-discovered
    # ready unit first: readiness is monotone, so a min-heap of positions
    # finds it. Objects never released block the selection.
    chosen = list(selected.values())
    ready, waiting, release = _forward_chain(chosen, stocked)
    fire = functools.partial(heapq.heappush, ready)
    ordered = []
    while ready:
        unit, _, outputs = chosen[heapq.heappop(ready)]
        ordered.append(unit)
        release(outputs, fire)
    if waiting:
        return _outcome(view, goal, stats, visits, FailureReason.UNSATISFIED_LEAVES,
                        blocked=waiting)
    # Every selected unit fired, so the order is executable, and the unit
    # chosen for the goal produces it.
    return _outcome(view, goal, stats, visits, None, ordered)


def search_gbfs_rate(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    rates: MotionRateTable | None = None,
) -> SearchOutcome:
    """Greedy best-first retrieval choosing the candidate with the highest
    motion success rate (ties to the earliest unit)."""
    table = rates if rates is not None else MotionRateTable()
    return _search_greedy(foon, goal, kitchen,
                          lambda candidate: -table.rate(candidate[0].motion.label))


def search_gbfs_inputs(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
) -> SearchOutcome:
    """Greedy best-first retrieval choosing the candidate with the fewest
    input nodes (ties to the earliest unit)."""
    return _search_greedy(foon, goal, kitchen, lambda candidate: len(candidate[1]))
