"""Task-tree retrieval: iterative deepening search and two greedy heuristics.

All three algorithms search backwards from the goal object, and all fail
a goal the kitchen cannot derive alike, ``GoalUnreachable``. A candidate
unit for an object is any unit producing it. IDS explores with an
increasing depth bound and backtracks; the greedy searches commit to one
candidate per object (best motion rate, or fewest inputs) and never
backtrack, so they can fail on instances IDS solves.
"""
from __future__ import annotations

import enum
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


def validate_task_tree(tree: TaskTree, kitchen: Kitchen, goal: ObjectNode,
                       foon: UniversalFOON | None = None) -> ValidationReport:
    """Check executable order and that the tree actually yields the goal;
    with ``foon``, then also that each unit is one of ``foon``'s own (by
    identity, found through its producer index), not merely an equal one.

    Reports the first violating (position, object) on failure; a foreign
    unit is reported by its position alone.
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
    if foon is not None:
        for position, unit in enumerate(tree.units):
            if all(unit is not known for known in foon.producing(unit.outputs[0])):
                return ValidationReport(
                    False, position, None, f"unit {position} is not one of the FOON's units")
    return ValidationReport(True)


def search_ids(
    foon: UniversalFOON,
    goal: ObjectNode,
    kitchen: Kitchen,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> SearchOutcome:
    """Iterative deepening backward search.

    A goal that cannot be derived, or only deeper than ``max_depth``, fails
    at once, as ``_unreachable`` says. Otherwise, for each bound d from 0 to
    the goal's depth, run a depth-limited DFS: an object is solved if it is
    in the kitchen, otherwise each producing unit is tried in FOON order,
    solving every input with budget d - 1 (first success wins); an
    underivable object is a dead end. Units are emitted post-order, each
    once. The objects on the DFS path are one set per iteration, so cycles
    cannot loop the search. The DFS runs on an explicit stack of frames, so
    any depth is safe; a frame's iterators over its candidates and over the
    inputs of the unit it tries resume it where a child stopped. Only the
    last bound succeeds: a tree found at bound d is at most d deep, and the
    path never prunes an object's shallowest producer, whose inputs are
    shallower than every object on it.
    """
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    failure = _unreachable(view, goal, start, max_depth)
    if failure is not None:
        return failure
    stocked, expand, depths, dead = view.stocked, view.expand, view.depth, SearchView.UNDERIVABLE
    visits: dict[int, int] = {}
    per_depth: list[int] = []
    deepest = 0
    # ``emitted`` maps id(unit) to unit for every solved subtree's units,
    # post-order, each once; a frame's subtree is what came after its
    # ``mark``. A frame is [object, its candidates left, the unit being
    # tried, that unit's inputs left, mark]; the iterators are its cursors.
    emitted = {}
    for bound in range(depths[start] + 1):
        emitted.clear()
        expansions = 0
        path = set()
        stack = []
        node = start
        while True:
            if node is not None:
                # Open ``node`` at level len(stack), with budget bound - level.
                # A derivable object not stocked has a candidate.
                ok = stocked[node]
                if not ok and depths[node] != dead:
                    level = len(stack)
                    visits[node] = visits.get(node, 0) + 1
                    if level > deepest:
                        deepest = level
                    if level < bound:
                        path.add(node)
                        stack.append([node, iter(expand(node)), None, None, len(emitted)])
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
        per_depth.append(expansions)
    return _outcome(view, goal, per_depth, visits, None, list(emitted.values()), deepest=deepest)


def _outcome(view, goal, per_depth, visits, reason, units=(), blocked=(), deepest=0):
    """What every search returns: the tree of ``units`` if ``reason`` is
    None, else a failure on the ``blocked`` ids' leaves (those no unit
    produces, or all for a pure cycle) in ``object_key`` order, or the goal.
    Its stats hold ``per_depth``, one entry per depth bound tried, and their
    sum, ``visits`` as objects and ``deepest``."""
    objects = view.objects
    stats = SearchStats(sum(per_depth), deepest, max(len(per_depth) - 1, 0), per_depth,
                        {objects[node]: count for node, count in visits.items()})
    if reason is None:
        return SearchOutcome(tree=TaskTree(units, goal, stats))
    blocked = [node for node in blocked if not view.expand(node)] or blocked
    blocked = sorted([objects[node] for node in blocked], key=object_key)
    return SearchOutcome(failure=SearchFailure(reason, blocked or [goal], stats))


def _forward_chain(rules, stocked, waiting, ready, take, put):
    """Linear forward chaining (Dowling & Gallier, 1984) on ``SearchView`` ids.

    Each rule ``(unit, input ids, output ids)`` counts its inputs not
    ``stocked``; each such object lists in ``waiting`` the rules waiting on
    it. The rules ready at the start go into ``ready`` (a deque for level
    order, or a heap), positions ascending. While it is not empty,
    ``take(ready)`` removes a rule, its position is yielded, and its outputs
    are released, each once: ``put(ready, position)`` adds each rule a
    release readies. Objects never released stay in ``waiting``.
    """
    missing = [0] * len(rules)
    for position, (_, inputs, _) in enumerate(rules):
        for inp in inputs:
            if not stocked[inp]:
                missing[position] += 1
                waiting.setdefault(inp, []).append(position)
    ready.extend(position for position, count in enumerate(missing) if not count)
    while ready:
        position = take(ready)
        yield position
        for out in rules[position][2]:
            for waiter in waiting.pop(out, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    put(ready, waiter)


def _cone(view, start, enter):
    """``start`` and the ids reached from it through the inputs of every
    candidate, entering only the ids ``enter`` accepts, in the order reached."""
    members, seen = [start], {start}
    for node in members:
        for _, inputs, _ in view.expand(node):
            for inp in inputs:
                if inp not in seen and enter(inp):
                    seen.add(inp)
                    members.append(inp)
    return members


def _unreachable(view, goal, start, max_depth=None):
    """Every search's check before it expands anything: ``GoalUnreachable``
    on the leaves of ``start``'s underivable cone, or, given ``max_depth``,
    ``DepthExhausted`` if it is deeper, or None. ``_levels`` over the cone's
    candidates gives its exact ``view.depth``: derivations use no others."""
    depth, stocked = view.depth, view.stocked
    if depth[start] == SearchView.UNRESOLVED:
        cone = _cone(view, start, lambda node: not stocked[node])
        found = _levels(view, [rule for node in cone for rule in view.expand(node)])
        for node in cone:
            depth[node] = found.get(node, SearchView.UNDERIVABLE)
    if depth[start] == SearchView.UNDERIVABLE:
        return _outcome(view, goal, [], {}, FailureReason.GOAL_UNREACHABLE, blocked=_cone(
            view, start, lambda node: depth[node] == SearchView.UNDERIVABLE))
    if max_depth is not None and depth[start] > max_depth:
        return _outcome(view, goal, [], {}, FailureReason.DEPTH_EXHAUSTED)
    return None


def _levels(view, rules):
    """Each id that ``rules`` derive from ``view``'s stocked ids, not
    stocked itself, with its depth, in the order derived: chained first in,
    first out, so level by level, and an id's first depth is its least."""
    stocked, depths = view.stocked, {}
    for position in _forward_chain(rules, stocked, {}, deque(), deque.popleft, deque.append):
        _, inputs, outputs = rules[position]
        depth = max([depths.get(inp, 0) for inp in inputs]) + 1
        for out in outputs:
            if not stocked[out]:
                depths.setdefault(out, depth)
    return depths


def derivation_depths(foon: UniversalFOON, kitchen: Kitchen) -> dict[ObjectNode, int]:
    """Every object derivable from ``kitchen``, with its depth: 0 for a
    kitchen item, else one more than the deepest input of its shallowest
    producer. Every search fails ``GoalUnreachable`` on a goal with no
    depth; ``search_ids`` succeeds on one at most ``max_depth`` deep and
    fails ``DepthExhausted`` on a deeper one. ``_levels`` over the whole
    FOON, on a ``SearchView`` of its own."""
    view = SearchView(foon.producers, kitchen)
    depths = dict.fromkeys(kitchen.items, 0)
    for node, depth in _levels(view, view.rules(foon.units)).items():
        depths[view.objects[node]] = depth
    return depths


def _search_greedy(foon, goal, kitchen, selection_key) -> SearchOutcome:
    """Forward-committing backward search on a derivable goal: each object
    reached, from the goal breadth-first, gets the candidate with the least
    ``selection_key``, which takes a ``(unit, input ids, output ids)``
    candidate of the FOON's ``SearchView`` for ``kitchen``. Forward
    chaining orders the selection; what it never releases fails it,
    ``UnsatisfiedLeaves``. Visits and queue hold ids, not objects."""
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    unreachable = _unreachable(view, goal, start)
    if unreachable is not None:
        return unreachable
    stocked, expand = view.stocked, view.expand
    # Each object not in the kitchen is queued once, when it enters ``visits``.
    visits: dict[int, int] = {} if stocked[start] else {start: 1}
    queue = deque(visits)
    # Chosen candidates, once each, in discovery order. One unit can be
    # chosen for several of its outputs; a FOON holds each unit as one object.
    selected: dict[int, tuple] = {}
    expansions = 0
    while queue:
        candidates = expand(queue.popleft())
        expansions += len(candidates)
        if not candidates:
            continue
        # Candidates are in FOON order and min keeps the first of equal
        # keys, so ties go to the earliest unit.
        best = min(candidates, key=selection_key)
        selected.setdefault(id(best[0]), best)
        for inp in best[1]:
            if inp not in visits and not stocked[inp]:
                visits[inp] = 1
                queue.append(inp)

    # Forward chaining orders the selection, firing the earliest-discovered
    # ready unit first: readiness is monotone, so a min-heap of positions
    # finds it. Objects never released, any with no candidate too, block it.
    chosen = list(selected.values())
    waiting: dict[int, list[int]] = {}
    ordered = [chosen[position][0] for position in
               _forward_chain(chosen, stocked, waiting, [], heapq.heappop, heapq.heappush)]
    if waiting:
        return _outcome(view, goal, [expansions], visits, FailureReason.UNSATISFIED_LEAVES,
                        blocked=waiting)
    # Every selected unit fired, so the order is executable, and the unit
    # chosen for the goal produces it.
    return _outcome(view, goal, [expansions], visits, None, ordered)


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
