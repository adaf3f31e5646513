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
from itertools import count

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

    Within one iteration, an object that ``view.refs`` says can be reached
    twice is settled once (graph-history interaction, Kishimoto & Müller
    2004, cannot arise from what is kept):
    - a frame that fails with a budget below the object's depth fails under
      every path, so a later arrival with no larger budget is a dead end;
    - a frame that succeeds with no cycle-prune (an input on the path) in
      its subtree failed each earlier candidate for want of budget alone,
      so a later arrival at its level replays the subtree's units, unless
      one of their inputs is on the path then, and the object is solved
      again.
    Either way the tree is the one the plain DFS returns; an arrival so
    answered is neither a visit nor an expansion.
    """
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    failure = _unreachable(view, goal, start, max_depth)
    if failure is not None:
        return failure
    # ``_unreachable`` resolved every object the DFS can reach, and so built
    # its candidates: a depth above 0 is a derivable object not stocked.
    candidates, depths, refs = view.candidates, view.depth, view.refs
    visits: dict[int, int] = {}
    per_depth: list[int] = []
    deepest = 0
    for bound in range(depths[start] + 1):
        expansions = prunes = 0
        path = set()
        # ``out`` holds the rules of solved subtrees, post-order; a frame's
        # subtree is ``out[mark:]``. A frame is [object, its candidates
        # left, the rule being tried, that rule's inputs left, mark, prunes
        # when opened]; the iterators are its cursors.
        out = []
        failed = {}  # object -> the largest budget it failed at, below its depth
        solved = {}  # (object, level) -> its subtree's rules, post-order, each once
        stack = []
        node = start
        while True:
            if node is not None:
                # Arrive at ``node`` at level len(stack), with budget bound - level.
                depth = depths[node]
                if depth > 0:
                    ok = False
                    level = len(stack)
                    if refs[node] > 1 and level < bound:
                        if failed.get(node, 0) >= bound - level:
                            node = None  # a dead end
                        else:
                            entry = solved.get((node, level))
                            if entry is not None and all(
                                    path.isdisjoint(rule[1]) for rule in entry):
                                out.extend(entry)
                                ok = True
                                node = None
                    if node is not None:
                        visits[node] = visits.get(node, 0) + 1
                        if level > deepest:
                            deepest = level
                        if level < bound:
                            path.add(node)
                            stack.append([node, iter(candidates[node]), None, None, len(out),
                                          prunes])
                else:  # stocked, or underivable: a dead end
                    ok = depth == 0
            if not stack:
                break
            frame = stack[-1]
            if not ok:
                # The current rule failed (or none was tried yet): try the
                # next candidate whose inputs avoid the path.
                for rule in frame[1]:
                    expansions += 1
                    if path.isdisjoint(rule[1]):
                        break
                    prunes += 1
                else:
                    stack.pop()
                    node = frame[0]
                    path.discard(node)
                    if refs[node] > 1 and depths[node] > bound - len(stack):
                        failed[node] = bound - len(stack)
                    node = None
                    continue
                frame[2] = rule
                frame[3] = iter(rule[1])
                if len(out) > frame[4]:  # drop what the failed candidates added
                    del out[frame[4]:]
            node = next(frame[3], None)
            if node is None:
                out.append(frame[2])
                stack.pop()
                path.discard(frame[0])
                if refs[frame[0]] > 1 and prunes == frame[5]:
                    solved[frame[0], len(stack)] = list(
                        {id(rule[0]): rule for rule in out[frame[4]:]}.values())
                ok = True
        per_depth.append(expansions)
    units = list({id(rule[0]): rule[0] for rule in out}.values())
    return _outcome(view, goal, per_depth, visits, None, units, deepest=deepest)


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
    blocked = [node for node in blocked if not view.candidates[node]] or blocked
    blocked = sorted([objects[node] for node in blocked], key=object_key)
    return SearchOutcome(failure=SearchFailure(reason, blocked or [goal], stats))


def _forward_chain(rules, known, floor, waiting, rank):
    """Linear forward chaining (Dowling & Gallier, 1984) on ``SearchView`` ids.

    Each rule ``(unit, input ids, output ids)`` counts its inputs missing,
    those whose ``known`` value is below ``floor``; each such object lists
    in ``waiting`` the rules waiting on it. A rule is ready once none is
    missing, and ``rank(position)`` ranks it then. The ready rule of least
    rank fires, the first ready among equals: ``(rank, position)`` is
    yielded, and its outputs are released, each once, readying the rules
    they complete. Objects never released stay in ``waiting``.
    """
    missing = [0] * len(rules)
    for position, (_, inputs, _) in enumerate(rules):
        for inp in inputs:
            if known[inp] < floor:
                missing[position] += 1
                waiting.setdefault(inp, []).append(position)
    order = count()
    ready = [(rank(position), next(order), position)
             for position, left in enumerate(missing) if not left]
    heapq.heapify(ready)  # the ranks at the start need not ascend
    while ready:
        fired, _, position = heapq.heappop(ready)
        yield fired, position
        for out in rules[position][2]:
            for waiter in waiting.pop(out, ()):
                missing[waiter] -= 1
                if not missing[waiter]:
                    heapq.heappush(ready, (rank(waiter), next(order), waiter))


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
    ``DepthExhausted`` if it is deeper, or None. The cone resolved is the
    ``UNRESOLVED`` part alone: an object an earlier search resolved keeps
    its ``view.depth``, and so did its own cone. ``_levels`` over the cone's
    candidates, from the depths known, gives the exact depth of each member:
    derivations use no others."""
    depth = view.depth
    if depth[start] == SearchView.UNRESOLVED:
        cone = _cone(view, start, lambda node: depth[node] == SearchView.UNRESOLVED)
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
    """Each id that ``rules`` derive and ``view.depth`` does not know, with
    its depth, in the order derived. An id of known depth, stocked or
    resolved, is there from the start at that depth. A rule is ranked, once
    its inputs are there, by its depth: one more than its deepest input's.
    ``_forward_chain`` fires the least first, so an id's first depth is its
    least. Over a view that knows only the stocked ids, that is first in,
    first out: level by level."""
    known, depths = view.depth, {}

    def rank(position):
        return max([depths.get(inp, known[inp]) for inp in rules[position][1]]) + 1

    for depth, position in _forward_chain(rules, known, 0, {}, rank):
        for out in rules[position][2]:
            if known[out] < 0:
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
    chaining, ranked by discovery, orders the selection; what it never
    releases fails it, ``UnsatisfiedLeaves``. Visits hold ids, not objects."""
    view = foon.search_view(kitchen)
    start = view.intern(goal)
    unreachable = _unreachable(view, goal, start)
    if unreachable is not None:
        return unreachable
    stocked, candidates = view.stocked, view.candidates
    # Each object not in the kitchen enters ``visits`` once, and is reached
    # in the order it entered: the list grows as it is walked.
    visits: dict[int, int] = {} if stocked[start] else {start: 1}
    reached = list(visits)
    # Chosen candidates, once each, in discovery order. One unit can be
    # chosen for several of its outputs; a FOON holds each unit as one object.
    selected: dict[int, tuple] = {}
    expansions = 0
    for node in reached:
        rules = candidates[node]
        expansions += len(rules)
        if not rules:
            continue
        # Candidates are in FOON order and min keeps the first of equal
        # keys, so ties go to the earliest unit.
        best = min(rules, key=selection_key)
        selected.setdefault(id(best[0]), best)
        for inp in best[1]:
            if inp not in visits and not stocked[inp]:
                visits[inp] = 1
                reached.append(inp)

    # Forward chaining fires the earliest-discovered ready unit first.
    # Objects never released, any with no candidate too, block it.
    chosen = list(selected.values())
    waiting: dict[int, list[int]] = {}
    ordered = [chosen[position][0] for _, position in
               _forward_chain(chosen, stocked, 1, waiting, lambda position: position)]
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
