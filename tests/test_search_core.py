"""The search core: equal to the frozen reference, linear, and stack-safe.

The differential tests compare every search with the copies in
``reference_search.py`` field by field: IDS where every object of the
goal's backward cone can be derived and the goal is within the bound,
counters too unless an object of the cone is an input of two candidates
(IDS settles such a subgoal once per iteration, so there no counter may
be larger), and the greedy searches where the goal can be derived.
Elsewhere IDS, which skips what cannot be derived and fails a goal too
deep before its first iteration, must return the same tree, no larger
counter, and a reason
that follows derivability and depth, and on a goal that cannot be
derived the greedy searches must return exactly IDS's
``GoalUnreachable``. The scaling table counts ``ObjectNode.__hash__``
calls, which every set and dict lookup of an object makes, and
``ObjectNode.__eq__`` calls, which every scan of a list for an object
makes, at sizes n and 4n, so it gates the complexity class without timing
anything. The merge gate counts ``FunctionalUnit.__hash__`` calls, and
the ingest gates count the ``ObjectNode`` and ``MotionNode`` instances
one CLI command builds. The view gates count the ``SearchView``s a
command builds and the objects a search interns, and the rate gate the
labels gbfs-rate normalises. The depth property checks IDS's verdicts
against ``derivation_depths`` on FOONs far past the subset oracle's reach.
"""
import sys
import tracemalloc
from collections import Counter

import pytest

from foon import (
    FailureReason,
    FunctionalUnit,
    Kitchen,
    MotionNode,
    MotionRateTable,
    ObjectNode,
    TaskTree,
    UniversalFOON,
    derivation_depths,
    merge,
    object_key,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    validate_task_tree,
)
from foon import model as foon_model
from foon import retrieval
from foon.cli import main
from foon.model import SearchView

import reference_depths
import reference_search as reference
from conftest import CORPUS_DIR, build_foon, obj, raw_blocks_and_motion_lines, unit
from oracle import (
    GeneratorConfig,
    accepts_depth_exhausted,
    accepts_unreachable,
    backward_cone,
    generate_instance,
)


def _summary(outcome):
    found = outcome.tree or outcome.failure
    stats = found.stats
    # The reference keys its visit counts by ``object_key``, the package by
    # the object itself.
    visits = {object_key(o) if isinstance(o, ObjectNode) else o: count
              for o, count in stats.object_visits.items()}
    counts = (stats.expansions, stats.per_depth_expansions, stats.max_stack_depth,
              stats.depth_limit_reached, visits)
    if outcome.ok:
        return "tree", [id(u) for u in outcome.tree.units], outcome.tree.goal, counts
    return "failure", outcome.failure.reason, outcome.failure.blocked_objects, counts


def _rates(foon):
    labels = sorted({u.motion.label for u in foon.units})
    return MotionRateTable({label: (i % 4 + 1) / 4 for i, label in enumerate(labels)})


def _shares_a_subgoal(foon, goal, kitchen):
    """Whether an object of the goal's backward cone that the kitchen lacks
    is an input of two candidates of the cone (twice in one unit counts):
    only then can IDS reach an object twice in one iteration."""
    uses = Counter(inp for member in backward_cone(foon, goal, kitchen) if member not in kitchen
                   for u in foon.producing(member) for inp in u.inputs if inp not in kitchen)
    return any(count > 1 for count in uses.values())


def _assert_no_larger(counts, was):
    (_, per_depth, stack, _, visits), (_, was_per_depth, was_stack, _, was_visits) = counts, was
    assert len(per_depth) <= len(was_per_depth)
    assert all(now <= then for now, then in zip(per_depth, was_per_depth))
    assert stack <= was_stack
    assert all(count <= was_visits.get(key, 0) for key, count in visits.items())


def _assert_same_as_reference(foon, goal, kitchen, rates, max_depth):
    """Each search against the reference. When every object of the goal's
    backward cone can be derived and the goal is at most ``max_depth``
    deep, IDS returns the reference's tree or failure, and the result is
    True; its counters are the reference's too unless the cone shares a
    subgoal, which IDS settles once per iteration, and then no counter is
    larger and the bounds tried are the same. Elsewhere IDS leaves an
    underivable goal, or one too deep, before its first iteration, and an
    underivable object deeper is a dead end, not a visit. So there it
    returns the same tree, no counter larger, ``GoalUnreachable`` exactly
    when the goal cannot be derived, with blocked objects
    ``accepts_unreachable`` accepts, and ``DepthExhausted`` on the goal
    alone, which ``accepts_depth_exhausted`` accepts. The greedy searches
    return exactly what the reference returns when the goal can be derived,
    and exactly what IDS returns when it cannot."""
    outcome = search_ids(foon, goal, kitchen, max_depth)
    expected = reference.search_ids(foon, goal, kitchen, max_depth)
    depths = derivation_depths(foon, kitchen)
    exact = (depths.keys() >= backward_cone(foon, goal, kitchen)
             and depths[goal] <= max_depth)
    *found, counts = _summary(outcome)
    *was, was_counts = _summary(expected)
    if exact and not _shares_a_subgoal(foon, goal, kitchen):
        assert (found, counts) == (was, was_counts)
    elif exact:
        assert found == was
        assert counts[3] == was_counts[3] and len(counts[1]) == len(was_counts[1])
        _assert_no_larger(counts, was_counts)
    else:
        assert outcome.ok == expected.ok
        _assert_no_larger(counts, was_counts)
        if outcome.ok:
            assert found == was
        elif goal in depths:
            assert found[1:] == [FailureReason.DEPTH_EXHAUSTED, [goal]]
            assert accepts_depth_exhausted(foon, goal, kitchen, max_depth)
        else:
            assert found[1] is FailureReason.GOAL_UNREACHABLE
            assert accepts_unreachable(foon, goal, kitchen, found[2])
    for found, selection_key in (
        (search_gbfs_rate(foon, goal, kitchen, rates), lambda u: -rates.rate(u.motion.label)),
        (search_gbfs_inputs(foon, goal, kitchen), lambda u: len(u.inputs)),
    ):
        assert _summary(found) == _summary(
            reference._search_greedy(foon, goal, kitchen, selection_key)
            if goal in depths else outcome)
    return exact


@pytest.mark.parametrize("max_units, kitchen_fraction", [
    (10, 0.8), (40, 0.8), (40, 0.5), (200, 0.8), (200, 0.6),
])
def test_searches_match_reference_on_generator_seeds(max_units, kitchen_fraction):
    outcomes, exact = set(), set()
    for seed in range(60):
        cfg = GeneratorConfig(max_units=max_units, max_branching=4, max_inputs_per_unit=3,
                              kitchen_fraction=kitchen_fraction, seed=seed)
        foon, goal, kitchen = generate_instance(cfg)
        rates = _rates(foon)
        exact.add(_assert_same_as_reference(foon, goal, kitchen, rates, max_depth=max_units))
        outcomes.add(search_gbfs_rate(foon, goal, kitchen, rates).ok)
    assert outcomes == exact == {True, False}


@pytest.mark.parametrize("withheld_every", [0, 3])
def test_searches_match_reference_on_fixture_corpus(corpus_foon, withheld_every):
    produced = {o for u in corpus_foon.units for o in u.outputs}
    leaves = list(dict.fromkeys(o for u in corpus_foon.units for o in u.inputs
                                if o not in produced))
    if withheld_every:
        del leaves[::withheld_every]
    kitchen = Kitchen(leaves)
    rates = _rates(corpus_foon)
    for goal in dict.fromkeys(o for u in corpus_foon.units for o in u.outputs):
        _assert_same_as_reference(corpus_foon, goal, kitchen, rates, max_depth=50)


def _assert_same_depths_as_reference(foon, kitchen):
    # Compared as item lists, so the order the objects were derived in counts.
    assert list(derivation_depths(foon, kitchen).items()) == list(
        reference_depths.derivation_depths(foon, kitchen).items())


@pytest.mark.parametrize("max_units, kitchen_fraction, seeds", [
    (10, 0.8, 60), (40, 0.5, 60), (200, 0.6, 30), (200, 0.8, 30), (1500, 0.8, 4),
])
def test_derivation_depths_match_reference_on_generator_seeds(max_units, kitchen_fraction,
                                                                 seeds):
    for seed in range(seeds):
        cfg = GeneratorConfig(max_units=max_units, max_branching=4, max_inputs_per_unit=3,
                              kitchen_fraction=kitchen_fraction, seed=seed)
        foon, _, kitchen = generate_instance(cfg)
        _assert_same_depths_as_reference(foon, kitchen)


@pytest.mark.parametrize("withheld_every", [0, 3])
def test_derivation_depths_match_reference_on_fixture_corpus(corpus_foon, withheld_every):
    produced = [o for u in corpus_foon.units for o in u.outputs]
    made = set(produced)
    leaves = list(dict.fromkeys(o for u in corpus_foon.units for o in u.inputs
                                if o not in made))
    if withheld_every:
        del leaves[::withheld_every]
    _assert_same_depths_as_reference(corpus_foon, Kitchen(leaves))
    # Stocked outputs keep depth 0 however they are derived.
    _assert_same_depths_as_reference(corpus_foon, Kitchen(leaves + produced[::5]))


def test_searches_match_reference_when_goal_is_in_kitchen(chain):
    foon, goal, _, _ = chain
    kitchen = Kitchen([goal])
    _assert_same_as_reference(foon, goal, kitchen, _rates(foon), max_depth=5)
    outcome = search_gbfs_inputs(foon, goal, kitchen)
    assert outcome.tree.units == []
    assert (outcome.tree.stats.per_depth_expansions, outcome.tree.stats.object_visits) == ([0], {})


def _ladder(levels):
    """Two objects per rung, each made two ways from both objects of the
    rung below, so every subgoal is shared; the bottom rung is in the
    kitchen and the top is ``levels`` deep."""
    rungs = [[obj(f"rung{level}", side) for side in ("left", "right")]
             for level in range(levels + 1)]
    units = [unit(below, motion, [made]) for below, rung in zip(rungs, rungs[1:])
             for made in rung for motion in ("mix", "stir")]
    return build_foon(*units), rungs[-1][0], Kitchen(rungs[0])


@pytest.mark.parametrize("levels", [4, 6, 8])
@pytest.mark.parametrize("slack", [-1, 0, 1])
def test_searches_match_reference_on_shared_subgoals(levels, slack):
    foon, goal, kitchen = _ladder(levels)
    _assert_same_as_reference(foon, goal, kitchen, _rates(foon), max_depth=levels + slack)
    assert search_ids(foon, goal, kitchen, levels + slack).ok == (slack >= 0)


@pytest.mark.parametrize("base_in_kitchen", [True, False])
@pytest.mark.parametrize("max_depth", [-1, 0, 1, 2, 3, 5])
def test_searches_match_reference_on_a_cycle_with_an_escape(base_in_kitchen, max_depth):
    # x <- y <- x, listed before the escape x <- base, so IDS meets the
    # cycle first at every depth.
    x, y, base = obj("x", "made"), obj("y", "made"), obj("base", "raw")
    foon = build_foon(unit([y], "melt", [x]), unit([x], "freeze", [y]),
                      unit([base], "cook", [x]))
    kitchen = Kitchen([base] if base_in_kitchen else [])
    for goal, height in ((x, 1), (y, 2)):
        _assert_same_as_reference(foon, goal, kitchen, _rates(foon), max_depth)
        assert search_ids(foon, goal, kitchen, max_depth).ok == (
            base_in_kitchen and max_depth >= height)


def test_ids_with_a_negative_bound_fails_as_the_reference_does(chain):
    foon, goal, kitchen, _ = chain
    outcome = search_ids(foon, goal, kitchen, max_depth=-1)
    assert _summary(outcome) == _summary(reference.search_ids(foon, goal, kitchen, -1))
    assert (outcome.failure.reason.value, outcome.failure.blocked_objects) == (
        "DepthExhausted", [goal])


def _ids_peak_bytes(foon, goal, kitchen, levels):
    """The ``tracemalloc`` peak of one IDS search, the view built before."""
    foon.search_view(kitchen)
    tracemalloc.start()
    try:
        outcome = search_ids(foon, goal, kitchen, levels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.ok
    return peak


def test_ids_settles_each_shared_subgoal_once_per_iteration():
    # Without settling, the last iteration alone makes 2^L - 1 expansions,
    # and 20 levels take about 1,000 times what 10 do; settled, each rung's
    # objects expand once per iteration and level.
    expansions = {levels: search_ids(*_ladder(levels), levels).tree.stats.expansions
                  for levels in (10, 20)}
    assert expansions[20] <= 5 * expansions[10], expansions
    foon, goal, kitchen = _ladder(14)
    assert _summary(search_ids(foon, goal, kitchen, 14))[:3] == _summary(
        reference.search_ids(foon, goal, kitchen, 14))[:3]


def test_ids_solves_a_shared_subgoal_again_when_its_subtree_meets_the_path():
    # s is reached twice at level 3: first through a, a2, where it is made
    # from q, with no cycle-prune below it (t sits at the bound); then
    # through q and t, where q is on the path. Replaying the first subtree
    # there would make s from q again; solving it again makes it from k.
    g, a, a2, s, q, t = (obj(name, "made") for name in ("g", "a", "a2", "s", "q", "t"))
    d, d1, k = obj("d", "made"), obj("d1", "made"), obj("k", "raw")
    foon = build_foon(
        unit([a, q], "plate", [g]), unit([a2], "mix", [a]), unit([s, d], "mix", [a2]),
        unit([q], "melt", [s]), unit([k], "cook", [s]),
        unit([t], "stir", [q]), unit([k], "pour", [q]),
        unit([s], "chill", [t]), unit([d1], "heat", [d]), unit([k], "chop", [d1]))
    kitchen = Kitchen([k])
    outcome = search_ids(foon, g, kitchen, 5)
    assert _summary(outcome)[:3] == _summary(reference.search_ids(foon, g, kitchen, 5))[:3]
    assert [u.motion.label for u in outcome.tree.units] == [
        "pour", "melt", "chop", "heat", "mix", "mix", "cook", "chill", "stir", "plate"]


def test_ids_solves_a_shared_subgoal_again_when_a_cycle_pruned_its_first_success():
    # s is reached twice at level 2. Through a, its first candidate needs a,
    # which is on the path, so it is made from k; through b, that candidate
    # is open, and a is made from k instead. A success that a cycle-prune
    # shaped is not settled.
    g, a, b, s = (obj(name, "made") for name in ("g", "a", "b", "s"))
    d, d1, d2, k = obj("d", "made"), obj("d1", "made"), obj("d2", "made"), obj("k", "raw")
    foon = build_foon(
        unit([a, b, d], "plate", [g]), unit([s], "mix", [a]), unit([k], "pour", [a]),
        unit([s], "stir", [b]), unit([a], "melt", [s]), unit([k], "cook", [s]),
        unit([d1], "heat", [d]), unit([d2], "chill", [d1]), unit([k], "chop", [d2]))
    kitchen = Kitchen([k])
    outcome = search_ids(foon, g, kitchen, 4)
    assert _summary(outcome)[:3] == _summary(reference.search_ids(foon, g, kitchen, 4))[:3]
    assert [u.motion.label for u in outcome.tree.units] == [
        "cook", "mix", "pour", "melt", "stir", "chop", "chill", "heat", "plate"]


def test_ids_space_on_shared_subgoals_grows_with_the_tree_not_its_paths():
    # The unfolded tree of a ladder doubles with every level, but the task
    # tree holds 2 units per level: IDS keeps each settled subtree's units
    # once, so four more levels may not double its peak.
    ladders = {levels: _ladder(levels) for levels in (10, 14)}
    peaks = {levels: _ids_peak_bytes(*ladder, levels) for levels, ladder in ladders.items()}
    assert peaks[14] <= 2 * peaks[10], peaks


def _chain(length):
    links = [obj("link0", "raw")] + [obj(f"link{i}", "made") for i in range(1, length + 1)]
    units = [unit([links[i]], "stir", [links[i + 1]]) for i in range(length)]
    return build_foon(*units), links[-1], Kitchen([links[0]]), units


def test_ids_fails_a_goal_deeper_than_the_bound_before_its_first_iteration():
    # 201 links: at bound 200 IDS once ran all 201 iterations, 20,100
    # expansions, before it failed. Now the goal's depth decides it.
    foon, goal, kitchen, units = _chain(201)
    failure = search_ids(foon, goal, kitchen, max_depth=200).failure
    assert (failure.reason, failure.blocked_objects) == (FailureReason.DEPTH_EXHAUSTED, [goal])
    assert (failure.stats.expansions, failure.stats.per_depth_expansions) == (0, [])
    assert accepts_depth_exhausted(foon, goal, kitchen, 200)
    # One bound more, and the search is the reference's, counter for counter.
    outcome = search_ids(foon, goal, kitchen, max_depth=201)
    assert outcome.tree.units == units
    assert len(outcome.tree.stats.per_depth_expansions) == 202
    assert _summary(outcome) == _summary(reference.search_ids(foon, goal, kitchen, 201))


def test_ids_solves_chain_deeper_than_recursion_limit():
    length = sys.getrecursionlimit() + 50
    foon, goal, kitchen, units = _chain(length)
    outcome = search_ids(foon, goal, kitchen, max_depth=length)
    assert outcome.ok
    assert outcome.tree.units == units
    assert outcome.tree.stats.depth_limit_reached == length


def _fan(width):
    raws = [obj(f"part{i}", "whole") for i in range(width)]
    parts = [obj(f"part{i}", "chopped") for i in range(width)]
    goal = obj("platter", "assembled")
    units = [unit([r], "chop", [p]) for r, p in zip(raws, parts)]
    return build_foon(*units, unit(parts, "assemble", [goal])), goal, Kitchen(raws)


def _counted(monkeypatch, cls, methods, call):
    """``call()``'s result, and how often it called each of ``cls``'s ``methods``."""
    calls = dict.fromkeys(methods, 0)
    with monkeypatch.context() as patch:
        for method in methods:
            def counting(*args, method=method, original=getattr(cls, method), **kwargs):
                calls[method] += 1
                return original(*args, **kwargs)
            patch.setattr(cls, method, counting)
        result = call()
    return result, list(calls.values())


def _norm_calls(monkeypatch, rates, foon, goal, kitchen):
    """A gbfs-rate search's outcome, and how often it called ``_norm``."""
    calls = []

    def counting(token, original=foon_model._norm):
        calls.append(token)
        return original(token)

    with monkeypatch.context() as patch:
        patch.setattr(foon_model, "_norm", counting)
        outcome = search_gbfs_rate(foon, goal, kitchen, rates)
    assert outcome.ok
    return outcome, len(calls)


def test_gbfs_rate_normalises_only_labels_the_table_lacks(monkeypatch):
    instance = _fan(20)
    # Every label listed: one dict probe per candidate, no ``_norm``.
    outcome, calls = _norm_calls(monkeypatch, _rates(instance[0]), *instance)
    assert calls == 0 and outcome.tree.stats.expansions == 21
    # No label listed: each candidate's label misses once and is normalised.
    outcome, calls = _norm_calls(monkeypatch, MotionRateTable(), *instance)
    assert calls == outcome.tree.stats.expansions == 21


def _chain_instance(length):
    return _chain(length)[:3]


def _unreachable_on_every_search(foon, goal, kitchen):
    # A fresh empty kitchen for each search, so that each builds a view of
    # its own and walks the goal's whole backward cone, none of it derivable.
    return all(search(foon, goal, Kitchen()).failure.reason is FailureReason.GOAL_UNREACHABLE
               for search in (search_ids, search_gbfs_rate, search_gbfs_inputs))


# Each row: an instance of size n, and work on it that returns True. The
# work's ``ObjectNode.__hash__`` and ``__eq__`` calls on the instance of
# size 4n may be at most 4.5 times those of size n: linear work gives about
# 4, and n log n growth at these sizes more than 5.
@pytest.mark.parametrize("instance, n, work", [
    (_fan, 150, lambda foon, goal, kitchen: search_gbfs_inputs(foon, goal, kitchen).ok),
    (_chain_instance, 100, lambda foon, goal, kitchen:
        search_gbfs_rate(foon, goal, kitchen).ok),
    # A chain FOON's units, in insertion order, are its task tree.
    (_chain_instance, 100, lambda foon, goal, kitchen:
        bool(validate_task_tree(TaskTree(foon.units, goal), kitchen, goal))),
    (_chain_instance, 100, lambda foon, goal, kitchen:
        search_ids(foon, goal, kitchen, max_depth=len(foon)).ok),
    (_chain_instance, 100, lambda foon, goal, kitchen:
        derivation_depths(foon, kitchen)[goal] == len(foon)),
    (_ladder, 25, _unreachable_on_every_search),
], ids=["gbfs-inputs-fan", "gbfs-rate-chain", "validation-chain", "ids-chain",
        "derivation-depths-chain", "unreachable-ladder"])
def test_object_hash_and_eq_calls_are_linear_in_the_instance(monkeypatch, instance, n, work):
    counts = []
    for size in (n, 4 * n):
        args = instance(size)
        done, calls = _counted(monkeypatch, ObjectNode, ("__hash__", "__eq__"),
                               lambda: work(*args))
        assert done
        counts.append(calls)
    small, large = counts
    assert all(after <= 4.5 * before for before, after in zip(small, large)), counts


def test_ids_expansions_quadruple_on_a_doubled_chain():
    # The hash calls stay linear (above); the expansions are IDS's own, n(n+1)/2.
    assert [search_ids(*_chain_instance(n), max_depth=n).tree.stats.expansions
            for n in (100, 200)] == [5050, 20100]


# (max_units, kitchen_fraction, seeds): small FOONs, and FOONs of up to
# 1,500 units, far past the subset oracle's reach. ``max_depth`` stays at
# 8 or below: IDS's work on shared subgoals grows with the bound.
DEPTH_CASES = [(40, 0.6, range(60)), (200, 0.8, range(30)), (1500, 0.8, range(16))]


def test_ids_succeeds_exactly_when_the_goal_is_within_its_derivation_depth():
    verdicts, large = Counter(), 0
    for max_units, kitchen_fraction, seeds in DEPTH_CASES:
        for seed in seeds:
            foon, goal, kitchen = generate_instance(GeneratorConfig(
                max_units=max_units, max_branching=4, max_inputs_per_unit=3,
                kitchen_fraction=kitchen_fraction, seed=seed))
            large += len(foon) >= 500
            depth = derivation_depths(foon, kitchen).get(goal)
            for max_depth in (4, 8):
                outcome = search_ids(foon, goal, kitchen, max_depth)
                case = (max_units, seed, max_depth, depth)
                assert outcome.ok == (depth is not None and depth <= max_depth), case
                if outcome.ok:
                    stats = outcome.tree.stats
                    assert stats.depth_limit_reached == depth, case
                    assert len(stats.per_depth_expansions) == depth + 1, case
                elif depth is not None:
                    assert outcome.failure.reason is FailureReason.DEPTH_EXHAUSTED, case
                    assert accepts_depth_exhausted(foon, goal, kitchen, max_depth), case
                verdicts[outcome.ok, depth is None] += 1
            for search in (search_gbfs_rate, search_gbfs_inputs):
                assert depth is not None or not search(foon, goal, kitchen).ok
    assert sum(verdicts.values()) >= 200 and large >= 10, (verdicts, large)
    # Solved, too deep for the bound, and underivable: every verdict occurs.
    assert len(verdicts) == 3, verdicts


def test_ids_fails_an_underivable_goal_before_its_first_iteration():
    # 1,259 units. The goal cannot be derived; IDS once tried all 19 bounds
    # on it, 2,891,374 expansions, and reported DepthExhausted, and the
    # greedy searches reported UnsatisfiedLeaves on different objects. Now
    # all three fail it alike, each on a view of its own.
    foon, goal, kitchen = generate_instance(GeneratorConfig(
        max_units=2000, kitchen_fraction=0.6, seed=4))
    assert goal not in derivation_depths(foon, kitchen)
    for search in (lambda *args: search_ids(*args, max_depth=18),
                   search_gbfs_rate, search_gbfs_inputs):
        failure = search(UniversalFOON(foon.units), goal, kitchen).failure
        assert failure.reason is FailureReason.GOAL_UNREACHABLE
        assert (failure.stats.expansions, failure.stats.per_depth_expansions) == (0, [])
        assert [object_key(o) for o in failure.blocked_objects] == ["base0;raw;", "base1;raw;"]
        assert accepts_unreachable(foon, goal, kitchen, failure.blocked_objects)


@pytest.mark.parametrize("search", [search_ids, search_gbfs_rate, search_gbfs_inputs])
def test_a_search_interns_the_objects_it_reaches_not_the_foon(search):
    padding = [unit([obj(f"pad{i}", "raw")], "stir", [obj(f"pad{i}", "made")])
               for i in range(500)]
    _, goal, kitchen, links = _chain(5)
    foon = build_foon(*padding, *links)
    assert search(foon, goal, kitchen).ok
    assert len(foon.search_view(kitchen).objects) == 6


def test_ids_on_a_shared_view_returns_what_it_does_on_a_fresh_one():
    # Searching a resolves it, and fires ``split``, which also makes z. z's
    # own cone, where w cannot be derived, is resolved only when z is the
    # goal, so the search for z may not take w for derivable.
    base, a, z = obj("base", "raw"), obj("a", "made"), obj("z", "made")
    w, v = obj("w", "made"), obj("v", "raw")
    units = [unit([v], "mix", [w]), unit([w], "stir", [z]), unit([base], "split", [a, z])]
    shared, kitchen = build_foon(*units), Kitchen([base])
    assert search_ids(shared, a, kitchen).ok
    outcome = search_ids(shared, z, kitchen)
    assert _summary(outcome) == _summary(search_ids(build_foon(*units), z, kitchen))
    assert outcome.tree.stats.object_visits == {z: 2}


def test_a_shared_view_resolves_each_object_once(monkeypatch):
    # The 100-link goal resolves its chain; the 150-link goal's cone adds
    # only the 50 links above it, and the first goal again adds nothing.
    foon, _, kitchen, units = _chain(150)
    fired = []

    def counting(view, rules, original=retrieval._levels):
        fired.append(len(rules))
        return original(view, rules)

    monkeypatch.setattr(retrieval, "_levels", counting)
    for goal in (units[99].outputs[0], units[149].outputs[0], units[99].outputs[0]):
        assert search_ids(foon, goal, kitchen, 150).ok
    assert fired == [100, 50]


def test_a_shared_view_resolves_an_object_at_its_least_depth_when_a_deeper_rule_is_ready_first():
    # Searching d resolves the chain to it, so x's cone is x and y alone.
    # Its rule from d is ready at once, at depth 5, before the rule from y,
    # at depth 2: x is 2 deep only if the chaining fires the shallower first.
    s, d, x, y = obj("s", "raw"), obj("d", "made"), obj("x", "made"), obj("y", "made")
    chain = [s, obj("a1", "made"), obj("a2", "made"), obj("a3", "made"), d]
    units = [*(unit([a], "stir", [b]) for a, b in zip(chain, chain[1:])),
             unit([d], "fry", [x]), unit([s], "cut", [y]), unit([y], "bake", [x])]
    shared, kitchen = build_foon(*units), Kitchen([s])
    fresh = search_ids(build_foon(*units), x, kitchen, 2)
    assert [u.motion.label for u in fresh.tree.units] == ["cut", "bake"]
    assert search_ids(shared, d, kitchen).ok
    assert _summary(search_ids(shared, x, kitchen, 2)) == _summary(fresh)


def _views_built(monkeypatch, argv):
    code, [views] = _counted(monkeypatch, SearchView, ("__init__",), lambda: main(argv))
    assert code == 0
    return views


def test_merge_builds_no_search_view(monkeypatch, tmp_path):
    paths = sorted(CORPUS_DIR.glob("*.txt"))
    assert _views_built(monkeypatch, ["merge", *map(str, paths),
                                      "--out", str(tmp_path / "universal.txt")]) == 0


def test_bench_builds_one_search_view(monkeypatch, tmp_path):
    # Three goals, three algorithms each: nine searches on one view.
    divergence = CORPUS_DIR.parent / "divergence"
    goals = tmp_path / "goals.txt"
    goals.write_text("juice;fresh\ncarrot;peeled\ncarrot;raw\n", encoding="utf-8")
    argv = ["bench", "--foon", str(divergence / "foon.txt"),
            "--kitchen", str(divergence / "kitchen.txt"),
            "--goals", str(goals), "--out", str(tmp_path / "bench.tsv")]
    assert _views_built(monkeypatch, argv) == 1


def test_merge_hashes_each_unit_once(monkeypatch, corpus_docs):
    foon, [calls] = _counted(monkeypatch, FunctionalUnit, ("__hash__",),
                             lambda: merge(corpus_docs))
    assert calls == sum(len(doc.units) for doc in corpus_docs)
    assert len(foon.units) < calls


def test_merge_builds_one_instance_per_raw_block_and_motion_line(monkeypatch, tmp_path):
    paths = sorted(CORPUS_DIR.glob("*.txt")) * 2
    blocks, motions = raw_blocks_and_motion_lines(p.read_text(encoding="utf-8") for p in paths)
    argv = ["merge", *map(str, paths), "--out", str(tmp_path / "universal.txt")]
    code, [objects] = _counted(monkeypatch, ObjectNode, ("__init__",), lambda: main(argv))
    assert code == 0
    _, [motion_nodes] = _counted(monkeypatch, MotionNode, ("__init__",), lambda: main(argv))
    assert (objects, motion_nodes) == (len(blocks), len(motions))


def test_search_kitchen_item_written_like_a_foon_block_is_the_foons_instance(
        monkeypatch, tmp_path):
    foon_path, kitchen_path = tmp_path / "foon.txt", tmp_path / "kitchen.txt"
    foon_path.write_text("O\twater\t1\nS\tliquid\nO\ttray\t0\nS\tempty\n"
                         "M\tfreeze\nO\tice\t0\nS\tsolid\n//\n")
    # The tray is written with another flag column: an equal object, but
    # another raw block and so another instance.
    kitchen_path.write_text("O\twater\t1\nS\tliquid\nO\ttray\nS\tempty\n")
    seen = []

    def spy(foon, goal, kitchen, **kwargs):
        seen.append((foon, kitchen))
        return search_ids(foon, goal, kitchen, **kwargs)

    monkeypatch.setattr("foon.cli.search_ids", spy)
    code = main(["search", "--foon", str(foon_path), "--goal", "ice;solid",
                 "--kitchen", str(kitchen_path), "--out", str(tmp_path / "tree.txt")])
    assert code == 0
    [(universal, kitchen)] = seen
    water, tray = universal.units[0].inputs
    assert kitchen.items[0] is water
    assert kitchen.items[1] == tray and kitchen.items[1] is not tray
