"""Forward chaining and derivation depths as they were before one loop fired the rules: a frozen reference.

``_forward_chain`` and ``derivation_depths`` below are copied unchanged
from ``foon.retrieval`` as it stood before ``_forward_chain`` became the
one generator that fires rules for both the greedy order and the depths,
when ``derivation_depths`` still walked level lists of its own.
``tests/test_search_core.py`` asserts that the current
``derivation_depths`` returns the same objects, with the same depths, in
the same order as this one. Do not edit them to follow the library; they
are the reference.
"""
from __future__ import annotations

from foon.model import Kitchen, ObjectNode, SearchView, UniversalFOON


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
