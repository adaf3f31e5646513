import dataclasses
import os
import pickle
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from foon import (
    FunctionalUnit,
    Kitchen,
    MotionNode,
    MotionRateTable,
    ObjectNode,
    SubgraphDocument,
    UniversalFOON,
    merge,
    object_key,
    parse_goal,
    parse_subgraph,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    validate_task_tree,
)

import reference_identity as reference
from conftest import build_foon, obj, unit

names = st.sampled_from(["bowl", "tomato", "knife", "pan", "egg", "water"])
tokens = st.sampled_from(["whole", "sliced", "raw", "cooked", "empty", ""])
token_sets = st.frozensets(tokens, max_size=3)
# An object with ingredients needs a state to write them on.
state_sets = st.frozensets(tokens, min_size=1, max_size=3)


def test_object_key_empty_sets():
    assert object_key(obj("ice")) == "ice;;"


def test_object_key_ignores_set_order():
    a = ObjectNode("bowl", frozenset(["full"]), frozenset(["tomato", "onion"]))
    b = ObjectNode("bowl", frozenset(["full"]), frozenset(["onion", "tomato"]))
    assert object_key(a) == object_key(b)
    assert a == b


def test_object_key_ignores_motion_tag():
    assert object_key(obj("cup", "empty", tag="1")) == object_key(obj("cup", "empty", tag="0"))


def test_object_key_normalizes_case_and_whitespace():
    assert object_key(ObjectNode(" Bowl ", frozenset(["Full "]))) == object_key(
        ObjectNode("bowl", frozenset(["full"]))
    )


def test_object_name_required():
    with pytest.raises(ValueError, match="^object name must be non-empty$"):
        ObjectNode("   ")
    with pytest.raises(ValueError, match="^motion label must be non-empty$"):
        MotionNode("   ")


def test_motion_identity_label_only():
    assert MotionNode("pour", "0:01", "0:05") == MotionNode("pour")
    assert MotionNode("pour") != MotionNode("slice")


def test_objects_and_motions_accept_breaks_that_normalizing_strips():
    # Names, states, ingredients and labels are stripped before the check.
    assert ObjectNode("ice\n", {"\tsolid"}, {"water\r"}) == obj("ice", "solid", ings=["water"])
    assert MotionNode("\tfreeze\n") == MotionNode("freeze")


@given(name=names, states=state_sets, ings=token_sets, perm_seed=st.integers(0, 100))
def test_object_key_constant_over_permutations(name, states, ings, perm_seed):
    import random

    shuffled_states = list(states)
    shuffled_ings = list(ings)
    random.Random(perm_seed).shuffle(shuffled_states)
    random.Random(perm_seed + 1).shuffle(shuffled_ings)
    a = ObjectNode(name, frozenset(states), frozenset(ings))
    b = ObjectNode(name, frozenset(shuffled_states), frozenset(shuffled_ings))
    assert object_key(a) == object_key(b)


@given(
    n1=names, s1=token_sets, n2=names, s2=token_sets,
)
def test_object_key_injective_over_identities(n1, s1, n2, s2):
    a = ObjectNode(n1, frozenset(s1))
    b = ObjectNode(n2, frozenset(s2))
    assert (object_key(a) == object_key(b)) == (a == b)


object_nodes = st.builds(
    ObjectNode,
    name=names,
    states=state_sets,
    ingredients=token_sets,
    motion_tag=st.sampled_from(["", "0", "1"]),
)
motions = st.builds(MotionNode, label=st.sampled_from(["pour", "mix", "slice"]),
                    start_time=st.none() | st.just("0:01"))
units = st.builds(
    FunctionalUnit,
    inputs=st.lists(object_nodes, min_size=1, max_size=3),
    motion=motions,
    outputs=st.lists(object_nodes, min_size=1, max_size=3),
)


def _assert_identity_as_reference(a, b, twin, eq, hash_):
    """``a`` compares with ``b``, with ``twin`` (an equal instance built
    apart) and with a foreign value as ``eq`` says, and each hashes as
    ``hash_`` says."""
    for x, y in ((a, b), (b, a), (a, twin), (twin, a), (a, a), (a, "a")):
        assert x.__eq__(y) == eq(x, y)
        assert (x == y) == (eq(x, y) is True)
    for x in (a, b, twin):
        assert hash(x) == hash_(x)


@given(a=object_nodes, b=object_nodes)
def test_objects_compare_and_hash_as_the_reference(a, b):
    twin = ObjectNode(a.name.upper(), a.states, a.ingredients, motion_tag="twin")
    _assert_identity_as_reference(a, b, twin, reference.object_eq, reference.object_hash)


@given(a=motions, b=motions)
def test_motions_compare_and_hash_as_the_reference(a, b):
    twin = MotionNode(a.label.upper(), "9:99", "9:59")
    _assert_identity_as_reference(a, b, twin, reference.motion_eq, reference.motion_hash)


@given(a=units, b=units)
def test_units_compare_and_hash_as_the_reference(a, b):
    rebuilt = [ObjectNode(o.name, o.states, o.ingredients) for o in a.outputs]
    twin = FunctionalUnit(a.inputs[::-1], MotionNode(a.motion.label, end_time="9:59"), rebuilt)
    _assert_identity_as_reference(a, b, twin, reference.unit_eq, reference.unit_hash)


class _SubObject(ObjectNode):
    __slots__ = ()


class _SubMotion(MotionNode):
    __slots__ = ()


class _SubUnit(FunctionalUnit):
    __slots__ = ()


def test_an_instance_of_a_subclass_is_unequal():
    # One rule for all three: equal records are of one class. A subclass
    # instance hashes alike, so a set holds both.
    salt, pour = obj("salt", "ground"), MotionNode("pour")
    u = FunctionalUnit([salt], pour, [obj("salt", "wet")])
    for made, sub in ((salt, _SubObject("salt", {"ground"})), (pour, _SubMotion("pour")),
                      (u, _SubUnit(u.inputs, u.motion, u.outputs))):
        assert made != sub and sub != made
        assert not made == sub
        assert hash(made) == hash(sub) and len({made, sub}) == 2


@given(a=units, b=units, c=units)
def test_unit_equality_is_equivalence(a, b, c):
    assert a == a
    assert (a == b) == (b == a)
    if a == b:
        assert hash(a) == hash(b)
        if b == c:
            assert a == c


def test_unit_equality_ignores_timestamps():
    a = unit([obj("water", "liquid")], "freeze", [obj("ice", "solid")], start_time="0:05")
    b = unit([obj("water", "liquid")], "freeze", [obj("ice", "solid")], end_time="1:00")
    assert a == b
    assert hash(a) == hash(b)


def test_unit_equality_ignores_object_motion_tags():
    a = unit([obj("water", "liquid", tag="1")], "freeze", [obj("ice", "solid", tag="0")])
    b = unit([obj("water", "liquid")], "freeze", [obj("ice", "solid", tag="1")])
    assert a == b
    assert hash(a) == hash(b)


def test_unit_equality_sensitive_to_state():
    a = unit([obj("tomato", "whole")], "slice", [obj("tomato", "sliced")])
    b = unit([obj("tomato", "whole")], "slice", [obj("tomato", "whole")])
    assert a != b


def test_unit_equality_sensitive_to_motion_label():
    a = unit([obj("tomato", "whole")], "slice", [obj("tomato", "sliced")])
    b = unit([obj("tomato", "whole")], "dice", [obj("tomato", "sliced")])
    assert a != b


def test_unit_equality_ignores_listing_order():
    oil, egg, pan = obj("oil", "liquid"), obj("egg", "whole"), obj("pan", "")
    fried, shell = obj("egg", "fried"), obj("shell", "empty")
    first = unit([oil, egg, pan], "fry", [fried, shell])
    second = unit([pan, oil, egg], "fry", [shell, fried])
    assert first == second
    assert hash(first) == hash(second)
    foon = merge([SubgraphDocument(units=[first, second])])
    assert len(foon.units) == 1
    assert foon.units[0] is first


def test_unit_stores_tuples_and_is_frozen():
    u = FunctionalUnit([obj("water", "liquid")], MotionNode("freeze"), [obj("ice", "solid")])
    assert u.inputs == (obj("water", "liquid"),)
    assert u.outputs == (obj("ice", "solid"),)
    assert u != (u.inputs, u.motion, u.outputs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        u.inputs = [obj("milk", "liquid")]


def test_objects_and_motions_are_frozen_and_print_their_fields():
    tomato, slice_ = obj("Tomato", "whole", tag="1"), MotionNode(" Slice ", "0:01")
    for instance, field in ((tomato, "name"), (slice_, "label")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(instance, field, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(instance, field)
    assert repr(tomato) == ("ObjectNode(name='tomato', states=frozenset({'whole'}), "
                            "ingredients=frozenset(), motion_tag='1')")
    assert repr(slice_) == "MotionNode(label='slice', start_time='0:01', end_time=None)"
    assert slice_ == MotionNode("slice") and hash(slice_) == hash(MotionNode("slice"))
    assert tomato != "tomato||" and slice_ != "slice"


def test_records_compare_field_by_field_and_are_unhashable():
    doc = SubgraphDocument([unit([obj("water", "liquid")], "freeze", [obj("ice", "solid")])])
    assert doc == SubgraphDocument(list(doc.units)) != SubgraphDocument()
    assert SubgraphDocument().units == [] and SubgraphDocument().units is not doc.units
    assert repr(MotionRateTable({"Pour": 0.5})) == "MotionRateTable(rates={'pour': 0.5})"
    assert MotionRateTable() == MotionRateTable({})
    assert MotionRateTable() != {} and doc != doc.units
    for record in (doc, MotionRateTable()):
        with pytest.raises(TypeError):
            hash(record)


def test_unit_requires_inputs_and_outputs():
    with pytest.raises(ValueError):
        FunctionalUnit([], MotionNode("pour"), [obj("cup")])
    with pytest.raises(ValueError):
        FunctionalUnit([obj("cup")], MotionNode("pour"), [])


def test_constructor_keeps_first_of_equal_units_in_order():
    u = unit([obj("water", "liquid")], "freeze", [obj("ice", "solid")])
    other = unit([obj("ice", "solid")], "crush", [obj("ice", "crushed")])
    dup = unit([obj("water", "liquid")], "freeze", [obj("ice", "solid")], start_time="9:99")
    foon = UniversalFOON([u, other, dup, other])
    assert len(foon) == 2
    assert foon.units[0] is u and foon.units[1] is other
    assert foon.producing(obj("ice", "solid"))[0] is u
    assert len(UniversalFOON()) == 0


def test_producers_insertion_order():
    shared = obj("sauce", "done")
    u1 = unit([obj("a", "x")], "mix", [shared])
    u2 = unit([obj("b", "x")], "stir", [shared])
    foon = build_foon(u1, u2)
    producers = foon.producing(shared)
    assert [_positions(foon)[id(p)] for p in producers] == [0, 1]
    assert producers == [u1, u2]


def _positions(foon):
    return {id(u): position for position, u in enumerate(foon.units)}


def _rebuild_producers(foon):
    rebuilt = {}
    for position, u in enumerate(foon.units):
        for out in u.outputs:
            rebuilt.setdefault(out, []).append(position)
    return rebuilt


@given(seed=st.integers(0, 500))
def test_producers_index_matches_rebuild(seed):
    import random

    rng = random.Random(seed)
    pool = [obj(f"o{i}", "s") for i in range(6)]
    foon = UniversalFOON(
        unit(rng.sample(pool, rng.randint(1, 2)), rng.choice(["mix", "pour"]),
             rng.sample(pool, rng.randint(1, 2)))
        for _ in range(rng.randint(1, 10)))
    positions = _positions(foon)
    maintained = {k: [positions[id(u)] for u in v] for k, v in foon.producers.items()}
    assert maintained == _rebuild_producers(foon)


def test_units_producing_empty_for_unknown_goal():
    foon = build_foon(unit([obj("a", "x")], "mix", [obj("b", "y")]))
    assert foon.producing(obj("zebra")) == []


def test_kitchen_keeps_first_instance_and_ignores_motion_tag():
    kitchen = Kitchen([obj("cup", "empty", tag="1"), obj("cup", "empty", tag="0"), obj("pan")])
    assert len(kitchen) == 2
    assert [item.motion_tag for item in kitchen.items] == ["1", ""]
    assert obj("cup", "empty", tag="9") in kitchen
    assert obj("cup", "full", tag="1") not in kitchen


def test_rate_table_normalizes_its_labels():
    table = MotionRateTable({" Pour ": 0.5})
    assert table.rate("pour") == table.rate("POUR") == 0.5
    assert table.rate("mix") == 1.0


@pytest.mark.parametrize("label", ["", "  "])
def test_rate_table_refuses_a_blank_label(label):
    with pytest.raises(ValueError, match="^rate line has no motion label$"):
        MotionRateTable({label: 0.5})


def test_lookups_use_the_object_not_its_key(monkeypatch, corpus_paths):
    """Merge, kitchen membership, search and validation look objects up by
    ``ObjectNode`` equality, and the searches' visit counts are keyed by
    the object too: a successful run builds no ``object_key``."""

    def refuse(o):
        raise AssertionError(f"object_key built for a lookup of {o!r}")

    monkeypatch.setattr("foon.model.object_key", refuse)
    monkeypatch.setattr("foon.retrieval.object_key", refuse)
    foon = merge([parse_subgraph(p.read_text(encoding="utf-8")) for p in corpus_paths])
    produced = {o for u in foon.units for o in u.outputs}
    kitchen = Kitchen(o for u in foon.units for o in u.inputs if o not in produced)
    goal = parse_goal("cup;steeping;tea bag,water")
    assert obj("tea bag", "dry") in kitchen
    assert goal not in kitchen

    outcomes = [search_gbfs_rate(foon, goal, kitchen), search_gbfs_inputs(foon, goal, kitchen),
                search_ids(foon, goal, kitchen)]
    assert all(outcome.ok for outcome in outcomes)
    for outcome in outcomes:
        assert all(isinstance(o, ObjectNode) for o in outcome.tree.stats.object_visits)
        assert validate_task_tree(outcome.tree, kitchen, goal)


def _pickled_elsewhere(expression):
    """``expression``, built and pickled by a process with another
    string-hash seed, loaded here: a hash computed there would be wrong here."""
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = ("import pickle, sys; from foon import FunctionalUnit, MotionNode, ObjectNode; "
            f"sys.stdout.buffer.write(pickle.dumps({expression}))")
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
    return pickle.loads(subprocess.run([sys.executable, "-c", code], env=env,
                                       capture_output=True, check=True).stdout)


def test_unpickled_object_hashes_for_the_loading_process():
    loaded = _pickled_elsewhere("ObjectNode('tomato', {'chopped'}, {'salt'}, motion_tag='1')")
    assert loaded in {obj("tomato", "chopped", ings=("salt",))}
    assert loaded.motion_tag == "1"


def test_unpickled_motion_hashes_for_the_loading_process_and_keeps_its_timestamps():
    loaded = _pickled_elsewhere("MotionNode('slice', '0:01', '0:05')")
    assert loaded in {MotionNode("slice")}
    assert (loaded.start_time, loaded.end_time) == ("0:01", "0:05")
    # A motion has slots, not a __dict__, like objects and units.
    with pytest.raises(TypeError):
        vars(loaded)


def test_unpickled_unit_hashes_for_the_loading_process():
    # The unit and its objects must hash as this process hashes them.
    loaded = _pickled_elsewhere(
        "FunctionalUnit([ObjectNode('tomato', {'whole'}), ObjectNode('knife')], "
        "MotionNode('slice', '0:01'), [ObjectNode('tomato', {'sliced'})])")
    local = unit([obj("knife"), obj("tomato", "whole")], "slice", [obj("tomato", "sliced")])
    assert loaded == local
    assert hash(loaded) == hash(local)
    assert loaded in {local}
    assert loaded.motion.start_time == "0:01"
    assert isinstance(loaded.inputs, tuple)
