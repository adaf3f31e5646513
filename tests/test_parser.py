import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foon import (
    FunctionalUnit,
    MotionNode,
    MotionRateTable,
    ObjectNode,
    ParseError,
    SubgraphDocument,
    object_key,
    parse_goal,
    parse_goals,
    parse_kitchen,
    parse_rates,
    parse_subgraph,
    serialize_subgraph,
)
from foon import parser
from foon.model import LINE_BREAKS

FREEZE_UNIT = "O\twater\t1\nS\tliquid\nM\tfreeze\t0:05\t0:10\nO\tice\t0\nS\tsolid\n//\n"


def test_empty_text_gives_empty_document():
    assert parse_subgraph("").units == []


def test_freeze_unit():
    doc = parse_subgraph(FREEZE_UNIT)
    assert len(doc.units) == 1
    u = doc.units[0]
    assert [o.name for o in u.inputs] == ["water"]
    assert u.inputs[0].states == frozenset({"liquid"})
    assert u.inputs[0].motion_tag == "1"
    assert u.motion.label == "freeze"
    assert (u.motion.start_time, u.motion.end_time) == ("0:05", "0:10")
    assert [o.name for o in u.outputs] == ["ice"]
    assert u.outputs[0].states == frozenset({"solid"})


def test_state_with_ingredients():
    text = (
        "O\ttomato\t1\nS\twhole\nM\tput\nO\tbowl\t0\n"
        "S\tin bowl\t{tomato,onion}\n//\n"
    )
    out = parse_subgraph(text).units[0].outputs[0]
    assert out.states == frozenset({"in bowl"})
    assert out.ingredients == frozenset({"tomato", "onion"})


def test_bare_state_line_is_empty_state():
    text = "O\tspoon\t1\nS\nM\tstir\nO\tspoon\t1\nS\n//\n"
    u = parse_subgraph(text).units[0]
    assert u.inputs[0].states == frozenset({""})


def test_empty_ingredient_braces():
    text = "O\tbowl\nS\tempty\t{}\nM\tmix\nO\tbowl\nS\tfull\n//\n"
    assert parse_subgraph(text).units[0].inputs[0].ingredients == frozenset()


def test_comments_and_blank_lines_ignored():
    text = "# a recipe\n\n" + FREEZE_UNIT
    assert len(parse_subgraph(text).units) == 1


def _fault(text, kind, line, message):
    # The id names the kind of fault, as text-kind-line.
    return pytest.param(text, line, message, id=f"{text}-{kind}-{line}")


@pytest.mark.parametrize(
    "text,line,message",
    [
        _fault("X\tfoo\n", "MalformedLine", 1, "unknown leading tag 'X'"),
        _fault("O\twater\nS\tliquid\nM\tfreeze\nO\tice\n///\n", "MalformedLine", 5,
               "unknown leading tag '///'"),
        _fault("O\twater\nM\tfreeze\nO\tice\nS\tsolid\t[a]\n//\n", "MalformedLine", 4,
               "expected {...} ingredient list, got '[a]'"),
        _fault("O\n", "ObjectWithoutName", 1, "O line has no object name"),
        _fault("S\tliquid\n", "StateBeforeObject", 1, "S line before any O line"),
        _fault("O\twater\nS\tliquid\nO\tice\n//\n", "UnitWithoutMotion", 4,
               "unit ended by // has no M line"),
        _fault("O\twater\nM\tfreeze\nM\tmelt\nO\tice\n//\n", "MultipleMotions", 3,
               "second M line in one unit"),
        _fault("O\twater\nS\tliquid\nM\tfreeze\nO\tice\n", "DanglingUnit", 4,
               "unterminated unit at end of file"),
        _fault("# only a comment\nO\twater\n", "DanglingUnit", 2,
               "unterminated unit at end of file"),
        _fault("O\twater\nM\tfreeze\n//\n", "IncompleteUnit", 3,
               "unit needs at least one input and one output"),
        _fault("M\t\n", "MalformedLine", 1, "M line has no motion label"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, message):
    with pytest.raises(ParseError) as err:
        parse_subgraph(text)
    assert type(err.value) is ParseError
    assert (err.value.line_number, str(err.value)) == (line, message)


def test_serialize_empty_document():
    assert serialize_subgraph(parse_subgraph("")) == ""


def test_serialize_canonical_freeze_unit_is_byte_identical():
    doc = parse_subgraph(FREEZE_UNIT)
    assert serialize_subgraph(doc) == FREEZE_UNIT


def test_serialize_sorts_ingredients():
    text = "O\tbowl\nS\tfull\t{onion,tomato,basil}\nM\tmix\nO\tsalad\nS\tmixed\n//\n"
    emitted = serialize_subgraph(parse_subgraph(text))
    assert "{basil,onion,tomato}" in emitted


def test_round_trip_over_corpus(corpus_paths):
    for path in corpus_paths:
        first = parse_subgraph(path.read_text(encoding="utf-8"))
        emitted = serialize_subgraph(first)
        second = parse_subgraph(emitted)
        assert len(first.units) == len(second.units), path.name
        for a, b in zip(first.units, second.units):
            assert a == b, path.name
            assert [o.motion_tag for o in a.inputs] == [o.motion_tag for o in b.inputs]
            assert [o.motion_tag for o in a.outputs] == [o.motion_tag for o in b.outputs]
            assert a.motion.start_time == b.motion.start_time
            assert a.motion.end_time == b.motion.end_time
        # canonical emission is a fixed point
        assert serialize_subgraph(second) == emitted, path.name


def test_parse_kitchen_basic():
    text = "O\twater\nS\tliquid\nO\ttray\nS\tempty\n"
    kitchen = parse_kitchen(text)
    assert len(kitchen) == 2


def test_parse_kitchen_empty():
    assert len(parse_kitchen("")) == 0


def test_parse_kitchen_duplicate_blocks_collapse():
    text = "O\twater\nS\tliquid\nO\twater\nS\tliquid\n"
    assert len(parse_kitchen(text)) == 1


def test_identical_blocks_share_one_instance():
    text = (
        "O\tbowl\t0\nS\tfull\t{tomato}\nM\tmix\nO\tbowl\t1\nS\tfull\t{tomato}\n//\n"
        "O\tbowl\t0\nS\tfull\t{tomato}\nM\tpour\nO\tbowl\t1\nS\tfull\t{tomato}\n//\n"
    )
    first, second = parse_subgraph(text).units
    assert first.inputs[0] is second.inputs[0]
    assert first.outputs[0] is second.outputs[0]
    # The flag column is read per occurrence: equal objects, two instances.
    assert first.inputs[0] == first.outputs[0]
    assert first.inputs[0] is not first.outputs[0]
    assert (first.inputs[0].motion_tag, first.outputs[0].motion_tag) == ("0", "1")


def test_each_distinct_block_and_m_line_is_built_once(corpus_paths, monkeypatch):
    # Read the corpus twice with one table: the first read builds one
    # ObjectNode per distinct raw block and one MotionNode per distinct raw
    # M line, and the second read builds nothing.
    built = {ObjectNode: 0, MotionNode: 0}

    def counted(cls):
        def build(*args):
            built[cls] += 1
            return cls(*args)
        return build
    monkeypatch.setattr(parser, "ObjectNode", counted(ObjectNode))
    monkeypatch.setattr(parser, "MotionNode", counted(MotionNode))
    texts = [path.read_text(encoding="utf-8") for path in corpus_paths]
    objects = {}
    for text in texts + texts:
        parse_subgraph(text, objects)

    blocks, motions = set(), set()
    for text in texts:
        block = ()
        for line in text.splitlines():
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            tag = line.partition("\t")[0].strip()
            if tag == "S":
                block += (line,)
                continue
            blocks.add(block)
            block = (line,) if tag == "O" else ()
            if tag == "M":
                motions.add(line)
        blocks.add(block)
    blocks.discard(())
    assert len(blocks) > 100 and len(motions) > 20
    assert built == {ObjectNode: len(blocks), MotionNode: len(motions)}


def test_parse_kitchen_rejects_motion():
    with pytest.raises(ParseError) as err:
        parse_kitchen("O\twater\nS\tliquid\nM\tpour\n")
    assert (err.value.line_number, str(err.value)) == (3, "M line in kitchen file")


def test_parse_rates():
    table = parse_rates("pour\t0.9\nslice\t0.4\n")
    assert table.rate("pour") == 0.9
    assert table.rate("slice") == 0.4
    assert table.rate("unlisted") == 1.0


def test_parse_rates_empty():
    table = parse_rates("")
    assert table.rates == {}
    assert table.rate("anything") == 1.0


def test_parse_rates_out_of_range():
    with pytest.raises(ParseError, match=r"^rate for 'slice' out of \[0, 1\]: 1.5$") as err:
        parse_rates("pour\t0.5\nslice\t1.5\n")
    assert err.value.line_number == 2
    # The table owns the rule; the parser only adds the line number.
    with pytest.raises(ValueError, match=r"^rate for 'slice' out of \[0, 1\]: -0.5$"):
        MotionRateTable({"slice": -0.5})


def test_rate_labels_are_normalised_by_the_table():
    # The parser passes labels as written; an error quotes the label so.
    assert parse_rates(" Slice \t0.5\nslice\t0.25\n").rates == {"slice": 0.25}
    assert parse_rates("pour\t0.5\nPour\t0.9\npour\t0.1\n").rates == {"pour": 0.1}
    with pytest.raises(ParseError, match=r"^rate for ' Slice' out of \[0, 1\]: 1.5$"):
        parse_rates(" Slice\t1.5\n")


def test_parse_rates_malformed():
    with pytest.raises(ParseError, match=r"^expected label<TAB>rate, got \['slice'\]$"):
        parse_rates("slice\n")
    with pytest.raises(ParseError, match="^rate is not a number: 'fast'$"):
        parse_rates("slice\tfast\n")


@pytest.mark.parametrize("text", ["\t0.5\n", "  \t0.5\n", "pour\t0.5\n# none\n \t0.5\n"])
def test_parse_rates_refuses_an_empty_label(text):
    with pytest.raises(ParseError, match="^rate line has no motion label$") as info:
        parse_rates(text)
    assert info.value.line_number == text.count("\n")


@pytest.mark.parametrize("rate", ["0_1", "1_0e-1"])
def test_parse_rates_refuses_an_underscore_in_the_rate(rate):
    # float() would read "0_1" as 1.0, a typo for 0.1 made certain.
    with pytest.raises(ParseError, match=f"^rate is not a number: '{rate}'$") as info:
        parse_rates(f"pour\t0.5\nfreeze\t{rate}\n")
    assert info.value.line_number == 2


def test_parse_rates_reads_the_number_before_the_label():
    with pytest.raises(ParseError, match="^rate is not a number: 'fast'$") as info:
        parse_rates("\tfast\n")
    assert info.value.line_number == 1


def test_parse_goal_variants():
    plain = parse_goal("ice")
    assert (plain.name, plain.states, plain.ingredients) == ("ice", frozenset(), frozenset())
    salad = parse_goal("greek salad;mixed")
    assert salad.name == "greek salad"
    assert salad.states == frozenset({"mixed"})
    bowl = parse_goal("bowl;full;tomato,onion")
    assert bowl.ingredients == frozenset({"tomato", "onion"})


def test_parse_goal_empty_state_marker():
    assert parse_goal("spoon;\\e") == ObjectNode("spoon", frozenset({""}))


def test_parse_goal_refuses_what_no_foon_file_can_hold():
    # Ingredients ride on an S line, so a goal with ingredients needs a state.
    with pytest.raises(ParseError) as err:
        parse_goal("x;;salt")
    assert (err.value.line_number, str(err.value)) == (
        None, "object 'x': ingredient 'salt' without a state")
    assert parse_goal("x;\\e;salt, ,") == ObjectNode("x", {""}, {"salt"})


def test_parse_goal_empty_name():
    with pytest.raises(ParseError) as err:
        parse_goal(";mixed")
    assert (err.value.line_number, str(err.value)) == (None, "object name must be non-empty")


def test_parse_goal_refuses_more_than_three_fields():
    with pytest.raises(ParseError) as err:
        parse_goal("ice;solid;salt;pepper")
    assert (err.value.line_number, str(err.value)) == (
        None, "goal spec 'ice;solid;salt;pepper' has 4 ';'-separated fields, at most 3")
    with pytest.raises(ParseError) as err:
        parse_goals("ice\nice;solid;;\n")
    assert err.value.line_number == 2


def test_parse_goal_undoes_the_escapes_object_key_writes():
    salt = ObjectNode("salt;pepper mix", {"ground, fine", ""}, {"a\\b", "c;d"})
    assert object_key(salt) == "salt\\;pepper mix;\\e,ground\\, fine;a\\\\b,c\\;d"
    assert parse_goal(object_key(salt)) == salt
    # A ',' in the name field is part of the name, escaped or not.
    assert parse_goal("a,b;c") == parse_goal("a\\,b;c") == ObjectNode("a,b", {"c"})


def test_a_leading_comment_character_is_escaped_so_a_goals_file_reads_it():
    salt = ObjectNode("#salt", {"#1"})
    assert object_key(salt) == "\\#salt;#1;"
    assert parse_goals(object_key(salt) + "\n") == [("\\#salt;#1;", salt)]
    # Unescaped, a '#' is a comment at the start of a line only.
    assert parse_goal("#salt;#1") == parse_goal("\\#salt;\\#1") == salt
    assert parse_goals("#salt;#1\n") == []


@pytest.mark.parametrize("spec, escape", [
    ("spoon\\|x", "\\|"), ("salt\\", "\\"), ("x;a\\ b", "\\ "), ("x;\\E", "\\E"),
])
def test_parse_goal_refuses_any_other_escape(spec, escape):
    with pytest.raises(ParseError) as err:
        parse_goal(spec)
    assert (err.value.line_number, str(err.value)) == (
        None, f"goal spec {spec!r} has an unknown escape {escape!r}")


# Tokens of the goal-spec property: the separators, the escape and the
# empty-state marker, '|' (the separator of the key's former form), the
# comment character, blanks, case and non-ASCII text.
_spec_tokens = st.lists(st.sampled_from(["a", "B", "é", "水", " ", ";", ",", "\\", "|", "e",
                                         "\\e", "\\\\", "#"]), max_size=5).map("".join)


@st.composite
def _spec_objects(draw):
    """An object the constructor accepts, built from ``_spec_tokens``."""
    states = draw(st.frozensets(_spec_tokens, max_size=3))
    # Ingredients ride on a state and hold no ','.
    ingredients = draw(st.frozensets(_spec_tokens.filter(lambda token: "," not in token),
                                     max_size=3 if states else 0))
    return ObjectNode(draw(_spec_tokens.filter(str.strip)), states, ingredients)


@settings(max_examples=300)
@given(a=_spec_objects(), b=_spec_objects())
def test_parse_goal_reads_back_what_object_key_prints(a, b):
    assert parse_goal(object_key(a)) == a
    # A goals file reads it back too, even when the name starts with '#'.
    assert parse_goals(object_key(a) + "\n") == [(object_key(a), a)]
    # So equal keys mean equal objects; equal objects have one key.
    assert (object_key(a) == object_key(b)) == (a == b)


def test_parse_goals_skips_blank_and_comment_lines():
    goals = parse_goals("# goals\n\n  ice;solid  \n  # not a goal\nspoon;\\e\n")
    assert goals == [("ice;solid", parse_goal("ice;solid")),
                     ("spoon;\\e", parse_goal("spoon;\\e"))]
    assert parse_goals("") == []


def test_parse_goals_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_goals("ice\n# comment\n\n;bad\n")
    assert (err.value.line_number, str(err.value)) == (4, "object name must be non-empty")


def _api_unit(name="bowl", states=("full",), ingredients=(), tag="", label="mix",
              start=None, end=None):
    made = ObjectNode(name, frozenset(states), frozenset(ingredients), motion_tag=tag)
    return FunctionalUnit([made], MotionNode(label, start, end),
                          [ObjectNode("salad", frozenset({"mixed"}))])


# The messages of what the constructors refuse because the format cannot carry it.
_REFUSED = "contains a tab or line break|contains ','|without a state"


@pytest.mark.parametrize("kwargs, token", [
    ({"name": "x\ty"}, "'x\\ty'"),
    ({"states": ["a\nb"]}, "'a\\nb'"),
    ({"ingredients": ["a\u2028b"]}, "'a\\u2028b'"),
    ({"tag": "1\r0"}, "'1\\r0'"),
    ({"label": "stir\x1cwell"}, "'stir\\x1cwell'"),
    ({"ingredients": ["salt,pepper"]}, "'salt,pepper'"),
    ({"states": [], "ingredients": [" ", " Salt "]}, "'salt'"),
    ({"states": [], "ingredients": ["salt"]}, "without a state"),
])
def test_serialize_refuses_what_the_format_cannot_carry(kwargs, token):
    # The unit is built inside the ``raises`` block: building its object or
    # motion refuses what the format cannot carry, so the serializer never
    # sees it.
    with pytest.raises(ValueError, match=_REFUSED) as caught:
        serialize_subgraph(SubgraphDocument(units=[_api_unit(**kwargs)]))
    assert token in str(caught.value)


def test_empty_ingredients_are_dropped():
    # The parser reads {salt, ,} as {salt}; the constructor owns that rule,
    # so an object built with an empty ingredient round-trips too.
    made = _api_unit(ingredients=[" ", "", "Salt"])
    assert made.inputs[0].ingredients == frozenset({"salt"})
    assert _api_unit(states=[], ingredients=[" "]).inputs[0].ingredients == frozenset()
    assert parse_subgraph(serialize_subgraph(SubgraphDocument(units=[made]))).units == [made]
    text = "O\tbowl\nS\tfull\t{salt, ,}\nM\tmix\nO\tsalad\nS\tmixed\n//\n"
    assert parse_subgraph(text).units == [made]


# Tab and every character str.splitlines() breaks a line at.
_BREAKS = ["\t"] + [chr(c) for c in range(0x3000) if len(f"a{chr(c)}b".splitlines()) > 1]


@pytest.mark.parametrize("brk", _BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
def test_serialize_refuses_every_tab_and_line_break(brk):
    # The refusal comes before the serializer: building the object or
    # motion refuses the token, in each of the seven token positions.
    token = f"x{brk}y"
    for kwargs in ({"name": token}, {"states": [token]}, {"ingredients": [token]},
                   {"tag": token}, {"label": token}, {"start": token},
                   {"start": "0:01", "end": token}):
        with pytest.raises(ValueError, match="contains a tab or line break") as caught:
            serialize_subgraph(SubgraphDocument(units=[_api_unit(**kwargs)]))
        assert repr(token) in str(caught.value)


_plain = st.text(st.sampled_from("aB ,{}#/"), min_size=1, max_size=3)
# About one token in 50 gets a tab or line break inside, so that most
# units can be built and the round trip is exercised.
_broken = st.builds("".join, st.tuples(_plain, st.sampled_from(_BREAKS), _plain))
_texts = st.integers(0, 49).flatmap(lambda n: _broken if n == 7 else _plain)
_names = _texts.filter(str.strip)
# Constructor arguments, not instances: building is part of the property.
_objects = st.tuples(_names, st.frozensets(_texts, max_size=2),
                     st.frozensets(_texts, max_size=1), _texts)
_units = st.tuples(
    st.lists(_objects, min_size=1, max_size=2),
    st.tuples(_names, st.none() | _texts, st.none() | _texts),
    st.lists(_objects, min_size=1, max_size=2),
)


def _build_unit(inputs, motion, outputs):
    return FunctionalUnit([ObjectNode(*args) for args in inputs], MotionNode(*motion),
                          [ObjectNode(*args) for args in outputs])


@settings(max_examples=300)
@given(specs=st.lists(_units, min_size=1, max_size=2))
def test_serialize_refuses_or_round_trips_api_units(specs):
    try:
        units = [_build_unit(*spec) for spec in specs]
    except ValueError as exc:
        # Only what the format cannot carry stops an object or motion being built.
        assert re.search(_REFUSED, str(exc))
        return
    # Every unit that can be built is written, and reads back field for field.
    parsed = parse_subgraph(serialize_subgraph(SubgraphDocument(units=units))).units
    assert parsed == units
    # Unit equality ignores flag columns and timestamps; compare every field.
    assert [_fields(unit) for unit in parsed] == [_fields(unit) for unit in units]


def _fields(unit):
    objects = [(o.name, o.states, o.ingredients, o.motion_tag)
               for o in unit.inputs + unit.outputs]
    return objects, (unit.motion.label, unit.motion.start_time, unit.motion.end_time)


@pytest.mark.parametrize("kwargs, line", [
    ({"start": None, "end": "2"}, "M\tmix\t\t2"),
    ({"start": "1", "end": None}, "M\tmix\t1"),
    ({"start": " 1 ", "end": "\n2 "}, "M\tmix\t1\t2"),
    ({"start": "", "end": "2"}, "M\tmix\t\t2"),
    ({"start": " ", "end": " "}, "M\tmix"),
])
def test_timestamps_are_trimmed_and_an_end_time_alone_is_kept(kwargs, line):
    unit = _api_unit(**kwargs)
    text = serialize_subgraph(SubgraphDocument(units=[unit]))
    assert text.splitlines()[2] == line
    parsed = parse_subgraph(text).units[0].motion
    assert (parsed.start_time, parsed.end_time) == (unit.motion.start_time,
                                                   unit.motion.end_time)


@pytest.mark.parametrize("tag, line", [(" t ", "O\tbowl\tt"), ("\u20281", "O\tbowl\t1"),
                                       (" ", "O\tbowl"), ("", "O\tbowl")])
def test_flag_column_is_trimmed_at_construction(tag, line):
    unit = _api_unit(tag=tag)
    assert unit.inputs[0].motion_tag == tag.strip()
    text = serialize_subgraph(SubgraphDocument(units=[unit]))
    assert text.splitlines()[0] == line
    assert parse_subgraph(text).units[0].inputs[0].motion_tag == tag.strip()


def test_line_breaks_are_those_str_splitlines_splits_on():
    assert len(LINE_BREAKS) == len(set(LINE_BREAKS))
    assert set(LINE_BREAKS) == {chr(c) for c in range(0x110000)
                                if len(f"a{chr(c)}b".splitlines()) > 1}
