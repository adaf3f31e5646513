"""The parsers against the frozen copies in ``reference_parser.py``.

Seeded random documents are built from about twenty kinds of line, some
well formed and some not, and run through both the current and the
reference ``parse_subgraph`` and ``parse_kitchen``. Each pair must give
the same units field by field, or raise the same exception class with
the same line number and message. Goal specs without a backslash, seeded
random ones and every goal line of the fixtures, must do the same through
both ``parse_goal``s.
"""
import random

import pytest

from foon import parse_goal, parse_goals, parse_kitchen, parse_subgraph

import reference_parser as reference
from conftest import FIXTURES

NAMES = ["bowl", "Bowl", " tomato", "tomato", "water ", "ice", "knife"]
STATES = ["whole", "chopped", "in bowl", "Liquid ", " solid"]
INGREDIENTS = ["onion", " tomato", "Salt", "oil "]
LABELS = ["pour", "Chop", " mix", "freeze"]


def _o_named(rng):
    return f"O\t{rng.choice(NAMES)}"


def _o_flagged(rng):
    return f"O\t{rng.choice(NAMES)}\t{rng.choice(['0', '1', ' 1', '', 'x y'])}"


def _o_unnamed(rng):
    return rng.choice(["O", "O\t", "O\t  ", "O\t\t1"])


def _s_bare(rng):
    return rng.choice(["S", "S\t", " S"])


def _s_state(rng):
    return f"S\t{rng.choice(STATES)}"


def _s_ingredients(rng):
    parts = rng.sample(INGREDIENTS, rng.randint(0, 3)) + rng.choice([[], [""], ["  "]])
    rng.shuffle(parts)
    state = rng.choice(STATES + [""])
    return f"S\t{state}\t{rng.choice(['', ' '])}{{{','.join(parts)}}}"


def _s_brackets(rng):
    return f"S\t{rng.choice(STATES)}\t[{rng.choice(INGREDIENTS)}]"


def _s_blank_column(rng):
    return f"S\t{rng.choice(STATES)}\t  "


def _m_label(rng):
    return f"M\t{rng.choice(LABELS)}"


def _m_times(rng):
    return f"M\t{rng.choice(LABELS)}\t0:0{rng.randint(0, 9)}\t{rng.choice(['0:10', ' ', ''])}"


def _m_start_only(rng):
    return f"M\t{rng.choice(LABELS)}\t{rng.choice(['0:01', ' '])}"


def _m_unlabelled(rng):
    return rng.choice(["M", "M\t", "M\t \t0:01"])


def _unit_end(rng):
    return rng.choice(["//", " //", "//\t"])


def _triple_slash(rng):
    return "///"


def _comment(rng):
    return rng.choice(["# note", "   # indented", "#O\tbowl"])


def _blank(rng):
    return rng.choice(["", "   ", "\t"])


def _unknown_tag(rng):
    return rng.choice(["X\tfoo", "o\tbowl", "s\twhole", "OS"])


LINE_KINDS = [
    _o_named, _o_flagged, _o_unnamed, _s_bare, _s_state, _s_ingredients,
    _s_brackets, _s_blank_column, _m_label, _m_times, _m_start_only,
    _m_unlabelled, _unit_end, _triple_slash, _comment, _blank, _unknown_tag,
]
WELL_FORMED_STATES = [_s_bare, _s_state, _s_ingredients, _s_blank_column]


def _block(rng):
    lines = [rng.choice([_o_named, _o_flagged])(rng)]
    lines += [rng.choice(WELL_FORMED_STATES)(rng) for _ in range(rng.randint(0, 3))]
    return lines


def _subgraph_lines(rng):
    lines = []
    for _ in range(rng.randint(1, 4)):
        for _ in range(rng.randint(1, 3)):
            lines += _block(rng)
        lines.append(rng.choice([_m_label, _m_times, _m_start_only])(rng))
        for _ in range(rng.randint(1, 2)):
            lines += _block(rng)
        lines.append("//")
    return lines


def _kitchen_lines(rng):
    lines = []
    for _ in range(rng.randint(1, 6)):
        lines += _block(rng)
        if rng.random() < 0.2:
            lines.append("//")
    return lines


def _document(seed):
    rng = random.Random(seed)
    mode = seed % 3
    if mode == 2:
        lines = [rng.choice(LINE_KINDS)(rng) for _ in range(rng.randint(0, 12))]
    else:
        lines = _subgraph_lines(rng) if mode == 0 else _kitchen_lines(rng)
        noise = rng.choice([0.0, 0.0, 0.05, 0.15])
        for _ in range(sum(rng.random() < noise for _ in lines)):
            lines.insert(rng.randint(0, len(lines)), rng.choice(LINE_KINDS)(rng))
    ending = rng.choice(["\n", "\r\n"])
    return ending.join(lines) + rng.choice([ending, ""])


def _objects(objects):
    return [(o.name, o.states, o.ingredients, o.motion_tag) for o in objects]


def _outcome(parse, summarize, text):
    try:
        result = parse(text)
    except Exception as exc:
        return "error", type(exc), getattr(exc, "line_number", None), str(exc)
    return "ok", summarize(result)


def _units(doc):
    return [
        (_objects(u.inputs), (u.motion.label, u.motion.start_time, u.motion.end_time),
         _objects(u.outputs))
        for u in doc.units
    ]


def _items(kitchen):
    return _objects(kitchen.items)


def _assert_same(text):
    assert _outcome(parse_subgraph, _units, text) == _outcome(
        reference.parse_subgraph, _units, text), repr(text)
    assert _outcome(parse_kitchen, _items, text) == _outcome(
        reference.parse_kitchen, _items, text), repr(text)


def test_random_documents_parse_as_the_reference_does():
    outcomes = {"ok": 0, "error": 0}
    for seed in range(3000):
        text = _document(seed)
        _assert_same(text)
        outcomes[_outcome(parse_subgraph, _units, text)[0]] += 1
    # The generator must exercise both the units and the error paths.
    assert min(outcomes.values()) > 300, outcomes


@pytest.mark.parametrize("text", [
    "",
    "O\tx\n//\nS\ty\n",
    "O\tx\nS\ta\nM\tm\nO\ty\n//\nO\tx\nS\ta\nM\tm\nO\ty\n",
    "S\ty\n",
    "O\tx\r\nS\t\t{a, ,b}\r\nM\tm\t1\r\nO\ty\t1\r\n//\r\n",
    # A block's S lines are parsed when a later line closes it; every line
    # but another S line (or, in a kitchen, a // line) must close it, so
    # its error comes before the later line's.
    "O\tx\nS\ta\t[bad]\nX\tfoo\n",
    "O\tx\nS\ta\t[bad]\n//\n///\n",
])
def test_edge_documents_parse_as_the_reference_does(text):
    _assert_same(text)


def test_kitchen_unit_end_keeps_the_block_open():
    [item] = parse_kitchen("O\tx\n//\nS\ty\n").items
    assert (item.name, item.states) == ("x", frozenset({"y"}))


# Characters of the random goal specs: the separators, blanks, a tab and
# line breaks, '|', '#', case and non-ASCII text; no backslash.
SPEC_CHARS = ["a", "B", "e", "é", "水", " ", " ", ";", ";", ",", ",", "|", "#", "\t", "\n",
              "\u2028"]


def _goal(obj):
    return _objects([obj])


def _assert_same_goal(spec):
    assert _outcome(parse_goal, _goal, spec) == _outcome(reference.parse_goal, _goal, spec), (
        repr(spec))


def test_goal_specs_without_a_backslash_parse_as_the_reference_does():
    outcomes = {"ok": 0, "error": 0}
    for seed in range(3000):
        rng = random.Random(seed)
        spec = "".join(rng.choice(SPEC_CHARS) for _ in range(rng.randint(0, 12)))
        _assert_same_goal(spec)
        outcomes[_outcome(parse_goal, _goal, spec)[0]] += 1
    assert min(outcomes.values()) > 300, outcomes


_FIXTURE_GOALS = [spec for path in sorted(FIXTURES.rglob("goals*.txt"))
                  for spec, _ in parse_goals(path.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("spec", _FIXTURE_GOALS + [
    "", ";;;", ";mixed", "ice;solid;salt;pepper", "ice;solid;;", "ic\te", "x;;salt",
    "x; ;salt", " Ice ; Solid ,, ; Salt ,", "a,b;c|d;e", "ice;;",
])
def test_fixture_and_edge_goal_specs_parse_as_the_reference_does(spec):
    _assert_same_goal(spec)
