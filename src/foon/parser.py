"""Text formats: subgraph files, kitchen files, motion-rate files, goal specs and files.

Subgraph grammar (tab-separated):

    O<TAB>name[<TAB>tag]          opens an object block
    S[<TAB>state[<TAB>{i,j,...}]] attaches a state (and ingredients) to it
    M<TAB>label[<TAB>start<TAB>end]  closes the input section of a unit
    //                            ends a functional unit

Object blocks before the M line are the unit's inputs, blocks after it are
the outputs. In every file format, blank lines and lines whose first
non-blank character is COMMENT ('#') are ignored. Every format error is a
ParseError. Serialization is canonical (sorted states/ingredients, final
newline) so identical documents emit identical bytes.
"""
from __future__ import annotations

import re

from .model import (COMMENT, EMPTY_STATE, ESCAPE, FIELD_SEP, ITEM_SEP, FunctionalUnit, Kitchen,
                    MotionNode, MotionRateTable, ObjectNode, _Record, check_rate)

# A goal spec's parts: a separator, an escape (ESCAPE and the character
# after it, if any) or a run of other characters; and what each escape stands for.
_SPEC_PARTS = re.compile("[{1}{2}]|{0}.?|[^{0}{1}{2}]+".format(
    re.escape(ESCAPE), FIELD_SEP, ITEM_SEP), re.DOTALL)
_UNESCAPED = ({ESCAPE + char: char for char in (ESCAPE, FIELD_SEP, ITEM_SEP, COMMENT)}
              | {EMPTY_STATE: ""})


class ParseError(Exception):
    """A file-format error: its message and the 1-based offending line,
    which is None for a goal spec read on its own."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


class SubgraphDocument(_Record):
    """Functional units in file order."""

    _fields = ("units",)

    def __init__(self, units=None):
        self.units = [] if units is None else units


def _iter_records(text):
    """Yield (line_number, line) for every significant line."""
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if stripped and stripped[0] != COMMENT:
            yield number, line


def _read_blocks(text, objects, unit_end_closes_block=True):
    """Yield (line_number, tag, item) for the significant lines of ``text``.

    O and S lines are read here: each object block is yielded once, as
    ``(n, "O", ObjectNode)``, when the next line that is not an S line
    (nor a ``//`` line, unless ``unit_end_closes_block``) or the end of
    the text closes it; ``n`` is the number of that closing line, or of
    the last significant line. Closing on every other line makes a bad
    block raise before any error of a later line. Every other line is
    yielded as ``(n, tag, line)``.
    """
    lines = None  # raw lines of the open block; None when no block is open
    for number, line in _iter_records(text):
        tag = line.partition("\t")[0].strip()
        if tag == "S":
            if lines is None:
                raise ParseError("S line before any O line", number)
            lines.append(line)
            numbers.append(number)
            continue
        if lines is not None and (unit_end_closes_block or tag != "//"):
            yield number, "O", _object(objects, lines, numbers)
            lines = None
        if tag == "O":
            lines, numbers = [line], [number]
        else:
            yield number, tag, line
    if lines is not None:
        yield number, "O", _object(objects, lines, numbers)


def _object(objects, lines, numbers):
    """The instance ``objects`` holds for a block's raw lines, built and
    stored the first time those lines are read. The key is the lines
    joined, one string per block, which holds less memory than a tuple."""
    key = "\n".join(lines)
    obj = objects.get(key)
    if obj is not None:
        return obj
    head = lines[0].split("\t")
    if len(head) < 2 or not head[1].strip():
        raise ParseError("O line has no object name", numbers[0])
    states, ingredients = [], set()
    for number, line in zip(numbers[1:], lines[1:]):
        fields = line.split("\t")
        states.append(fields[1] if len(fields) > 1 else "")
        text = fields[2].strip() if len(fields) > 2 else ""
        if text:
            if not (text.startswith("{") and text.endswith("}")):
                raise ParseError(f"expected {{...}} ingredient list, got {text!r}", number)
            ingredients.update(text[1:-1].split(","))
    obj = objects[key] = ObjectNode(head[1], states, ingredients, *head[2:3])
    return obj


def parse_subgraph(text: str, objects=None) -> SubgraphDocument:
    """Parse subgraph text into a document of functional units in file order.

    Fields go as written to the ``ObjectNode`` and ``MotionNode``
    constructors, which hold the canonical form.

    ``objects`` maps each raw object block (its O line and S lines, as
    written) and each raw M line to the instance built for it. Texts
    parsed with one table share an instance wherever they repeat a block
    or an M line; without one, the text gets a table of its own.
    """
    if objects is None:
        objects = {}
    units = []
    inputs, outputs = [], []
    motion = None
    number = 0
    for number, tag, item in _read_blocks(text, objects):
        if tag == "O":
            (outputs if motion is not None else inputs).append(item)
        elif tag == "M":
            if motion is not None:
                raise ParseError("second M line in one unit", number)
            motion = objects.get(item)
            if motion is None:
                fields = item.split("\t")
                if len(fields) < 2 or not fields[1].strip():
                    raise ParseError("M line has no motion label", number)
                motion = objects[item] = MotionNode(*fields[1:4])
        elif tag == "//":
            if motion is None:
                raise ParseError("unit ended by // has no M line", number)
            if not inputs or not outputs:
                raise ParseError("unit needs at least one input and one output", number)
            units.append(FunctionalUnit(inputs, motion, outputs))
            inputs, outputs, motion = [], [], None
        else:
            raise ParseError(f"unknown leading tag {tag!r}", number)

    if inputs or outputs or motion is not None:
        raise ParseError("unterminated unit at end of file", number)
    return SubgraphDocument(units=units)


def _serialize_object(obj: ObjectNode, lines):
    lines.append(_line("O", obj.name, obj.motion_tag))
    # They go on the first S line only.
    ingredients = "{" + ",".join(sorted(obj.ingredients)) + "}" if obj.ingredients else ""
    for state in sorted(obj.states):
        lines.append(_line("S", state, ingredients))
        ingredients = ""


def _line(*fields):
    # Empty last fields are dropped, so an empty field is written only
    # before a field that is not; no token holds a tab.
    return "\t".join(fields).rstrip("\t")


def serialize_subgraph(doc: SubgraphDocument) -> str:
    """Canonical text for a document; parsing it back reproduces every field.

    Every object and motion can be written: what the format cannot carry
    is refused when it is built (see ``ObjectNode`` and ``MotionNode``).
    """
    if not doc.units:
        return ""
    lines = []
    for unit in doc.units:
        for obj in unit.inputs:
            _serialize_object(obj, lines)
        motion = unit.motion
        lines.append(_line("M", motion.label, motion.start_time or "", motion.end_time or ""))
        for obj in unit.outputs:
            _serialize_object(obj, lines)
        lines.append("//")
    return "\n".join(lines) + "\n"


def parse_kitchen(text: str, objects=None) -> Kitchen:
    """Parse a kitchen file: O/S blocks only, one item per block.

    ``objects`` is the table ``parse_subgraph`` takes: a kitchen block
    written like a block of a FOON read with the same table is the FOON's
    instance.
    """
    if objects is None:
        objects = {}
    items = []
    for number, tag, item in _read_blocks(text, objects, unit_end_closes_block=False):
        if tag == "O":
            items.append(item)
        elif tag == "M":
            raise ParseError("M line in kitchen file", number)
        elif tag != "//":
            raise ParseError(f"unknown leading tag {tag!r}", number)
    return Kitchen(items)


def parse_rates(text: str) -> MotionRateTable:
    """Parse a motion-rate file of ``label<TAB>rate`` lines."""
    rates = {}
    for number, line in _iter_records(text):
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(f"expected label<TAB>rate, got {fields!r}", number)
        label, field = fields
        try:
            if "_" in field:  # float() reads digit-grouping underscores: "0_1" as 1.0
                raise ValueError
            rate = float(field)
        except ValueError:
            raise ParseError(f"rate is not a number: {field!r}", number)
        # Moved to the end, so the last line wins in the table, which
        # normalises the labels, whatever each line's spelling.
        rates.pop(label, None)
        try:
            rates[label] = check_rate(label, rate)
        except ValueError as exc:
            raise ParseError(str(exc), number) from exc
    return MotionRateTable(rates=rates)


def parse_goal(spec: str) -> ObjectNode:
    """Parse a goal spec, ``name[;state1,state2[;ing1,ing2]]``, the form
    ``object_key`` prints. In a token, ``\\\\``, ``\\;``, ``\\,`` and ``\\#`` stand
    for the character escaped and ``\\e`` for none, so a state written ``\\e``
    is the empty state of a bare S line, and a goals file can hold a goal
    whose name starts with '#' as ``\\#``. A ',' in the name field is part of
    the name. A fourth field, any other escape and what the ``ObjectNode``
    constructor refuses are each a ParseError.
    """
    fields = [[[]]]  # each field's items, each a list of its parts, unescaped
    for part in _SPEC_PARTS.findall(spec):
        if part == FIELD_SEP:
            fields.append([[]])
        elif part == ITEM_SEP:
            fields[-1].append([])
        elif part[0] != ESCAPE or part in _UNESCAPED:
            fields[-1][-1].append(_UNESCAPED.get(part, part))
        else:
            raise ParseError(f"goal spec {spec!r} has an unknown escape {part!r}")
    if len(fields) > 3:
        raise ParseError(f"goal spec {spec!r} has {len(fields)} {FIELD_SEP!r}-separated "
                         "fields, at most 3")
    name, states, ingredients = fields + [[]] * (3 - len(fields))
    try:
        # A state written blank is none; an escape is not blank ("".isspace() is False).
        return ObjectNode(ITEM_SEP.join(map("".join, name)),
                          ["".join(state) for state in states if not all(map(str.isspace, state))],
                          map("".join, ingredients))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_goals(text: str) -> list:
    """Parse a goals file, one goal spec per significant line, into
    ``(spec, ObjectNode)`` pairs; each spec is its line, trimmed."""
    goals = []
    for number, line in _iter_records(text):
        spec = line.strip()
        try:
            goals.append((spec, parse_goal(spec)))
        except ParseError as exc:
            exc.line_number = number
            raise
    return goals
