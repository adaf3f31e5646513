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
from itertools import islice

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


def _skipped(line):
    """Whether every text format skips ``line``: blank, or a comment."""
    stripped = line.lstrip()
    return not stripped or stripped[0] == COMMENT


def _iter_records(text):
    """Yield (line_number, line) for every line that is not skipped."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not _skipped(line):
            yield number, line


_TAGS = frozenset(("O", "S", "M", "//"))


def _parse(text, objects, kitchen):
    """The units of subgraph text, or with ``kitchen`` the items of kitchen
    text. One loop over the lines holds the block rule, the unit rules and
    the kitchen rules: in a kitchen a ``//`` line is skipped, and does not
    close a block, and an M line is an error.

    A block (an O line and the S lines after it) is closed by the next
    significant line that is not an S line (nor a kitchen's ``//``) or by
    the end of the text. Its instance is looked up, or built, before that
    line is checked, so a bad block raises before any error of a later
    line. A line whose tag field is one of ``_TAGS`` is significant; any
    other line is first checked with ``_skipped``.
    """
    lines = text.splitlines()
    units, inputs, outputs, motion = [], [], [], None
    items = inputs  # where the next closed block goes
    block = None  # raw lines of the open block; None when no block is open
    for number, line in enumerate(lines, 1):
        tag = line.partition("\t")[0]
        if tag not in _TAGS:
            if _skipped(line):
                continue
            tag = tag.strip()
        if tag == "S":
            if block is None:
                raise ParseError("S line before any O line", number)
            block.append(line)
            continue
        if block is not None and not (kitchen and tag == "//"):
            key = "\n".join(block)
            items.append(objects.get(key) or _object(objects, key, block, start, lines))
            block = None
        if tag == "O":
            block, start = [line], number
        elif tag == "//":
            if kitchen:
                continue
            if motion is None:
                raise ParseError("unit ended by // has no M line", number)
            if not inputs or not outputs:
                raise ParseError("unit needs at least one input and one output", number)
            units.append(FunctionalUnit(inputs, motion, outputs))
            items = inputs = []
            outputs, motion = [], None
        elif tag != "M":
            raise ParseError(f"unknown leading tag {tag!r}", number)
        elif kitchen:
            raise ParseError("M line in kitchen file", number)
        elif motion is not None:
            raise ParseError("second M line in one unit", number)
        else:
            motion = objects.get(line)
            if motion is None:
                fields = line.split("\t")
                if len(fields) < 2 or not fields[1].strip():
                    raise ParseError("M line has no motion label", number)
                motion = objects[line] = MotionNode(*fields[1:4])
            items = outputs
    if block is not None:
        key = "\n".join(block)
        items.append(objects.get(key) or _object(objects, key, block, start, lines))
    if kitchen:
        return inputs
    if inputs or outputs or motion is not None:
        raise ParseError("unterminated unit at end of file",
                         max(n for n, line in enumerate(lines, 1) if not _skipped(line)))
    return units


def _object(objects, key, block, number, lines):
    """Build and store under ``key`` the instance for ``block``, the raw
    lines of a block whose O line is line ``number`` of ``lines``. The key
    is those lines joined, one string per block, which holds less memory
    than a tuple; ``_parse`` joins it to look the block up."""
    head = block[0].split("\t")
    if len(head) < 2 or not head[1].strip():
        raise ParseError("O line has no object name", number)
    states, ingredients = [], set()
    for line in block[1:]:
        fields = line.split("\t")
        states.append(fields[1] if len(fields) > 1 else "")
        text = fields[2].strip() if len(fields) > 2 else ""
        if text:
            if not (text[0] == "{" and text[-1] == "}"):
                # The block's S lines are the first S lines after its O line.
                s_lines = (n for n, other in enumerate(lines[number:], number + 1)
                           if other.partition("\t")[0].strip() == "S")
                raise ParseError(f"expected {{...}} ingredient list, got {text!r}",
                                 next(islice(s_lines, block.index(line) - 1, None)))
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
    return SubgraphDocument(units=_parse(text, {} if objects is None else objects, False))


def _serialize_object(obj: ObjectNode, append):
    append(f"O\t{obj.name}\t{obj.motion_tag}" if obj.motion_tag else "O\t" + obj.name)
    # They go on the first S line only.
    ingredients = "\t{" + ",".join(sorted(obj.ingredients)) + "}" if obj.ingredients else ""
    for state in sorted(obj.states):
        append(f"S\t{state}{ingredients}" if state or ingredients else "S")
        ingredients = ""


def serialize_subgraph(doc: SubgraphDocument) -> str:
    """Canonical text for a document; parsing it back reproduces every field.

    Every object and motion can be written: what the format cannot carry
    is refused when it is built (see ``ObjectNode`` and ``MotionNode``).
    Empty last fields are dropped, so an empty field is written only
    before a field that is not; no token holds a tab.
    """
    lines = []
    append = lines.append
    for unit in doc.units:
        for obj in unit.inputs:
            _serialize_object(obj, append)
        motion = unit.motion
        start, end = motion.start_time or "", motion.end_time or ""
        append(f"M\t{motion.label}\t{start}\t{end}" if end else
               f"M\t{motion.label}\t{start}" if start else "M\t" + motion.label)
        for obj in unit.outputs:
            _serialize_object(obj, append)
        append("//")
    return "\n".join(lines) + "\n" if lines else ""


def parse_kitchen(text: str, objects=None) -> Kitchen:
    """Parse a kitchen file: O/S blocks only, one item per block.

    ``objects`` is the table ``parse_subgraph`` takes: a kitchen block
    written like a block of a FOON read with the same table is the FOON's
    instance.
    """
    return Kitchen(_parse(text, {} if objects is None else objects, True))


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
