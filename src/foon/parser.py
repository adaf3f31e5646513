"""Text formats: subgraph files, kitchen files, motion-rate files, goal specs and files.

Subgraph grammar (tab-separated):

    O<TAB>name[<TAB>tag]          opens an object block
    S[<TAB>state[<TAB>{i,j,...}]] attaches a state (and ingredients) to it
    M<TAB>label[<TAB>start<TAB>end]  closes the input section of a unit
    //                            ends a functional unit

Object blocks before the M line are the unit's inputs, blocks after it are
the outputs. In every file format, blank lines and lines starting with
'#' are ignored. Every format error is a ParseError.
Serialization is canonical (sorted states/ingredients, final newline) so
identical documents emit identical bytes.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

from .model import FunctionalUnit, Kitchen, MotionNode, MotionRateTable, ObjectNode


class ParseError(Exception):
    """A file-format error: its message and the 1-based offending line,
    which is None for a goal spec read on its own."""

    def __init__(self, message, line_number=None):
        super().__init__(message)
        self.line_number = line_number


@dataclass
class SubgraphDocument:
    """Functional units in file order."""

    units: list = field(default_factory=list)


def _parse_ingredients(text, line_number):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError(f"expected {{...}} ingredient list, got {text!r}", line_number)
    return {part for part in text[1:-1].split(",") if part.strip()}


def _iter_records(text):
    """Yield (line_number, fields) for every significant line."""
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield number, line.split("\t")


def _read_blocks(text, unit_end_closes_block=True):
    """Yield (line_number, tag, item) for the significant lines of ``text``.

    O and S lines are read here: each object block is yielded once, as
    ``(n, "O", ObjectNode)``, when the next O or M line, a ``//`` line if
    ``unit_end_closes_block``, or the end of the text closes it; ``n`` is
    the number of that closing line, or of the last significant line.
    Every other line is yielded as ``(n, tag, fields)``. Blocks with the
    same name, flag column, states in file order and ingredients yield one
    shared ``ObjectNode``.
    """
    built = {}
    name = None  # of the open block; None when no block is open
    for number, fields in _iter_records(text):
        tag = fields[0].strip()
        if tag == "S":
            if name is None:
                raise ParseError("S line before any O line", number)
            states.append(fields[1] if len(fields) > 1 else "")
            if len(fields) > 2 and fields[2].strip():
                ingredients.update(_parse_ingredients(fields[2], number))
            continue
        if name is not None and (tag in ("O", "M") or (tag == "//" and unit_end_closes_block)):
            yield number, "O", _build(built, name, flag, states, ingredients)
            name = None
        if tag != "O":
            yield number, tag, fields
        elif len(fields) < 2 or not fields[1].strip():
            raise ParseError("O line has no object name", number)
        else:
            name, states, ingredients = fields[1], [], set()
            flag = fields[2].strip() if len(fields) > 2 else ""
    if name is not None:
        yield number, "O", _build(built, name, flag, states, ingredients)


def _build(built, name, flag, states, ingredients):
    key = (name, flag, tuple(states), frozenset(ingredients))
    obj = built.get(key)
    if obj is None:
        obj = built[key] = ObjectNode(name, states, ingredients, flag)
    return obj


def parse_subgraph(text: str) -> SubgraphDocument:
    """Parse subgraph text into a document of functional units in file order."""
    units = []
    inputs, outputs = [], []
    motion = None
    number = 0
    for number, tag, item in _read_blocks(text):
        if tag == "O":
            (outputs if motion is not None else inputs).append(item)
        elif tag == "M":
            if motion is not None:
                raise ParseError("second M line in one unit", number)
            if len(item) < 2 or not item[1].strip():
                raise ParseError("M line has no motion label", number)
            start = item[2].strip() if len(item) > 2 and item[2].strip() else None
            end = item[3].strip() if len(item) > 3 and item[3].strip() else None
            motion = MotionNode(item[1], start_time=start, end_time=end)
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


# A tab or any line boundary of str.splitlines() inside a token would split
# its field or its line, so the token would not parse back as written.
_UNWRITABLE = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _check_tokens(kind, owner, tokens):
    # One search over all tokens keeps the usual, clean case cheap: the
    # whole merged FOON is serialized on every `foon merge`.
    if _UNWRITABLE.search("".join(tokens)):
        token = next(token for token in tokens if _UNWRITABLE.search(token))
        raise ValueError(
            f"cannot serialize {kind} {owner!r}: {token!r} contains a tab or line break")


def _serialize_object(obj: ObjectNode, lines):
    _check_tokens("object", obj.name, (obj.name, obj.motion_tag, *obj.states, *obj.ingredients))
    for ingredient in obj.ingredients:
        if not ingredient or "," in ingredient:
            raise ValueError(f"cannot serialize object {obj.name!r}: "
                             f"ingredient {ingredient!r} is empty or contains ','")
    if obj.ingredients and not obj.states:
        # Ingredients ride on an S line, and every S line adds a state.
        raise ValueError(f"cannot serialize object {obj.name!r}: ingredients without a state")
    if obj.motion_tag:
        lines.append(f"O\t{obj.name}\t{obj.motion_tag}")
    else:
        lines.append(f"O\t{obj.name}")
    states = sorted(obj.states)
    ingredients = sorted(obj.ingredients)
    for position, state in enumerate(states):
        line = "S" if state == "" else f"S\t{state}"
        if position == 0 and ingredients:
            if state == "":
                line = "S\t"
            line += "\t{" + ",".join(ingredients) + "}"
        lines.append(line)


def serialize_subgraph(doc: SubgraphDocument) -> str:
    """Canonical text for a document; parsing it back reproduces the units.

    Raises ValueError for what the format cannot carry: a tab or line
    break in any token, an ingredient that is empty or contains ',', or
    ingredients on an object without states.
    """
    if not doc.units:
        return ""
    lines = []
    for unit in doc.units:
        for obj in unit.inputs:
            _serialize_object(obj, lines)
        motion = unit.motion
        _check_tokens("motion", motion.label,
                      (motion.label, motion.start_time or "", motion.end_time or ""))
        motion_line = f"M\t{motion.label}"
        if motion.start_time is not None:
            motion_line += f"\t{motion.start_time}"
            if motion.end_time is not None:
                motion_line += f"\t{motion.end_time}"
        lines.append(motion_line)
        for obj in unit.outputs:
            _serialize_object(obj, lines)
        lines.append("//")
    return "\n".join(lines) + "\n"


def parse_kitchen(text: str) -> Kitchen:
    """Parse a kitchen file: O/S blocks only, one item per block."""
    items = []
    for number, tag, item in _read_blocks(text, unit_end_closes_block=False):
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
    for number, fields in _iter_records(text):
        if len(fields) != 2:
            raise ParseError(f"expected label<TAB>rate, got {fields!r}", number)
        label = fields[0].strip().lower()
        try:
            rate = float(fields[1])
        except ValueError:
            raise ParseError(f"rate is not a number: {fields[1]!r}", number)
        if not 0.0 <= rate <= 1.0:
            raise ParseError(f"rate for {label!r} out of [0, 1]: {rate}", number)
        rates[label] = rate
    return MotionRateTable(rates=rates)


def parse_goal(spec: str) -> ObjectNode:
    """Parse a goal spec string: ``name[;state1,state2[;ing1,ing2]]``.

    A state written ``\\e``, the form ``object_key`` prints, is the empty
    state of a bare S line.
    """
    parts = spec.split(";")
    name = parts[0].strip()
    if not name:
        raise ParseError("goal spec has an empty name")
    states = set()
    ingredients = set()
    if len(parts) > 1:
        states = {"" if s.strip() == "\\e" else s for s in parts[1].split(",") if s.strip()}
    if len(parts) > 2:
        ingredients = {i for i in parts[2].split(",") if i.strip()}
    return ObjectNode(name=name, states=states, ingredients=ingredients)


def parse_goals(text: str) -> list:
    """Parse a goals file, one goal spec per significant line, into
    ``(spec, ObjectNode)`` pairs; each spec is its line, trimmed."""
    goals = []
    for number, fields in _iter_records(text):
        spec = "\t".join(fields).strip()
        try:
            goals.append((spec, parse_goal(spec)))
        except ParseError as exc:
            exc.line_number = number
            raise
    return goals
