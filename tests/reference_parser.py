"""The parser as it was before the one object-block reader: a frozen reference.

``parse_subgraph``, ``parse_kitchen`` and their helpers below are copied
unchanged from ``foon.parser`` as it stood before both parsers read
object blocks through one generator, with one edit: ``parse_subgraph``
no longer takes a source path to pass through to the document, since
``SubgraphDocument`` no longer carries one. ``parse_goal`` is copied
unchanged from ``foon.parser`` as it stood before goal specs took
backslash escapes, with the empty-state marker written out, since it was
imported from ``foon.model``. ``tests/test_parser_reference.py`` asserts
that the current parsers return the same units, or raise the same
exception with the same line number and message, as these (``parse_goal``
on specs without a backslash). Do not edit them to follow the library;
they are the reference.
"""
from __future__ import annotations

from foon.model import FunctionalUnit, Kitchen, MotionNode, ObjectNode
from foon.parser import ParseError, SubgraphDocument

# The library raises one exception class; the frozen bodies below keep the
# names it once had a subclass for.
DanglingUnit = IncompleteUnit = MalformedLine = MotionInKitchenFile = ParseError
MultipleMotions = ObjectWithoutName = StateBeforeObject = UnitWithoutMotion = ParseError


class _ObjectBlock:
    def __init__(self, name, tag, line_number):
        self.name = name
        self.tag = tag
        self.line_number = line_number
        self.states = []
        self.ingredients = set()

    def build(self) -> ObjectNode:
        return ObjectNode(
            name=self.name,
            states=frozenset(self.states),
            ingredients=frozenset(self.ingredients),
            motion_tag=self.tag,
        )


def _parse_ingredients(text, line_number):
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise MalformedLine(f"expected {{...}} ingredient list, got {text!r}", line_number)
    body = text[1:-1].strip()
    if not body:
        return set()
    return {part.strip() for part in body.split(",") if part.strip()}


def _iter_records(text):
    """Yield (line_number, fields) for every significant line."""
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\r\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield number, line.split("\t")


def _consume_object_line(fields, number):
    if len(fields) < 2 or not fields[1].strip():
        raise ObjectWithoutName("O line has no object name", number)
    tag = fields[2].strip() if len(fields) > 2 else ""
    return _ObjectBlock(fields[1], tag, number)


def _consume_state_line(block, fields, number):
    if block is None:
        raise StateBeforeObject("S line before any O line", number)
    state = fields[1] if len(fields) > 1 else ""
    block.states.append(state)
    if len(fields) > 2 and fields[2].strip():
        block.ingredients |= _parse_ingredients(fields[2], number)


def parse_subgraph(text: str) -> SubgraphDocument:
    """Parse subgraph text into a document of functional units in file order."""
    units = []
    inputs, outputs = [], []
    motion = None
    block = None
    last_number = 0

    def flush_block():
        nonlocal block
        if block is not None:
            (outputs if motion is not None else inputs).append(block.build())
            block = None

    for number, fields in _iter_records(text):
        last_number = number
        tag = fields[0].strip()
        if tag == "O":
            flush_block()
            block = _consume_object_line(fields, number)
        elif tag == "S":
            _consume_state_line(block, fields, number)
        elif tag == "M":
            flush_block()
            if motion is not None:
                raise MultipleMotions("second M line in one unit", number)
            if len(fields) < 2 or not fields[1].strip():
                raise MalformedLine("M line has no motion label", number)
            start = fields[2].strip() if len(fields) > 2 and fields[2].strip() else None
            end = fields[3].strip() if len(fields) > 3 and fields[3].strip() else None
            motion = MotionNode(fields[1], start_time=start, end_time=end)
        elif tag == "//":
            flush_block()
            if motion is None:
                raise UnitWithoutMotion("unit ended by // has no M line", number)
            if not inputs or not outputs:
                raise IncompleteUnit("unit needs at least one input and one output", number)
            units.append(FunctionalUnit(inputs, motion, outputs))
            inputs, outputs, motion = [], [], None
        else:
            raise MalformedLine(f"unknown leading tag {tag!r}", number)

    if block is not None or inputs or outputs or motion is not None:
        raise DanglingUnit("unterminated unit at end of file", last_number)
    return SubgraphDocument(units=units)


def parse_kitchen(text: str) -> Kitchen:
    """Parse a kitchen file: O/S blocks only, one item per block."""
    items = []
    block = None
    for number, fields in _iter_records(text):
        tag = fields[0].strip()
        if tag == "O":
            if block is not None:
                items.append(block.build())
            block = _consume_object_line(fields, number)
        elif tag == "S":
            _consume_state_line(block, fields, number)
        elif tag == "M":
            raise MotionInKitchenFile("M line in kitchen file", number)
        elif tag == "//":
            continue
        else:
            raise MalformedLine(f"unknown leading tag {tag!r}", number)
    if block is not None:
        items.append(block.build())
    return Kitchen(items)


EMPTY_STATE = "\\e"


def parse_goal(spec: str) -> ObjectNode:
    """Parse a goal spec string: ``name[;state1,state2[;ing1,ing2]]``.

    A state written ``\\e``, the form ``object_key`` prints, is the empty
    state of a bare S line. Fields go to the ``ObjectNode`` constructor,
    and what it refuses is a ParseError: an empty name, a token holding a
    tab or line break, and ingredients with no state; so is a fourth field.
    """
    if spec.count(";") > 2:
        raise ParseError(f"goal spec {spec!r} has {spec.count(';') + 1} ';'-separated "
                         "fields, at most 3")
    name, states, ingredients = (spec.split(";") + ["", ""])[:3]
    states = {"" if s.strip() == EMPTY_STATE else s for s in states.split(",") if s.strip()}
    try:
        return ObjectNode(name, states, ingredients.split(","))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
