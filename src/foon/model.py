"""Core FOON domain types.

A FOON is a bipartite graph of object nodes and motion nodes. Its atomic
element is the functional unit: input objects, one motion, output objects.
Everything downstream (merging, retrieval) keys off the identity rules
defined here: an ``ObjectNode`` and a ``FunctionalUnit`` are each their
own identity, compared and hashed as their docstrings say. A
``UniversalFOON`` is built once from its units and then only read.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

# A tab or any line boundary of str.splitlines() inside a token would split
# its field or its line in the text formats, so the token could not be
# written and read back; objects and motions refuse such tokens.
_UNWRITABLE = re.compile("[\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

# Separators of the printable object key; ``_encode`` escapes them in tokens.
_KEY_SEP = "|"
_ITEM_SEP = ";"


def _norm(token: str) -> str:
    return token.strip().lower()


def _check_writable(kind, owner, tokens):
    # One search over all tokens keeps the usual, clean case cheap.
    if _UNWRITABLE.search("".join(tokens)):
        token = next(token for token in tokens if _UNWRITABLE.search(token))
        raise ValueError(f"{kind} {owner!r}: {token!r} contains a tab or line break")


@dataclass(frozen=True, slots=True)
class ObjectNode:
    """An object identified by name, state set and contained ingredients.

    ``motion_tag`` is the per-object flag column from the source files;
    it is carried for round-trip fidelity but excluded from identity.
    A token holding a tab or line break is a ValueError.
    The hash of the identity is computed once, at construction; the class
    has ``__slots__``, so instances have no ``__dict__``.
    """

    name: str
    states: frozenset = frozenset()
    ingredients: frozenset = frozenset()
    motion_tag: str = field(default="", compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name", _norm(self.name))
        object.__setattr__(self, "states", frozenset(_norm(s) for s in self.states))
        object.__setattr__(
            self, "ingredients", frozenset(_norm(i) for i in self.ingredients)
        )
        if not self.name:
            raise ValueError("object name must be non-empty")
        _check_writable("object", self.name,
                        (self.name, self.motion_tag, *self.states, *self.ingredients))
        object.__setattr__(self, "_hash", hash((self.name, self.states, self.ingredients)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor: string hashes differ between
        # processes, so the cached hash must not travel in a pickle.
        return ObjectNode, (self.name, self.states, self.ingredients, self.motion_tag)


@dataclass(frozen=True)
class MotionNode:
    """A motion label, optionally carrying source-video timestamps.

    Identity is label-only; timestamps never affect equality. A label or
    timestamp holding a tab or line break is a ValueError.
    """

    label: str
    start_time: str | None = field(default=None, compare=False)
    end_time: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "label", _norm(self.label))
        if not self.label:
            raise ValueError("motion label must be non-empty")
        _check_writable("motion", self.label,
                        (self.label, self.start_time or "", self.end_time or ""))


def _encode(token: str) -> str:
    # Escape the reserved separators and mark the (legal) empty state so the
    # key stays injective: {""} must not collide with the empty set.
    if token == "":
        return "\\e"
    return token.replace("\\", "\\\\").replace(_KEY_SEP, "\\|").replace(_ITEM_SEP, "\\;")


def object_key(obj: ObjectNode) -> str:
    """Printable, sortable form of an object's identity.

    Equal keys iff equal objects: name, sorted states, sorted
    ingredients; motion_tag is deliberately excluded. Lookups use the
    ``ObjectNode`` itself; this string is for output, messages and a
    stable sort order.
    """
    return _KEY_SEP.join(
        (
            _encode(obj.name),
            _ITEM_SEP.join(_encode(s) for s in sorted(obj.states)),
            _ITEM_SEP.join(_encode(i) for i in sorted(obj.ingredients)),
        )
    )


@dataclass(frozen=True, slots=True, eq=False)
class FunctionalUnit:
    """Input objects + one motion + output objects; the atomic planning operator.

    A unit is its own identity: equal, and hashed alike, on input object
    set, motion label and output object set. ``inputs`` and ``outputs``
    are tuples in the order given, which equality ignores.
    """

    inputs: tuple
    motion: MotionNode
    outputs: tuple

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "outputs", tuple(self.outputs))
        if not self.inputs or not self.outputs:
            raise ValueError("functional unit needs at least one input and one output")

    def __eq__(self, other):
        if not isinstance(other, FunctionalUnit):
            return NotImplemented
        return (self.motion.label == other.motion.label
                and frozenset(self.inputs) == frozenset(other.inputs)
                and frozenset(self.outputs) == frozenset(other.outputs))

    def __hash__(self):
        return hash((frozenset(self.inputs), self.motion.label, frozenset(self.outputs)))


class UniversalFOON:
    """Deduplicated functional units with a producing-unit index.

    Of equal units, the first one given is kept, as in ``Kitchen``. A
    unit's ordinal is its index in ``units``: the order given. The FOON is
    built once, here, and only read afterwards.
    """

    def __init__(self, units=()):
        self.units: list[FunctionalUnit] = list(dict.fromkeys(units))
        self.producers: dict[ObjectNode, list[FunctionalUnit]] = {}
        for unit in self.units:
            for out in unit.outputs:
                self.producers.setdefault(out, []).append(unit)

    def producing(self, goal: ObjectNode) -> list[FunctionalUnit]:
        """Units having ``goal`` among their outputs, in the order of ``units``.

        The list is the index itself; callers must not mutate it.
        """
        return self.producers.get(goal, [])

    def __len__(self):
        return len(self.units)


class Kitchen:
    """The set of object nodes available in the environment.

    Membership uses full object identity (name + states + ingredients);
    of equal items, the first one given is kept.
    """

    def __init__(self, items=()):
        self._items: dict[ObjectNode, None] = dict.fromkeys(items)

    def __contains__(self, obj: ObjectNode) -> bool:
        return obj in self._items

    @property
    def items(self) -> list[ObjectNode]:
        return list(self._items)

    def __len__(self):
        return len(self._items)


DEFAULT_RATE = 1.0


@dataclass
class MotionRateTable:
    """Per-motion success rates in [0, 1]; unlisted labels get ``DEFAULT_RATE``."""

    rates: dict = field(default_factory=dict)

    def __post_init__(self):
        for label, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {label!r} out of [0, 1]: {rate}")
        self.rates = {_norm(label): rate for label, rate in self.rates.items()}

    def rate(self, label: str) -> float:
        return self.rates.get(_norm(label), DEFAULT_RATE)


@dataclass
class SearchStats:
    """Instrumentation counters shared by the retrieval algorithms.

    ``expansions`` counts candidate-unit considerations. For IDS it equals
    the sum of ``per_depth_expansions``. ``object_visits`` counts, per
    ``ObjectNode``, how many times the search expanded that object's
    candidate list (once per IDS iteration that reaches it).
    """

    expansions: int = 0
    max_stack_depth: int = 0
    depth_limit_reached: int = 0
    per_depth_expansions: list = field(default_factory=list)
    object_visits: dict = field(default_factory=dict)
