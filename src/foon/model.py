"""Core FOON domain types.

A FOON is a bipartite graph of object nodes and motion nodes. Its atomic
element is the functional unit: input objects, one motion, output objects.
Everything downstream (merging, retrieval) keys off the identity rules
defined here: ``ObjectNode``, ``MotionNode`` and ``FunctionalUnit`` each
state theirs once, as ``_identity``, which ``_Frozen`` compares, hashes
and pickles by. A ``UniversalFOON`` is built once and then only read.
"""
from __future__ import annotations

import re

LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines()
# A tab or line break inside a token would split its field or its line in
# the text formats, so objects and motions refuse such tokens.
_UNWRITABLE = re.compile(f"[\t{LINE_BREAKS}]")

# An object's one text form, the goal spec ``name;state,...;ingredient,...``:
# ``object_key`` writes it and ``parse_goal`` reads it. In a token, ESCAPE
# goes before ESCAPE and each separator, and EMPTY_STATE is the empty state.
# A text file skips a line whose first non-blank character is COMMENT, so
# a key that would start with it is written with ESCAPE before it.
FIELD_SEP, ITEM_SEP, ESCAPE, COMMENT = ";", ",", "\\", "#"
EMPTY_STATE = ESCAPE + "e"

_set = object.__setattr__
_NONE = frozenset()


def _norm(token: str) -> str:
    return token.strip().lower()


def _check_writable(kind, owner, tokens):
    # One search over all tokens keeps the usual, clean case cheap.
    if _UNWRITABLE.search("".join(tokens)):
        token = next(token for token in tokens if _UNWRITABLE.search(token))
        raise ValueError(f"{kind} {owner!r}: {token!r} contains a tab or line break")


class _Record:
    """Base of the plain record classes: ``repr`` shows the ``_fields`` in
    order, and two records of one class (not a subclass) are equal when
    their ``_identity`` is, by default the tuple of those fields. A record
    is unhashable unless its class defines ``__hash__``."""

    __slots__ = ()
    _fields = ()

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    @property
    def _identity(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity == other._identity


class _Frozen(_Record):
    """A record whose fields are set once, by its constructor. It hashes its
    ``_identity``, and a pickle rebuilds it through the constructor, so no
    hash travels between processes, whose string hashes differ."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._identity)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)


def _refuse(action, name):
    # Imported here: ``dataclasses`` pulls ``inspect`` and ``ast`` into
    # every process that imports it, and only this error path needs it.
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class ObjectNode(_Frozen):
    """An object identified by name, state set and contained ingredients.

    ``motion_tag`` is the per-object flag column from the source files,
    trimmed; it is carried for round-trip fidelity but excluded from
    identity. An ingredient that is empty once trimmed is dropped. What the
    text format cannot carry is a ValueError: a tab or line break in a
    token, a ',' in an ingredient, and ingredients on an object with no state.
    The hash of the identity is computed once, at construction; the class
    has ``__slots__``, so instances have no ``__dict__``.
    """

    __slots__ = ("name", "states", "ingredients", "motion_tag", "_hash")
    _fields = ("name", "states", "ingredients", "motion_tag")

    def __init__(self, name, states=frozenset(), ingredients=frozenset(), motion_tag=""):
        name = _norm(name)
        motion_tag = motion_tag.strip()
        states = frozenset([state.strip().lower() for state in states])
        ingredients = (frozenset([item.strip().lower() for item in ingredients])
                       if ingredients else _NONE)
        if not name:
            raise ValueError("object name must be non-empty")
        _check_writable("object", name, (name, motion_tag, *states, *ingredients))
        if ingredients:
            # The format writes them as one {a,b,...} field of the first S line.
            ingredients -= {""}
            for item in ingredients:
                if "," in item:
                    raise ValueError(f"object {name!r}: ingredient {item!r} contains ','")
                if not states:
                    raise ValueError(f"object {name!r}: ingredient {item!r} without a state")
        _set_name(self, name)
        _set_states(self, states)
        _set_ingredients(self, ingredients)
        _set_motion_tag(self, motion_tag)
        _set_hash(self, hash((name, states, ingredients)))  # the hash of ``_identity``

    @property
    def _identity(self):
        return self.name, self.states, self.ingredients

    def __hash__(self):
        return self._hash


# The slot setters, looked up once: ``__init__`` runs for every distinct block read.
_set_name, _set_states, _set_ingredients, _set_motion_tag, _set_hash = (
    getattr(ObjectNode, name).__set__ for name in ObjectNode.__slots__)


class MotionNode(_Frozen):
    """A motion label, optionally carrying source-video timestamps.

    Timestamps are trimmed, and an empty one is None. Identity is
    label-only; timestamps never affect equality. A label or timestamp
    holding a tab or line break is a ValueError.
    """

    __slots__ = ("label", "start_time", "end_time")
    _fields = __slots__

    def __init__(self, label, start_time=None, end_time=None):
        label = _norm(label)
        if not label:
            raise ValueError("motion label must be non-empty")
        start_time = start_time and start_time.strip() or None
        end_time = end_time and end_time.strip() or None
        _check_writable("motion", label, (label, start_time or "", end_time or ""))
        _set(self, "label", label)
        _set(self, "start_time", start_time)
        _set(self, "end_time", end_time)

    @property
    def _identity(self):
        return (self.label,)


def _encode(token: str) -> str:
    # Escape the separators and mark the (legal) empty state so the key
    # stays injective: {""} must not collide with the empty set.
    if token == "":
        return EMPTY_STATE
    return (token.replace(ESCAPE, ESCAPE + ESCAPE).replace(FIELD_SEP, ESCAPE + FIELD_SEP)
            .replace(ITEM_SEP, ESCAPE + ITEM_SEP))


def object_key(obj: ObjectNode) -> str:
    """The goal spec of an object, which ``parse_goal`` reads back.

    Equal keys iff equal objects: name, sorted states, sorted
    ingredients; motion_tag is deliberately excluded. Lookups use the
    ``ObjectNode`` itself; this string is for output, messages and a
    stable sort order.
    """
    key = FIELD_SEP.join((_encode(obj.name), ITEM_SEP.join(map(_encode, sorted(obj.states))),
                          ITEM_SEP.join(map(_encode, sorted(obj.ingredients)))))
    return ESCAPE + key if key.startswith(COMMENT) else key


class FunctionalUnit(_Frozen):
    """Input objects + one motion + output objects; the atomic planning operator.

    A unit is its own identity: equal, and hashed alike, on input object
    set, motion label and output object set. ``inputs`` and ``outputs``
    are tuples in the order given, which equality ignores.
    """

    __slots__ = ("inputs", "motion", "outputs")
    _fields = __slots__

    def __init__(self, inputs, motion, outputs):
        inputs, outputs = tuple(inputs), tuple(outputs)
        if not inputs or not outputs:
            raise ValueError("functional unit needs at least one input and one output")
        _set(self, "inputs", inputs)
        _set(self, "motion", motion)
        _set(self, "outputs", outputs)

    @property
    def _identity(self):
        return frozenset(self.inputs), self.motion.label, frozenset(self.outputs)


class UniversalFOON:
    """Deduplicated functional units with a producing-unit index.

    Of equal units, the first one given is kept, as in ``Kitchen``. A
    unit's ordinal is its index in ``units``: the order given. The FOON is
    built once, here, and only read afterwards. The searches walk it
    through ``search_view``, which numbers objects as they are reached;
    the FOON keeps the view of the kitchen last searched, so one command's
    searches share one.
    """

    __slots__ = ("units", "producers", "_view")

    def __init__(self, units=()):
        self.units: list[FunctionalUnit] = list(dict.fromkeys(units))
        self.producers: dict[ObjectNode, list[FunctionalUnit]] = {}
        for unit in self.units:
            for out in unit.outputs:
                self.producers.setdefault(out, []).append(unit)
        self._view = None

    def producing(self, goal: ObjectNode) -> list[FunctionalUnit]:
        """Units having ``goal`` among their outputs, in the order of ``units``.

        The list is the index itself; callers must not mutate it.
        """
        return self.producers.get(goal, [])

    def search_view(self, kitchen) -> SearchView:
        """This FOON's view for ``kitchen``; the one kept is reused while
        the same ``Kitchen`` instance is asked for (a kitchen never
        changes)."""
        view = self._view
        if view is None or view.kitchen is not kitchen:
            view = self._view = SearchView(self.producers, kitchen)
        return view

    def __len__(self):
        return len(self.units)


class SearchView:
    """A FOON as the searches walk it for one kitchen, on integer ids.

    An object gets the next id when a search first reaches it, through
    ``intern``; ``objects[i]`` is object ``i``, the first equal instance
    reached, and ``stocked[i]`` is 1 when it is in the kitchen.
    ``depth[i]`` is its derivation depth from the kitchen (0 when stocked),
    ``UNDERIVABLE`` when it cannot be made, and ``UNRESOLVED`` until a
    search resolves its backward cone. A search reads an object's candidates
    through ``expand(i)`` alone: the ``rules`` of the units producing it,
    in FOON order, built on first use and kept. So a search that reaches k
    objects hashes about k objects, once per view, and its loops look up
    integers only.
    """

    __slots__ = ("kitchen", "producers", "ids", "objects", "stocked", "depth", "candidates")
    UNRESOLVED, UNDERIVABLE = -1, -2

    def __init__(self, producers, kitchen):
        self.kitchen = kitchen
        self.producers = producers
        self.ids: dict[ObjectNode, int] = {}
        self.objects: list[ObjectNode] = []
        self.stocked = bytearray()
        self.depth: list[int] = []
        self.candidates: list[list | None] = []

    def intern(self, obj: ObjectNode) -> int:
        number = self.ids.get(obj)
        if number is None:
            number = self.ids[obj] = len(self.objects)
            self.objects.append(obj)
            stocked = obj in self.kitchen
            self.stocked.append(stocked)
            self.depth.append(0 if stocked else self.UNRESOLVED)
            self.candidates.append(None)
        return number

    def rules(self, units) -> list:
        """``(unit, input ids, output ids)`` for each of ``units``, in order."""
        intern = self.intern
        return [(unit, tuple(map(intern, unit.inputs)), tuple(map(intern, unit.outputs)))
                for unit in units]

    def expand(self, number: int) -> list:
        """``candidates[number]``, built on first use."""
        found = self.candidates[number]
        if found is None:
            producers = self.producers.get(self.objects[number], ())
            found = self.candidates[number] = self.rules(producers)
        return found


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


def check_rate(label, rate):
    """``rate``, or a ValueError if ``label`` is blank once trimmed or
    ``rate`` is outside [0, 1]: every rule of a rate entry is here."""
    if not label.strip():
        raise ValueError("rate line has no motion label")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate for {label!r} out of [0, 1]: {rate}")
    return rate


class MotionRateTable(_Record):
    """Per-motion success rates that pass ``check_rate``; unlisted labels get ``DEFAULT_RATE``."""

    _fields = ("rates",)

    def __init__(self, rates=None):
        rates = {} if rates is None else rates
        self.rates = {_norm(label): check_rate(label, rate) for label, rate in rates.items()}

    def rate(self, label: str) -> float:
        # Keys and motion labels are normalised already: only a miss needs _norm.
        rate = self.rates.get(label)
        return self.rates.get(_norm(label), DEFAULT_RATE) if rate is None else rate


class SearchStats(_Record):
    """Instrumentation counters shared by the retrieval algorithms.

    ``expansions`` counts candidate-unit considerations, the sum of
    ``per_depth_expansions``. ``object_visits`` counts, per
    ``ObjectNode``, how many times the search expanded that object's
    candidate list (once per IDS iteration that reaches it).
    """

    _fields = ("expansions", "max_stack_depth", "depth_limit_reached",
               "per_depth_expansions", "object_visits")

    def __init__(self, expansions=0, max_stack_depth=0, depth_limit_reached=0,
                 per_depth_expansions=None, object_visits=None):
        self.expansions = expansions
        self.max_stack_depth = max_stack_depth
        self.depth_limit_reached = depth_limit_reached
        self.per_depth_expansions = [] if per_depth_expansions is None else per_depth_expansions
        self.object_visits = {} if object_visits is None else object_visits
