"""The benchmark's own reading of the FOON text format, and its answer checker.

Nothing here imports ``foon``: the generator writes its inputs with this
module, and the checker judges the program's outputs with it, so a defect
in the program's parser, identity rules or searches cannot hide itself.

An object is ``(name, states, ingredients)`` with every token stripped and
lower-cased, the two sets frozen; the flag column after an object name is
not part of identity. A unit is ``Unit(inputs, motion, outputs)``; its
identity is (input set, motion label, output set), timestamps excluded.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


def obj(name, states=(), ingredients=()):
    """A normalised object identity."""
    return (name.strip().lower(),
            frozenset(s.strip().lower() for s in states),
            frozenset(i.strip().lower() for i in ingredients))


@dataclass(frozen=True)
class Unit:
    inputs: tuple
    motion: str
    outputs: tuple
    times: tuple = ()

    def identity(self):
        return (frozenset(self.inputs), self.motion, frozenset(self.outputs))


class FormatError(ValueError):
    pass


def read_units(text):
    """Units of a subgraph file, in file order."""
    units = []
    inputs, outputs, motion, times, block = [], [], None, (), None

    def flush():
        nonlocal block
        if block is not None:
            (outputs if motion is not None else inputs).append(
                obj(block[0], block[1], block[2]))
            block = None

    for number, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("#"):
            continue
        fields = raw.split("\t")
        tag = fields[0].strip()
        if tag == "O":
            flush()
            block = (fields[1], [], set())
        elif tag == "S":
            if block is None:
                raise FormatError(f"line {number}: S before O")
            block[1].append(fields[1] if len(fields) > 1 else "")
            if len(fields) > 2 and fields[2].strip():
                body = fields[2].strip()
                if not (body.startswith("{") and body.endswith("}")):
                    raise FormatError(f"line {number}: bad ingredient list")
                block[2].update(p for p in body[1:-1].split(",") if p.strip())
        elif tag == "M":
            flush()
            motion = fields[1].strip().lower()
            times = tuple(f.strip() for f in fields[2:4] if f.strip())
        elif tag == "//":
            flush()
            if motion is None or not inputs or not outputs:
                raise FormatError(f"line {number}: incomplete unit")
            units.append(Unit(tuple(inputs), motion, tuple(outputs), times))
            inputs, outputs, motion, times = [], [], None, ()
        else:
            raise FormatError(f"line {number}: unknown tag {tag!r}")
    if block is not None or inputs or motion is not None:
        raise FormatError("unterminated unit")
    return units


def _object_lines(o, lines):
    name, states, ingredients = o
    lines.append(f"O\t{name}")
    states = sorted(states) or ([""] if ingredients else [])
    for position, state in enumerate(states):
        line = f"S\t{state}" if state else "S"
        if position == 0 and ingredients:
            line = f"S\t{state}\t{{{','.join(sorted(ingredients))}}}"
        lines.append(line)


def write_units(units):
    lines = []
    for unit in units:
        for o in unit.inputs:
            _object_lines(o, lines)
        lines.append("\t".join(("M", unit.motion) + unit.times))
        for o in unit.outputs:
            _object_lines(o, lines)
        lines.append("//")
    return "\n".join(lines) + "\n" if lines else ""


def write_objects(objects):
    """Kitchen file text: one O/S block per object."""
    lines = []
    for o in objects:
        _object_lines(o, lines)
    return "\n".join(lines) + "\n" if lines else ""


def goal_spec(o):
    """The ``name;states;ingredients`` spec for ``o``, or None if the spec
    grammar cannot name it (empty state, or a separator inside a token)."""
    name, states, ingredients = o
    tokens = [name, *states, *ingredients]
    if "" in states or any(c in t for t in tokens for c in ";,"):
        return None
    return ";".join((name, ",".join(sorted(states)), ",".join(sorted(ingredients))))


def parse_spec(spec):
    parts = spec.split(";") + ["", ""]
    return obj(parts[0], [s for s in parts[1].split(",") if s.strip()],
               [i for i in parts[2].split(",") if i.strip()])


def derivation_depths(units, kitchen):
    """Minimal derivation depth of every derivable object.

    Depth 0 is a kitchen item; a unit's outputs sit one level above its
    deepest input. Levels are settled in increasing order, so the first
    depth an object receives is its minimum.
    """
    depth = {o: 0 for o in kitchen}
    consumers = defaultdict(list)
    missing = {}
    for index, unit in enumerate(units):
        needed = set(unit.inputs)
        missing[index] = len(needed)
        for o in needed:
            consumers[o].append(index)
    frontier, level = list(depth), 0
    while frontier:
        following = []
        for o in frontier:
            for index in consumers[o]:
                missing[index] -= 1
                if missing[index] == 0:
                    for out in units[index].outputs:
                        if out not in depth:
                            depth[out] = level + 1
                            following.append(out)
        frontier, level = following, level + 1
    return depth


def tree_problem(tree_units, kitchen, goal, known_identities):
    """Why a returned task tree is wrong, or None when it is executable in
    order from ``kitchen``, uses only known units and yields ``goal``."""
    available = set(kitchen)
    for position, unit in enumerate(tree_units):
        if unit.identity() not in known_identities:
            return f"unit {position} is not in the FOON"
        for o in unit.inputs:
            if o not in available:
                return f"input {o[0]!r} of unit {position} is not available"
        available.update(unit.outputs)
    if goal not in available:
        return "the tree does not yield the goal"
    return None


def bench_problems(tsv_text, depths, max_depth):
    """Checks on the non-timing columns of a ``foon bench`` TSV.

    IDS must succeed exactly when the goal's derivation depth is within
    ``max_depth``; a greedy success implies the goal is derivable.
    Returns (verdicts, problems).
    """
    lines = tsv_text.splitlines()
    problems = []
    verdicts = 0
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != 10:
            problems.append(f"malformed bench row {line!r}")
            continue
        depth = depths.get(parse_spec(fields[0]))
        solvable = depth is not None and depth <= max_depth
        ids_ok, h1_ok, h2_ok = (f != "-" for f in fields[1:4])
        verdicts += 3
        if ids_ok != solvable:
            problems.append(f"{fields[0]}: ids verdict {ids_ok}, depth {depth}")
        if (h1_ok or h2_ok) and depth is None:
            problems.append(f"{fields[0]}: greedy solved an underivable goal")
    return verdicts, problems


def bench_verdicts(tsv_text):
    """A ``foon bench`` TSV without its timing columns."""
    kept = []
    for line in tsv_text.splitlines():
        fields = line.split("\t")
        kept.append("\t".join(fields[:4] + fields[7:]))
    return "\n".join(kept)
