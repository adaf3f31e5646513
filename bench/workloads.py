"""Seeded workload generators.

Each generator writes the program's input files into a work directory and
returns a :class:`Workload`: the CLI pipeline to run over those files and
the facts the checker needs. The same seed gives byte-identical files.
Sizes and graph shapes are fixed per workload; the seed draws the names
(and, on corpus-merge, the order of files and units), so run time does
not depend on the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from foonfmt import (
    Unit, derivation_depths, goal_spec, obj, parse_spec, read_units, write_objects, write_units)

DEFAULT_MAX_DEPTH = 50

# corpus-merge: REPLICAS renamed copies of the fixture corpus, each emitted twice;
# the bench asks for the dishes of BENCH_REPLICAS of them.
REPLICAS = 100
BENCH_REPLICAS = 5
# goal-sweep: replicas sharing produced objects, with raw-ingredient and motion variants.
SWEEP_REPLICAS = 12
SWEEP_GROUPS = 3
INGREDIENT_VARIANTS = 6
MOTION_VARIANTS = 2
KITCHEN_SIZE = 700
# Every 10th raw item is left out of the kitchen, so greedy commits to dead ends.
# The tenth is fixed, not drawn from the seed, so every seed costs the same.
WITHHELD_EVERY = 10
# adversarial shapes, searched within goal-sweep.
LADDER_LEVELS = 11
CHAIN_LENGTH = 200
FAN_WIDTH = 300
SEVERED_LENGTH = 30
# crash probe: deeper than the interpreter's default recursion limit of 1000.
PROBE_CHAIN_LENGTH = 1200


@dataclass
class Workload:
    """The inputs of one run and what a correct program must answer."""

    name: str
    merge_inputs: list
    kitchen: Path
    rates: Path
    goals: Path | None
    max_depth: int
    tree_requests: list
    setup_foon: Path
    setup_with_inputs: bool
    units: list
    total_units: int
    kitchen_objects: set
    identities: set = field(init=False)
    depths: dict = field(init=False)

    def __post_init__(self):
        self.identities = {unit.identity() for unit in self.units}
        self.depths = derivation_depths(self.units, self.kitchen_objects)


def fixture_recipes(root):
    corpus = Path(root) / "tests" / "fixtures" / "corpus"
    paths = sorted(corpus.glob("*.txt"))
    if not paths:
        raise FileNotFoundError(f"no fixture recipes under {corpus}")
    return [read_units(path.read_text(encoding="utf-8")) for path in paths]


def object_order(o):
    name, states, ingredients = o
    return (name, sorted(states), sorted(ingredients))


def _distinct(units):
    seen, result = set(), []
    for unit in units:
        if unit.identity() not in seen:
            seen.add(unit.identity())
            result.append(unit)
    return result


def _produced(units):
    """Objects some unit creates (an output that is not also its input)."""
    return {o for u in units for o in u.outputs if o not in u.inputs}


def _leaves(units):
    """Inputs no unit creates: raw ingredients and utensils."""
    produced = _produced(units)
    return {o for u in units for o in u.inputs if o not in produced}


def _utensils(units):
    return {o for u in units for o in u.inputs if o in u.outputs}


def _rename(unit, mapping, motion=None):
    return Unit(tuple(map(mapping, unit.inputs)), motion or unit.motion,
                tuple(map(mapping, unit.outputs)), unit.times)


def _tag(rng, used):
    while True:
        tag = f"{rng.randrange(16 ** 6):06x}"
        if tag not in used:
            used.add(tag)
            return tag


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(text.encode("utf-8"))
    return path


def _rates(units, rng):
    labels = sorted({u.motion for u in units})
    return "".join(f"{label}\t{rng.randint(30, 100) / 100:.2f}\n" for label in labels)


def _goals(objects, kitchen):
    specs = {goal_spec(o) for o in objects if o not in kitchen}
    return sorted(s for s in specs if s is not None)


def _deepest(specs, depths, max_depth):
    """The first of the solvable goals with the deepest derivation."""
    solvable = [s for s in specs if depths.get(parse_spec(s), max_depth + 1) <= max_depth]
    return max(solvable, key=lambda s: depths[parse_spec(s)])


def corpus_merge(seed, work, root):
    """The ingest path: renamed replicas of the fixture corpus, every
    replica emitted twice (the copy reordered and without timestamps), so
    half the input units are duplicates. The bench step asks for the
    dishes (the outputs of each recipe's last unit) of a few replicas
    against those replicas' raw ingredients and utensils."""
    rng = random.Random(f"corpus-merge:{seed}")
    recipes = fixture_recipes(root)
    used = set()
    replicas = []
    for _ in range(REPLICAS):
        tag = _tag(rng, used)

        def mapping(o, tag=tag):
            name, states, ingredients = o
            return (f"{name} {tag}", states, frozenset(f"{i} {tag}" for i in ingredients))
        replicas.append([[_rename(u, mapping) for u in recipe] for recipe in recipes])
    copies = []
    for recipes_r in replicas:
        flat = [u for recipe in recipes_r for u in recipe]
        shuffled = [Unit(u.inputs, u.motion, u.outputs) for u in flat]
        rng.shuffle(shuffled)
        copies.extend([flat, shuffled])
    rng.shuffle(copies)
    inputs = [_write(work / "in" / f"{n:03d}.txt", write_units(units))
              for n, units in enumerate(copies)]
    all_units = [u for units in copies for u in units]

    asked = replicas[:BENCH_REPLICAS]
    kitchen = _leaves([u for recipes_r in asked for recipe in recipes_r for u in recipe])
    dishes = [o for recipes_r in asked for recipe in recipes_r for o in recipe[-1].outputs]
    specs = _goals(dishes, kitchen)
    universal = _distinct(all_units)
    workload = Workload(
        name="corpus-merge",
        merge_inputs=inputs,
        kitchen=_write(work / "kitchen.txt", write_objects(sorted(kitchen, key=object_order))),
        rates=_write(work / "rates.txt", _rates(universal, rng)),
        goals=_write(work / "goals.txt", "".join(s + "\n" for s in specs)),
        max_depth=DEFAULT_MAX_DEPTH,
        tree_requests=[],
        setup_foon=_write(work / "empty.txt", ""),
        setup_with_inputs=False,
        units=universal,
        total_units=len(all_units),
        kitchen_objects=kitchen,
    )
    workload.tree_requests = [(_deepest(specs, workload.depths, DEFAULT_MAX_DEPTH), "ids")]
    return workload


def _ladder(p, levels):
    """A diamond ladder: each level's object needs a cut and a mashed copy
    of the level below. Returns (units, base object, top of each level)."""
    rungs = [obj(f"rung {p} 0", ["raw"])]
    units = []
    for level in range(1, levels + 1):
        left = obj(f"rung {p} {level}", ["cut"])
        right = obj(f"rung {p} {level}", ["mashed"])
        top = obj(f"rung {p} {level}", ["mixed"])
        units += [Unit((rungs[-1],), "cut", (left,)),
                  Unit((rungs[-1],), "mash", (right,)),
                  Unit((left, right), "mix", (top,))]
        rungs.append(top)
    return units, {rungs[0]}, rungs


def _chain(p, length):
    """Returns (units, base object, every link)."""
    links = [obj(f"link {p} {i}", ["stirred" if i else "raw"]) for i in range(length + 1)]
    return [Unit((links[i],), "stir", (links[i + 1],)) for i in range(length)], {links[0]}, links


def _fan(p, width, rng):
    """One unit assembling ``width`` chopped parts. Returns (units, raw parts, goal)."""
    raws = [obj(f"part {p} {i}", ["whole"]) for i in range(width)]
    parts = [obj(f"part {p} {i}", ["chopped"]) for i in range(width)]
    top = obj(f"platter {p}", ["assembled"])
    units = [Unit((r,), "chop", (c,)) for r, c in zip(raws, parts)]
    units.append(Unit(tuple(parts), "assemble", (top,)))
    rng.shuffle(units)
    return units, set(raws), top


SHAPE_LABELS = ("cut", "mash", "mix", "stir", "chop", "assemble")


def _adversarial_shapes(rng):
    """Shapes whose complexity class sets the search time, under seeded
    names: a diamond ladder (IDS re-solves shared subgoals), a chain
    searched to its full depth (IDS copies its path set; greedy's
    dependency sort is quadratic) and two fan-ins (greedy's dependency
    sort is quadratic). The goals are four rungs, four links and both
    fans, so call times spread over each growth curve; one tree per shape
    is retrieved, each algorithm taking one shape.

    Two goals have no IDS solution, so IDS's exhaustive failure paths run:
    the chain's link one past the depth limit (every depth bound is
    tried, then DEPTH_EXHAUSTED), and the top of a short chain whose raw
    base is withheld (GOAL_UNREACHABLE once a bound reaches the base).

    Returns (units per shape, kitchen items, goals, (goal, algorithm) trees).
    """
    used = set()
    ladder, ladder_base, rungs = _ladder(_tag(rng, used), LADDER_LEVELS)
    chain, chain_base, links = _chain(_tag(rng, used), CHAIN_LENGTH + 1)
    wide, wide_raws, wide_top = _fan(_tag(rng, used), FAN_WIDTH, rng)
    narrow, narrow_raws, narrow_top = _fan(_tag(rng, used), FAN_WIDTH // 2, rng)
    severed, _, severed_links = _chain(_tag(rng, used), SEVERED_LENGTH)
    goals = [rungs[LADDER_LEVELS - step] for step in (6, 4, 2, 0)]
    goals += [links[CHAIN_LENGTH * quarter // 4] for quarter in (1, 2, 3, 4)]
    goals += [narrow_top, wide_top, links[CHAIN_LENGTH + 1], severed_links[-1]]
    trees = [(rungs[-1], "ids"), (links[CHAIN_LENGTH], "gbfs-rate"), (wide_top, "gbfs-inputs")]
    kitchen = ladder_base | chain_base | wide_raws | narrow_raws
    return [ladder, chain, wide, narrow, severed], kitchen, goals, trees


def _rate(label_index, variant):
    """A fixed success rate in [0.30, 1.00] for a motion label and variant."""
    return 0.3 + 0.05 * ((7 * label_index + 3 * variant) % 15)


def goal_sweep(seed, work, root):
    """The planner's use: every produced object of one universal FOON is a
    goal. Replicas in each group share produced objects but differ in
    raw-ingredient variant and motion variant, so popular objects have
    many producers; utensils are shared. A tenth of the raw kitchen items
    are withheld, so greedy commits to dead ends that IDS backtracks out of.
    The same FOON holds the adversarial shapes, whose goals join the list,
    so one run covers shallow kitchen-bound searches and searches whose
    complexity class sets the time.

    Which replica takes which variant, which items are withheld and the
    rates are fixed; the seed draws the names, so every seed gives the
    same graph under other names and costs the same to search."""
    rng = random.Random(f"goal-sweep:{seed}")
    base = [u for recipe in fixture_recipes(root) for u in recipe]
    raw = sorted(_leaves(base) - _utensils(base), key=object_order)
    made = _produced(base) - _utensils(base)
    labels = sorted({u.motion for u in base})
    used = set()
    variant_tags = [_tag(rng, used) for _ in range(INGREDIENT_VARIANTS)]
    group_tags = [_tag(rng, used) for _ in range(SWEEP_GROUPS)]
    motion_tags = [_tag(rng, used) for _ in range(MOTION_VARIANTS)]

    def variant(o, v):
        return (f"{o[0]} {variant_tags[v]}", o[1], o[2])

    seen, files = set(), []
    for replica in range(SWEEP_REPLICAS):
        group, member = replica % SWEEP_GROUPS, replica // SWEEP_GROUPS
        mapping = {o: variant(o, (member + i) % INGREDIENT_VARIANTS) for i, o in enumerate(raw)}
        mapping.update((o, (f"{o[0]} {group_tags[group]}", o[1], o[2])) for o in made)
        fresh = []
        for j, u in enumerate(base):
            motion = f"{u.motion} {motion_tags[(replica + j) % MOTION_VARIANTS]}"
            unit = _rename(u, lambda o: mapping.get(o, o), motion)
            if unit.identity() not in seen:
                seen.add(unit.identity())
                fresh.append(unit)
        files.append(fresh)
    sweep = [u for units in files for u in units]
    leaves = _leaves(sweep)
    raw_items = [variant(o, v) for o in raw for v in range(INGREDIENT_VARIANTS)
                 if variant(o, v) in leaves]
    kitchen = leaves - set(raw_items[::WITHHELD_EVERY])
    produced = list(dict.fromkeys(o for u in sweep for o in u.outputs if o not in u.inputs))
    specs = [s for s in map(goal_spec, (o for o in produced if o not in kitchen)) if s]
    rates = [f"{label} {tag}\t{_rate(b, m):.2f}\n"
             for b, label in enumerate(labels) for m, tag in enumerate(motion_tags)]

    shapes, shape_kitchen, shape_goals, shape_trees = _adversarial_shapes(rng)
    files += shapes
    kitchen |= shape_kitchen
    while len(kitchen) < KITCHEN_SIZE:
        kitchen.add(obj(f"pantry item {_tag(rng, used)}", ["stocked"]))
    rates += [f"{label}\t{_rate(b, 0):.2f}\n" for b, label in enumerate(SHAPE_LABELS)]
    universal = [u for units in files for u in units]
    workload = Workload(
        name="goal-sweep",
        merge_inputs=[_write(work / "in" / f"{n:03d}.txt", write_units(units))
                      for n, units in enumerate(files)],
        kitchen=_write(work / "kitchen.txt", write_objects(sorted(kitchen, key=object_order))),
        rates=_write(work / "rates.txt", "".join(rates)),
        goals=_write(work / "goals.txt", "".join(
            s + "\n" for s in specs + [goal_spec(g) for g in shape_goals])),
        max_depth=CHAIN_LENGTH,
        tree_requests=[(goal_spec(g), algo) for g, algo in shape_trees],
        setup_foon=work / "universal.txt",
        setup_with_inputs=True,
        units=universal,
        total_units=len(universal),
        kitchen_objects=kitchen,
    )
    workload.tree_requests.insert(0, (_deepest(specs, workload.depths, CHAIN_LENGTH), "ids"))
    return workload


def crash_probe(seed, work, root):
    """A chain deeper than the recursion limit, searched by IDS to its
    full depth. Today's ``foon search`` dies with a RecursionError."""
    rng = random.Random(f"crash-probe:{seed}")
    chain, kitchen, links = _chain(_tag(rng, set()), PROBE_CHAIN_LENGTH)
    return Workload(
        name="crash-probe",
        merge_inputs=[_write(work / "in" / "000.txt", write_units(chain))],
        kitchen=_write(work / "kitchen.txt", write_objects(kitchen)),
        rates=_write(work / "rates.txt", ""),
        goals=None,
        max_depth=PROBE_CHAIN_LENGTH + 1,
        tree_requests=[(goal_spec(links[-1]), "ids")],
        setup_foon=work / "universal.txt",
        setup_with_inputs=True,
        units=chain,
        total_units=len(chain),
        kitchen_objects=kitchen,
    )


GENERATORS = {
    "corpus-merge": corpus_merge,
    "goal-sweep": goal_sweep,
    "crash-probe": crash_probe,
}
