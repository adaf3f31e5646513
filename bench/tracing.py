"""The traced run: per-layer numbers from spans around each layer's public functions.

Each CLI step runs in this process as a call of ``foon.cli.main``. While
a pass is traced, every reference the ``foon`` modules hold to a public
function of a layer is replaced by a wrapper that records a span (name,
start, end, parent span, operation id); ``pathlib.Path.read_text``, the
CLI's file reads, is wrapped the same way. Spans stay in memory and are
written out when the run ends. A layer's time is the self time of its
spans: their duration minus the time their child spans cover. Counts come
only from the functions' return values and ``SearchStats``.

Untraced and traced passes run in adjacent pairs, and the median over the
pairs of traced minus untraced wall time is reported as the tracing
overhead; pairing keeps the machine's drift between passes out of it.
"""
from __future__ import annotations

import gc
import importlib
import json
import pathlib
import statistics
import sys
import time
from collections import defaultdict

from foonfmt import Unit
from pipeline import (
    InProcessRunner, ProcessRunner, Tally, check_outcome, check_pipeline, run_pipeline)

STARTUP_REPEATS = 5
MIN_PAIRS = 3
ALGORITHMS = {"search_ids": "ids", "search_gbfs_rate": "gbfs-rate",
              "search_gbfs_inputs": "gbfs-inputs"}
SEARCH_SPANS = {f"retrieval.{function}" for function in ALGORITHMS}


def _own(o):
    return (o.name, frozenset(o.states), frozenset(o.ingredients))


def _own_units(units):
    return [Unit(tuple(map(_own, u.inputs)), u.motion.label, tuple(map(_own, u.outputs)))
            for u in units]


def _search_note(args, kwargs, outcome):
    max_depth = kwargs.get("max_depth", args[3] if len(args) > 3 else None)
    return {"goal": args[1], "outcome": outcome, "max_depth": max_depth}


# Public functions wrapped per layer, each with what to keep from a call.
NOTES = {
    "parser": {
        "parse_subgraph": lambda a, k, r: {"bytes": len(a[0]), "units": len(r.units)},
        "parse_kitchen": lambda a, k, r: {"items": len(r)},
        "parse_rates": None,
        "parse_goal": None,
        "serialize_subgraph": lambda a, k, r: {"bytes": len(r)},
    },
    "merge": {
        "merge": lambda a, k, r: {"foon": r},
        "merge_stats": lambda a, k, r: {"total": r[0], "duplicates": r[1]},
    },
    "retrieval": {
        "search_ids": _search_note,
        "search_gbfs_rate": _search_note,
        "search_gbfs_inputs": _search_note,
        "validate_task_tree": lambda a, k, r: {"units": len(a[0].units)},
    },
    "dot": {"to_dot": lambda a, k, r: {"bytes": len(r)}},
}


class Tracer:
    """Spans of one traced pass, in start order: [name, start, end, parent, op, note]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[5] = {"error": type(exc).__name__}
                raise
            finally:
                record[2] = clock()
                stack.pop()
            if note is not None:
                record[5] = note(args, kwargs, result)
            return result
        return traced

    def operation(self, main):
        """Wrap the CLI entry point: each call is one operation."""
        traced = self.wrap("cli.main", main)

        def run(argv):
            self.op += 1
            return traced(argv)
        return run


class Patches:
    """Swaps every reference the ``foon`` modules hold to a wrapped object."""

    def __init__(self, tracer):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "foon" or name.startswith("foon.")]
        self.undo = []
        for layer, functions in NOTES.items():
            defining = importlib.import_module(f"foon.{layer}")
            for name, note in functions.items():
                original = getattr(defining, name)
                self._swap(modules, original, tracer.wrap(f"{layer}.{name}", original, note))
        kitchen = importlib.import_module("foon.model").Kitchen
        build = tracer.wrap("model.kitchen_build", kitchen.__init__)

        class TracedKitchen(kitchen):
            def __init__(self, *args, **kwargs):
                build(self, *args, **kwargs)
        self._swap(modules, kitchen, TracedKitchen)
        read_text = pathlib.Path.read_text
        pathlib.Path.read_text = tracer.wrap("cli.read", read_text)
        self.undo.append((pathlib.Path, "read_text", read_text))

    def _swap(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self.undo.append((module, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self.undo):
            setattr(owner, attr, original)


def _self_times(spans):
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    for index, (name, start, end, _, _, _) in enumerate(spans):
        totals[name] += end - start - covered[index]
    return totals


def _notes(spans, name):
    return [span[5] for span in spans if span[0] == name and span[5] is not None]


def pass_metrics(spans, workload):
    """Per-layer metrics of one traced pass, and the answers the checker rejects."""
    own = _self_times(spans)
    parsed = _notes(spans, "parser.parse_subgraph")
    stats = _notes(spans, "merge.merge_stats")
    units_in = sum(n["total"] for n in stats)
    units_out = units_in - sum(n["duplicates"] for n in stats)
    merged = _notes(spans, "merge.merge")[0]["foon"]
    values = {
        "cli.read_s": own["cli.read"],
        "cli.self_s": own["cli.main"],
        "parser.parse_subgraph_s": own["parser.parse_subgraph"],
        "parser.parse_mb_per_s": sum(n["bytes"] for n in parsed) / own["parser.parse_subgraph"] / 1e6,
        "parser.parse_kitchen_s": own["parser.parse_kitchen"],
        "parser.other_s": own["parser.parse_rates"] + own["parser.parse_goal"],
        "parser.serialize_s": own["parser.serialize_subgraph"],
        "parser.serialize_bytes": sum(n["bytes"] for n in _notes(spans, "parser.serialize_subgraph")),
        "model.kitchen_build_s": own["model.kitchen_build"],
        "model.distinct_objects": len({o for u in merged.units for o in (*u.inputs, *u.outputs)}),
        "model.max_producers": max(len(units) for units in merged.producers.values()),
        "model.kitchen_items": max(n["items"] for n in _notes(spans, "parser.parse_kitchen")),
        "merge.s": own["merge.merge"] + own["merge.merge_stats"],
        "merge.units_in": units_in,
        "merge.units_out": units_out,
        "merge.dup_ratio": (units_in - units_out) / units_in,
        "retrieval.validate_s": own["retrieval.validate_task_tree"],
        "retrieval.validate_units": sum(
            n["units"] for n in _notes(spans, "retrieval.validate_task_tree")),
        "dot.s": own["dot.to_dot"],
        "dot.bytes": sum(n["bytes"] for n in _notes(spans, "dot.to_dot")),
    }
    verdict_ms = [(end - start) * 1000 for name, start, end, *_ in spans
                  if name in SEARCH_SPANS]
    values["verdict_ms.p50"] = statistics.median(verdict_ms)
    values["verdict_ms.p95"] = statistics.quantiles(verdict_ms, n=20)[-1]
    problems = []
    for function, algo in ALGORITHMS.items():
        calls = solved = expansions = tree_units = errors = iterations = deepest = 0
        for note in _notes(spans, f"retrieval.{function}"):
            calls += 1
            if "error" in note:  # the CLI step crashed; check_pipeline counts it
                errors += 1
                continue
            outcome = note["outcome"]
            result = outcome.tree if outcome.ok else outcome.failure
            expansions += result.stats.expansions
            iterations += len(result.stats.per_depth_expansions)
            deepest = max(deepest, result.stats.max_stack_depth)
            units = _own_units(outcome.tree.units) if outcome.ok else []
            solved += outcome.ok
            tree_units += len(units)
            found = check_outcome(workload, _own(note["goal"]), algo, outcome.ok, units,
                                  result.stats.depth_limit_reached,
                                  note["max_depth"] or workload.max_depth)
            errors += bool(found)
            problems += found
        prefix = f"retrieval.{algo}"
        values.update({
            f"{prefix}.s": own[f"retrieval.{function}"],
            f"{prefix}.calls": calls,
            f"{prefix}.solved": solved,
            f"{prefix}.expansions": expansions,
            f"{prefix}.yield": tree_units / expansions if expansions else 0.0,
            f"{prefix}.errors": errors,
        })
        if algo == "ids":
            values["retrieval.ids.iterations"] = iterations
            values["retrieval.ids.max_stack_depth"] = deepest
    return values, problems


def _startup_seconds(root, work):
    """Interpreter start, import and argument parsing of the CLI, in a child."""
    runner = ProcessRunner(root, work)
    return statistics.median(runner("startup", ["--help"]).seconds
                             for _ in range(STARTUP_REPEATS))


def measure_layers(workload, work, seconds, root):
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("foon.cli")
    startup = _startup_seconds(root, work)
    untraced_runner = InProcessRunner(cli.main)
    tally = Tally()
    tally.add(check_pipeline(workload, work, run_pipeline(workload, work, untraced_runner)))

    untraced, traced, per_pass, all_spans = [], [], [], []
    started = time.perf_counter()
    while len(traced) < MIN_PAIRS or time.perf_counter() - started < seconds:
        for traced_pass in ((False, True) if len(traced) % 2 else (True, False)):
            gc.collect()
            runner = untraced_runner
            if traced_pass:
                tracer = Tracer()
                patches = Patches(tracer)
                runner = InProcessRunner(tracer.operation(cli.main))
            try:
                steps = run_pipeline(workload, work, runner)
            finally:
                if traced_pass:
                    patches.restore()
            (traced if traced_pass else untraced).append(sum(step.seconds for step in steps))
            tally.add(check_pipeline(workload, work, steps))
            if traced_pass:
                values, problems = pass_metrics(tracer.spans, workload)
                tally.failed += len(problems)
                tally.problems += problems
                per_pass.append(values)
                # Drop the kept return values so they do not weigh on later passes.
                all_spans.append([span[:5] for span in tracer.spans])

    _write_spans(root, workload, all_spans)
    median = statistics.median
    metrics = {name: median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["cli.startup_s"] = startup
    metrics["trace.untraced_s"] = median(untraced)
    metrics["trace.overhead_s"] = median(t - u for t, u in zip(traced, untraced))
    metrics["trace.spans"] = len(all_spans[-1])
    return tally, metrics, {"passes": len(traced), "startup": STARTUP_REPEATS}


def _write_spans(root, workload, passes):
    out = root / ".bench_traces"
    out.mkdir(exist_ok=True)
    with open(out / f"{workload.name}.jsonl", "w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for name, start, end, parent, op in spans:
                handle.write(json.dumps({"pass": number, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
