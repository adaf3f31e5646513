"""Command-line front end: merge subgraphs, retrieve task trees, bench, export DOT."""
from __future__ import annotations

import argparse
import errno
import gc
import io
import os
import re
import sys
import time
from pathlib import Path

from .dot import to_dot
from .merge import merge, merge_stats
from .model import LINE_BREAKS, Kitchen, MotionRateTable, object_key
from .parser import (
    ParseError,
    SubgraphDocument,
    parse_goal,
    parse_goals,
    parse_kitchen,
    parse_rates,
    parse_subgraph,
    serialize_subgraph,
)
from .retrieval import (
    DEFAULT_MAX_DEPTH,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    validate_task_tree,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_NO_SOLUTION = 2
EXIT_CLOSED_STDOUT = 141  # 128 + SIGPIPE: what a shell reports when SIGPIPE ends a process

BENCH_HEADER = "goal\tids\th1\th2\tids_ms\th1_ms\th2_ms\tids_exp\th1_exp\th2_exp"

# The algorithms, in the order of ``BENCH_HEADER``'s columns. Each entry
# looks its search up among this module's globals at call time, so a
# wrapper swapped in for one of them sees every call.
ALGORITHMS = {
    "ids": lambda foon, goal, kitchen, rates, max_depth:
        search_ids(foon, goal, kitchen, max_depth=max_depth),
    "gbfs-rate": lambda foon, goal, kitchen, rates, max_depth:
        search_gbfs_rate(foon, goal, kitchen, rates),
    "gbfs-inputs": lambda foon, goal, kitchen, rates, max_depth:
        search_gbfs_inputs(foon, goal, kitchen),
}


class _Error(Exception):
    """A one-line error: ``main`` prints it and exits with ``code``."""

    def __init__(self, message, code=EXIT_INPUT_ERROR):
        super().__init__(message)
        self.code = code


# Every line boundary of str.splitlines(): a path or an argument quoted in
# an error message is printed with these escaped, so the message is one line.
_LINE_BREAK = re.compile(f"[{LINE_BREAKS}]")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as an input error: one line, exit 1. Help that
    stdout cannot take fails as any other print to it does, in ``main``;
    argparse's own writer would drop the error and exit 0."""

    def error(self, message):
        raise _Error(message)

    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()


def _max_depth(text):
    # ``int`` alone would also read "+2", " 3 ", "1_0" and non-ASCII digits,
    # and it refuses more digits than the interpreter's conversion limit.
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"too many digits: {len(text)}") from None


def _to_devnull(stream):
    """Point ``stream``'s file descriptor at devnull (the Python docs' note on
    SIGPIPE), so that the interpreter's flush of it at exit is quiet and does
    not turn the exit code into 120. A stream with no descriptor is left as is."""
    try:
        fd = stream.fileno()
    except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


class _ClosedStream(io.TextIOBase):
    """A standard stream whose descriptor was closed (``>&-``), where Python
    leaves None: writing text to it fails as a write to that descriptor does."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def _report(line):
    """Print ``line`` on stderr. A stderr that cannot be written, such as a
    full device, loses it and what it still buffers, and the exit code stands."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        _to_devnull(sys.stderr)


def _read(path) -> str:
    # A leading byte-order mark is dropped here rather than by the
    # "utf-8-sig" codec, which would cost every command a module import.
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise _Error(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _Error(f"{path}: not UTF-8 text: {exc}")


def _write(path, text):
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _Error(f"{path}: {exc.strerror or exc}")


def _parse_file(path, parse_fn, *args):
    try:
        return parse_fn(_read(path), *args)
    except ParseError as exc:
        raise _Error(f"{path}:{exc.line_number}: {exc}")


# Each command reads its files with one table of raw blocks and M lines
# (see ``parse_subgraph``), so a block repeated in any of them is one
# instance. The parsers are looked up among this module's globals at call
# time, one call per file with the text first, so a wrapper swapped in for
# one sees each file.
def _load(args):
    """The FOON, kitchen and rates that ``search`` and ``bench`` read."""
    objects = {}
    foon = merge([_parse_file(args.foon, parse_subgraph, objects)])
    kitchen = (Kitchen() if args.kitchen is None
               else _parse_file(args.kitchen, parse_kitchen, objects))
    rates = MotionRateTable() if args.rates is None else _parse_file(args.rates, parse_rates)
    return foon, kitchen, rates


def cmd_merge(args) -> int:
    objects = {}
    docs = [_parse_file(path, parse_subgraph, objects) for path in args.inputs]
    foon = merge(docs)
    total, duplicates = merge_stats(docs, foon)
    _write(args.out, serialize_subgraph(SubgraphDocument(units=foon.units)))
    print(f"units: {len(foon.units)}")
    print(f"input units: {total}")
    print(f"duplicates removed: {duplicates}")
    return EXIT_OK


def _search(algo, goal, foon, kitchen, rates, max_depth, where=""):
    """(outcome, milliseconds) of one search, timed alone; a tree that fails
    ``validate_task_tree`` against ``foon`` is an exit-2 error whose message
    ``where`` leads."""
    started = time.perf_counter()
    outcome = ALGORITHMS[algo](foon, goal, kitchen, rates, max_depth)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    if outcome.ok:
        report = validate_task_tree(outcome.tree, kitchen, goal, foon)
        if not report:
            raise _Error(f"{where}tree failed its own check: {report.message}", EXIT_NO_SOLUTION)
    return outcome, elapsed_ms


def cmd_search(args) -> int:
    foon, kitchen, rates = _load(args)
    try:
        goal = parse_goal(args.goal)
    except ParseError as exc:
        raise _Error(f"goal: {exc}")
    outcome, _ = _search(args.algo, goal, foon, kitchen, rates, args.max_depth)
    if not outcome.ok:
        failure = outcome.failure
        blocked = ", ".join(object_key(obj) for obj in failure.blocked_objects)
        _report(f"no solution: {failure.reason.value}")
        _report(f"blocked objects: {blocked}")
        return EXIT_NO_SOLUTION
    tree = outcome.tree
    _write(args.out, serialize_subgraph(SubgraphDocument(units=tree.units)))
    print(f"size: {len(tree.units)}")
    print(f"expansions: {tree.stats.expansions}")
    print(f"max stack depth: {tree.stats.max_stack_depth}")
    print(f"depth limit reached: {tree.stats.depth_limit_reached}")
    return EXIT_OK


def _bench_goal(spec, goal, foon, kitchen, rates, max_depth):
    sizes, times, expansions = [], [], []
    any_success = False
    for algo in ALGORITHMS:
        outcome, elapsed_ms = _search(algo, goal, foon, kitchen, rates, max_depth,
                                      f"goal {spec!r}, {algo}: ")
        times.append(f"{elapsed_ms:.3f}")
        stats = outcome.tree.stats if outcome.ok else outcome.failure.stats
        expansions.append(str(stats.expansions))
        sizes.append(str(len(outcome.tree.units)) if outcome.ok else "-")
        any_success = any_success or outcome.ok
    return "\t".join([spec] + sizes + times + expansions), any_success


def cmd_bench(args) -> int:
    foon, kitchen, rates = _load(args)
    goals = _parse_file(args.goals, parse_goals)
    rows = [BENCH_HEADER]
    successes = 0
    for spec, goal in goals:
        row, ok = _bench_goal(spec, goal, foon, kitchen, rates, args.max_depth)
        rows.append(row)
        successes += ok
    _write(args.out, "\n".join(rows) + "\n")
    for row in rows:
        print(row)
    if goals and not successes:
        return EXIT_NO_SOLUTION
    return EXIT_OK


def cmd_dot(args) -> int:
    doc = _parse_file(args.foon, parse_subgraph)
    _write(args.out, to_dot(doc.units))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="foon",
        description="Build a universal FOON and retrieve task trees for goal objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge subgraph files into a universal FOON")
    p_merge.add_argument("inputs", nargs="+", help="subgraph files to merge")
    p_merge.add_argument("--out", required=True, help="output path for the merged FOON")
    p_merge.set_defaults(func=cmd_merge)

    searching = argparse.ArgumentParser(add_help=False)  # options of search and bench
    searching.add_argument("--foon", required=True, help="universal FOON file")
    searching.add_argument("--kitchen", help="kitchen file (default: empty kitchen)")
    searching.add_argument("--rates", help="motion success-rate file (default: every rate 1.0)")
    searching.add_argument("--max-depth", type=_max_depth, default=DEFAULT_MAX_DEPTH,
                           help="deepest bound IDS tries (default: %(default)s)")

    p_search = sub.add_parser("search", parents=[searching],
                              help="retrieve a task tree for a goal object")
    p_search.add_argument("--goal", required=True, help="goal spec: name[;states[;ingredients]]")
    p_search.add_argument("--algo", default="ids", choices=ALGORITHMS,
                          help="search algorithm (default: %(default)s)")
    p_search.add_argument("--out", required=True, help="output path for the task tree")
    p_search.set_defaults(func=cmd_search)

    p_bench = sub.add_parser("bench", parents=[searching],
                             help="compare the three algorithms over a goal list")
    p_bench.add_argument("--goals", required=True, help="file with one goal spec per line")
    p_bench.add_argument("--out", required=True, help="output TSV path")
    p_bench.set_defaults(func=cmd_bench)

    p_dot = sub.add_parser("dot", help="export a FOON or task tree as Graphviz DOT")
    p_dot.add_argument("--foon", required=True, help="subgraph-format input file")
    p_dot.add_argument("--out", required=True, help="output DOT path")
    p_dot.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    # What a command reads in holds no reference cycles: pause the collector.
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that stdout fails here, if at all, not at exit
        return code
    except _Error as exc:
        message = _LINE_BREAK.sub(lambda match: repr(match.group())[1:-1], str(exc))
        _report(f"error: {message}")
        return exc.code
    except BrokenPipeError:
        _to_devnull(sys.stdout)  # the reader left, as ``head`` does
        return EXIT_CLOSED_STDOUT
    except (OSError, UnicodeEncodeError) as exc:
        # ``_read`` and ``_write`` turn the files' errors into ``_Error``, so this
        # is stdout's: a full device, say, or a goal its encoding cannot print.
        _report(f"error: stdout: {getattr(exc, 'strerror', None) or exc}")
        _to_devnull(sys.stdout)
        return EXIT_INPUT_ERROR
    finally:
        if collecting:
            gc.enable()


def run() -> int:
    """The process entry (``python -m foon.cli`` and the ``foon`` script):
    ``main()``, then ``gc.freeze()`` on every way out, ``--help``'s
    ``SystemExit`` included. The collections that the interpreter runs at
    shutdown skip frozen objects: every object the process still tracks,
    most of them from the modules that ``site`` imports. ``main`` does not
    freeze, because in a program that calls it in process every cycle then
    alive would stay uncollected for the rest of that program. A closed
    stdout fails as a full device does, with its own reason; a program that
    calls ``main`` has a stdout of its own."""
    if sys.stdout is None:
        sys.stdout = _ClosedStream()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
