"""One pass of a workload's CLI pipeline, and the check of its outputs.

The pipeline is ``foon merge`` over the generated subgraph files, then
``foon bench`` over the goal list (when the workload has one), then one
``foon search`` per tree request followed by ``foon dot`` on each tree
returned. A step runs either as a child process (end-to-end numbers) or
as an in-process call of ``foon.cli.main`` (the traced run); both give a
:class:`Step`, so one checker serves both.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from foonfmt import bench_problems, bench_verdicts, parse_spec, read_units, tree_problem

# A run's operations are the CLI invocations and the bench's verdicts. An
# invocation crashed when it printed a traceback or exited with a code the
# CLI does not document (0 ok, 1 input error, 2 no solution).
DOCUMENTED_EXITS = (0, 1, 2)


@dataclass
class Step:
    kind: str
    argv: list
    code: int
    seconds: float
    rss_kb: int
    stdout: str
    stderr: str

    @property
    def crashed(self):
        return self.code not in DOCUMENTED_EXITS or "Traceback" in self.stderr


class ProcessRunner:
    """Runs each step as ``python -m foon.cli`` in a child process, one at a
    time, and takes the child's own peak RSS from ``os.wait4``."""

    def __init__(self, root, work):
        self.env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"), PYTHONHASHSEED="0")
        self.out = Path(work) / "stdout.txt"
        self.err = Path(work) / "stderr.txt"

    def __call__(self, kind, argv):
        with open(self.out, "wb") as out, open(self.err, "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "foon.cli", *argv],
                                    stdout=out, stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Step(kind, argv, proc.returncode, seconds, usage.ru_maxrss,
                    self.out.read_text(encoding="utf-8", errors="replace"),
                    self.err.read_text(encoding="utf-8", errors="replace"))


class InProcessRunner:
    """Calls ``foon.cli.main`` in this process, capturing its output."""

    def __init__(self, main):
        self.main = main

    def __call__(self, kind, argv):
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.main(list(argv))
            except Exception:  # a crash is an outcome to count, not to stop on
                traceback.print_exc(file=err)
                code = -1
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Step(kind, argv, code, time.perf_counter() - started, 0,
                    out.getvalue(), err.getvalue())


@contextlib.contextmanager
def scratch_dir(root, prefix):
    """A fresh directory under the checkout's ``.bench_work``, removed afterwards."""
    scratch = Path(root) / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=prefix, dir=scratch))
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch.rmdir()


def universal_path(work):
    return Path(work) / "universal.txt"


def run_pipeline(workload, work, runner):
    """One pass over the workload's CLI steps, in order."""
    work = Path(work)
    universal = universal_path(work)
    common = ["--kitchen", str(workload.kitchen), "--rates", str(workload.rates),
              "--max-depth", str(workload.max_depth)]
    steps = [runner("merge", ["merge", *map(str, workload.merge_inputs), "--out", str(universal)])]
    if workload.goals is not None:
        steps.append(runner("bench", ["bench", "--foon", str(universal), "--goals",
                                      str(workload.goals), *common,
                                      "--out", str(work / "bench.tsv")]))
    for index, (spec, algo) in enumerate(workload.tree_requests):
        tree = work / f"tree{index}.txt"
        tree.unlink(missing_ok=True)
        search = runner("search", ["search", "--foon", str(universal), "--goal", spec,
                                   "--algo", algo, *common, "--out", str(tree)])
        steps.append(search)
        if search.code == 0:
            steps.append(runner("dot", ["dot", "--foon", str(tree),
                                        "--out", str(work / f"tree{index}.dot")]))
    return steps


def setup_argv(workload, work):
    """``foon bench`` on an empty goal list: start, import and load only."""
    argv = ["bench", "--foon", str(workload.setup_foon), "--goals", str(Path(work) / "none.txt"),
            "--out", str(Path(work) / "setup.tsv")]
    if workload.setup_with_inputs:
        argv += ["--kitchen", str(workload.kitchen), "--rates", str(workload.rates)]
    return argv


class Tally:
    """Operations attempted and failed, problems seen, and output digests."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []
        self.digests = set()

    def add(self, checked):
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.problems += checked.problems
        self.digests.add(checked.digest)

    @property
    def correct(self):
        # Repeated passes over the same inputs must give the same answers.
        return not self.problems and len(self.digests) == 1


def _stdout_fields(text):
    fields = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        fields[key] = value
    return fields


@dataclass
class Checked:
    attempted: int
    failed: int
    problems: list
    digest: str
    verdicts: int


def check_pipeline(workload, work, steps):
    """Check every output of one pipeline pass against the generator's facts.

    Counts one operation per CLI invocation plus one per bench verdict, and
    one failure per crash or rejected answer. The digest covers every
    non-timing output, so equal digests mean equal answers.
    """
    work = Path(work)
    digest = hashlib.sha256()
    problems = []
    attempted = failed = verdicts = 0
    search_index = 0
    for step in steps:
        attempted += 1
        digest.update(f"{step.kind} {step.code}\n".encode())
        if step.crashed:
            failed += 1
            problems.append(f"{step.kind} crashed (exit {step.code}): "
                            f"{step.stderr.strip().splitlines()[-1:]}")
            if step.kind == "search":
                search_index += 1
            continue
        found = []
        if step.kind == "merge":
            found += _check_merge(workload, work, step, digest)
        elif step.kind == "bench":
            text = (work / "bench.tsv").read_text(encoding="utf-8") if step.code == 0 else ""
            digest.update(bench_verdicts(text).encode())
            count, bench_found = bench_problems(text, workload.depths, workload.max_depth)
            if step.code != 0 or count != 3 * len(workload.goals.read_text().splitlines()):
                bench_found.append(f"bench exit {step.code} with {count} verdicts")
            attempted += count
            verdicts += count
            failed += len(bench_found)
            problems += bench_found
            continue
        elif step.kind == "search":
            found += _check_search(workload, work, search_index, step, digest)
            verdicts += 1
            search_index += 1
        elif step.kind == "dot":
            found += _check_dot(step, digest)
        if found:
            failed += 1
            problems += found
    return Checked(attempted, failed, problems, digest.hexdigest(), verdicts)


def _check_merge(workload, work, step, digest):
    if step.code != 0:
        return [f"merge exit {step.code}: {step.stderr.strip()}"]
    text = universal_path(work).read_text(encoding="utf-8")
    digest.update(text.encode())
    digest.update(step.stdout.encode())
    fields = _stdout_fields(step.stdout)
    units = read_units(text)
    found = []
    if fields.get("units") != str(len(workload.units)) or len(units) != len(workload.units):
        found.append(f"merge kept {fields.get('units')} units, expected {len(workload.units)}")
    if fields.get("input units") != str(workload.total_units):
        found.append(f"merge read {fields.get('input units')} units, "
                     f"expected {workload.total_units}")
    if {u.identity() for u in units} != workload.identities:
        found.append("merged units differ from the generated distinct units")
    return found


def check_outcome(workload, goal, algo, ok, tree_units, depth_reached, max_depth):
    """Problems with one search verdict: IDS succeeds exactly when the
    goal's derivation depth is within ``max_depth`` and then reports that
    depth; a greedy success needs a derivable goal; every tree executes."""
    depth = workload.depths.get(goal)
    found = []
    if algo == "ids":
        expected = depth is not None and depth <= max_depth
        if ok != expected:
            found.append(f"ids verdict {ok} for depth {depth}")
        elif ok and depth_reached != depth:
            found.append(f"ids reached depth {depth_reached}, minimal depth is {depth}")
    elif ok and depth is None:
        found.append(f"{algo} solved an underivable goal")
    if ok:
        problem = tree_problem(tree_units, workload.kitchen_objects, goal, workload.identities)
        if problem:
            found.append(f"{algo} tree: {problem}")
    return found


def _check_search(workload, work, index, step, digest):
    spec, algo = workload.tree_requests[index]
    digest.update(step.stdout.encode())
    if step.code not in (0, 2):
        return [f"search exit {step.code}: {step.stderr.strip()}"]
    tree_units = []
    fields = _stdout_fields(step.stdout)
    found = []
    if step.code == 0:
        text = (work / f"tree{index}.txt").read_text(encoding="utf-8")
        digest.update(text.encode())
        tree_units = read_units(text)
        if fields.get("size") != str(len(tree_units)):
            found.append(f"search reports size {fields.get('size')}, tree has {len(tree_units)}")
    reached = int(fields.get("depth limit reached", -1))
    found += check_outcome(workload, parse_spec(spec), algo, step.code == 0, tree_units,
                           reached, workload.max_depth)
    return found


def _check_dot(step, digest):
    if step.code != 0:
        return [f"dot exit {step.code}"]
    tree = read_units(Path(step.argv[2]).read_text(encoding="utf-8"))
    text = Path(step.argv[4]).read_text(encoding="utf-8")
    digest.update(text.encode())
    if not (text.startswith("digraph foon {\n") and text.endswith("}\n")):
        return ["dot output is not a digraph"]
    if text.count("[shape=box") != len(tree):
        return ["dot output does not draw one motion per tree unit"]
    return []
