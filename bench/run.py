"""Benchmark of the ``foon`` CLI on one seeded workload.

    python3 bench/run.py --workload goal-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The benchmark generates the
workload's input files from ``--seed``, then repeats the workload's CLI
pipeline (merge, bench, search, dot) for ``--seconds`` seconds and checks
every output. With ``--trace 0`` each step is a child process and the
result holds the end-to-end metrics; with ``--trace 1`` the steps run
in this process with spans around the public functions of each layer,
and the result holds the per-layer metrics. The last line of standard
output is one JSON object; a human-readable summary goes to standard
error. The exit code is 1 when a check fails, 2 on a usage error.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

import workloads
from pipeline import ProcessRunner, Tally, check_pipeline, run_pipeline, scratch_dir, setup_argv

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_PASS = 3
MIN_REPEATS = 3
# A pass runs ``foon merge`` until it has merged at least this many input
# units, so a short merge, whose time is mostly interpreter start, gets as
# many samples per pass as a long one.
MERGE_UNITS_PER_PASS = 5000


def run_pass(workload, work, runner):
    """The pipeline's steps, and the extra merges that only add merge samples."""
    steps = run_pipeline(workload, work, runner)
    repeats = max(1, MERGE_UNITS_PER_PASS // workload.total_units)
    return steps, [runner("merge", steps[0].argv) for _ in range(repeats - 1)]


def measure_end_to_end(workload, work, seconds):
    """Untraced: each CLI step is a child process."""
    runner = ProcessRunner(ROOT, work)
    tally = Tally()
    # The first pass compiles bytecode and writes the universal FOON the
    # set-up command loads; it is checked but not timed.
    steps, merges = run_pass(workload, work, runner)
    tally.add(check_pipeline(workload, work, steps + merges))
    (work / "none.txt").write_text("")
    setups, walls, merge_rates, search_rates, rss = [], [], [], [], []
    started = time.perf_counter()
    while len(walls) < MIN_REPEATS or time.perf_counter() - started < seconds:
        # Set-up samples are spread over the run like the pipeline's, so a
        # slow spell of the machine weighs on both alike.
        for _ in range(SETUP_PER_PASS):
            step = runner("setup", setup_argv(workload, work))
            tally.attempted += 1
            if step.code != 0:
                tally.failed += 1
                tally.problems.append(f"set-up command exit {step.code}: {step.stderr.strip()}")
            setups.append(step.seconds)
        steps, merges = run_pass(workload, work, runner)
        checked = check_pipeline(workload, work, steps + merges)
        tally.add(checked)
        walls.append(sum(step.seconds for step in steps))
        merge_rates += [workload.total_units / step.seconds for step in [steps[0], *merges]]
        search_seconds = sum(s.seconds for s in steps if s.kind in ("bench", "search"))
        search_rates.append(checked.verdicts / search_seconds)
        rss.append(max(step.rss_kb for step in steps) / 1024)

    median = statistics.median
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "merge_units_per_s": median(merge_rates),
        "searches_per_s": median(search_rates),
        "peak_rss_mb": median(rss),
    }
    samples = {"setup_s": len(setups), "pipeline": len(walls), "merge": len(merge_rates)}
    return tally, metrics, samples


def main(argv=None):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in declared["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "foon" / "cli.py", ROOT / "tests" / "fixtures" / "corpus"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full source checkout",
                  file=sys.stderr)
            return 2

    with scratch_dir(ROOT, f"{args.workload}-") as work:
        workload = workloads.GENERATORS[args.workload](args.seed, work, ROOT)
        if args.trace:
            import tracing
            tally, metrics, samples = tracing.measure_layers(workload, work, args.seconds, ROOT)
        else:
            tally, metrics, samples = measure_end_to_end(workload, work, args.seconds)

    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: measured metrics {sorted(metrics)} differ from BENCHMARK.json's "
              f"{sorted(units)}", file=sys.stderr)
        return 1
    for name, unit in units.items():
        print(f"{args.workload:13} {name:34} {metrics[name]:>14.6g} {unit}", file=sys.stderr)
    print(f"{args.workload:13} samples {samples}; outputs digest "
          f"{','.join(sorted(tally.digests))}", file=sys.stderr)
    for problem in tally.problems[:20]:
        print(f"{args.workload:13} check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
