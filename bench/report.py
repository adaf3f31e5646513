"""Every benchmark metric on every workload, and the crash probe, in one command.

    python3 bench/report.py

For each workload in BENCHMARK.json this runs ``run.py`` with seed 1 for
BENCHMARK.json's ``run_seconds``, once untraced (end-to-end metrics) and
once traced (per-layer self times, with the tracing overhead), letting
their metric tables through on standard error, and prints each
workload's ``fail_share``: failed over attempted operations. It then runs
the crash probe once, a chain deeper than the recursion limit searched by
IDS to its full depth; the probe takes about 20 seconds, so only this
command runs it and ``run.py``'s workloads never do. A crash counts in ``fail_share`` and in no timing metric.

Exits 1 when any check fails: a wrong answer on any workload or on the
probe, or a crash on a workload.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads
from pipeline import ProcessRunner, check_pipeline, run_pipeline, scratch_dir

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def crash_probe(seed):
    """(attempted, crashed, wrong answers) of one pass over the probe."""
    with scratch_dir(ROOT, "crash-probe-") as work:
        workload = workloads.crash_probe(seed, work, ROOT)
        steps = run_pipeline(workload, work, ProcessRunner(ROOT, work))
        checked = check_pipeline(workload, work, steps)
    crashed = sum(step.crashed for step in steps)
    for problem in checked.problems:
        print(f"crash-probe   {problem}", file=sys.stderr)
    return checked.attempted, crashed, checked.failed - crashed


def main():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    ok = True
    for workload in declared["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload["name"],
                 "--seed", str(SEED), "--seconds", str(declared["run_seconds"]),
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = ok and proc.returncode == 0 and result.get("correct", False)
            if lines and not trace:
                share = result["failed"] / result["attempted"]
                print(f"{workload['name']:13} {'fail_share':34} {share:>14.6g} ratio "
                      f"({result['failed']} of {result['attempted']} operations)")
    attempted, crashed, wrong = crash_probe(SEED)
    print(f"{'crash-probe':13} {'fail_share':34} {(crashed + wrong) / attempted:>14.6g} ratio "
          f"({crashed} crashed, {wrong} wrong, of {attempted} operations)")
    ok = ok and not wrong
    print("all checks passed" if ok else "a check failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
