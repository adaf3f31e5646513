import contextlib
import errno
import gc
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foon import (SearchOutcome, TaskTree, merge, merge_stats, parse_goal, parse_subgraph,
                  search_ids)
from foon.cli import BENCH_HEADER, EXIT_CLOSED_STDOUT, main

from conftest import CORPUS_DIR, FIXTURES, obj, unit

ICE = FIXTURES / "ice"
DIVERGENCE = FIXTURES / "divergence"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timing(tsv_text):
    rows = []
    for line in tsv_text.splitlines():
        cols = line.split("\t")
        rows.append("\t".join(cols[:4] + cols[7:]))
    return "\n".join(rows)


def test_merge_single_file(tmp_path, capsys):
    out = tmp_path / "merged.txt"
    src = CORPUS_DIR / "ice.txt"
    code, stdout, _ = run(capsys, "merge", src, "--out", out)
    assert code == 0
    original = parse_subgraph(src.read_text())
    merged = parse_subgraph(out.read_text())
    assert len(merged.units) == len(original.units)
    assert merged.units == original.units
    assert "duplicates removed: 0" in stdout


def test_merge_same_file_twice_dedups(tmp_path, capsys):
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    src = CORPUS_DIR / "tea.txt"
    code1, stdout1, _ = run(capsys, "merge", src, "--out", out1)
    code2, stdout2, _ = run(capsys, "merge", src, src, "--out", out2)
    assert code1 == code2 == 0
    assert out1.read_text() == out2.read_text()
    assert "duplicates removed: 5" in stdout2


def test_merge_corpus_duplicate_count(tmp_path, capsys):
    paths = sorted(CORPUS_DIR.glob("*.txt"))
    out = tmp_path / "universal.txt"
    code, stdout, _ = run(capsys, "merge", *paths, "--out", out)
    assert code == 0
    docs = [parse_subgraph(p.read_text()) for p in paths]
    _, expected_dups = merge_stats(docs, merge(docs))
    assert f"duplicates removed: {expected_dups}" in stdout


def test_merge_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("O\twater\nQ\toops\n")
    code, _, stderr = run(capsys, "merge", bad, "--out", tmp_path / "o.txt")
    assert code == 1
    assert f"{bad}:2" in stderr


def test_search_goal_in_kitchen_writes_empty_tree(tmp_path, capsys):
    out = tmp_path / "tree.txt"
    code, stdout, _ = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", "water;liquid",
        "--kitchen", ICE / "kitchen.txt", "--out", out)
    assert code == 0
    assert "size: 0" in stdout
    assert out.read_text() == ""


def test_search_goal_with_the_empty_state(tmp_path, capsys):
    kitchen = tmp_path / "kitchen.txt"
    kitchen.write_text("O\tspoon\nS\n")
    code, stdout, _ = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", "spoon;\\e",
        "--kitchen", kitchen, "--out", tmp_path / "tree.txt")
    assert code == 0
    assert "size: 0" in stdout


@pytest.mark.parametrize("algo", ["ids", "gbfs-rate", "gbfs-inputs"])
def test_search_ice_size_1(tmp_path, capsys, algo):
    out = tmp_path / "tree.txt"
    code, stdout, _ = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", "ice;solid",
        "--kitchen", ICE / "kitchen.txt", "--rates", ICE / "rates.txt",
        "--algo", algo, "--out", out)
    assert code == 0
    assert "size: 1" in stdout
    assert len(parse_subgraph(out.read_text()).units) == 1


def test_search_unreachable_exits_2(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", "pizza",
        "--kitchen", ICE / "kitchen.txt", "--out", tmp_path / "t.txt")
    assert code == 2
    assert "GoalUnreachable" in stderr


@pytest.mark.parametrize("goal, message", [
    ("ic\te", "object 'ic\\te': 'ic\\te' contains a tab or line break"),
    # No FOON file can hold it: ingredients, no state.
    ("x;;salt", "object 'x': ingredient 'salt' without a state"),
    ("ice;solid;salt;pepper",
     "goal spec 'ice;solid;salt;pepper' has 4 ';'-separated fields, at most 3"),
], ids=["tab", "ingredients-without-state", "four-fields"])
def test_search_goal_errors_exit_1_on_one_line(tmp_path, capsys, goal, message):
    out = tmp_path / "t.txt"
    code, stdout, stderr = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", goal,
        "--kitchen", ICE / "kitchen.txt", "--out", out)
    assert (code, stdout, stderr) == (1, "", f"error: goal: {message}\n")
    assert not out.exists()


def test_a_blocked_object_pastes_back_as_the_goal(tmp_path, capsys):
    # A name and a state holding the separators, and the empty state.
    foon = tmp_path / "foon.txt"
    foon.write_text("O\tpep,per\nS\nM\tgrind\nO\tsalt;pepper mix\nS\tground, fine\n//\n")
    code, _, stderr = run(capsys, "search", "--foon", foon, "--goal",
                          "salt\\;pepper mix;ground\\, fine", "--out", tmp_path / "t.txt")
    assert (code, stderr) == (2, "no solution: GoalUnreachable\n"
                                 "blocked objects: pep\\,per;\\e;\n")
    [entry] = stderr.splitlines()[1].removeprefix("blocked objects: ").split(", ")
    kitchen = tmp_path / "kitchen.txt"
    kitchen.write_text("O\tpep,per\nS\n")
    code, stdout, _ = run(capsys, "search", "--foon", foon, "--goal", entry,
                          "--kitchen", kitchen, "--out", tmp_path / "t.txt")
    assert (code, stdout.splitlines()[0]) == (0, "size: 0")
    assert parse_goal(entry) == parse_subgraph(foon.read_text()).units[0].inputs[0]


def test_search_missing_file_exits_1(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "search", "--foon", tmp_path / "nope.txt", "--goal", "x",
        "--out", tmp_path / "t.txt")
    assert code == 1
    assert "error:" in stderr


def test_bench_ice_row(tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", ICE / "goals.txt", "--rates", ICE / "rates.txt", "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    cols = lines[1].split("\t")
    assert cols[0] == "ice;solid"
    assert cols[1:4] == ["1", "1", "1"]


def test_bench_divergence_sizes(tmp_path, capsys):
    out = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "--foon", DIVERGENCE / "foon.txt",
        "--kitchen", DIVERGENCE / "kitchen.txt", "--goals", DIVERGENCE / "goals.txt",
        "--rates", DIVERGENCE / "rates.txt", "--out", out)
    assert code == 0
    cols = out.read_text().splitlines()[1].split("\t")
    assert cols[1:4] == ["1", "2", "1"]  # ids, h1, h2


def test_bench_empty_goals_header_only(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("")
    out = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", goals, "--out", out)
    assert code == 0
    assert out.read_text() == BENCH_HEADER + "\n"


def test_bench_failure_recorded_as_dash(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("ice;solid\npizza\n")
    out = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", goals, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[2].split("\t")[1:4] == ["-", "-", "-"]


def test_bench_no_goal_succeeds_exits_2(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("pizza\n")
    out = tmp_path / "bench.tsv"
    code, _, _ = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", goals, "--out", out)
    assert code == 2


@pytest.mark.parametrize("name, text, line, message", [
    ("goals", "ice;solid\n# a comment\n\n;bad\n", 4, "object name must be non-empty"),
    ("goals", "ice;solid\nice;so\tlid\n", 2,
     "object 'ice': 'so\\tlid' contains a tab or line break"),
    ("goals", "ice;solid\n\nice;solid;salt;pepper\n", 3,
     "goal spec 'ice;solid;salt;pepper' has 4 ';'-separated fields, at most 3"),
    ("rates", "freeze\t0.8\n  \t0.5\n", 2, "rate line has no motion label"),
    # float() would read 0_1 as 1.0.
    ("rates", "freeze\t0_1\n", 1, "rate is not a number: '0_1'"),
], ids=["goal-no-name", "goal-tab", "goal-four-fields", "rate-no-label", "rate-underscore"])
def test_bench_file_errors_exit_1_naming_the_line(tmp_path, capsys, name, text, line, message):
    files = {"goals": ICE / "goals.txt", "rates": ICE / "rates.txt", name: tmp_path / name}
    files[name].write_text(text)
    out = tmp_path / "bench.tsv"
    code, stdout, stderr = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", files["goals"], "--rates", files["rates"], "--out", out)
    assert (code, stdout, stderr) == (1, "", f"error: {files[name]}:{line}: {message}\n")
    assert not out.exists()


def _bom_copy(source, directory):
    """A copy of ``source`` in ``directory`` that starts with a byte-order mark."""
    copy = directory / source.name
    copy.write_bytes(b"\xef\xbb\xbf" + source.read_bytes())
    return copy


def _bench_rows(capsys, foon, kitchen, goals, rates, out):
    code, _, _ = run(capsys, "bench", "--foon", foon, "--kitchen", kitchen,
                     "--goals", goals, "--rates", rates, "--out", out)
    assert code == 0
    return strip_timing(out.read_text())


def test_bench_skips_a_leading_byte_order_mark_in_every_file(tmp_path, capsys):
    files = [ICE / name for name in ("foon.txt", "kitchen.txt", "goals.txt", "rates.txt")]
    plain = _bench_rows(capsys, *files, tmp_path / "plain.tsv")
    marked = _bench_rows(capsys, *(_bom_copy(f, tmp_path) for f in files), tmp_path / "bom.tsv")
    assert marked == plain
    assert plain.splitlines()[1] == "ice;solid\t1\t1\t1\t1\t1\t1"


def test_a_byte_order_mark_does_not_hide_the_first_rate(tmp_path, capsys):
    # Rated 0.2, mix loses to blend; read as an unknown label, it would
    # rate 1.0 and win, and gbfs-rate's tree would change.
    rates = tmp_path / "plain" / "rates.txt"
    rates.parent.mkdir()
    rates.write_text("mix\t0.2\nblend\t0.9\n")
    files = [DIVERGENCE / name for name in ("foon.txt", "kitchen.txt", "goals.txt")]
    plain = _bench_rows(capsys, *files, rates, tmp_path / "plain.tsv")
    marked = _bench_rows(capsys, *files, _bom_copy(rates, tmp_path), tmp_path / "bom.tsv")
    assert marked == plain
    assert plain.splitlines()[1].split("\t")[1:4] == ["1", "2", "1"]


def test_dot_empty_tree(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    out = tmp_path / "g.dot"
    code, _, _ = run(capsys, "dot", "--foon", empty, "--out", out)
    assert code == 0
    assert out.read_text() == "digraph foon {\n}\n"


def test_dot_freeze_unit(tmp_path, capsys):
    src = tmp_path / "freeze.txt"
    src.write_text("O\twater\t1\nS\tliquid\nM\tfreeze\nO\tice\t0\nS\tsolid\n//\n")
    out = tmp_path / "g.dot"
    code, _, _ = run(capsys, "dot", "--foon", src, "--out", out)
    assert code == 0
    text = out.read_text()
    assert text.count("shape=ellipse") == 2
    assert text.count("shape=box") == 1
    assert text.count("->") == 2


def test_dot_numbers_units_in_file_order(tmp_path, capsys):
    # "crush" sorts before "freeze", so a label order would swap m0 and m1.
    src = tmp_path / "tree.txt"
    src.write_text(
        "O\twater\t1\nS\tliquid\nM\tfreeze\nO\tice\t0\nS\tsolid\n//\n"
        "O\tice\t1\nS\tsolid\nM\tcrush\nO\tice\t0\nS\tcrushed\n//\n"
    )
    out = tmp_path / "g.dot"
    code, _, _ = run(capsys, "dot", "--foon", src, "--out", out)
    assert code == 0
    assert out.read_text() == (
        "digraph foon {\n"
        '  m0 [shape=box, label="freeze"];\n'
        '  o0 [shape=ellipse, label="water\\nliquid"];\n'
        '  o1 [shape=ellipse, label="ice\\nsolid"];\n'
        '  m1 [shape=box, label="crush"];\n'
        '  o2 [shape=ellipse, label="ice\\ncrushed"];\n'
        "  o0 -> m0;\n"
        "  m0 -> o1;\n"
        "  o1 -> m1;\n"
        "  m1 -> o2;\n"
        "}\n"
    )


def test_dot_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Z\n")
    code, _, _ = run(capsys, "dot", "--foon", bad, "--out", tmp_path / "g.dot")
    assert code == 1


@pytest.mark.parametrize("command", ["merge", "search", "bench", "dot"])
def test_commands_are_deterministic(tmp_path, command):
    """Two ``python -m foon.cli`` processes under different string-hash
    seeds write the same bytes, so no output follows a set's or dict's
    hash order."""
    paths = sorted(CORPUS_DIR.glob("*.txt"))
    outputs = []
    for seed in ("1", "2"):
        out = tmp_path / f"{command}-{seed}.out"
        if command == "merge":
            argv = ["merge", *paths, "--out", out]
        elif command == "search":
            argv = ["search", "--foon", ICE / "foon.txt", "--goal", "ice;solid",
                    "--kitchen", ICE / "kitchen.txt", "--out", out]
        elif command == "bench":
            argv = ["bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
                    "--goals", ICE / "goals.txt", "--rates", ICE / "rates.txt", "--out", out]
        else:
            argv = ["dot", "--foon", ICE / "foon.txt", "--out", out]
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-m", "foon.cli", *map(str, argv)],
                              env=env, capture_output=True, timeout=60)
        assert done.returncode == 0, done.stderr
        written, printed = out.read_bytes(), done.stdout
        if command == "bench":
            written, printed = strip_timing(written.decode()), strip_timing(printed.decode())
        outputs.append((written, printed))
    assert outputs[0] == outputs[1]


def _argv(command, foon, out):
    """A run of ``command`` that succeeds on the ice fixture's FOON."""
    if command == "merge":
        return ["merge", foon, "--out", out]
    if command == "search":
        return ["search", "--foon", foon, "--goal", "ice;solid",
                "--kitchen", ICE / "kitchen.txt", "--out", out]
    if command == "bench":
        return ["bench", "--foon", foon, "--kitchen", ICE / "kitchen.txt",
                "--goals", ICE / "goals.txt", "--out", out]
    return ["dot", "--foon", foon, "--out", out]


@pytest.mark.parametrize("command, search, kind, message", [
    ("search", "search_ids", "broken",
     "tree failed its own check: input 'snow;cold;' of unit 0 is not available"),
    ("search", "search_ids", "foreign",
     "tree failed its own check: unit 0 is not one of the FOON's units"),
    ("bench", "search_gbfs_rate", "broken",
     "goal 'ice;solid', gbfs-rate: tree failed its own check: "
     "input 'snow;cold;' of unit 0 is not available"),
], ids=["search-broken", "search-foreign", "bench-broken"])
def test_a_tree_that_fails_its_own_check_exits_2_and_writes_nothing(
        tmp_path, capsys, monkeypatch, command, search, kind, message):
    found = {"broken": unit([obj("snow", "cold")], "pack", [obj("ice", "solid")]),
             # Equal to the FOON's one unit, so the tree is valid, but not that unit.
             "foreign": parse_subgraph((ICE / "foon.txt").read_text()).units[0]}[kind]
    monkeypatch.setattr(f"foon.cli.{search}", lambda foon, goal, kitchen, *args, **kwargs:
                        SearchOutcome(tree=TaskTree([found], goal)))
    out = tmp_path / "out.txt"
    code, stdout, stderr = run(capsys, *_argv(command, ICE / "foon.txt", out))
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["merge", "search", "bench", "dot"])
def test_malformed_foon_prints_path_line_and_message_once(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_text("O\twater\nM\tfreeze\nM\tmelt\nO\tice\n//\n")
    code, stdout, stderr = run(capsys, *_argv(command, bad, tmp_path / "out.txt"))
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {bad}:3: second M line in one unit\n"


@pytest.mark.parametrize("command", ["merge", "search", "bench", "dot"])
def test_undecodable_input_exits_1(tmp_path, capsys, command):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes("O\tcrème\nS\tfresh\n".encode("latin-1"))
    code, _, stderr = run(capsys, *_argv(command, latin1, tmp_path / "out.txt"))
    assert code == 1
    assert stderr.startswith(f"error: {latin1}: ")


@pytest.mark.parametrize("command", ["merge", "search", "bench", "dot"])
def test_unwritable_out_exits_1(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out.txt"
    code, _, stderr = run(capsys, *_argv(command, ICE / "foon.txt", out))
    assert code == 1
    assert stderr.startswith(f"error: {out}: ")


class _FullStream(io.TextIOBase):
    """A stdout or stderr on a full device: writing any text raises ENOSPC."""

    def write(self, text):
        if text:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return 0


@contextlib.contextmanager
def _stdout(kind):
    """A stdout for ``main``: a buffer (``kind`` None), a full device, or a
    buffered pipe whose reader has left, as ``head -1``'s does once it has
    read its line."""
    if kind != "closed pipe":
        yield _FullStream() if kind == "full" else io.StringIO()
        return
    read, write = os.pipe()
    os.close(read)
    with open(write, "w", encoding="utf-8") as stdout:
        yield stdout


def _run_with_stdout(kind, argv):
    """``main``'s exit code and stderr with ``kind`` of stdout."""
    stderr = io.StringIO()
    with _stdout(kind) as stdout:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(arg) for arg in argv])
        if code == EXIT_CLOSED_STDOUT:
            # stdout now takes text, as the interpreter's flush at exit needs.
            print("more", file=stdout, flush=True)
    return code, stderr.getvalue()


@pytest.mark.parametrize("command", ["merge", "search", "bench"])
def test_a_closed_stdout_pipe_exits_141_quietly(tmp_path, command):
    out = tmp_path / "out.txt"
    assert _run_with_stdout("closed pipe", _argv(command, ICE / "foon.txt", out)) == (
        EXIT_CLOSED_STDOUT, "")
    assert out.exists()


@pytest.mark.parametrize("command", ["merge", "search", "bench"])
def test_a_failing_stdout_exits_1_on_one_line(tmp_path, command):
    assert _run_with_stdout("full", _argv(command, ICE / "foon.txt", tmp_path / "out.txt")) == (
        1, "error: stdout: No space left on device\n")


@pytest.mark.parametrize("argv, code, printed", [
    (lambda tmp: ["search", "--foon", ICE / "foon.txt", "--goal", "pizza",
                  "--out", tmp / "tree.txt"], 2, ""),
    (lambda tmp: ["search", "--foon", tmp / "missing.txt", "--goal", "ice",
                  "--out", tmp / "tree.txt"], 1, ""),
    (lambda tmp: ["merge", ICE / "foon.txt", "--out", tmp / "u.txt"], 0,
     "units: 1\ninput units: 1\nduplicates removed: 0\n"),
], ids=["no-solution", "missing-foon", "merge"])
def test_a_failing_stderr_keeps_the_exit_code(tmp_path, argv, code, printed):
    # What stderr cannot take is lost; it is never taken for a failing stdout.
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(_FullStream()):
        assert main([str(arg) for arg in argv(tmp_path)]) == code
    assert stdout.getvalue() == printed


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, full, code", [
    (lambda tmp: ["search", "--foon", ICE / "foon.txt", "--goal", "pizza",
                  "--out", tmp / "tree.txt"], "stderr", 2),
    (lambda tmp: ["search", "--foon", tmp / "missing.txt", "--goal", "ice",
                  "--out", tmp / "tree.txt"], "stderr", 1),
    (lambda tmp: ["merge", ICE / "foon.txt", "--out", tmp / "u.txt"], "stderr", 0),
    (lambda tmp: ["merge", ICE / "foon.txt", "--out", tmp / "u.txt"], "stdout", 1),
    (lambda tmp: ["search", "--foon", ICE / "foon.txt", "--goal", "pizza",
                  "--out", tmp / "tree.txt"], "stdout", 2),
    # argparse prints help itself and then exits 0.
    (lambda tmp: ["--help"], "stdout", 1),
    (lambda tmp: ["search", "--help"], "stdout", 1),
], ids=["no-solution", "missing-foon", "merge", "merge-stdout", "no-solution-stdout", "help",
        "search-help"])
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_full_device_keeps_the_exit_code(tmp_path, argv, full, code, buffered):
    # A buffered stream keeps the text it could not write, and the
    # interpreter's flush at exit tries again: that must not make it exit
    # 120. An unbuffered one must not be sent a zero-byte write, which a
    # full device refuses too.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "foon.cli", *map(str, argv(tmp_path))]
    with open("/dev/full", "w") as device:
        streams = ({"stderr": device, "stdout": subprocess.DEVNULL} if full == "stderr"
                   else {"stdout": device, "stderr": subprocess.PIPE})
        done = subprocess.run(command, env=env, timeout=60, **streams)
    assert done.returncode == code
    if full == "stdout" and code == 1:
        assert done.stderr == b"error: stdout: No space left on device\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_goal_that_stdout_cannot_encode_fails_as_a_full_device_does(tmp_path, buffered):
    # ``bench`` prints each goal spec; on an ASCII stdout "crème" fails on
    # one line, and what stdout still buffers is dropped, not printed at exit.
    foon, kitchen, goals = (tmp_path / name for name in ("foon.txt", "kitchen.txt", "goals.txt"))
    foon.write_text("O\tcream\t1\nS\tliquid\nM\twhip\nO\tcrème\t0\nS\twhipped\n//\n",
                    encoding="utf-8")
    kitchen.write_text("O\tcream\nS\tliquid\n", encoding="utf-8")
    goals.write_text("crème;whipped\n", encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), PYTHONIOENCODING="ascii")
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "foon.cli", "bench", "--foon", foon, "--kitchen", kitchen,
               "--goals", goals, "--out", tmp_path / "bench.tsv"]
    done = subprocess.run(command, env=env, capture_output=True, timeout=60)
    assert (done.returncode, done.stderr) == (
        1, b"error: stdout: 'ascii' codec can't encode character '\\xe8' in position 2: "
           b"ordinal not in range(128)\n")
    assert done.stdout == (b"" if buffered else BENCH_HEADER.encode() + b"\n")


@pytest.mark.skipif(not os.path.exists("/bin/sh"), reason="needs a POSIX shell")
@pytest.mark.parametrize("command, code, stderr", [
    ("merge", 1, "error: stdout: Bad file descriptor\n"),
    ("search", 1, "error: stdout: Bad file descriptor\n"),
    ("bench", 1, "error: stdout: Bad file descriptor\n"),
    ("no-solution", 2, "no solution: GoalUnreachable\nblocked objects: pizza;;\n"),
    ("dot", 0, ""),
], ids=["merge", "search", "bench", "no-solution", "dot"])
def test_a_closed_stdout_fails_as_a_full_device_does(tmp_path, command, code, stderr):
    # With descriptor 1 closed (">&-") Python starts with sys.stdout None:
    # a command that prints fails on one line, and one that does not is
    # unaffected.
    argv = (_argv(command, ICE / "foon.txt", tmp_path / "out.txt") if command != "no-solution"
            else ["search", "--foon", ICE / "foon.txt", "--goal", "pizza",
                  "--out", tmp_path / "out.txt"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(["/bin/sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m",
                           "foon.cli", *map(str, argv)],
                          env=env, stderr=subprocess.PIPE, timeout=60)
    assert (done.returncode, done.stderr.decode()) == (code, stderr)


def _search(out, *extra):
    return ["search", "--foon", ICE / "foon.txt", "--goal", "ice;solid",
            "--kitchen", ICE / "kitchen.txt", *extra, "--out", out]


@pytest.mark.parametrize("argv, message", [
    (lambda out: _search(out, "--max-depth", "abc"),
     "error: argument --max-depth: expected an integer >= 0, got 'abc'"),
    (lambda out: _search(out, "--max-depth", "-1"),
     "error: argument --max-depth: expected an integer >= 0, got '-1'"),
    # int() would read each of these as a number.
    (lambda out: _search(out, "--max-depth", "+2"),
     "error: argument --max-depth: expected an integer >= 0, got '+2'"),
    (lambda out: _search(out, "--max-depth", " 3 "),
     "error: argument --max-depth: expected an integer >= 0, got ' 3 '"),
    (lambda out: _search(out, "--max-depth", "1_0"),
     "error: argument --max-depth: expected an integer >= 0, got '1_0'"),
    (lambda out: _search(out, "--max-depth", "\u0663"),
     "error: argument --max-depth: expected an integer >= 0, got '\u0663'"),
    # More digits than int() converts (4,300 unless the interpreter is told otherwise).
    (lambda out: _search(out, "--max-depth", "9" * 5000),
     "error: argument --max-depth: too many digits: 5000"),
    (lambda out: _search(out)[:-2], "error: the following arguments are required: --out"),
    (lambda out: _search(out, "--algo", "nope"), "error: argument --algo: invalid choice: "),
    (lambda out: [], "error: the following arguments are required: command"),
], ids=["max-depth-abc", "max-depth-negative", "max-depth-plus", "max-depth-spaces",
        "max-depth-underscore", "max-depth-arabic-indic", "max-depth-too-many-digits", "no-out",
        "unknown-algo", "no-command"])
def test_argument_errors_exit_1_on_one_line(tmp_path, capsys, argv, message):
    out = tmp_path / "tree.txt"
    code, stdout, stderr = run(capsys, *argv(out))
    assert (code, stdout) == (1, "")
    assert stderr.startswith(message)
    assert stderr.count("\n") == 1 and stderr.endswith("\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["search", "--foon", tmp / "a\nb", "--goal", "ice", "--out", tmp / "tree.txt"],
     lambda tmp: f"error: {tmp}/a\\nb: No such file or directory"),
    (lambda tmp: ["dot", "--foon", ICE / "foon.txt", "--out", tmp / "foon.dot", "stray\narg"],
     lambda tmp: "error: unrecognized arguments: stray\\narg"),
], ids=["path", "stray-argument"])
def test_line_breaks_in_an_error_message_are_escaped(tmp_path, capsys, argv, message):
    code, stdout, stderr = run(capsys, *argv(tmp_path))
    assert (code, stdout, stderr) == (1, "", message(tmp_path) + "\n")


def test_search_max_depth_0_is_accepted(tmp_path, capsys):
    code, _, stderr = run(capsys, *_search(tmp_path / "tree.txt", "--max-depth", "0"))
    assert (code, stderr) == (2, "no solution: DepthExhausted\nblocked objects: ice;solid;\n")


def test_search_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["search", "--help"])
    assert exit_info.value.code == 0
    assert "--max-depth" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["search", "bench"])
def test_help_describes_the_options_search_and_bench_share(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for option, words in (("--foon FOON", "universal FOON file"),
                          ("--kitchen KITCHEN", "kitchen file"),
                          ("--rates RATES", "motion success-rate file"),
                          ("--max-depth MAX_DEPTH", "deepest bound IDS tries (default: 50)")):
        [at] = [n for n, line in enumerate(lines) if line.lstrip().startswith(option)]
        # argparse puts the description after the option, or on the next line.
        assert words in " ".join(lines[at:at + 2]), (option, lines)


@pytest.mark.parametrize("collecting", [True, False])
def test_a_command_pauses_the_collector_and_restores_the_callers_setting(
        tmp_path, capsys, monkeypatch, collecting):
    during = []

    def spy(*args, **kwargs):
        during.append(gc.isenabled())
        return search_ids(*args, **kwargs)

    monkeypatch.setattr("foon.cli.search_ids", spy)
    before, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if collecting else gc.disable)()
    try:
        codes, after = [], []
        for extra in ((), ("--max-depth", "abc")):
            codes.append(run(capsys, *_search(tmp_path / "tree.txt", *extra))[0])
            after.append((gc.isenabled(), gc.get_freeze_count()))
        with pytest.raises(SystemExit):
            main(["search", "--help"])
        after.append((gc.isenabled(), gc.get_freeze_count()))
    finally:
        (gc.enable if before else gc.disable)()
    assert (codes, during) == ([0, 1], [False])
    # ``main`` freezes nothing: that is ``run``'s, at the process's exit.
    assert after == [(collecting, frozen)] * 3


# Calls ``foon.cli.run`` with the command line ``python -c`` hands it, then
# reports what the collections at shutdown would still walk.
_RUN_AND_COUNT = ("import gc, sys, foon.cli\n"
                  "code = foon.cli.run()\n"
                  "print(gc.get_freeze_count(), len(gc.get_objects()), file=sys.stderr)\n"
                  "sys.exit(code)\n")


@pytest.mark.parametrize("command", ["merge", "search", "bench"])
def test_the_process_entry_freezes_what_the_process_tracks_and_changes_no_output(
        tmp_path, capsys, command):
    code, stdout, _ = run(capsys, *_argv(command, ICE / "foon.txt", tmp_path / "main.out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-c", _RUN_AND_COUNT,
         *map(str, _argv(command, ICE / "foon.txt", tmp_path / "run.out"))],
        env=env, capture_output=True, timeout=60)
    frozen, tracked = map(int, done.stderr.split())
    assert frozen > 0 and tracked < 100
    # Bytes decoded as they are, so no newline translation hides a difference.
    outputs = [(stdout, (tmp_path / "main.out").read_bytes().decode()),
               (done.stdout.decode(), (tmp_path / "run.out").read_bytes().decode())]
    if command == "bench":
        outputs = [tuple(map(strip_timing, pair)) for pair in outputs]
    assert (done.returncode, outputs[1]) == (code, outputs[0])


def test_cli_start_up_imports_neither_dataclasses_nor_inspect_nor_ast():
    # ``dataclasses`` pulls in ``inspect`` and ``ast``, which cost every
    # CLI process start-up time and nothing else.
    code = ("import sys, foon.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"


# The CLI fuzz property: every command, on mutated fixture files, on argv
# drawn from its own flags and values and on a stdout that is full or whose
# reader has left, returns 0, 1 or 2 (or 141 for the closed pipe) and prints
# the documented stderr lines, and no exception escapes ``main``.
_FLAGS = {
    "merge": ["--out"],
    "search": ["--foon", "--goal", "--kitchen", "--algo", "--rates", "--max-depth", "--out"],
    "bench": ["--foon", "--kitchen", "--goals", "--rates", "--max-depth", "--out"],
    "dot": ["--foon", "--out"],
}
_REQUIRED = {"--foon", "--goal", "--goals", "--out"}


@st.composite
def _mutated(draw, data):
    """``data`` after one to three byte flips, dropped or duplicated lines,
    inserted tabs, line breaks or invalid UTF-8 bytes, or BOMs."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "drop", "dup", "insert", "bom"]))
        lines = data.splitlines(keepends=True)
        if kind == "bom":
            data = b"\xef\xbb\xbf" + data
        elif kind in ("drop", "dup") and lines:
            at = draw(st.integers(0, len(lines) - 1))
            lines[at:at + 1] = [] if kind == "drop" else [lines[at]] * 2
            data = b"".join(lines)
        elif kind == "flip" and data:
            at = draw(st.integers(0, len(data) - 1))
            data = data[:at] + bytes([data[at] ^ draw(st.integers(1, 255))]) + data[at + 1:]
        else:
            at = draw(st.integers(0, len(data)))
            inserted = draw(st.sampled_from([b"\t", b"\n", b"\r", b"\xff", b"\xc3("]))
            data = data[:at] + inserted + data[at:]
    return data


def _value(flag, files, work, goal):
    """A strategy for ``flag``'s value: mostly a usable one, else a broken one;
    for ``flag`` None, a stray argument."""
    def mostly(usable, *broken):
        return st.sampled_from([*usable] * (3 * len(broken)) + list(broken))

    if flag == "--out":
        return mostly([work / "out.txt"], work, work / "missing" / "out.txt",
                      work / "missing\n" / "out.txt")
    if flag == "--goal":
        return mostly([goal], "water;liquid", "juice;fresh;carrot", "pizza", ";bad",
                      "ice;so\tlid", "", ";;;")
    if flag == "--algo":
        return mostly(["ids", "gbfs-rate", "gbfs-inputs"], "nope", "")
    if flag == "--max-depth":
        return mostly(["0", "1", "3", "50", "99999999999999999999"], "-1", "abc", "")
    if flag is None:
        # A stray argument, which argparse quotes in its error.
        return st.sampled_from(["stray", "stray\narg", "stray\rarg", "stray\u2028arg"])
    return mostly([files[flag]], *(path for other, path in files.items() if other != flag),
                  work / "missing.txt", work, work / "line\nbreak.txt",
                  work / "carriage\rreturn.txt", work / "line\u2028separator.txt")


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", ["merge", "search", "bench", "dot"])
def test_cli_fuzz_exits_0_1_or_2_with_documented_stderr(command, data):
    fixture = FIXTURES / data.draw(st.sampled_from(["ice", "divergence"]), label="fixture")
    goal = (fixture / "goals.txt").read_text(encoding="utf-8").split()[0]
    mutated = data.draw(st.sampled_from([None, "foon", "kitchen", "goals", "rates"]),
                        label="mutated file")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        files = {}
        for name in ("foon", "kitchen", "goals", "rates"):
            text = (fixture / f"{name}.txt").read_bytes()
            if name == mutated:
                text = data.draw(_mutated(text), label=name)
            files[f"--{name}"] = work / f"{name}.txt"
            files[f"--{name}"].write_bytes(text)
        argv = [command]
        if command == "merge":
            inputs = st.lists(_value("--foon", files, work, goal), min_size=1, max_size=3)
            argv += data.draw(inputs, label="inputs")
        for flag in _FLAGS[command]:
            if flag in _REQUIRED or data.draw(st.booleans(), label=flag):
                argv += [flag, data.draw(_value(flag, files, work, goal), label=flag)]
        # Sometimes one token is dropped, which may leave a required flag
        # or a value out, a flag is given a second time, or a stray
        # argument is inserted.
        at = data.draw(st.integers(1, len(argv)), label="edit at")
        edit = data.draw(st.sampled_from([None, None, None, "drop", "repeat", "stray"]),
                         label="edit")
        if edit == "drop":
            del argv[at:at + 1]
        elif edit == "stray":
            argv.insert(at, data.draw(_value(None, files, work, goal), label="stray"))
        elif edit == "repeat":
            flag = data.draw(st.sampled_from(_FLAGS[command]), label="repeated")
            argv[at:at] = [flag, data.draw(_value(flag, files, work, goal), label=flag)]
        failing = data.draw(st.sampled_from([None, None, "closed pipe", "full"]), label="stdout")
        code, stderr = _run_with_stdout(failing, argv)
    lines = stderr.splitlines()
    # A closed pipe on stdout ends a command that prints quietly, with its own code.
    assert code in (0, 1, 2) or (code, failing, lines) == (EXIT_CLOSED_STDOUT, "closed pipe", [])
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if command == "search" and code == 2:
        assert [line.split(":")[0] for line in lines] == ["no solution", "blocked objects"], lines
