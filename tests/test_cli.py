import os
import subprocess
import sys
from pathlib import Path

import pytest

from foon import merge, merge_stats, parse_subgraph
from foon.cli import BENCH_HEADER, main

from conftest import CORPUS_DIR, FIXTURES

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


def test_search_goal_with_a_tab_exits_1_on_one_line(tmp_path, capsys):
    code, stdout, stderr = run(
        capsys, "search", "--foon", ICE / "foon.txt", "--goal", "ic\te",
        "--kitchen", ICE / "kitchen.txt", "--out", tmp_path / "t.txt")
    assert (code, stdout) == (1, "")
    assert stderr == "error: goal: object 'ic\\te': 'ic\\te' contains a tab or line break\n"


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


def test_bench_bad_goal_line_exits_1_naming_the_line(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("ice;solid\n# a comment\n\n;bad\n")
    out = tmp_path / "bench.tsv"
    code, stdout, stderr = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", goals, "--out", out)
    assert (code, stdout) == (1, "")
    assert stderr == f"error: {goals}:4: goal spec has an empty name\n"
    assert not out.exists()


def test_bench_goal_line_with_a_tab_exits_1_naming_the_line(tmp_path, capsys):
    goals = tmp_path / "goals.txt"
    goals.write_text("ice;solid\nice;so\tlid\n")
    out = tmp_path / "bench.tsv"
    code, stdout, stderr = run(
        capsys, "bench", "--foon", ICE / "foon.txt", "--kitchen", ICE / "kitchen.txt",
        "--goals", goals, "--out", out)
    assert (code, stdout) == (1, "")
    assert stderr == (f"error: {goals}:2: object 'ice': 'so\\tlid' contains a tab or "
                      "line break\n")
    assert not out.exists()


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
