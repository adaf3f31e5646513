"""The parsers against the frozen copies in ``reference_parser.py``, on every
line break ``str.splitlines`` splits on.

Seeded documents, subgraph and kitchen, come from the generators of
``test_parser_reference.py``. Each line ends with a break drawn from
``LINE_BREAKS`` and ``\\r\\n``, and blank and comment lines go between an O
line and its S lines, where a reader must skip them without closing the
block and must still number the S lines that follow. Both parsers must give
the same units, or raise the same exception class with the same line
number and message.
"""
import random

from foon import parse_subgraph
from foon.model import LINE_BREAKS

from test_parser_reference import (LINE_KINDS, _assert_same, _blank, _comment, _kitchen_lines,
                                   _outcome, _subgraph_lines, _units)

BREAKS = [*LINE_BREAKS, "\r\n"]


def _document(seed):
    rng = random.Random(seed)
    lines = _subgraph_lines(rng) if seed % 2 == 0 else _kitchen_lines(rng)
    noisy = []
    for line in lines:
        noisy.append(line)
        if line.startswith("O") and rng.random() < 0.5:
            noisy += [rng.choice([_blank, _comment])(rng) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.05:
            noisy.append(rng.choice(LINE_KINDS)(rng))
    return "".join(line + rng.choice(BREAKS) for line in noisy)


def test_documents_with_every_line_break_parse_as_the_reference_does():
    outcomes = {"ok": 0, "error": 0, "bad block": 0}
    for seed in range(6000):
        text = _document(seed)
        _assert_same(text)
        outcome = _outcome(parse_subgraph, _units, text)
        outcomes[outcome[0]] += 1
        outcomes["bad block"] += str(outcome[-1]).startswith("expected {...} ingredient list")
    # Both paths run, and so does the numbering of a bad block's S lines.
    assert min(outcomes.values()) > 100, outcomes
