from pathlib import Path

import pytest

from foon import (
    FunctionalUnit,
    Kitchen,
    MotionNode,
    ObjectNode,
    UniversalFOON,
    merge,
    parse_subgraph,
)

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS_DIR = FIXTURES / "corpus"


def obj(name, *states, ings=(), tag=""):
    return ObjectNode(name, frozenset(states), frozenset(ings), motion_tag=tag)


def unit(inputs, motion, outputs, **motion_kwargs):
    return FunctionalUnit(list(inputs), MotionNode(motion, **motion_kwargs), list(outputs))


def build_foon(*units):
    return UniversalFOON(units)


@pytest.fixture(scope="session")
def corpus_paths():
    paths = sorted(CORPUS_DIR.glob("*.txt"))
    assert len(paths) >= 10
    return paths


@pytest.fixture(scope="session")
def corpus_docs(corpus_paths):
    return [parse_subgraph(p.read_text(encoding="utf-8")) for p in corpus_paths]


@pytest.fixture(scope="session")
def corpus_foon(corpus_docs):
    return merge(corpus_docs)


@pytest.fixture
def chain():
    """base -> x1 -> x2 -> goal, three units deep; base is in the kitchen."""
    base = obj("base", "raw")
    x1 = obj("x1", "made")
    x2 = obj("x2", "made")
    goal = obj("goal", "done")
    u1 = unit([base], "chop", [x1])
    u2 = unit([x1], "mix", [x2])
    u3 = unit([x2], "bake", [goal])
    foon = build_foon(u1, u2, u3)
    return foon, goal, Kitchen([base]), [u1, u2, u3]
