"""FOON task-tree retrieval: model, parsing, merging, and search."""

from .merge import merge, merge_stats
from .model import (
    FunctionalUnit,
    Kitchen,
    MotionNode,
    MotionRateTable,
    ObjectNode,
    SearchStats,
    UniversalFOON,
    object_key,
)
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
    FailureReason,
    SearchOutcome,
    TaskTree,
    derivation_depths,
    search_gbfs_inputs,
    search_gbfs_rate,
    search_ids,
    validate_task_tree,
)

__all__ = [
    "FailureReason",
    "FunctionalUnit",
    "Kitchen",
    "MotionNode",
    "MotionRateTable",
    "ObjectNode",
    "ParseError",
    "SearchOutcome",
    "SearchStats",
    "SubgraphDocument",
    "TaskTree",
    "UniversalFOON",
    "derivation_depths",
    "merge",
    "merge_stats",
    "object_key",
    "parse_goal",
    "parse_goals",
    "parse_kitchen",
    "parse_rates",
    "parse_subgraph",
    "search_gbfs_inputs",
    "search_gbfs_rate",
    "search_ids",
    "serialize_subgraph",
    "validate_task_tree",
]
