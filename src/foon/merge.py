"""Combine subgraphs into a universal FOON: union with duplicate removal."""
from __future__ import annotations

from .model import UniversalFOON


def merge(subgraphs) -> UniversalFOON:
    """Union all functional units, dropping duplicates.

    Documents are visited in order and units in file order, and of equal
    units the first one encountered is kept. The result holds the
    documents' own unit objects, unmodified.
    """
    return UniversalFOON(unit for doc in subgraphs for unit in doc.units)


def merge_stats(subgraphs, result: UniversalFOON):
    """(total input units, duplicates removed) for a merge result."""
    total = sum(len(doc.units) for doc in subgraphs)
    return total, total - len(result.units)
