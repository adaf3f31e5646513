"""Combine subgraphs into a universal FOON: union with duplicate removal."""
from __future__ import annotations

from .model import UniversalFOON


def merge(subgraphs) -> UniversalFOON:
    """Union all functional units, dropping duplicates.

    Documents are visited in order and units in file order, so the
    earliest inserted of equal units is the first one encountered. The
    result holds the documents' own unit objects, unmodified, and is
    frozen.
    """
    foon = UniversalFOON()
    for doc in subgraphs:
        for unit in doc.units:
            foon.insert(unit)
    return foon.freeze()


def merge_stats(subgraphs, result: UniversalFOON):
    """(total input units, duplicates removed) for a merge result."""
    total = sum(len(doc.units) for doc in subgraphs)
    return total, total - len(result.units)
