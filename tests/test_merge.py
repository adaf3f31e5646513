import random

from foon import SubgraphDocument, merge, merge_stats

from conftest import obj, unit


def _doc(*units):
    return SubgraphDocument(units=list(units))


def _three_unit_doc():
    return _doc(
        unit([obj("a", "raw")], "chop", [obj("a", "chopped")]),
        unit([obj("b", "raw")], "slice", [obj("b", "sliced")]),
        unit([obj("a", "chopped"), obj("b", "sliced")], "mix", [obj("mix", "done")]),
    )


def test_merge_empty():
    assert len(merge([])) == 0


def test_merge_self_union_idempotent():
    doc = _three_unit_doc()
    assert len(merge([doc, doc])) == len(merge([doc]))


def test_merge_with_one_shared_unit():
    a = _three_unit_doc()
    b = _doc(
        unit([obj("a", "raw")], "chop", [obj("a", "chopped")]),  # duplicate of a[0]
        unit([obj("c", "raw")], "boil", [obj("c", "boiled")]),
        unit([obj("c", "boiled")], "stir", [obj("soup", "done")]),
    )
    assert len(merge([a, b])) == 5


def test_merge_stats_empty():
    assert merge_stats([], merge([])) == (0, 0)


def test_merge_stats_double_document():
    doc = _three_unit_doc()
    docs = [doc, doc]
    assert merge_stats(docs, merge(docs)) == (6, 3)


def _brute_force_duplicates(docs):
    """Independent O(n^2) count of units equal to an earlier unit."""
    seen = []
    duplicates = 0
    for doc in docs:
        for u in doc.units:
            if any(u == earlier for earlier in seen):
                duplicates += 1
            else:
                seen.append(u)
    return duplicates


def test_merge_stats_matches_pairwise_scan(corpus_docs):
    foon = merge(corpus_docs)
    total, removed = merge_stats(corpus_docs, foon)
    assert total == sum(len(d.units) for d in corpus_docs)
    assert removed == _brute_force_duplicates(corpus_docs)
    assert total - removed == len(foon)


def test_merge_permutation_invariance(corpus_docs):
    reference = set(merge(corpus_docs).units)
    rng = random.Random(7)
    for _ in range(20):
        shuffled = list(corpus_docs)
        rng.shuffle(shuffled)
        assert set(merge(shuffled).units) == reference


def test_merge_monotonic(corpus_docs):
    sizes = [len(merge(corpus_docs[:i])) for i in range(len(corpus_docs) + 1)]
    assert sizes == sorted(sizes)
    assert sizes[-1] <= sum(len(d.units) for d in corpus_docs)


def test_merge_of_merged_output_is_stable(corpus_docs):
    foon = merge(corpus_docs)
    rewrapped = SubgraphDocument(units=foon.units)
    assert set(merge([rewrapped]).units) == set(foon.units)


def test_merge_keeps_first_encountered_units_in_order(corpus_docs):
    before = repr(corpus_docs)
    first = {}
    for doc in corpus_docs:
        for u in doc.units:
            first.setdefault(u, u)
    foon = merge(corpus_docs)
    assert len(foon.units) == len(first)
    assert all(a is b for a, b in zip(foon.units, first.values()))
    assert repr(corpus_docs) == before
