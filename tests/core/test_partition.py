"""Tests for range partitioning and chained-declustering placement (§4)."""

import pytest

from repro.core.partition import KeyRange, RangePartitioner, key_of


def test_five_node_layout_matches_paper_figure_2():
    """Figure 2: node i's base range is replicated on the next 2 nodes."""
    nodes = ["A", "B", "C", "D", "E"]
    part = RangePartitioner(nodes, replication_factor=3, keyspace=1000)
    assert len(part) == 5
    assert part.cohort(0).members == ("A", "B", "C")
    assert part.cohort(1).members == ("B", "C", "D")
    assert part.cohort(4).members == ("E", "A", "B")
    # Each node participates in exactly 3 cohorts.
    for node in nodes:
        assert len(part.cohorts_of_node(node)) == 3


def test_ranges_tile_the_keyspace():
    part = RangePartitioner([f"n{i}" for i in range(7)], keyspace=1000)
    lo = 0
    for cohort in part.cohorts:
        assert cohort.key_range.lo == lo
        lo = cohort.key_range.hi
    assert lo == 1000


def test_cohort_for_key_respects_ranges():
    part = RangePartitioner(["A", "B", "C", "D"], keyspace=400)
    assert part.cohort_for_key(0).cohort_id == 0
    assert part.cohort_for_key(99).cohort_id == 0
    assert part.cohort_for_key(100).cohort_id == 1
    assert part.cohort_for_key(399).cohort_id == 3


def test_uneven_keyspace_still_tiles():
    part = RangePartitioner(["A", "B", "C"], keyspace=10)
    sizes = [c.key_range.hi - c.key_range.lo for c in part.cohorts]
    assert sum(sizes) == 10
    assert max(sizes) - min(sizes) <= 1
    for key in range(10):
        cohort = part.cohort_for_key(key)
        assert cohort.key_range.contains(key)


def test_key_out_of_range_rejected():
    part = RangePartitioner(["A", "B", "C"], keyspace=100)
    with pytest.raises(ValueError):
        part.cohort_for_key(100)
    with pytest.raises(ValueError):
        part.cohort_for_key(-1)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        RangePartitioner(["A", "B"], replication_factor=3)


def test_key_of_is_deterministic_and_in_keyspace():
    assert key_of(b"hello") == key_of(b"hello")
    assert key_of(b"hello") != key_of(b"world")
    for i in range(100):
        assert 0 <= key_of(b"key-%d" % i) < (1 << 32)


def test_key_of_spreads_keys_across_cohorts():
    part = RangePartitioner([f"n{i}" for i in range(10)])
    hits = set()
    for i in range(500):
        hits.add(part.cohort_for_key(key_of(b"row-%d" % i)).cohort_id)
    assert len(hits) == 10


def test_key_range_str_and_contains():
    kr = KeyRange(10, 20)
    assert kr.contains(10) and kr.contains(19)
    assert not kr.contains(20) and not kr.contains(9)
    assert str(kr) == "[10,20)"


def test_key_range_boundaries_between_cohorts():
    """Boundary keys: each cohort's hi is exclusive and is exactly the
    next cohort's inclusive lo — no key owned twice, no key orphaned."""
    part = RangePartitioner(["A", "B", "C", "D", "E"], keyspace=1000)
    for left, right in zip(part.cohorts, part.cohorts[1:]):
        edge = left.key_range.hi
        assert edge == right.key_range.lo
        assert not left.key_range.contains(edge)
        assert right.key_range.contains(edge)
        assert left.key_range.contains(edge - 1)
        assert part.cohort_for_key(edge) is right
        assert part.cohort_for_key(edge - 1) is left


def test_key_range_last_cohort_owns_keyspace_end():
    """The last cohort runs up to the keyspace limit: the maximal key
    lands there, and the wrapped key (== keyspace, i.e. key 0 again)
    belongs to the first cohort, never the last."""
    part = RangePartitioner(["A", "B", "C"], keyspace=300)
    last = part.cohorts[-1]
    assert last.key_range.hi == 300
    assert last.key_range.contains(299)
    assert not last.key_range.contains(300)
    assert part.cohort_for_key(299) is last
    assert part.cohort_for_key(0) is part.cohorts[0]
    with pytest.raises(ValueError):
        part.cohort_for_key(300)     # wraps past the end: not a key


def test_split_boundaries_route_correctly():
    """After a split, the split key itself belongs to the new (right)
    cohort; split_key - 1 stays with the source."""
    from repro.core.partition import MembershipChange
    part = RangePartitioner(["A", "B", "C", "D", "E"], keyspace=1000)
    src = part.cohort(1)
    mid = src.key_range.lo + (src.key_range.hi - src.key_range.lo) // 2
    applied = part.apply_change(MembershipChange(
        version=2, kind="split", cohort_id=1,
        new_members=("F", "B", "C"), split_key=mid, new_cohort_id=5))
    assert applied
    assert part.cohort_for_key(mid).cohort_id == 5
    assert part.cohort_for_key(mid - 1).cohort_id == 1
    assert part.cohort(1).key_range.hi == mid
    assert part.cohort(5).key_range == KeyRange(mid, src.key_range.hi)
    # Duplicate application (replayed log record) is a no-op.
    assert not part.apply_change(MembershipChange(
        version=2, kind="split", cohort_id=1,
        new_members=("F", "B", "C"), split_key=mid, new_cohort_id=5))
    assert part.version == 2
