"""Tests for SetRelation's incremental indexes and cached snapshots."""

import pytest

from repro.datalog import RelationError, SetRelation


class TestIncrementalIndexes:
    def test_index_maintained_across_inserts(self):
        relation = SetRelation("r", ["V", "V"])
        relation.add((0, 1))
        assert relation.lookup((0,), (0,)) == [(0, 1)]
        builds = relation.index_builds
        # New tuples must land in the existing index without a rebuild.
        relation.add((0, 2))
        relation.add((1, 3))
        assert sorted(relation.lookup((0,), (0,))) == [(0, 1), (0, 2)]
        assert relation.lookup((0,), (1,)) == [(1, 3)]
        assert relation.index_builds == builds

    def test_multiple_column_patterns(self):
        relation = SetRelation("r", ["V", "V", "V"])
        relation.add((1, 2, 3))
        assert relation.lookup((0,), (1,)) == [(1, 2, 3)]
        assert relation.lookup((1, 2), (2, 3)) == [(1, 2, 3)]
        relation.add((1, 2, 4))
        assert sorted(relation.lookup((1, 2), (2, 3))) == [(1, 2, 3)]
        assert sorted(relation.lookup((0,), (1,))) == [(1, 2, 3), (1, 2, 4)]

    def test_lookup_miss_returns_empty(self):
        relation = SetRelation("r", ["V"])
        relation.add((0,))
        assert relation.lookup((0,), (7,)) == []

    def test_duplicate_add_leaves_index_alone(self):
        relation = SetRelation("r", ["V", "V"])
        relation.add((0, 1))
        relation.lookup((0,), (0,))
        assert relation.add((0, 1)) is False
        assert relation.lookup((0,), (0,)) == [(0, 1)]

    def test_clear_resets_indexes_and_snapshot(self):
        relation = SetRelation("r", ["V"])
        relation.add((0,))
        relation.lookup((), ())
        relation.lookup((0,), (0,))
        relation.clear()
        assert relation.lookup((), ()) == []
        assert relation.lookup((0,), (0,)) == []


class TestSnapshotCaching:
    def test_full_scan_is_cached_and_live(self):
        relation = SetRelation("r", ["V"])
        relation.add((0,))
        first = relation.lookup((), ())
        assert first == [(0,)]
        # Same list object is reused and sees later inserts.
        relation.add((1,))
        second = relation.lookup((), ())
        assert second is first
        assert sorted(second) == [(0,), (1,)]
        assert relation.index_hits >= 1

    def test_insert_new_matches_add(self):
        via_add = SetRelation("r", ["V", "V"])
        via_insert = SetRelation("r", ["V", "V"])
        via_add.lookup((0,), (0,))
        via_insert.lookup((0,), (0,))
        for values in [(0, 1), (0, 1), (2, 3)]:
            assert via_add.add(values) == via_insert.insert_new(values)
        assert set(via_add) == set(via_insert)
        assert via_add.lookup((0,), (0,)) == via_insert.lookup((0,), (0,))

    def test_add_all_bulk_load(self):
        relation = SetRelation("r", ["V"])
        assert relation.add_all([(0,), (1,), (1,)]) is True
        assert len(relation) == 2
        assert relation.add_all([(0,)]) is False

    def test_add_all_after_index_exists(self):
        relation = SetRelation("r", ["V", "V"])
        relation.add((0, 1))
        relation.lookup((0,), (0,))
        relation.add_all([(0, 2), (1, 3)])
        assert sorted(relation.lookup((0,), (0,))) == [(0, 1), (0, 2)]

    def test_arity_checked(self):
        relation = SetRelation("r", ["V", "V"])
        with pytest.raises(RelationError):
            relation.add((0,))
