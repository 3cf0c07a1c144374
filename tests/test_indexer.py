"""Tests for the tag indexers (repro.flstore.indexer)."""

from repro.flstore import IndexerCore


def make_indexed():
    core = IndexerCore("ix")
    # lids 0..9, tag "k" with value = lid % 3; tag "even" on even lids.
    for lid in range(10):
        core.add("k", lid % 3, lid)
        if lid % 2 == 0:
            core.add("even", True, lid)
    return core


class TestLookups:
    def test_lookup_by_key(self):
        core = make_indexed()
        assert core.lookup("even") == [8, 6, 4, 2, 0]

    def test_lookup_unknown_key(self):
        assert make_indexed().lookup("nope") == []

    def test_most_recent_limit(self):
        core = make_indexed()
        assert core.lookup("even", limit=2) == [8, 6]

    def test_oldest_first(self):
        core = make_indexed()
        assert core.lookup("even", most_recent=False, limit=2) == [0, 2]

    def test_value_filter(self):
        core = make_indexed()
        assert core.lookup("k", tag_value=1) == [7, 4, 1]

    def test_min_value_filter(self):
        # §5.3: "look up records with a certain tag with values greater
        # than i and return the most recent x records".
        core = make_indexed()
        assert core.lookup("k", tag_min_value=2, limit=2) == [8, 5]

    def test_max_lid_bound_supports_snapshots(self):
        core = make_indexed()
        assert core.lookup("even", max_lid=5) == [4, 2, 0]
        assert core.lookup("even", max_lid=4, limit=1) == [4]

    def test_out_of_order_insertion_stays_sorted(self):
        core = IndexerCore("ix")
        for lid in (5, 1, 9, 3):
            core.add("k", None, lid)
        assert core.lookup("k", most_recent=False) == [1, 3, 5, 9]


class TestPruning:
    def test_prune_below_drops_old_postings(self):
        core = make_indexed()
        dropped = core.prune_below(5)
        assert dropped == 5 + 3  # five "k" postings and lids 0,2,4 of "even"
        assert core.lookup("even") == [8, 6]
        assert core.lookup("k", most_recent=False)[0] == 5

    def test_prune_removes_empty_buckets(self):
        core = IndexerCore("ix")
        core.add("gone", None, 0)
        core.prune_below(10)
        assert core.keys() == []

    def test_postings_counter(self):
        core = make_indexed()
        before = core.postings_stored
        core.prune_below(2)
        assert core.postings_stored < before


class TestBulk:
    def test_add_many(self):
        core = IndexerCore("ix")
        core.add_many([("a", 1, 0), ("b", 2, 1), ("a", 3, 2)])
        assert core.keys() == ["a", "b"]
        assert core.lookup("a") == [2, 0]


class TestIdempotentAdd:
    def test_a_posting_stored_twice_counts_and_answers_once(self):
        core = make_indexed()
        before = core.postings_stored
        for lid in range(10):  # a recovered maintainer pushes them all again
            core.add("k", lid % 3, lid)
        assert core.postings_stored == before
        assert core.lookup("k", tag_value=1) == [7, 4, 1]

    def test_a_repeat_below_the_tail_is_found_and_a_new_value_is_not_a_repeat(self):
        core = IndexerCore("ix")
        core.add_many([("k", 1, 0), ("k", 1, 5), ("k", 1, 2), ("k", 1, 2), ("k", 2, 2)])
        assert core.postings_stored == 4
        assert core.lookup("k", most_recent=False) == [0, 2, 2, 5]
