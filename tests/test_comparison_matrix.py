"""Table 1's positioning claims, encoded and asserted (§2.3)."""

from repro.scenarios.comparison import TABLE1, groups, render


def systems_with(consistency, partitioned, replicated):
    return [
        e
        for e in TABLE1
        if (e.consistency, e.partitioned, e.replicated) == (consistency, partitioned, replicated)
    ]


def test_chariots_is_the_only_causal_partitioned_replicated_system():
    assert [e.name for e in systems_with("causal", True, True)] == ["Chariots"]


def test_partitioned_systems_in_table_are_strong_and_unreplicated():
    for entry in systems_with("strong", True, False):
        assert entry.name in {
            "CORFU/Tango", "LogBase", "RAMCloud", "Blizzard", "Ivy", "Zebra", "Hyder",
        }


def test_replicated_strong_systems():
    names = {e.name for e in systems_with("strong", False, True)}
    assert names == {"Megastore", "Paxos-CP"}


def test_causal_replicated_unpartitioned_systems():
    names = {e.name for e in systems_with("causal", False, True)}
    assert names == {
        "Message Futures", "PRACTI", "Bayou", "Lazy Replication", "Replicated Dictionary",
    }


def test_table_has_four_groups_like_the_paper():
    assert len(groups()) == 4


def test_render_mentions_every_system():
    text = render()
    for entry in TABLE1:
        assert entry.name in text


def test_render_prints_marks_as_words():
    """The Chariots row reads causal, yes, yes; no cell is a bare digit (the
    PDF's check and cross glyphs extract as the digits 3 and 7)."""
    rows = render().splitlines()[2:]
    [chariots] = [row for row in rows if row.endswith("Chariots")]
    assert chariots.split()[:3] == ["Causal", "yes", "yes"]
    for row in rows:
        consistency, partitioned, replicated = row.split()[:3]
        assert consistency in {"Strong", "Causal"}
        assert {partitioned, replicated} <= {"yes", "no"}
