"""Table 1's positioning claims, encoded and asserted (§2.3)."""

from repro.scenarios.comparison import (
    TABLE1,
    chariots_fills_the_void,
    groups,
    render,
    systems_with,
)


def test_chariots_is_the_only_causal_partitioned_replicated_system():
    assert chariots_fills_the_void()


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
