"""Unit tests for the record model (repro.core.record)."""

import pickle

import pytest

from repro.chariots.messages import DraftRecord
from repro.core import (
    AppendResult,
    ConfigurationError,
    LogEntry,
    ReadRules,
    Record,
    RecordId,
    RecordRun,
    freeze_tags,
    value_codec,
)
from repro.net.binary_codec import decode_value_binary, encode_value_binary

from conftest import rec

T_RUN = 0x16


def unchecked(kind, *fields):
    """A value built past its constructor's check, as a corrupt pickle holds."""
    return tuple.__new__(kind, fields)


class TestRecordId:
    def test_fields(self):
        rid = RecordId("A", 3)
        assert rid.host == "A"
        assert rid.toid == 3

    def test_toids_start_at_one(self):
        with pytest.raises(ConfigurationError):
            RecordId("A", 0)
        blob = pickle.dumps(unchecked(RecordId, "A", 0))
        with pytest.raises(ConfigurationError):
            pickle.loads(blob)

    def test_negative_toid_rejected(self):
        with pytest.raises(ConfigurationError):
            RecordId("A", -5)

    def test_equality_and_hash(self):
        assert RecordId("A", 1) == RecordId("A", 1)
        assert RecordId("A", 1) != RecordId("B", 1)
        assert len({RecordId("A", 1), RecordId("A", 1), RecordId("A", 2)}) == 2
        assert hash(RecordId("A", 3)) == hash(("A", 3))  # set and dict order rely on it

    def test_ordering_is_host_then_toid(self):
        assert RecordId("A", 9) < RecordId("B", 1)
        assert RecordId("A", 1) < RecordId("A", 2)

    def test_predecessor(self):
        # <A,2> depends on its host predecessor <A,1> without naming it.
        assert rec("A", 2).depends_on(RecordId("A", 1))
        assert not rec("A", 2).depends_on(RecordId("A", 2))

    def test_first_record_has_no_predecessor(self):
        assert not rec("A", 1).depends_on(RecordId("A", 1))
        assert not rec("A", 1).depends_on(RecordId("B", 1))

    def test_str_matches_paper_notation(self):
        assert str(RecordId("A", 7)) == "<A,7>"


class TestFreezeTags:
    def test_none_becomes_empty(self):
        assert freeze_tags(None) == ()

    def test_empty_dict_becomes_empty(self):
        assert freeze_tags({}) == ()

    def test_sorted_stable(self):
        assert freeze_tags({"b": 2, "a": 1}) == (("a", 1), ("b", 2))


class TestRecord:
    def test_make_basics(self):
        record = Record.make("A", 1, "body", tags={"k": "v"})
        assert record.host == "A"
        assert record.toid == 1
        assert record.body == "body"
        assert record.tag_dict() == {"k": "v"}

    def test_records_are_immutable(self):
        record = rec("A", 1)
        with pytest.raises(AttributeError):
            record.body = "changed"

    def test_implicit_host_dependency(self):
        record = rec("A", 3)
        assert record.dep_vector() == {"A": 2}

    def test_first_record_has_empty_implicit_dep(self):
        record = rec("A", 1)
        assert record.dep_vector() == {"A": 0}

    def test_explicit_deps_merge_with_implicit(self):
        record = rec("A", 3, deps={"B": 5})
        assert record.dep_vector() == {"A": 2, "B": 5}

    def test_explicit_self_dep_never_lowers_implicit(self):
        record = Record.make("A", 5, None, deps={"A": 1})
        assert record.dep_vector()["A"] == 4

    def test_depends_on(self):
        record = rec("A", 3, deps={"B": 5})
        assert record.depends_on(RecordId("B", 5))
        assert record.depends_on(RecordId("B", 1))
        assert not record.depends_on(RecordId("B", 6))
        assert record.depends_on(RecordId("A", 2))

    def test_size_bytes_measures_bytes_body(self):
        record = Record.make("A", 1, b"\x00" * 512)
        assert record.size_bytes() == 512 + 24

    def test_size_bytes_measures_str_body(self):
        record = Record.make("A", 1, "abcd")
        assert record.size_bytes() == 4 + 24

    def test_size_bytes_default_for_opaque_body(self):
        record = Record.make("A", 1, {"k": 1})
        assert record.size_bytes(default_body_size=100) >= 100

    def test_size_bytes_counts_tags_and_deps(self):
        bare = Record.make("A", 1, b"")
        tagged = Record.make("A", 1, b"", tags={"key": "value"}, deps={"B": 3})
        assert tagged.size_bytes() > bare.size_bytes()


class TestLogEntry:
    def test_entry_exposes_rid(self):
        entry = LogEntry(4, rec("A", 2))
        assert entry.rid == RecordId("A", 2)
        assert entry.lid == 4

    def test_negative_lid_rejected(self):
        with pytest.raises(ConfigurationError):
            LogEntry(-1, rec("A", 1))
        blob = pickle.dumps(unchecked(LogEntry, -1, rec("A", 1)))
        with pytest.raises(ConfigurationError):
            pickle.loads(blob)


class TestAppendResult:
    def test_toid_shortcut(self):
        result = AppendResult(RecordId("A", 7), 42)
        assert result.toid == 7
        assert result.lid == 42


class TestReadRules:
    def entry(self, lid=5, host="A", toid=3, tags=None, internal=False):
        record = Record.make(host, toid, "b", tags=tags, internal=internal)
        return LogEntry(lid, record)

    def test_empty_rules_match_everything(self):
        assert ReadRules().matches(self.entry())

    def test_lid_bounds(self):
        assert ReadRules(min_lid=5, max_lid=5).matches(self.entry(lid=5))
        assert not ReadRules(min_lid=6).matches(self.entry(lid=5))
        assert not ReadRules(max_lid=4).matches(self.entry(lid=5))

    def test_host_filter(self):
        assert ReadRules(host="A").matches(self.entry(host="A"))
        assert not ReadRules(host="B").matches(self.entry(host="A"))

    def test_toid_bounds(self):
        assert ReadRules(min_toid=3, max_toid=3).matches(self.entry(toid=3))
        assert not ReadRules(min_toid=4).matches(self.entry(toid=3))
        assert not ReadRules(max_toid=2).matches(self.entry(toid=3))

    def test_tag_key_presence(self):
        assert ReadRules(tag_key="k").matches(self.entry(tags={"k": 1}))
        assert not ReadRules(tag_key="missing").matches(self.entry(tags={"k": 1}))

    def test_tag_value_equality(self):
        assert ReadRules(tag_key="k", tag_value=1).matches(self.entry(tags={"k": 1}))
        assert not ReadRules(tag_key="k", tag_value=2).matches(self.entry(tags={"k": 1}))

    def test_tag_min_value(self):
        rules = ReadRules(tag_key="k", tag_min_value=5)
        assert rules.matches(self.entry(tags={"k": 7}))
        assert not rules.matches(self.entry(tags={"k": 3}))

    def test_internal_records_hidden_by_default(self):
        assert not ReadRules().matches(self.entry(internal=True))
        assert ReadRules(include_internal=True).matches(self.entry(internal=True))


# --------------------------------------------------------------------------- #
# The value-type contract: immutable tuples, exact types through pickle and
# the binary codec, one value at a time and as every run shape that holds them
# --------------------------------------------------------------------------- #

RUN_N = value_codec._RUN_MIN  # the shortest list that travels as a run


def records(n=RUN_N):
    return [
        Record.make("A", i + 1, b"body-%d" % i, tags={"k": i} if i % 3 == 0 else None,
                    deps={"B": 4})
        for i in range(n)
    ]


def drafts(n=RUN_N):
    return [DraftRecord("A/client/%d" % (i % 2), i + 1, r.body, r.tags, r.deps)
            for i, r in enumerate(records(n))]


SINGLES = {
    RecordId: lambda: RecordId("A", 7),
    Record: lambda: records(1)[0],
    LogEntry: lambda: LogEntry(3, records(1)[0]),
    AppendResult: lambda: AppendResult(RecordId("A", 7), 42),
    DraftRecord: lambda: drafts(1)[0],
}

FIELDS = {
    RecordId: "toid", Record: "body", LogEntry: "lid", AppendResult: "lid", DraftRecord: "seq",
}

#: Every run shape that carries the record model's types.
RUNS = {
    "records": lambda: records(),
    "placements": lambda: [(10 + i, r) for i, r in enumerate(records())],
    "entries": lambda: [LogEntry(10 + i, r) for i, r in enumerate(records())],
    "results": lambda: [AppendResult(r.rid, 10 + i) for i, r in enumerate(records())],
    "drafts": lambda: drafts(),
}


def assert_same_types(got, want):
    assert got == want
    assert type(got) is type(want)
    if isinstance(want, (tuple, list)):
        for g, w in zip(got, want):
            assert_same_types(g, w)
    elif isinstance(want, RecordRun):
        for name in ("host", "first_toid", "deps", "bodies", "tags"):
            assert_same_types(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("kind", list(SINGLES), ids=lambda k: k.__name__)
class TestValueContract:
    def test_fields_cannot_be_assigned(self, kind):
        value = SINGLES[kind]()
        with pytest.raises(AttributeError):
            setattr(value, FIELDS[kind], 1)
        assert not hasattr(value, "__dict__")

    def test_pickle_keeps_the_exact_type(self, kind):
        value = SINGLES[kind]()
        assert_same_types(pickle.loads(pickle.dumps(value)), value)

    def test_codec_keeps_the_exact_type(self, kind):
        value = SINGLES[kind]()
        assert_same_types(decode_value_binary(encode_value_binary(value)), value)


def test_draft_construction_matches_the_dataclass_it_replaced():
    # Keyword and positional forms, with the default tags and deps, as the
    # scenario executors build drafts.
    by_keyword = DraftRecord(client="c", seq=3, body=b"x")
    assert by_keyword == DraftRecord("c", 3, b"x") == DraftRecord("c", 3, b"x", (), ())
    assert (by_keyword.tags, by_keyword.deps) == ((), ())
    assert by_keyword.size_bytes() == 1 + 32
    assert DraftRecord("c", 1, None).size_bytes(100) == 132


@pytest.mark.parametrize("shape", list(RUNS))
def test_runs_keep_the_exact_types(shape):
    items = RUNS[shape]()
    wire = encode_value_binary(items)
    assert wire[0] == T_RUN  # the columnar form, not the per-element one
    assert_same_types(decode_value_binary(wire), items)
    assert_same_types(pickle.loads(pickle.dumps(items)), items)


class TestRecordRun:
    def run(self, n=RUN_N):
        rs = records(n)
        return RecordRun("A", 1, rs[0].deps, [r.body for r in rs], [r.tags for r in rs])

    def test_records_are_the_run_split(self):
        assert self.run().records() == records()
        assert len(self.run()) == RUN_N and self.run().end_toid == RUN_N + 1

    def test_a_slice_is_a_run_of_the_same_records(self):
        assert self.run().slice(2, 5).records() == records()[2:5]

    def test_size_is_the_sum_of_its_records(self):
        for body_size in (512, 100):
            assert self.run().size_bytes(body_size) == sum(
                r.size_bytes(body_size) for r in records()
            )

    def test_toids_start_at_one_and_a_run_is_not_empty(self):
        with pytest.raises(ConfigurationError):
            RecordRun("A", 0, (), [b"x"], [()])
        with pytest.raises(ConfigurationError):
            RecordRun("A", 1, (), [], [])

    @pytest.mark.parametrize("n", [1, 2, RUN_N, 64])
    def test_codec_and_pickle_keep_the_exact_types(self, n):
        run = self.run(n)
        assert_same_types(decode_value_binary(encode_value_binary(run)), run)
        assert_same_types(pickle.loads(pickle.dumps(run)), run)
        placements = [(10, run), (10 + n, records(1)[0])]
        assert_same_types(decode_value_binary(encode_value_binary(placements)), placements)
