"""Tests for the project linter (``repro.analysis``).

Each rule gets fixture snippets in a synthetic tree: a positive case (the
rule fires), a negative case (clean code stays clean), a noqa-suppressed
case, and a baselined case.  A final test asserts the committed baseline
matches a fresh run over ``src`` — the static gates in CI depend on that
file being honest.
"""

from __future__ import annotations

import ast
import json
import time
import tomllib
from pathlib import Path

from repro.analysis import (
    Finding,
    apply_baseline,
    build_model,
    dump_baseline,
    load_baseline,
    run_rules,
    rules_by_code,
    scan,
)
from repro.analysis.cli import main as analysis_main
from repro.analysis.dataflow import (
    EXPAND_DEPTH,
    WRITE,
    class_methods,
    expand_events,
    method_events,
    reachable_within,
    self_call_graph,
)
from repro.analysis.rules.typed_api import TYPED_PACKAGES

REPO_ROOT = Path(__file__).resolve().parent.parent
SUPERVISION_SOURCE = REPO_ROOT / "src" / "repro" / "runtime" / "multiproc" / "supervision.py"


def lint(tmp_path, files, select=None):
    """Write ``files`` under a fixture root, scan it, and run the rules."""
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return run_rules(scan([root]), select=select)


def codes(findings):
    return [f.code for f in findings]


# --------------------------------------------------------------------- #
# CHR001 / CHR002 — protocol exhaustiveness
# --------------------------------------------------------------------- #

_PROTO_MESSAGES = """\
from dataclasses import dataclass

@dataclass(slots=True)
class Ping:
    seq: int

@dataclass(slots=True)
class Pong:
    seq: int

@dataclass(slots=True)
class Inner:
    value: int

@dataclass(slots=True)
class Carrier:
    inner: Inner

@dataclass(slots=True)
class Base:
    pass
"""

_PROTO_CODEC = """\
from typing import Tuple, Type
from .messages import Carrier, Inner, Ping, Pong

_MESSAGE_TYPES: Tuple[Type, ...] = (
    Ping,
    Pong,
    Inner,
    Carrier,
)
"""

_PROTO_HANDLER = """\
from .messages import Carrier, Ping, Pong

class Actor:
    def on_message(self, sender, message):
        if isinstance(message, Ping):
            pass
        elif isinstance(message, (Pong, Carrier)):
            pass
"""


class TestProtocolRules:
    def test_clean_protocol_has_no_findings(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR001", "CHR002"],
        )
        assert findings == []

    def test_unregistered_message_dataclass_fires_chr001(self, tmp_path):
        extra = _PROTO_MESSAGES + (
            "\n@dataclass(slots=True)\nclass Orphan:\n    seq: int\n"
        )
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": extra,
                "proto/codec.py": _PROTO_CODEC,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR001"],
        )
        assert codes(findings) == ["CHR001"]
        assert "Orphan" in findings[0].message

    def test_zero_field_base_class_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR001"],
        )
        assert findings == []  # Base has no fields and is not registered

    def test_no_registry_in_scan_means_no_cross_check(self, tmp_path):
        findings = lint(
            tmp_path,
            {"proto/messages.py": _PROTO_MESSAGES},
            select=["CHR001", "CHR002"],
        )
        assert findings == []

    def test_stale_registration_fires_chr002(self, tmp_path):
        codec = _PROTO_CODEC.replace(
            "    Carrier,\n", "    Carrier,\n    Ghost,\n"
        )
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": codec,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR002"],
        )
        assert codes(findings) == ["CHR002"]
        assert "stale" in findings[0].message

    def test_registered_but_unroutable_message_fires_chr002(self, tmp_path):
        messages = _PROTO_MESSAGES + (
            "\n@dataclass(slots=True)\nclass Dangling:\n    seq: int\n"
        )
        codec = _PROTO_CODEC.replace(
            "    Carrier,\n", "    Carrier,\n    Dangling,\n"
        )
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": messages,
                "proto/codec.py": codec,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR002"],
        )
        assert codes(findings) == ["CHR002"]
        assert "Dangling" in findings[0].message

    def test_embedded_value_type_is_routable(self, tmp_path):
        # Inner is never isinstance-dispatched but is a field of Carrier.
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/actor.py": _PROTO_HANDLER,
            },
            select=["CHR002"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR003 — wall clock
# --------------------------------------------------------------------- #


class TestWallClockRule:
    def test_time_time_in_sim_scope_fires(self, tmp_path):
        findings = lint(
            tmp_path,
            {"sim/clock.py": "import time\n\ndef now():\n    return time.time()\n"},
            select=["CHR003"],
        )
        assert codes(findings) == ["CHR003"]
        assert "time.time" in findings[0].message

    def test_aliased_import_is_resolved(self, tmp_path):
        source = "from time import perf_counter as pc\n\ndef now():\n    return pc()\n"
        findings = lint(tmp_path, {"chariots/x.py": source}, select=["CHR003"])
        assert codes(findings) == ["CHR003"]

    def test_wall_clock_outside_sim_scope_is_fine(self, tmp_path):
        findings = lint(
            tmp_path,
            {"bench/timer.py": "import time\n\ndef now():\n    return time.time()\n"},
            select=["CHR003"],
        )
        assert findings == []

    def test_noqa_suppresses_the_line(self, tmp_path):
        source = (
            "import time\n\n"
            "def now():\n"
            "    return time.time()  # chariots: noqa=CHR003\n"
        )
        findings = lint(tmp_path, {"sim/clock.py": source}, select=["CHR003"])
        assert findings == []

    def test_bare_noqa_suppresses_all_codes(self, tmp_path):
        source = (
            "import time, random\n\n"
            "def jitter():\n"
            "    return time.time() + random.random()  # chariots: noqa\n"
        )
        findings = lint(
            tmp_path, {"sim/clock.py": source}, select=["CHR003", "CHR004"]
        )
        assert findings == []

    def test_noqa_for_other_code_does_not_suppress(self, tmp_path):
        source = (
            "import time\n\n"
            "def now():\n"
            "    return time.time()  # chariots: noqa=CHR004\n"
        )
        findings = lint(tmp_path, {"sim/clock.py": source}, select=["CHR003"])
        assert codes(findings) == ["CHR003"]


# --------------------------------------------------------------------- #
# CHR004 — unseeded randomness
# --------------------------------------------------------------------- #


class TestUnseededRandomRule:
    def test_global_random_fires(self, tmp_path):
        source = "import random\n\ndef roll():\n    return random.random()\n"
        findings = lint(tmp_path, {"chaos/dice.py": source}, select=["CHR004"])
        assert codes(findings) == ["CHR004"]

    def test_unseeded_random_instance_fires(self, tmp_path):
        source = "import random\n\nrng = random.Random()\n"
        findings = lint(tmp_path, {"chaos/dice.py": source}, select=["CHR004"])
        assert codes(findings) == ["CHR004"]
        assert "without a seed" in findings[0].message

    def test_seeded_random_instance_is_fine(self, tmp_path):
        source = "import random\n\nrng = random.Random(42)\n"
        findings = lint(tmp_path, {"chaos/dice.py": source}, select=["CHR004"])
        assert findings == []

    def test_os_urandom_fires(self, tmp_path):
        source = "import os\n\ndef token():\n    return os.urandom(8)\n"
        findings = lint(tmp_path, {"flstore/token.py": source}, select=["CHR004"])
        assert codes(findings) == ["CHR004"]


# --------------------------------------------------------------------- #
# CHR005 — iteration order
# --------------------------------------------------------------------- #


class TestIterationOrderRule:
    def test_iterating_a_set_call_fires(self, tmp_path):
        source = "def f(items):\n    for x in set(items):\n        print(x)\n"
        findings = lint(tmp_path, {"sim/iter.py": source}, select=["CHR005"])
        assert codes(findings) == ["CHR005"]

    def test_sorted_set_is_fine(self, tmp_path):
        source = "def f(items):\n    for x in sorted(set(items)):\n        print(x)\n"
        findings = lint(tmp_path, {"sim/iter.py": source}, select=["CHR005"])
        assert findings == []

    def test_unsorted_listdir_fires(self, tmp_path):
        source = "import os\n\ndef f(d):\n    for x in os.listdir(d):\n        print(x)\n"
        findings = lint(tmp_path, {"flstore/scan.py": source}, select=["CHR005"])
        assert codes(findings) == ["CHR005"]

    def test_sorted_listdir_is_fine(self, tmp_path):
        source = (
            "import os\n\ndef f(d):\n    for x in sorted(os.listdir(d)):\n"
            "        print(x)\n"
        )
        findings = lint(tmp_path, {"flstore/scan.py": source}, select=["CHR005"])
        assert findings == []

    def test_set_comprehension_generator_fires(self, tmp_path):
        source = "def f(items):\n    return [x for x in {i for i in items}]\n"
        findings = lint(tmp_path, {"core/comp.py": source}, select=["CHR005"])
        assert codes(findings) == ["CHR005"]


# --------------------------------------------------------------------- #
# CHR006 — blocking calls in async defs
# --------------------------------------------------------------------- #


class TestBlockingAsyncRule:
    def test_time_sleep_in_async_net_handler_fires(self, tmp_path):
        source = (
            "import time\n\nasync def handle():\n    time.sleep(1)\n"
        )
        findings = lint(tmp_path, {"net/srv.py": source}, select=["CHR006"])
        assert codes(findings) == ["CHR006"]
        assert "asyncio.sleep" in findings[0].message

    def test_asyncio_sleep_is_fine(self, tmp_path):
        source = "import asyncio\n\nasync def handle():\n    await asyncio.sleep(1)\n"
        findings = lint(tmp_path, {"net/srv.py": source}, select=["CHR006"])
        assert findings == []

    def test_sync_def_in_net_is_not_checked(self, tmp_path):
        source = "import time\n\ndef warmup():\n    time.sleep(1)\n"
        findings = lint(tmp_path, {"net/srv.py": source}, select=["CHR006"])
        assert findings == []

    def test_async_blocking_outside_net_is_out_of_scope(self, tmp_path):
        source = "import time\n\nasync def handle():\n    time.sleep(1)\n"
        findings = lint(tmp_path, {"apps/app.py": source}, select=["CHR006"])
        assert findings == []

    def test_open_inside_async_fires_once(self, tmp_path):
        source = (
            "async def handle(path):\n"
            "    async def inner():\n"
            "        return open(path).read()\n"
            "    return await inner()\n"
        )
        findings = lint(tmp_path, {"net/srv.py": source}, select=["CHR006"])
        assert codes(findings) == ["CHR006"]  # deduped across nesting


# --------------------------------------------------------------------- #
# CHR007 — slots on hot-path dataclasses
# --------------------------------------------------------------------- #


class TestSlotsRule:
    def test_bare_dataclass_in_messages_module_fires(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Envelope:\n    seq: int\n"
        )
        findings = lint(tmp_path, {"proto/messages.py": source}, select=["CHR007"])
        assert codes(findings) == ["CHR007"]

    def test_slots_true_is_fine(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass(slots=True)\nclass Envelope:\n    seq: int\n"
        )
        findings = lint(tmp_path, {"proto/messages.py": source}, select=["CHR007"])
        assert findings == []

    def test_explicit_slots_assignment_is_fine(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Base:\n    __slots__ = ()\n"
        )
        findings = lint(tmp_path, {"proto/messages.py": source}, select=["CHR007"])
        assert findings == []

    def test_non_messages_module_is_out_of_scope(self, tmp_path):
        source = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Config:\n    value: int\n"
        )
        findings = lint(tmp_path, {"proto/config.py": source}, select=["CHR007"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR008 — typed public API
# --------------------------------------------------------------------- #


class TestTypedApiRule:
    def test_missing_return_annotation_fires(self, tmp_path):
        source = "def head(log):\n    return log[-1]\n"
        findings = lint(tmp_path, {"core/log.py": source}, select=["CHR008"])
        assert len(findings) == 2  # return + parameter
        assert all(f.code == "CHR008" for f in findings)

    def test_fully_annotated_def_is_fine(self, tmp_path):
        source = "def head(log: list) -> int:\n    return log[-1]\n"
        findings = lint(tmp_path, {"core/log.py": source}, select=["CHR008"])
        assert findings == []

    def test_private_defs_and_out_of_package_modules_are_exempt(self, tmp_path):
        # Every repro.* package is typed now; the remaining exemptions are
        # private defs and modules outside any typed package (scratch
        # scripts at the scan root).
        source = "def _internal(x):\n    return x\n"
        findings = lint(
            tmp_path,
            {"core/log.py": source, "scratch.py": "def f(x):\n    return x\n"},
            select=["CHR008"],
        )
        assert findings == []

    def test_every_package_is_typed(self, tmp_path):
        # sim/ was the last lenient package; its promotion must hold.
        findings = lint(
            tmp_path,
            {"sim/free.py": "def f(x):\n    return x\n"},
            select=["CHR008"],
        )
        assert len(findings) == 2  # missing return + unannotated param

    def test_self_is_not_required_to_be_annotated(self, tmp_path):
        source = (
            "class Log:\n"
            "    def head(self) -> int:\n"
            "        return 0\n"
        )
        findings = lint(tmp_path, {"flstore/log.py": source}, select=["CHR008"])
        assert findings == []


# --------------------------------------------------------------------- #
# Baseline mechanics
# --------------------------------------------------------------------- #


class TestBaseline:
    def _finding(self, message="wall-clock call time.time()"):
        return Finding("CHR003", "sim/clock.py", 4, 11, message)

    def test_round_trip(self, tmp_path):
        findings = [self._finding(), self._finding()]
        path = tmp_path / "baseline.json"
        path.write_text(dump_baseline(findings))
        assert load_baseline(path) == {findings[0].fingerprint(): 2}

    def test_apply_baseline_respects_multiplicity(self):
        findings = [self._finding(), self._finding(), self._finding()]
        baseline = {self._finding().fingerprint(): 2}
        fresh, suppressed = apply_baseline(findings, baseline)
        assert suppressed == 2
        assert len(fresh) == 1

    def test_baseline_is_line_number_independent(self):
        moved = Finding("CHR003", "sim/clock.py", 99, 0, self._finding().message)
        fresh, suppressed = apply_baseline(
            [moved], {self._finding().fingerprint(): 1}
        )
        assert fresh == [] and suppressed == 1

    def test_missing_baseline_file_loads_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_baselined_fixture_run_exits_clean(self, tmp_path, capsys):
        root = tmp_path / "proj" / "sim"
        root.mkdir(parents=True)
        (root / "clock.py").write_text(
            "import time\n\ndef now() -> float:\n    return time.time()\n"
        )
        baseline_path = tmp_path / "baseline.json"
        # First run writes the baseline; second run is clean against it.
        assert (
            analysis_main(
                [
                    str(tmp_path / "proj"),
                    "--baseline",
                    str(baseline_path),
                    "--write-baseline",
                ]
            )
            == 0
        )
        assert (
            analysis_main(
                [str(tmp_path / "proj"), "--baseline", str(baseline_path)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 baselined" in out


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "ok.py").write_text("X = 1\n")
        assert analysis_main([str(root)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one_and_render_locations(self, tmp_path, capsys):
        root = tmp_path / "proj" / "sim"
        root.mkdir(parents=True)
        (root / "clock.py").write_text(
            "import time\n\ndef now() -> float:\n    return time.time()\n"
        )
        assert analysis_main([str(tmp_path / "proj")]) == 1
        out = capsys.readouterr().out
        assert "sim/clock.py:4" in out and "CHR003" in out

    def test_json_format(self, tmp_path, capsys):
        root = tmp_path / "proj" / "sim"
        root.mkdir(parents=True)
        (root / "clock.py").write_text(
            "import time\n\ndef now() -> float:\n    return time.time()\n"
        )
        assert analysis_main([str(tmp_path / "proj"), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "CHR003"

    def test_select_unknown_code_is_usage_error(self, tmp_path, capsys):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "ok.py").write_text("X = 1\n")
        assert analysis_main([str(root), "--select", "CHR999"]) == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        assert analysis_main([str(tmp_path / "missing")]) == 2

    def test_list_rules_names_every_code(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in rules_by_code():
            assert code in out


# --------------------------------------------------------------------- #
# The committed tree and baseline
# --------------------------------------------------------------------- #


class TestCommittedTree:
    def test_src_is_clean_under_every_rule(self):
        findings = run_rules(scan([REPO_ROOT / "src"]))
        assert findings == [], [f.render() for f in findings]

    def test_committed_baseline_matches_fresh_run(self):
        committed = (REPO_ROOT / "analysis-baseline.json").read_text()
        fresh = dump_baseline(run_rules(scan([REPO_ROOT / "src"])))
        assert committed == fresh

    def test_protocol_and_determinism_rules_need_no_baseline(self):
        """The acceptance bar: CHR001/CHR002 (protocol) and CHR003-CHR005
        (determinism) pass with an empty baseline on the real tree."""
        findings = run_rules(
            scan([REPO_ROOT / "src"]),
            select=["CHR001", "CHR002", "CHR003", "CHR004", "CHR005"],
        )
        assert findings == []

    def test_concurrency_and_flow_rules_need_no_baseline(self):
        """PR 4's acceptance bar: the interprocedural rules (CHR009-CHR013)
        pass with an empty baseline on the real tree."""
        findings = run_rules(
            scan([REPO_ROOT / "src"]),
            select=["CHR009", "CHR010", "CHR011", "CHR012", "CHR013"],
        )
        assert findings == [], [f.render() for f in findings]

    def test_reply_and_supervision_rules_need_no_baseline(self):
        """This PR's acceptance bar: CHR014 (sockets), CHR015 (reply shapes)
        and CHR016 (supervisor protocol) pass with an empty baseline.
        CHR017 only audits on full runs and is covered by
        test_src_is_clean_under_every_rule."""
        findings = run_rules(
            scan([REPO_ROOT / "src"]),
            select=["CHR014", "CHR015", "CHR016"],
        )
        assert findings == [], [f.render() for f in findings]

    def test_committed_baseline_is_empty(self):
        """Everything found gets fixed, not baselined: the committed
        baseline must stay empty (CI enforces the same invariant)."""
        payload = json.loads((REPO_ROOT / "analysis-baseline.json").read_text())
        assert payload["findings"] == {}


# --------------------------------------------------------------------- #
# CHR009 — unbounded stage buffers
# --------------------------------------------------------------------- #

_STAGE_UNBOUNDED = """\
class Stage:
    def __init__(self):
        self._pending = []

    def on_message(self, sender, message):
        self._enqueue(message)

    def _enqueue(self, message):
        self._pending.append(message)
"""


class TestBufferRule:
    def test_unbounded_append_on_hot_path_fires(self, tmp_path):
        findings = lint(
            tmp_path, {"chariots/stage.py": _STAGE_UNBOUNDED}, select=["CHR009"]
        )
        assert codes(findings) == ["CHR009"]
        assert "_pending" in findings[0].message
        assert "_enqueue" in findings[0].message  # reached through the helper

    def test_len_guard_anywhere_in_class_suppresses(self, tmp_path):
        guarded = _STAGE_UNBOUNDED.replace(
            "        self._pending.append(message)",
            "        if len(self._pending) >= 10:\n"
            "            return\n"
            "        self._pending.append(message)",
        )
        findings = lint(
            tmp_path, {"chariots/stage.py": guarded}, select=["CHR009"]
        )
        assert findings == []

    def test_bounded_by_directive_on_init_suppresses(self, tmp_path):
        declared = _STAGE_UNBOUNDED.replace(
            "self._pending = []",
            "self._pending = []  # chariots: bounded-by=token-circulation",
        )
        findings = lint(
            tmp_path, {"chariots/stage.py": declared}, select=["CHR009"]
        )
        assert findings == []

    def test_deque_maxlen_is_bounded_by_construction(self, tmp_path):
        source = _STAGE_UNBOUNDED.replace(
            "self._pending = []", "self._pending = deque(maxlen=64)"
        )
        findings = lint(
            tmp_path,
            {"chariots/stage.py": "from collections import deque\n\n" + source},
            select=["CHR009"],
        )
        assert findings == []

    def test_append_outside_on_message_reach_is_clean(self, tmp_path):
        source = _STAGE_UNBOUNDED.replace(
            "    def on_message(self, sender, message):\n"
            "        self._enqueue(message)\n",
            "    def on_message(self, sender, message):\n"
            "        pass\n",
        )
        findings = lint(
            tmp_path, {"chariots/stage.py": source}, select=["CHR009"]
        )
        assert findings == []

    def test_non_stage_packages_are_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path, {"apps/stage.py": _STAGE_UNBOUNDED}, select=["CHR009"]
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR010 — await-point atomicity
# --------------------------------------------------------------------- #

_RACY_CONN = """\
class Conn:
    def __init__(self, opener):
        self._opener = opener
        self._sock = None

    async def connect(self):
        if self._sock is None:
            self._sock = await self._opener()
"""


class TestAtomicityRule:
    def test_seeded_read_await_write_race_fires(self, tmp_path):
        findings = lint(tmp_path, {"net/conn.py": _RACY_CONN}, select=["CHR010"])
        assert codes(findings) == ["CHR010"]
        assert "_sock" in findings[0].message
        assert "connect" in findings[0].message

    def test_write_after_await_through_helper_fires(self, tmp_path):
        source = _RACY_CONN + (
            "\n"
            "    async def restart(self):\n"
            "        if self._sock is None:\n"
            "            return\n"
            "        await self.flush()\n"
            "        self._teardown()\n"
            "\n"
            "    def _teardown(self):\n"
            "        self._sock = None\n"
        )
        findings = lint(tmp_path, {"net/conn.py": source}, select=["CHR010"])
        assert any("restart" in f.message for f in findings)

    def test_capture_and_null_before_await_is_clean(self, tmp_path):
        source = (
            "class Conn:\n"
            "    def __init__(self):\n"
            "        self._sock = None\n"
            "\n"
            "    async def close(self):\n"
            "        sock, self._sock = self._sock, None\n"
            "        if sock is not None:\n"
            "            await sock.close()\n"
        )
        findings = lint(tmp_path, {"net/conn.py": source}, select=["CHR010"])
        assert findings == []

    def test_lock_region_is_exempt(self, tmp_path):
        source = (
            "class Conn:\n"
            "    def __init__(self, opener):\n"
            "        self._lock = make_lock()\n"
            "        self._opener = opener\n"
            "        self._sock = None\n"
            "\n"
            "    async def connect(self):\n"
            "        async with self._lock:\n"
            "            if self._sock is None:\n"
            "                self._sock = await self._opener()\n"
        )
        findings = lint(tmp_path, {"net/conn.py": source}, select=["CHR010"])
        assert findings == []

    def test_locked_suffix_documents_caller_holds_lock(self, tmp_path):
        source = _RACY_CONN.replace("async def connect(", "async def connect_locked(")
        findings = lint(tmp_path, {"net/conn.py": source}, select=["CHR010"])
        assert findings == []

    def test_outside_net_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path, {"chariots/conn.py": _RACY_CONN}, select=["CHR010"]
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR011 — dict-request dispatch exhaustiveness
# --------------------------------------------------------------------- #

_NET_SERVER = """\
PING_TYPE = "ping"

class Server:
    async def handle(self, request):
        kind = request["type"]
        if kind == PING_TYPE:
            return {"ok": True}
        if kind == "status":
            return {"up": True}
        return None
"""

_NET_CLIENT = """\
class Client:
    async def ping(self, conn):
        return await conn.request({"type": "ping"})

    async def status(self, conn):
        message = {"type": "status"}
        return await conn.request(message)
"""


class TestDispatchRule:
    def test_balanced_request_surface_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"net/server.py": _NET_SERVER, "net/client.py": _NET_CLIENT},
            select=["CHR011"],
        )
        assert findings == []

    def test_one_way_posts_count_as_sends(self, tmp_path):
        """``link.post({...})`` and ``self._post(link, message)`` — the kept
        gossip / postings links — send a request type like ``request`` does."""
        client = (
            "class Gossiper:\n"
            "    async def tick(self, link):\n"
            '        await link.post({"type": "ping"})\n'
            '        message = {"type": "status"}\n'
            "        await self._post(link, message)\n"
        )
        findings = lint(
            tmp_path,
            {"net/server.py": _NET_SERVER, "net/client.py": client},
            select=["CHR011"],
        )
        assert findings == []

    def test_sent_but_unhandled_type_fires_at_send_site(self, tmp_path):
        client = _NET_CLIENT + (
            "\n"
            "    async def probe(self, conn):\n"
            '        return await conn.request({"type": "probe"})\n'
        )
        findings = lint(
            tmp_path,
            {"net/server.py": _NET_SERVER, "net/client.py": client},
            select=["CHR011"],
        )
        assert codes(findings) == ["CHR011"]
        assert '"probe"' in findings[0].message
        assert findings[0].path.endswith("client.py")

    def test_handled_but_never_sent_type_fires_at_branch(self, tmp_path):
        server = _NET_SERVER.replace(
            "        return None\n",
            '        if kind == "drain":\n'
            "            return {}\n"
            "        return None\n",
        )
        findings = lint(
            tmp_path,
            {"net/server.py": server, "net/client.py": _NET_CLIENT},
            select=["CHR011"],
        )
        assert codes(findings) == ["CHR011"]
        assert '"drain"' in findings[0].message
        assert findings[0].path.endswith("server.py")

    def test_scan_without_servers_is_silent(self, tmp_path):
        findings = lint(
            tmp_path, {"net/client.py": _NET_CLIENT}, select=["CHR011"]
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR012 — dead/orphan message kinds
# --------------------------------------------------------------------- #

_PROTO_DRIVER = """\
from .messages import Carrier, Inner, Ping, Pong

def make_all():
    return [Ping(1), Pong(2), Carrier(Inner(3))]
"""


class TestDeadMessageRule:
    def test_fully_wired_registry_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/driver.py": _PROTO_DRIVER,
            },
            select=["CHR012"],
        )
        assert findings == []

    def test_constructed_but_unroutable_message_fires(self, tmp_path):
        messages = _PROTO_MESSAGES + (
            "\n@dataclass(slots=True)\nclass Ghost:\n    seq: int\n"
        )
        driver = _PROTO_DRIVER.replace(
            "    return [", "    Ghost(9)\n    return ["
        ).replace(
            "from .messages import Carrier, Inner, Ping, Pong",
            "from .messages import Carrier, Ghost, Inner, Ping, Pong",
        )
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": messages,
                "proto/codec.py": _PROTO_CODEC,
                "proto/driver.py": driver,
            },
            select=["CHR012"],
        )
        assert codes(findings) == ["CHR012"]
        assert "Ghost" in findings[0].message
        assert findings[0].path.endswith("messages.py")

    def test_registered_but_never_constructed_fires_at_registration(self, tmp_path):
        driver = _PROTO_DRIVER.replace("Pong(2), ", "")
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/driver.py": driver,
            },
            select=["CHR012"],
        )
        assert codes(findings) == ["CHR012"]
        assert "Pong" in findings[0].message
        assert findings[0].path.endswith("codec.py")

    def test_constructing_a_subclass_counts_as_constructing_the_type(self, tmp_path):
        """The real tree's case: only ``LazyRecordBatch(...)`` in the binary
        decoder constructs a ``RecordBatch`` inside ``src/``."""
        driver = _PROTO_DRIVER.replace(
            "Pong(2), ", "LazyPong(2), "
        ) + "\nclass LazyPong(Pong):\n    pass\n"
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": _PROTO_CODEC,
                "proto/driver.py": driver,
            },
            select=["CHR012"],
        )
        assert findings == []

    def test_noqa_at_registration_site_suppresses(self, tmp_path):
        driver = _PROTO_DRIVER.replace("Pong(2), ", "")
        codec = _PROTO_CODEC.replace(
            "    Pong,\n", "    Pong,  # chariots: noqa=CHR012\n"
        )
        findings = lint(
            tmp_path,
            {
                "proto/messages.py": _PROTO_MESSAGES,
                "proto/codec.py": codec,
                "proto/driver.py": driver,
            },
            select=["CHR012"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR013 — exception swallowing
# --------------------------------------------------------------------- #


class TestSwallowRule:
    def test_bare_except_pass_fires(self, tmp_path):
        source = (
            "def run(task):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = lint(tmp_path, {"chariots/worker.py": source}, select=["CHR013"])
        assert codes(findings) == ["CHR013"]

    def test_logging_call_counts_as_handling(self, tmp_path):
        source = (
            "def run(task, journal):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception:\n"
            "        journal.log_failure(task)\n"
        )
        findings = lint(tmp_path, {"chariots/worker.py": source}, select=["CHR013"])
        assert findings == []

    def test_using_bound_exception_counts_as_handling(self, tmp_path):
        source = (
            "def run(task, replies):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception as exc:\n"
            "        replies.append(exc)\n"
        )
        findings = lint(tmp_path, {"chariots/worker.py": source}, select=["CHR013"])
        assert findings == []

    def test_reraise_counts_as_handling(self, tmp_path):
        source = (
            "def run(task):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception:\n"
            "        raise\n"
        )
        findings = lint(tmp_path, {"runtime/worker.py": source}, select=["CHR013"])
        assert findings == []

    def test_narrow_except_is_out_of_scope(self, tmp_path):
        source = (
            "def run(mapping, key):\n"
            "    try:\n"
            "        return mapping[key]\n"
            "    except KeyError:\n"
            "        return None\n"
        )
        findings = lint(tmp_path, {"flstore/worker.py": source}, select=["CHR013"])
        assert findings == []

    def test_outside_pipeline_packages_is_clean(self, tmp_path):
        source = (
            "def run(task):\n"
            "    try:\n"
            "        task()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        findings = lint(tmp_path, {"apps/worker.py": source}, select=["CHR013"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR014 — blocking socket reads without a deadline
# --------------------------------------------------------------------- #


class TestBlockingSocketRule:
    def test_bare_recv_in_runtime_fires(self, tmp_path):
        source = (
            "def read_frame(sock):\n"
            "    return sock.recv(4096)\n"
        )
        findings = lint(tmp_path, {"runtime/conn.py": source}, select=["CHR014"])
        assert codes(findings) == ["CHR014"]
        assert ".recv()" in findings[0].message

    def test_bare_accept_in_net_fires(self, tmp_path):
        source = (
            "def wait_for_peer(listener):\n"
            "    conn, addr = listener.accept()\n"
            "    return conn\n"
        )
        findings = lint(tmp_path, {"net/server.py": source}, select=["CHR014"])
        assert codes(findings) == ["CHR014"]

    def test_settimeout_in_function_is_clean(self, tmp_path):
        source = (
            "def read_frame(sock, timeout):\n"
            "    sock.settimeout(timeout)\n"
            "    return sock.recv(4096)\n"
        )
        findings = lint(tmp_path, {"runtime/conn.py": source}, select=["CHR014"])
        assert findings == []

    def test_setblocking_on_owning_class_is_clean(self, tmp_path):
        source = (
            "class Conn:\n"
            "    def __init__(self, sock):\n"
            "        sock.setblocking(False)\n"
            "        self.sock = sock\n"
            "\n"
            "    def pump(self):\n"
            "        return self.sock.recv(4096)\n"
        )
        findings = lint(tmp_path, {"runtime/conn.py": source}, select=["CHR014"])
        assert findings == []

    def test_guard_in_sibling_function_does_not_leak(self, tmp_path):
        source = (
            "def configure(sock):\n"
            "    sock.settimeout(5.0)\n"
            "\n"
            "def read_frame(sock):\n"
            "    return sock.recv(4096)\n"
        )
        findings = lint(tmp_path, {"runtime/conn.py": source}, select=["CHR014"])
        assert codes(findings) == ["CHR014"]

    def test_noqa_names_the_invariant(self, tmp_path):
        source = (
            "def read_frame(sock):\n"
            "    return sock.recv(4096)  # chariots: noqa=CHR014\n"
        )
        findings = lint(tmp_path, {"runtime/conn.py": source}, select=["CHR014"])
        assert findings == []

    def test_outside_socket_packages_is_clean(self, tmp_path):
        source = (
            "def read_frame(sock):\n"
            "    return sock.recv(4096)\n"
        )
        findings = lint(tmp_path, {"bench/probe.py": source}, select=["CHR014"])
        assert findings == []

    def test_shipped_tree_is_baseline_free_for_chr014(self):
        findings = run_rules(scan([REPO_ROOT / "src"]), select=["CHR014"])
        assert findings == []


# --------------------------------------------------------------------- #
# The project model and message-flow graph
# --------------------------------------------------------------------- #


class TestFlowGraph:
    def test_model_is_cached_per_scan(self):
        project = scan([REPO_ROOT / "src"])
        assert build_model(project) is build_model(project)

    def test_every_server_request_branch_is_exercised(self):
        """The acceptance bar: every request['type'] branch in net/server.py
        corresponds to a type some client sends, and vice versa."""
        model = build_model(scan([REPO_ROOT / "src"]))
        assert model.has_request_handlers
        assert set(model.request_sent) == set(model.request_handled)
        for kind in (
            "session",
            "append",
            "read_lid",
            "read_rules",
            "head",
            "gossip",
            "index_update",
            "lookup",
        ):
            assert kind in model.request_handled, kind

    def test_graph_dict_shape(self, tmp_path):
        root = tmp_path / "proj"
        for rel, source in {
            "proto/messages.py": _PROTO_MESSAGES,
            "proto/codec.py": _PROTO_CODEC,
            "proto/driver.py": _PROTO_DRIVER,
            "net/server.py": _NET_SERVER,
            "net/client.py": _NET_CLIENT,
        }.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        graph = build_model(scan([root])).graph_dict()
        assert graph["version"] == 1
        assert graph["messages"]["Ping"]["registered"] is True
        assert graph["messages"]["Ping"]["constructed_in"] == [
            {"module": "proto/driver.py", "line": 4}
        ]
        assert graph["messages"]["Inner"]["embedded_in"] == ["Carrier"]
        assert set(graph["requests"]) == {"ping", "status"}
        assert graph["requests"]["ping"]["sent_from"][0]["module"] == "net/client.py"
        assert graph["requests"]["ping"]["handled_in"][0]["module"] == "net/server.py"
        # Reply-shape surface (CHR015's inputs) rides along in the export.
        assert graph["requests"]["ping"]["reply_keys"] == ["ok"]
        assert graph["requests"]["ping"]["reply_opaque"] is False

    def test_graph_dot_renders(self):
        dot = build_model(scan([REPO_ROOT / "src"])).graph_dot()
        assert dot.startswith("digraph message_flow {")
        assert dot.rstrip().endswith("}")
        assert '"msg:AdmittedBatch"' in dot
        assert '"req:append"' in dot


class TestGraphCli:
    def _fixture(self, tmp_path):
        root = tmp_path / "proj"
        for rel, source in {
            "net/server.py": _NET_SERVER,
            "net/client.py": _NET_CLIENT,
        }.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(source)
        return root

    def test_graph_json_round_trips(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        assert analysis_main([str(root), "--graph", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["requests"]) == {"ping", "status"}

    def test_graph_dot_renders(self, tmp_path, capsys):
        root = self._fixture(tmp_path)
        assert analysis_main([str(root), "--graph", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph message_flow {")


# --------------------------------------------------------------------- #
# Multi-hop dataflow walk (CHR010 depth, cycle safety)
# --------------------------------------------------------------------- #

_DEEP_RACE = """\
class Conn:
    def __init__(self, opener):
        self._opener = opener
        self._sock = None

    async def reconnect(self):
        if self._sock is None:
            await self._refresh()

    async def _refresh(self):
        await self._reopen()

    async def _reopen(self):
        self._sock = await self._opener()
"""


class TestMultiHopWalk:
    def test_race_two_helper_levels_deep_fires(self, tmp_path):
        findings = lint(tmp_path, {"net/conn.py": _DEEP_RACE}, select=["CHR010"])
        assert codes(findings) == ["CHR010"]
        assert "reconnect" in findings[0].message
        assert "_sock" in findings[0].message

    def test_depth_one_walk_provably_misses_it(self):
        """The historical one-level splice never sees the write two helper
        levels down — the depth bound is what makes the deep fixture fire."""
        cls = ast.parse(_DEEP_RACE).body[0]
        methods = class_methods(cls)
        summaries = {
            name: method_events(func, methods) for name, func in methods.items()
        }
        deep = expand_events(summaries["reconnect"], summaries)
        shallow = expand_events(summaries["reconnect"], summaries, depth=1)
        assert any(e.kind == WRITE and e.attr == "_sock" for e in deep)
        assert not any(e.kind == WRITE for e in shallow)

    def test_mutually_recursive_helpers_terminate(self, tmp_path):
        source = (
            "class Conn:\n"
            "    def __init__(self):\n"
            "        self._sock = None\n"
            "\n"
            "    async def ping(self):\n"
            "        await self.pong()\n"
            "\n"
            "    async def pong(self):\n"
            "        await self.ping()\n"
        )
        cls = ast.parse(source).body[0]
        methods = class_methods(cls)
        summaries = {
            name: method_events(func, methods) for name, func in methods.items()
        }
        # Must terminate (splice-stack cycle detection), not recurse forever.
        events = expand_events(summaries["ping"], summaries)
        assert all(e.kind != "call" for e in events)
        # And the rule stays clean on it rather than hanging.
        findings = lint(tmp_path, {"net/conn.py": source}, select=["CHR010"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR015 — reply-shape exhaustiveness
# --------------------------------------------------------------------- #

_REPLY_SERVER = """\
class Server:
    async def handle(self, request):
        kind = request["type"]
        if kind == "ping":
            return {"type": "pong", "seq": 1}
        if kind == "status":
            return {"type": "status_reply", "up": True}
        return {"type": "error", "error": "unknown request"}
"""

_REPLY_CLIENT = """\
class Client:
    async def ping(self, conn):
        response = await conn.request({"type": "ping"})
        return response["seq"]

    async def status(self, conn):
        response = await conn.request({"type": "status"})
        return response["up"]
"""


class TestReplyShapeRule:
    def test_balanced_reply_surface_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"net/server.py": _REPLY_SERVER, "net/client.py": _REPLY_CLIENT},
            select=["CHR015"],
        )
        assert findings == []

    def test_misspelled_reply_key_fires_both_ends(self, tmp_path):
        client = _REPLY_CLIENT.replace('response["seq"]', 'response["sequence"]')
        findings = lint(
            tmp_path,
            {"net/server.py": _REPLY_SERVER, "net/client.py": client},
            select=["CHR015"],
        )
        assert codes(findings) == ["CHR015", "CHR015"]
        read_miss = next(f for f in findings if f.path.endswith("client.py"))
        dead_key = next(f for f in findings if f.path.endswith("server.py"))
        assert '"sequence"' in read_miss.message and "KeyError" in read_miss.message
        assert '"seq"' in dead_key.message and "dead reply surface" in dead_key.message

    def test_soft_get_read_counts_and_never_keyerrors(self, tmp_path):
        client = _REPLY_CLIENT.replace(
            'response["seq"]', 'response.get("seq")'
        )
        findings = lint(
            tmp_path,
            {"net/server.py": _REPLY_SERVER, "net/client.py": client},
            select=["CHR015"],
        )
        assert findings == []

    def test_opaque_reply_branch_is_skipped(self, tmp_path):
        server = _REPLY_SERVER.replace(
            '            return {"type": "pong", "seq": 1}\n',
            "            return self._build_pong(request)\n",
        )
        findings = lint(
            tmp_path,
            {"net/server.py": server, "net/client.py": _REPLY_CLIENT},
            select=["CHR015"],
        )
        assert findings == []

    def test_unsent_request_types_are_not_checked(self, tmp_path):
        server = _REPLY_SERVER.replace(
            '        return {"type": "error", "error": "unknown request"}\n',
            '        if kind == "drain":\n'
            '            return {"type": "drained", "junk": 1}\n'
            '        return {"type": "error", "error": "unknown request"}\n',
        )
        findings = lint(
            tmp_path,
            {"net/server.py": server, "net/client.py": _REPLY_CLIENT},
            select=["CHR015"],
        )
        assert findings == []

    def test_scan_without_servers_is_silent(self, tmp_path):
        findings = lint(
            tmp_path, {"net/client.py": _REPLY_CLIENT}, select=["CHR015"]
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR016 — supervisor-protocol safety
# --------------------------------------------------------------------- #

_SEQ_NO_TRIM = """\
class Slot:
    def __init__(self):
        self.delivery_seq = 0
        self.unacked = []

    def admit(self, frame):
        self.delivery_seq += 1
        self.unacked.append(frame)
"""

_PARK_NO_COMMIT = """\
class Router:
    def __init__(self):
        self.emission_high = 0
        self.uncommitted = []

    def route(self, seq, frame):
        if self.emission_high != seq - 1:
            raise ValueError(seq)
        self.emission_high = seq
        self.uncommitted.append(frame)
"""

_EXIT_NO_TERMINAL = """\
class Supervisor:
    def __init__(self, procs):
        self.procs = procs
        self.notes = []

    def check(self):
        for proc in self.procs:
            if proc.exitcode is not None:
                self._note(proc)

    def _note(self, proc):
        self.notes.append(proc)
"""


class TestSupervisorProtocolRule:
    def test_untrimmed_sequenced_buffer_fires(self, tmp_path):
        findings = lint(
            tmp_path, {"runtime/slot.py": _SEQ_NO_TRIM}, select=["CHR016"]
        )
        assert codes(findings) == ["CHR016"]
        assert "'unacked'" in findings[0].message

    def test_trim_anywhere_in_class_is_clean(self, tmp_path):
        source = _SEQ_NO_TRIM + (
            "\n"
            "    def on_ack(self, count):\n"
            "        for _ in range(count):\n"
            "            self.unacked.pop(0)\n"
        )
        findings = lint(
            tmp_path, {"runtime/slot.py": source}, select=["CHR016"]
        )
        assert findings == []

    def test_reset_assignment_outside_init_is_clean(self, tmp_path):
        source = _SEQ_NO_TRIM + (
            "\n"
            "    def drain(self):\n"
            "        held, self.unacked = self.unacked, []\n"
            "        return held\n"
        )
        findings = lint(
            tmp_path, {"runtime/slot.py": source}, select=["CHR016"]
        )
        assert findings == []

    def test_init_assignment_does_not_count_as_trim(self, tmp_path):
        # The ``self.unacked = []`` in __init__ is initialisation, not an
        # ack path; the positive fixture must keep firing despite it.
        assert "self.unacked = []" in _SEQ_NO_TRIM
        findings = lint(
            tmp_path, {"runtime/slot.py": _SEQ_NO_TRIM}, select=["CHR016"]
        )
        assert codes(findings) == ["CHR016"]

    def test_parked_emissions_need_a_commit_or_drop_path(self, tmp_path):
        # The parent half of the group commit: the dense check advances
        # ``emission_high`` by plain assignment and parks the frame.
        findings = lint(
            tmp_path, {"runtime/router.py": _PARK_NO_COMMIT}, select=["CHR016"]
        )
        assert codes(findings) == ["CHR016"]
        assert "'uncommitted'" in findings[0].message

    def test_commit_and_crash_both_count_as_trims(self, tmp_path):
        for trim in ("self.uncommitted.popleft()", "self.uncommitted.clear()"):
            source = _PARK_NO_COMMIT + (
                "\n    def release(self):\n" f"        {trim}\n"
            )
            findings = lint(
                tmp_path, {"runtime/router.py": source}, select=["CHR016"]
            )
            assert findings == [], trim

    def test_real_runtime_parks_and_trims_uncommitted(self):
        """The fixtures above describe the real thing: ``_park`` is seen as
        a sequenced-emission path, and both trim paths exist."""
        from repro.analysis.rules.supervision import (
            _sequenced_buffers,
            _trimmed_buffers,
        )

        module = next(
            m
            for m in scan([REPO_ROOT / "src"])
            if m.relpath.endswith("runtime/multiproc/supervision.py")
        )
        cls = next(
            node
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef) and node.name == "Supervision"
        )
        methods = class_methods(cls)
        assert set(_sequenced_buffers(methods["_park"])) == {"uncommitted"}
        assert set(_sequenced_buffers(methods["_admit_frame"])) == {"unacked"}
        assert {"uncommitted", "unacked"} <= _trimmed_buffers(cls)

    def test_exitcode_without_terminal_fires(self, tmp_path):
        findings = lint(
            tmp_path, {"runtime/boss.py": _EXIT_NO_TERMINAL}, select=["CHR016"]
        )
        assert codes(findings) == ["CHR016"]
        assert "exitcode" in findings[0].message

    def test_respawn_within_hop_bound_is_clean(self, tmp_path):
        source = _EXIT_NO_TERMINAL.replace(
            "        self.notes.append(proc)\n",
            "        self._respawn(proc)\n"
            "\n"
            "    def _respawn(self, proc):\n"
            "        self.notes.append(proc)\n",
        )
        findings = lint(
            tmp_path, {"runtime/boss.py": source}, select=["CHR016"]
        )
        assert findings == []

    def test_failed_flag_store_is_a_terminal(self, tmp_path):
        source = _EXIT_NO_TERMINAL.replace(
            "        self.notes.append(proc)\n",
            "        self.failed = True\n",
        )
        findings = lint(
            tmp_path, {"runtime/boss.py": source}, select=["CHR016"]
        )
        assert findings == []

    def test_outside_runtime_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "chariots/slot.py": _SEQ_NO_TRIM,
                "net/boss.py": _EXIT_NO_TERMINAL,
            },
            select=["CHR016"],
        )
        assert findings == []


# --------------------------------------------------------------------- #
# CHR017 — dead noqa directives
# --------------------------------------------------------------------- #


class TestDeadNoqaRule:
    def test_dead_directive_fires_on_full_runs(self, tmp_path):
        findings = lint(
            tmp_path, {"sim/junk.py": "X = 1  # chariots: noqa=CHR003\n"}
        )
        assert codes(findings) == ["CHR017"]
        assert "CHR003" in findings[0].message

    def test_live_directive_is_silent(self, tmp_path):
        source = (
            "import time\n"
            "\n"
            "def now() -> float:\n"
            "    return time.time()  # chariots: noqa=CHR003\n"
        )
        findings = lint(tmp_path, {"sim/clock.py": source})
        assert findings == []

    def test_directive_listing_chr017_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"sim/junk.py": "X = 1  # chariots: noqa=CHR003,CHR017\n"},
        )
        assert findings == []

    def test_docstring_mention_is_not_a_directive(self, tmp_path):
        source = (
            '"""Docs quoting the # chariots: noqa=CHR003 syntax in prose."""\n'
            "X = 1\n"
        )
        findings = lint(tmp_path, {"sim/doc.py": source})
        assert findings == []

    def test_selected_runs_skip_the_audit(self, tmp_path):
        findings = lint(
            tmp_path,
            {"sim/junk.py": "X = 1  # chariots: noqa=CHR003\n"},
            select=["CHR003"],
        )
        assert findings == []

    def test_dead_bare_directive_cannot_suppress_its_own_report(self, tmp_path):
        # A bare noqa suppresses every code — but CHR017 findings bypass
        # noqa filtering, so the dead directive is still reported.
        findings = lint(tmp_path, {"sim/junk.py": "X = 1  # chariots: noqa\n"})
        assert codes(findings) == ["CHR017"]
        assert "all rules" in findings[0].message


# --------------------------------------------------------------------- #
# Typed-surface consistency (CHR008 <-> pyproject <-> tree)
# --------------------------------------------------------------------- #


class TestTypedSurfaceConsistency:
    def test_typed_packages_match_pyproject_and_tree(self):
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        overrides = data["tool"]["mypy"]["overrides"]
        strict = [o for o in overrides if o.get("disallow_untyped_defs")]
        assert len(strict) == 1, "expected exactly one strict override block"
        from_pyproject = set()
        for module in strict[0]["module"]:
            assert module.startswith("repro.") and module.endswith(".*"), module
            from_pyproject.add(module[len("repro.") : -len(".*")])
        on_disk = {
            path.name
            for path in (REPO_ROOT / "src" / "repro").iterdir()
            if path.is_dir() and (path / "__init__.py").exists()
        }
        assert set(TYPED_PACKAGES) == from_pyproject == on_disk

    def test_no_lenient_mypy_default_remains(self):
        data = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        assert "ignore_errors" not in data["tool"]["mypy"]
        for override in data["tool"]["mypy"]["overrides"]:
            assert override.get("ignore_errors") is not True


# --------------------------------------------------------------------- #
# Call-graph acceptance over the real supervision hot path
# --------------------------------------------------------------------- #


class TestSupervisionCallGraph:
    def _runtime_class(self):
        source = SUPERVISION_SOURCE.read_text()
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and node.name == "Supervision":
                return node
        raise AssertionError("Supervision not found")

    def test_failure_detection_reaches_mark_down(self):
        graph = self_call_graph(self._runtime_class())
        reachable = reachable_within(graph, ["_detect_failures"], EXPAND_DEPTH)
        assert "_mark_worker_down" in reachable

    def test_hop_bound_is_real_on_the_supervision_path(self):
        """check_workers -> _respawn_worker -> _respawn_once needs two hops:
        the depth-1 frontier misses the second edge, depth 3 crosses it."""
        graph = self_call_graph(self._runtime_class())
        shallow = reachable_within(graph, ["check_workers"], 1)
        deep = reachable_within(graph, ["check_workers"], EXPAND_DEPTH)
        assert "_respawn_worker" in shallow
        assert "_respawn_once" not in shallow
        assert "_respawn_once" in deep


# --------------------------------------------------------------------- #
# CHR018 — cross-actor lost update
# --------------------------------------------------------------------- #

_XACTOR_RACE = """\
class Credit:
    def __init__(self, amount):
        self.amount = amount

class CreditReply:
    def __init__(self, total):
        self.total = total

class Banker:
    def on_message(self, sender, message):
        if isinstance(message, Credit):
            self.send(sender, CreditReply(message.amount + 1))

class Teller:
    def __init__(self):
        self.balance = 0

    def on_message(self, sender, message):
        if isinstance(message, CreditReply):
            self.balance = message.total
            return
        self.deposit(sender)

    def deposit(self, sender):
        snapshot = self.balance
        self.send(sender, Credit(snapshot))
"""


class TestCrossActorRaceRule:
    def test_blind_reply_overwrite_fires(self, tmp_path):
        findings = lint(tmp_path, {"app.py": _XACTOR_RACE}, select=["CHR018"])
        assert codes(findings) == ["CHR018"]
        message = findings[0].message
        assert "Teller" in message and "balance" in message
        assert "Credit" in message and "CreditReply" in message

    def test_merging_reply_handler_is_clean(self, tmp_path):
        source = _XACTOR_RACE.replace(
            "self.balance = message.total",
            "self.balance = self.balance + message.total",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR018"])
        assert findings == []

    def test_read_without_send_is_clean(self, tmp_path):
        source = _XACTOR_RACE.replace(
            "self.send(sender, Credit(snapshot))", "self.log(snapshot)"
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR018"])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        source = _XACTOR_RACE.replace(
            "self.balance = message.total",
            "self.balance = message.total  # chariots: noqa=CHR018",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR018"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR019 — silent state-guard drops
# --------------------------------------------------------------------- #

_SILENT_DROP = """\
class Tick:
    pass

class Clock:
    def on_message(self, sender, message):
        self.send(self.peer, Tick())

class Worker:
    def __init__(self):
        self.parked = False

    def on_message(self, sender, message):
        if self.parked:
            return
        if isinstance(message, Tick):
            self.advance()

    def advance(self):
        pass
"""


class TestSilentDropRule:
    def test_state_guard_with_bare_return_fires(self, tmp_path):
        findings = lint(tmp_path, {"app.py": _SILENT_DROP}, select=["CHR019"])
        assert codes(findings) == ["CHR019"]
        assert "Worker.on_message" in findings[0].message
        assert "Tick" in findings[0].message

    def test_counted_drop_is_clean(self, tmp_path):
        source = _SILENT_DROP.replace(
            "        if self.parked:\n            return\n",
            "        if self.parked:\n"
            "            self.dropped += 1\n"
            "            return\n",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR019"])
        assert findings == []

    def test_unprovable_arrival_is_clean(self, tmp_path):
        source = _SILENT_DROP.replace("self.send(self.peer, Tick())", "pass")
        findings = lint(tmp_path, {"app.py": source}, select=["CHR019"])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        source = _SILENT_DROP.replace(
            "if self.parked:",
            "if self.parked:  # chariots: noqa=CHR019",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR019"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR021 — backpressure deadlock cycles
# --------------------------------------------------------------------- #

_BACKPRESSURE_CYCLE = """\
class Up:
    pass

class Down:
    pass

class StageA:
    def __init__(self):
        self.queue = []
        self.limit = 4

    def on_message(self, sender, message):
        if isinstance(message, Up):
            if len(self.queue) >= self.limit:
                return
            self.queue.append(message)
            self.send(sender, Down())

class StageB:
    def __init__(self):
        self.pending = []
        self.max_pending = 4

    def on_message(self, sender, message):
        if isinstance(message, Down):
            if len(self.pending) >= self.max_pending:
                return
            self.pending.append(message)
            self.send(sender, Up())
"""


class TestBackpressureCycleRule:
    def test_all_refusable_ring_fires(self, tmp_path):
        findings = lint(
            tmp_path, {"app.py": _BACKPRESSURE_CYCLE}, select=["CHR021"]
        )
        assert codes(findings) == ["CHR021"]
        assert "StageA -> StageB -> StageA" in findings[0].message

    def test_one_always_consuming_edge_breaks_the_cycle(self, tmp_path):
        source = _BACKPRESSURE_CYCLE.replace(
            "            if len(self.pending) >= self.max_pending:\n"
            "                return\n",
            "",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR021"])
        assert findings == []

    def test_acyclic_refusable_edges_are_clean(self, tmp_path):
        source = _BACKPRESSURE_CYCLE.replace("self.send(sender, Up())", "pass")
        findings = lint(tmp_path, {"app.py": source}, select=["CHR021"])
        assert findings == []

    def test_noqa_suppresses(self, tmp_path):
        # The finding lands on the receiving branch of the cycle's first
        # edge (StageA -> StageB carries Down), so the directive goes there.
        source = _BACKPRESSURE_CYCLE.replace(
            "        if isinstance(message, Down):",
            "        if isinstance(message, Down):  # chariots: noqa=CHR021",
        )
        findings = lint(tmp_path, {"app.py": source}, select=["CHR021"])
        assert findings == []


# --------------------------------------------------------------------- #
# CHR016 — explicit drain/restart terminals
# --------------------------------------------------------------------- #

_EXIT_DRAIN = """\
class Supervisor:
    def check(self, wid, proc):
        if proc.exitcode is not None:
            self.drain_worker(wid)
"""


class TestSupervisionExplicitTerminals:
    def test_drain_worker_is_a_recognised_terminal(self, tmp_path):
        findings = lint(
            tmp_path, {"runtime/sup.py": _EXIT_DRAIN}, select=["CHR016"]
        )
        assert findings == []

    def test_restart_worker_is_a_recognised_terminal(self, tmp_path):
        source = _EXIT_DRAIN.replace("drain_worker", "restart_worker")
        findings = lint(
            tmp_path, {"runtime/sup.py": source}, select=["CHR016"]
        )
        assert findings == []

    def test_unlisted_drain_shorthand_still_fires(self, tmp_path):
        """Exact-name matching, not substring: a bare ``drain`` call is
        neither in TERMINAL_METHODS nor matched by the heuristic."""
        source = _EXIT_DRAIN.replace("self.drain_worker(wid)", "self.drain(wid)")
        findings = lint(
            tmp_path, {"runtime/sup.py": source}, select=["CHR016"]
        )
        assert codes(findings) == ["CHR016"]

    def test_terminal_methods_name_real_entry_points(self):
        from repro.analysis.rules.supervision import TERMINAL_METHODS

        source = SUPERVISION_SOURCE.read_text()
        for name in sorted(TERMINAL_METHODS):
            assert f"def {name}(" in source, name


# --------------------------------------------------------------------- #
# SARIF output
# --------------------------------------------------------------------- #


class TestSarifOutput:
    def _write(self, tmp_path, source):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "app.py").write_text(source)
        return root

    def test_findings_render_as_sarif(self, tmp_path, capsys):
        root = self._write(tmp_path, _XACTOR_RACE)
        code = analysis_main(
            [str(root), "--select", "CHR018", "--format", "sarif"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.analysis"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids) and "CHR018" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "CHR018"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert result["partialFingerprints"]["chariotsFingerprint/v1"]

    def test_sarif_columns_are_one_based(self, tmp_path):
        from repro.analysis.sarif import sarif_dict

        root = self._write(tmp_path, _XACTOR_RACE)
        findings = run_rules(scan([root]), select=["CHR018"])
        doc = sarif_dict(findings)
        region = doc["runs"][0]["results"][0]["locations"][0][
            "physicalLocation"
        ]["region"]
        assert region["startColumn"] == findings[0].col + 1

    def test_clean_tree_is_exit_zero_with_empty_results(self, tmp_path, capsys):
        root = self._write(tmp_path, "x = 1\n")
        assert analysis_main([str(root), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"] == []


# --------------------------------------------------------------------- #
# Actor graph export + memoisation + wall-clock budget
# --------------------------------------------------------------------- #


class TestActorGraphExport:
    def test_graph_json_includes_actor_section(self, tmp_path, capsys):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "app.py").write_text(_BACKPRESSURE_CYCLE)
        assert analysis_main([str(root), "--graph", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2
        actors = payload["actors"]
        assert set(actors["actors"]) == {"StageA", "StageB"}
        assert {"from": "StageA", "to": "StageB", "kind": "Down"} in actors[
            "edges"
        ]
        assert actors["actors"]["StageA"]["handles"]["Up"]["refusable"]

    def test_actor_graph_is_memoised_per_scan(self):
        from repro.analysis.actors import build_actor_graph

        project = scan([REPO_ROOT / "src"])
        first = build_actor_graph(project)
        assert build_actor_graph(project) is first
        assert project.actor_cache is first


class TestAnalysisWallClock:
    def test_full_run_stays_under_budget(self):
        """Regression guard: a full scan + every rule (including CHR020's
        in-lint model check and the memoised actor graph) must stay well
        under CI's patience.  Locally this runs in ~3s; the 20s budget
        absorbs slow shared runners without hiding a blow-up."""
        start = time.perf_counter()
        findings = run_rules(scan([REPO_ROOT / "src"]))
        elapsed = time.perf_counter() - start
        assert findings == []
        assert elapsed < 20.0, f"full analysis run took {elapsed:.1f}s"
