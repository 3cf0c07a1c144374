"""Tests for the explicit-state protocol checker (``repro.analysis.protocol_check``).

Four layers, four sections: the generic BFS checker against a hand-built
three-state machine with a known dup-delivery bug (the counterexample
trace must name it); the multiproc machine explored exhaustively under
dup + reorder + crash + respawn (a proof over the bounded space, asserted
via ``complete``); the FIFO assumption shown to be load-bearing by
switching on worker→parent reordering; and the spec/extractor cross-check
run over the *real* ``runtime/multiproc/`` sources plus a mutated copy
that must register as drift.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis import run_rules, scan
from repro.analysis.protocol_check import (
    CheckResult,
    MPConfig,
    MultiprocModel,
    Violation,
    anchor_matches,
    check_anchors,
    explore,
    locate_classes,
    multiproc_spec,
)
from repro.analysis.protocol_check.spec import CodeAnchor

REPO_ROOT = Path(__file__).resolve().parent.parent


# --------------------------------------------------------------------- #
# Generic checker on a hand-built buggy machine
# --------------------------------------------------------------------- #


class BuggyDupMachine:
    """Three-state sender with a seeded dup-delivery bug.

    The receiver counts every arrival but never dedups, so delivering a
    duplicated message applies it twice — ``at_most_once`` must fail, and
    the shortest counterexample is exactly send -> dup -> deliver -> deliver.

    State: (in_flight copies, applied count).
    """

    def initial(self):
        return (0, 0)

    def events(self, state):
        in_flight, applied = state
        out = []
        if in_flight == 0 and applied == 0:
            out.append(("send", (1, applied)))
        if in_flight == 1:
            out.append(("dup", (2, applied)))
        if in_flight > 0:
            out.append(("deliver", (in_flight - 1, applied + 1)))
        return out

    def invariants(self):
        return [("at_most_once", lambda s: s[1] <= 1)]


class TestGenericChecker:
    def test_buggy_machine_yields_shortest_counterexample(self):
        result = explore(BuggyDupMachine())
        assert not result.ok
        assert result.complete
        violation = result.violations[0]
        assert violation.invariant == "at_most_once"
        assert violation.trace == ("send", "dup", "deliver", "deliver")
        assert violation.state == (0, 2)

    def test_render_reads_as_a_trace(self):
        violation = explore(BuggyDupMachine()).violations[0]
        assert violation.render() == (
            "invariant 'at_most_once' violated after: "
            "send -> dup -> deliver -> deliver"
        )

    def test_root_violation_renders_initial_state(self):
        violation = Violation("inv", (), state=None)
        assert "<initial state>" in violation.render()

    def test_truncation_clears_complete(self):
        result = explore(BuggyDupMachine(), max_states=2, max_violations=99)
        assert not result.complete

    def test_clean_machine_is_ok_and_complete(self):
        class Clean:
            def initial(self):
                return 0

            def events(self, state):
                return [("tick", min(state + 1, 3))]

            def invariants(self):
                return [("bounded", lambda s: s <= 3)]

        result = explore(Clean())
        assert result.ok and result.complete
        assert result.states_explored == 4


# --------------------------------------------------------------------- #
# The multiproc machine: exhaustive runs
# --------------------------------------------------------------------- #


class TestMultiprocModel:
    def test_exhaustive_under_dup_reorder_crash_respawn(self):
        """The headline proof: >=10^4 states, fully explored, no violations."""
        config = MPConfig(max_injects=4, max_dups=2, max_crashes=2)
        result = explore(MultiprocModel(config), max_states=500_000)
        assert isinstance(result, CheckResult)
        assert result.complete, "state space must be exhausted, not sampled"
        assert result.ok, "\n".join(v.render() for v in result.violations)
        assert result.states_explored >= 10_000
        assert result.transitions > result.states_explored

    def test_lint_sized_run_is_complete_and_fast(self):
        from repro.analysis.protocol_check.rule import LINT_CONFIG

        result = explore(MultiprocModel(LINT_CONFIG), max_states=100_000)
        assert result.complete and result.ok
        assert result.states_explored < 100_000

    def test_crash_free_run_accepts_everything_in_order(self):
        config = MPConfig(max_injects=3, max_dups=1, max_crashes=0)
        result = explore(MultiprocModel(config), max_states=200_000)
        assert result.complete and result.ok

    def test_all_six_invariants_are_checked(self):
        names = [name for name, _p in MultiprocModel().invariants()]
        assert names == [
            "exactly_once",
            "bounded_retransmit",
            "no_replay_gap",
            "quiescent_complete",
            "no_uncommitted_escape",
            "dense_emissions",
        ]

    def test_wp_reorder_breaks_output_commit(self):
        """The TCP-FIFO assumption is load-bearing, in the other direction
        now: a commit marker that overtakes a frame it covers leaves that
        frame parked with nothing to release it, and a crash then loses it
        — the restored worker is already past its emission id.  The
        machine must catch that, shortest trace first."""
        config = MPConfig(
            max_injects=1,
            max_dups=0,
            max_crashes=1,
            allow_reorder=False,
            reorder_wp=True,
        )
        result = explore(
            MultiprocModel(config), max_states=200_000, max_violations=50
        )
        assert not result.ok
        assert all("reorder-wp" in v.trace for v in result.violations)
        stuck = result.violations[0]
        assert stuck.invariant == "quiescent_complete"
        assert stuck.trace == (
            "inject(1)",
            "deliver(1)",
            "snapshot(ack=1)",
            "reorder-wp",
            "recv-snap(ack=1)",
            "recv-out(1)",
        )
        assert stuck.state.uncommitted == (1,) and stuck.state.accepted == ()
        lost = next(
            v
            for v in result.violations
            if "crash" in v.trace and v.invariant == "quiescent_complete"
        )
        assert lost.trace[-2:] == ("respawn", "recv-snap(ack=1)")
        assert lost.state.w_emission == 1 and lost.state.accepted == ()

    def test_wp_reorder_of_two_outputs_trips_the_dense_check(self):
        config = MPConfig(
            max_injects=2, max_dups=0, max_crashes=0, allow_reorder=False,
            reorder_wp=True,
        )
        result = explore(MultiprocModel(config), max_states=200_000)
        assert result.violations[0].invariant == "dense_emissions"
        assert result.violations[0].trace[-2:] == ("reorder-wp", "recv-out(2)")

    def test_respawn_must_resume_the_dense_cursor_at_the_snapshot(self):
        """A respawn that keeps the dead worker's ``emission_high`` (past
        the parked frames it dropped) would refuse the regenerated ones."""

        class StaleCursor(MultiprocModel):
            def events(self, s):
                for label, nxt in super().events(s):
                    if label == "respawn":
                        nxt = nxt._replace(emission_high=s.emission_high)
                    yield label, nxt

        config = MPConfig(max_injects=1, max_dups=0, max_crashes=1)
        violation = explore(StaleCursor(config), max_states=200_000).violations[0]
        assert violation.invariant == "dense_emissions"
        assert violation.trace == (
            "inject(1)", "deliver(1)", "recv-out(1)", "crash", "respawn",
        )

    def test_commit_before_the_marker_is_rejected(self):
        """A deliberately broken parent that routes an output the moment it
        arrives (no parking) is caught by ``no_uncommitted_escape`` at once,
        and — given a crash — goes on to deliver an emission twice."""

        class RouteOnArrival(MultiprocModel):
            def events(self, s):
                for label, nxt in super().events(s):
                    if label.startswith("recv-out"):
                        nxt = nxt._replace(
                            accepted=nxt.accepted + nxt.uncommitted, uncommitted=()
                        )
                    yield label, nxt

        config = MPConfig(max_injects=2, max_dups=0, max_crashes=1)
        first = explore(RouteOnArrival(config), max_states=200_000)
        assert [v.invariant for v in first.violations] == ["no_uncommitted_escape"]
        assert first.violations[0].trace == ("inject(1)", "deliver(1)", "recv-out(1)")
        every = explore(
            RouteOnArrival(config), max_states=200_000, max_violations=10_000
        )
        twice = next(v for v in every.violations if v.invariant == "exactly_once")
        assert "crash" in twice.trace and "respawn" in twice.trace
        assert twice.state.accepted == (1, 1)


# --------------------------------------------------------------------- #
# Spec anchors against the real sources
# --------------------------------------------------------------------- #


def _scan_runtime():
    # Scan from src so relpaths keep their "runtime/" prefix — the spec's
    # module_suffixes match "runtime/multiproc/worker.py", not a bare filename.
    return scan([REPO_ROOT / "src"])


def _renamed_admit_frame(tmp_path):
    """A scan of a copy of the multiproc package with ``_admit_frame``
    renamed."""
    package = REPO_ROOT / "src" / "repro" / "runtime" / "multiproc"
    root = tmp_path / "runtime" / "multiproc"
    root.mkdir(parents=True)
    for source in package.glob("*.py"):
        (root / source.name).write_text(
            source.read_text().replace("def _admit_frame", "def _admit_frame_renamed")
        )
    return scan([tmp_path])


class TestSpecExtraction:
    def test_real_multiproc_sources_match_every_anchor(self):
        project = _scan_runtime()
        spec = multiproc_spec()
        assert locate_classes(spec, project) is not None
        assert check_anchors(spec, project) == []

    def test_fixture_tree_without_protocol_is_out_of_scope(self, tmp_path):
        (tmp_path / "app.py").write_text("class Other:\n    pass\n")
        project = scan([tmp_path])
        assert locate_classes(multiproc_spec(), project) is None
        assert check_anchors(multiproc_spec(), project) == []

    def test_mutated_source_registers_as_drift(self, tmp_path):
        """Renaming ``_admit_frame`` in a copy of the real source must break
        exactly the ``inject`` transition's anchors — CHR020's drift path."""
        drifts = check_anchors(multiproc_spec(), _renamed_admit_frame(tmp_path))
        assert drifts, "renamed method must surface as spec drift"
        assert {d.transition for d in drifts} == {"inject"}
        assert all("_admit_frame" in d.describe() for d in drifts)

    def test_anchor_kinds_match_and_reject(self):
        func = ast.parse(
            "def m(self):\n"
            "    self.seq += 1\n"
            "    self.acked, extra = compute()\n"
            "    self.unacked.append(f)\n"
            "    self.unacked.popleft()\n"
            "    if x <= slot.high[0]:\n"
            "        self._route(f)\n"
        ).body[0]
        assert anchor_matches(CodeAnchor("C", "m", "augassign", "seq"), func)
        assert anchor_matches(CodeAnchor("C", "m", "assign", "acked"), func)
        assert anchor_matches(CodeAnchor("C", "m", "append", "unacked"), func)
        assert anchor_matches(
            CodeAnchor("C", "m", "method_call", "unacked", "popleft"), func
        )
        assert anchor_matches(CodeAnchor("C", "m", "compare", "high"), func)
        assert anchor_matches(CodeAnchor("C", "m", "call", detail="_route"), func)
        assert not anchor_matches(CodeAnchor("C", "m", "augassign", "acked"), func)
        assert not anchor_matches(
            CodeAnchor("C", "m", "method_call", "unacked", "pop"), func
        )
        assert not anchor_matches(CodeAnchor("C", "m", "call", detail="gone"), func)


# --------------------------------------------------------------------- #
# CHR020 as a lint rule
# --------------------------------------------------------------------- #


class TestProtocolRule:
    def test_real_tree_is_clean(self):
        findings = run_rules(
            scan([REPO_ROOT / "src"]), select=["CHR020"]
        )
        assert findings == []

    def test_silent_on_trees_without_the_protocol(self, tmp_path):
        (tmp_path / "app.py").write_text("class App:\n    pass\n")
        findings = run_rules(scan([tmp_path]), select=["CHR020"])
        assert findings == []

    def test_drift_surfaces_as_finding_and_skips_verification(self, tmp_path):
        findings = run_rules(_renamed_admit_frame(tmp_path), select=["CHR020"])
        assert findings
        assert all(f.code == "CHR020" for f in findings)
        assert all("spec drift" in f.message for f in findings)
