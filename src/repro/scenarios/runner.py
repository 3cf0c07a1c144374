"""Phased scenario runner: standup → experiment → teardown, with artifacts.

Every run of a scenario persists a self-describing artifact directory::

    runs/<scenario>/<run-id>/
        spec.json          the exact spec that ran (round-trips losslessly)
        aggregates.json    deterministic simulated metrics (sorted keys)
        perf.json          host-measured numbers, when the kind records any
        timeseries.json    per-point throughput timeseries, when captured
        run.json           phase statuses, invariant failures, verdict

``aggregates.json`` is the regression surface: it contains only simulated,
seeded metrics, so running the same deterministic spec twice produces
byte-identical files.  Host wall-clock measurements are quarantined in
``perf.json``; host performance is the perf ledger's job (``ledger/``).

Run ids are sequential (``run-0001``, ``run-0002``, …) rather than
timestamps — artifact trees stay reproducible and diffable.

The teardown phase always runs: a failing experiment still releases its
resources and still writes ``run.json`` recording what happened.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from .executors import executor_for
from .spec import ScenarioSpec, check_invariants

_RUN_ID = re.compile(r"^run-(\d+)$")


class ScenarioError(Exception):
    """A scenario failed: its experiment raised or an invariant broke."""

    def __init__(self, message: str, result: "RunResult") -> None:
        super().__init__(message)
        self.result = result


@dataclass
class PhaseStatus:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name, "status": self.status}
        if self.error is not None:
            data["error"] = self.error
        return data


@dataclass
class RunResult:
    """Everything one scenario run produced."""

    spec: ScenarioSpec
    run_id: str
    phases: List[PhaseStatus] = field(default_factory=list)
    aggregates: Dict[str, Any] = field(default_factory=dict)
    perf: Dict[str, Any] = field(default_factory=dict)
    timeseries: Dict[str, Any] = field(default_factory=dict)
    invariant_failures: List[str] = field(default_factory=list)
    error: Optional[str] = None
    artifacts_dir: Optional[Path] = None

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        if self.invariant_failures:
            return "failed"
        return "passed"

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def phase(self, name: str) -> Optional[PhaseStatus]:
        for phase in self.phases:
            if phase.name == name:
                return phase
        return None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.spec.name,
            "run_id": self.run_id,
            "status": self.status,
            "phases": [phase.to_dict() for phase in self.phases],
            "invariant_failures": list(self.invariant_failures),
            "error": self.error,
        }


def _write_json(path: Path, payload: Any) -> None:
    """Deterministic serialisation: sorted keys, trailing newline."""
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n"
    )


def next_run_id(scenario_dir: Path) -> str:
    """The next sequential ``run-NNNN`` id under one scenario's directory."""
    highest = 0
    if scenario_dir.is_dir():
        for entry in scenario_dir.iterdir():
            match = _RUN_ID.match(entry.name)
            if match:
                highest = max(highest, int(match.group(1)))
    return f"run-{highest + 1:04d}"


class ScenarioRunner:
    """Runs specs through the phase lifecycle and persists artifacts.

    ``run_root=None`` disables persistence entirely (unit tests run
    in-memory).
    """

    def __init__(self, run_root: Optional[Path] = Path("runs")) -> None:
        self.run_root = Path(run_root) if run_root is not None else None

    def run(
        self,
        spec: ScenarioSpec,
        run_id: Optional[str] = None,
        raise_on_failure: bool = False,
    ) -> RunResult:
        """Execute one spec: standup → experiment → teardown → invariants.

        Teardown always runs, and artifacts are always written, even when
        the experiment raises.  With ``raise_on_failure`` a failed run
        raises :class:`ScenarioError` (carrying the result) after artifacts
        are persisted; otherwise inspect :attr:`RunResult.status`.
        """
        scenario_dir = (
            self.run_root / spec.name if self.run_root is not None else None
        )
        if run_id is None:
            run_id = (
                next_run_id(scenario_dir) if scenario_dir is not None else "adhoc"
            )
        result = RunResult(spec=spec, run_id=run_id)
        executor = executor_for(spec)

        context = None
        try:
            context = executor.standup(spec)
            result.phases.append(PhaseStatus("standup", "ok"))
        except Exception as exc:
            result.phases.append(PhaseStatus("standup", "failed", repr(exc)))
            result.error = f"standup: {exc!r}"

        if context is not None:
            try:
                aggregates, perf = executor.experiment(context)
                result.aggregates = aggregates
                result.perf = perf
                result.timeseries = dict(context.timeseries)
                result.phases.append(PhaseStatus("experiment", "ok"))
            except Exception as exc:
                result.phases.append(PhaseStatus("experiment", "failed", repr(exc)))
                result.error = f"experiment: {exc!r}"
            finally:
                try:
                    executor.teardown(context)
                    result.phases.append(PhaseStatus("teardown", "ok"))
                except Exception as exc:  # noqa: BLE001 - recorded, not lost
                    result.phases.append(PhaseStatus("teardown", "failed", repr(exc)))
                    if result.error is None:
                        result.error = f"teardown: {exc!r}"
        else:
            result.phases.append(PhaseStatus("experiment", "skipped"))
            result.phases.append(PhaseStatus("teardown", "skipped"))

        if result.error is None:
            result.invariant_failures = check_invariants(spec, result.aggregates)

        if scenario_dir is not None:
            result.artifacts_dir = self._persist(scenario_dir / run_id, result)

        if raise_on_failure and not result.passed:
            detail = result.error or "; ".join(result.invariant_failures)
            raise ScenarioError(f"scenario {spec.name!r} {result.status}: {detail}", result)
        return result

    @staticmethod
    def _persist(run_dir: Path, result: RunResult) -> Path:
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_json(run_dir / "spec.json", result.spec.to_dict())
        _write_json(run_dir / "aggregates.json", result.aggregates)
        if result.perf:
            _write_json(run_dir / "perf.json", result.perf)
        if result.timeseries:
            _write_json(run_dir / "timeseries.json", result.timeseries)
        _write_json(run_dir / "run.json", result.to_dict())
        return run_dir


def run_scenario(
    spec: ScenarioSpec,
    run_root: Optional[Path] = None,
    raise_on_failure: bool = True,
) -> RunResult:
    """One-shot convenience for tests (in-memory unless ``run_root`` is
    given)."""
    return ScenarioRunner(run_root=run_root).run(
        spec, raise_on_failure=raise_on_failure
    )
