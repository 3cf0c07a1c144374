"""Phased scenario runner: standup → experiment, with artifacts.

Standup resolves every sweep point and its fault plan before any
simulation work, so a misconfigured spec fails fast; the experiment runs
each point through its kind's function (:data:`.executors.EXECUTORS`) and
assembles the aggregates document.  Every run persists a self-describing
artifact directory::

    runs/<scenario>/<run-id>/
        spec.json          the exact spec that ran (``ScenarioSpec.to_dict``)
        aggregates.json    deterministic simulated metrics (sorted keys)
        timeseries.json    per-point throughput timeseries, when captured
        run.json           phase statuses, invariant failures, verdict

``aggregates.json`` is the regression surface: it contains only simulated,
seeded metrics, so running the same deterministic spec twice produces
byte-identical files.  Host performance is the perf ledger's job
(``ledger/``).

Run ids are sequential (``run-0001``, ``run-0002``, …) rather than
timestamps — artifact trees stay reproducible and diffable.

The artifacts are written on every path: an experiment that raises still
leaves ``run.json`` recording what happened.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from ..chaos.plan import FaultPlan
from .executors import EXECUTORS, PRIMARY_METRIC
from .spec import ScenarioSpec, check_invariants

#: (label, effective per-point spec, per-point fault plan).
Point = Tuple[str, ScenarioSpec, Optional[FaultPlan]]

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


def standup(spec: ScenarioSpec) -> List[Point]:
    """Every sweep point with its fault plan, resolved up front."""
    return [
        (label, point, FaultPlan.from_dict(point.faults) if point.faults is not None else None)
        for label, point in spec.points()
    ]


def experiment(
    spec: ScenarioSpec, points: List[Point]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run every point; returns ``(aggregates, timeseries)``."""
    run_point = EXECUTORS[spec.kind]
    point_metrics: List[Dict[str, Any]] = []
    timeseries: Dict[str, Any] = {}
    fault_stats: Dict[str, int] = {}
    for label, point, plan in points:
        metrics = run_point(point, plan)
        series = metrics.pop("timeseries", None)
        if series:
            timeseries[label] = series
        if plan is not None:
            for key, count in plan.stats.items():
                fault_stats[key] = fault_stats.get(key, 0) + count
        point_metrics.append({"label": label, **metrics})
    aggregates: Dict[str, Any] = {
        "kind": spec.kind,
        "scenario": spec.name,
        "points": point_metrics,
    }
    primary = PRIMARY_METRIC.get(spec.kind)
    if primary is not None:
        index = max(
            range(len(point_metrics)),
            key=lambda i: point_metrics[i].get(primary, float("-inf")),
        )
        aggregates["best"] = {"index": index, **point_metrics[index]}
    if fault_stats:
        aggregates["faults"] = dict(sorted(fault_stats.items()))
    return aggregates, timeseries


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
        """Execute one spec: standup → experiment → invariants.

        Artifacts are always written, even when the experiment raises.
        With ``raise_on_failure`` a failed run raises :class:`ScenarioError`
        (carrying the result) after artifacts are persisted; otherwise
        inspect :attr:`RunResult.status`.
        """
        scenario_dir = (
            self.run_root / spec.name if self.run_root is not None else None
        )
        if run_id is None:
            run_id = (
                next_run_id(scenario_dir) if scenario_dir is not None else "adhoc"
            )
        result = RunResult(spec=spec, run_id=run_id)

        points: Optional[List[Point]] = None
        try:
            points = standup(spec)
            result.phases.append(PhaseStatus("standup", "ok"))
        except Exception as exc:
            result.phases.append(PhaseStatus("standup", "failed", repr(exc)))
            result.error = f"standup: {exc!r}"

        if points is None:
            result.phases.append(PhaseStatus("experiment", "skipped"))
        else:
            try:
                result.aggregates, result.timeseries = experiment(spec, points)
                result.phases.append(PhaseStatus("experiment", "ok"))
            except Exception as exc:
                result.phases.append(PhaseStatus("experiment", "failed", repr(exc)))
                result.error = f"experiment: {exc!r}"

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
