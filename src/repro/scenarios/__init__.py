"""Declarative scenario catalog and experiment harness.

``repro.scenarios`` turns the repo's experiments into data: a
:class:`ScenarioSpec` describes topology, workload, faults, and the checks
a run must satisfy; the :class:`ScenarioRunner` executes specs through a
standup → experiment → teardown lifecycle and persists artifacts under
``runs/<scenario>/<run-id>/``; :mod:`~repro.scenarios.catalog` holds the
tagged entries covering the paper's Figures 7–9 and Tables 2–5 plus the
repo's own soak/overload/chaos scenarios.

Command line: ``python -m repro.scenarios {list,show,run}``.
"""

from .catalog import CATALOG, get, names, select, tags_in_use
from .executors import EXECUTORS, ExecutionContext, Executor, executor_for
from .runner import (
    PhaseStatus,
    RunResult,
    ScenarioError,
    ScenarioRunner,
    next_run_id,
    run_scenario,
)
from .spec import (
    KINDS,
    KNOWN_TAGS,
    PROFILES,
    RUNTIMES,
    Invariant,
    ScenarioSpec,
    TopologySpec,
    WorkloadSpec,
    check_invariants,
    resolve_path,
    resolve_profile,
)

__all__ = [
    "CATALOG",
    "EXECUTORS",
    "KINDS",
    "KNOWN_TAGS",
    "PROFILES",
    "RUNTIMES",
    "ExecutionContext",
    "Executor",
    "Invariant",
    "PhaseStatus",
    "RunResult",
    "ScenarioError",
    "ScenarioRunner",
    "ScenarioSpec",
    "TopologySpec",
    "WorkloadSpec",
    "check_invariants",
    "executor_for",
    "get",
    "names",
    "next_run_id",
    "resolve_path",
    "resolve_profile",
    "run_scenario",
    "select",
    "tags_in_use",
]
