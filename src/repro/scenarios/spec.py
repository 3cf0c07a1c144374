"""Declarative scenario specifications for the experiment harness.

A :class:`ScenarioSpec` is everything one experiment needs, as data:

* a **topology** (stage machine counts, machine profile, datacenters),
* a **workload** profile (offered rate, batch sizes, duration, record size),
* an optional :class:`~repro.chaos.plan.FaultPlan` (as its dict form),
* optional :class:`~repro.core.config.PipelineConfig` /
  :class:`~repro.core.config.FLStoreConfig` overrides,
* a **sweep**: a list of per-point overrides (Figure 7 sweeps the target
  rate, Figure 8 the maintainer count, Table 5 the whole deployment),
* declarative **invariants** over the run's aggregate metrics (the paper's
  qualitative claims — "peaks at 150K", "the filter is the bottleneck").

Specs are built in Python (the catalog, or a script calling the
constructors); :meth:`ScenarioSpec.to_dict` / :meth:`ScenarioSpec.to_json`
write them out, as a run's ``spec.json`` records what ran.  Nothing reads a
spec file back.  See ``docs/SCENARIOS.md`` for the schema.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type

from ..core.config import (
    PRIVATE_CLOUD,
    PUBLIC_CLOUD,
    FLStoreConfig,
    MachineProfile,
    PipelineConfig,
)
from ..core.errors import ConfigurationError

#: Scenario kinds, each run by one function of ``executors.EXECUTORS``.
KINDS: Tuple[str, ...] = ("flstore", "pipeline", "corfu", "geo", "functional")

#: Runtimes a scenario may request.  ``sim`` is the deterministic
#: capacity-model substrate every paper figure uses; ``local`` runs the
#: functional deployment on the deterministic LocalRuntime; ``aio`` runs it
#: over real TCP sockets; ``multiproc`` runs it across supervised worker OS
#: processes (both wall-clock, excluded from the deterministic set).
RUNTIMES: Tuple[str, ...] = ("sim", "local", "aio", "multiproc")

#: Tags the catalog uses.  Free-form tags are allowed; these are the
#: well-known ones tests and the CLI filter on.
KNOWN_TAGS: Tuple[str, ...] = (
    "paper-figure",
    "soak",
    "overload",
    "geo",
    "chaos",
    "ablation",
)

#: Machine profiles addressable by name from a spec.  ``load-generator``
#: is the load generators' own machine (Figures 7–8 drive maintainers from
#: separate machines whose capacity must not be the bottleneck);
#: ``fig9-shared-nic`` is the constrained 1 GbE shared-NIC profile Figure
#: 9's discussion describes.
PROFILES: Dict[str, MachineProfile] = {
    "private-cloud": PRIVATE_CLOUD,
    "public-cloud": PUBLIC_CLOUD,
    "load-generator": MachineProfile(
        name="load-generator",
        per_record_cost=1.0 / 4_000_000,
        nic_bandwidth_bytes=10e9 / 8,
        saturation_queue=1_000_000,
        overload_penalty=0.0,
    ),
    "fig9-shared-nic": MachineProfile(
        name="fig9-shared-nic",
        per_record_cost=1.0 / 132_000,
        nic_bandwidth_bytes=125e6,
        saturation_queue=24,
        overload_penalty=0.012,
        overload_cap=1.09,
    ),
}


def resolve_profile(ref: Any) -> MachineProfile:
    """A profile reference: a registry name or an inline field dict."""
    if isinstance(ref, MachineProfile):
        return ref
    if isinstance(ref, str):
        try:
            return PROFILES[ref]
        except KeyError:
            raise ConfigurationError(
                f"unknown machine profile {ref!r} (known: {sorted(PROFILES)})"
            ) from None
    if isinstance(ref, Mapping):
        return MachineProfile(**dict(ref))
    raise ConfigurationError(f"cannot resolve machine profile from {ref!r}")


def resolve_path(doc: Any, path: str) -> Any:
    """Resolve a dotted path (``points.3.stage_totals.Filter``) into a doc.

    Dict keys are matched as strings; purely numeric segments index lists.
    Raises :class:`KeyError` with the full path on a miss, so failure
    messages name what was being looked up.
    """
    node = doc
    for part in path.split("."):
        try:
            if isinstance(node, Mapping):
                node = node[part]
            elif isinstance(node, (list, tuple)):
                node = node[int(part)]
            else:
                raise KeyError(part)
        except (KeyError, IndexError, ValueError, TypeError):
            raise KeyError(f"path {path!r} missing at segment {part!r}") from None
    return node


def _prune(data: Dict[str, Any], defaults: Dict[str, Any]) -> Dict[str, Any]:
    """Drop keys whose value equals the dataclass default (compact JSON)."""
    return {k: v for k, v in data.items() if defaults.get(k, object()) != v}


def _defaults_of(cls: Type[Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            out[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            out[f.name] = f.default_factory()  # type: ignore[misc]
    return out


def _config_from(cls: Type[Any], section: str, overrides: Mapping[str, Any]) -> Any:
    """``cls(**overrides)``, refusing a key ``cls`` has no field for by name
    (an old ``spec.json`` may name a setting since removed)."""
    known = sorted(f.name for f in dataclasses.fields(cls))
    unknown = sorted(set(overrides) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {section} setting(s) {unknown} (known: {known})"
        )
    return cls(**overrides)


# ===================================================================== #
# Topology and workload
# ===================================================================== #


@dataclass(frozen=True)
class TopologySpec:
    """Machine counts and placement for one scenario.

    Stage counts apply to ``pipeline``/``functional``/``geo`` kinds;
    ``maintainers`` doubles as the FLStore maintainer count; the
    ``units``/``sequencer_*`` fields apply to the ``corfu`` kind.
    """

    clients: int = 1
    batchers: int = 1
    filters: int = 1
    queues: int = 1
    maintainers: int = 1
    senders: int = 1
    receivers: int = 1
    profile: str = "private-cloud"
    shared_nic: bool = False
    datacenters: Tuple[str, ...] = ("A",)
    #: CORFU-style baseline: storage-unit count and sequencer ceiling.
    units: int = 1
    sequencer_capacity: float = 600_000.0
    grant_batch: int = 16
    #: One-way WAN RTT override for multi-datacenter scenarios (seconds).
    wan_rtt: Optional[float] = None
    #: Multiproc runtime: worker-process count (0 = inline, no processes).
    workers: int = 0
    #: FLStore elasticity: maintainers added live at ``workload.expand_at``
    #: via the §6.3 future-reassignment protocol (0 = no expansion).
    expand_maintainers: int = 0

    def __post_init__(self) -> None:
        for stage in ("clients", "batchers", "filters", "queues",
                      "maintainers", "senders", "receivers", "units"):
            if getattr(self, stage) < 1:
                raise ConfigurationError(f"topology.{stage} must be >= 1")
        if self.grant_batch < 1:
            raise ConfigurationError("topology.grant_batch must be >= 1")
        if self.sequencer_capacity <= 0:
            raise ConfigurationError("topology.sequencer_capacity must be positive")
        if self.workers < 0:
            raise ConfigurationError("topology.workers must be >= 0")
        if self.expand_maintainers < 0:
            raise ConfigurationError("topology.expand_maintainers must be >= 0")
        if not self.datacenters:
            raise ConfigurationError("topology.datacenters must be non-empty")
        resolve_profile(self.profile)

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["datacenters"] = list(self.datacenters)
        defaults = _defaults_of(type(self))
        defaults["datacenters"] = ["A"]
        return _prune(data, defaults)


@dataclass(frozen=True)
class WorkloadSpec:
    """Offered load and measurement window for one scenario."""

    #: Offered records/s per client machine (pipeline kinds) or per
    #: maintainer (flstore) or per unit (corfu).
    target_rate: float = 130_000.0
    client_batch: int = 500
    record_size: int = 512
    duration: float = 1.5
    warmup: float = 0.4
    total_records: Optional[int] = None
    #: Keep simulating this long after the load window (drain phases).
    run_past_load: float = 0.0
    max_outstanding: int = 4
    #: FLStore round-robin LId round size (§5).
    lid_batch: int = 1000
    #: Figure 9-style per-source throughput timeseries.
    timeseries_sources: Tuple[str, ...] = ()
    timeseries_bin: float = 0.1
    #: Drain analysis: (load_source, drain_source) — summarises when the
    #: load source went idle and how the drain source surged afterwards.
    drain_probe: Optional[Tuple[str, str]] = None
    #: Functional kinds: records appended per datacenter, settle budget.
    append_records: int = 24
    settle_seconds: float = 30.0
    #: Elasticity: sim time at which ``topology.expand_maintainers`` join.
    expand_at: float = 0.0

    def __post_init__(self) -> None:
        if self.target_rate <= 0:
            raise ConfigurationError("workload.target_rate must be positive")
        if self.duration <= 0 or self.warmup < 0:
            raise ConfigurationError("workload duration/warmup out of range")
        if self.warmup >= self.duration:
            raise ConfigurationError("workload.warmup must be < duration")
        if self.expand_at < 0:
            raise ConfigurationError("workload.expand_at must be >= 0")

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        data["timeseries_sources"] = list(self.timeseries_sources)
        if self.drain_probe is not None:
            data["drain_probe"] = list(self.drain_probe)
        defaults = _defaults_of(type(self))
        defaults["timeseries_sources"] = []
        return _prune(data, defaults)


# ===================================================================== #
# Invariants
# ===================================================================== #

#: Ops that compare the metric with ``value`` or ``other``.
_COMPARISONS: Tuple[str, ...] = ("eq", "lt", "gt", "le", "ge", "approx")
_OPS: Tuple[str, ...] = _COMPARISONS + ("between", "ratio_between")


@dataclass(frozen=True)
class Invariant:
    """One qualitative claim over a run's aggregate metrics.

    ``metric`` is a dotted path into the aggregates document.  The expected
    side is either a literal ``value`` or another path ``other`` (scaled by
    ``scale``) — so "achieved at ten maintainers ≈ 10 × achieved at one"
    is ``approx(metric=points.5.achieved, other=points.0.achieved,
    scale=10, rel=0.05)``.  ``between``/``ratio_between`` use ``band``.
    """

    metric: str
    op: str = "eq"
    value: Any = None
    other: Optional[str] = None
    scale: float = 1.0
    rel: float = 0.05
    band: Optional[Tuple[float, float]] = None
    #: Shown in failure messages — the paper claim this invariant encodes.
    note: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ConfigurationError(f"unknown invariant op {self.op!r}")
        if self.op in ("between", "ratio_between") and self.band is None:
            raise ConfigurationError(f"invariant op {self.op!r} needs a band")
        if self.op == "ratio_between" and self.other is None:
            raise ConfigurationError("ratio_between needs an `other` path")
        if self.op in _COMPARISONS and self.value is None and self.other is None:
            raise ConfigurationError(
                f"invariant op {self.op!r} needs a `value` or an `other` path"
            )

    # -- evaluation ---------------------------------------------------- #

    def _expected(self, aggregates: Any) -> Any:
        if self.other is not None:
            return self.scale * resolve_path(aggregates, self.other)
        return self.value

    def check(self, aggregates: Any) -> Optional[str]:
        """None when satisfied, otherwise a readable failure description."""
        suffix = f" — {self.note}" if self.note else ""
        try:
            actual = resolve_path(aggregates, self.metric)
            expected = self._expected(aggregates) if self.op not in (
                "between", "ratio_between") else None
            if self.op == "eq":
                ok = actual == expected
            elif self.op == "lt":
                ok = actual < expected
            elif self.op == "gt":
                ok = actual > expected
            elif self.op == "le":
                ok = actual <= expected
            elif self.op == "ge":
                ok = actual >= expected
            elif self.op == "approx":
                ok = abs(actual - expected) <= self.rel * abs(expected)
            elif self.op == "between":
                lo, hi = self.band  # type: ignore[misc]
                ok, expected = lo <= actual <= hi, f"[{self.band[0]}, {self.band[1]}]"
            else:  # ratio_between
                lo, hi = self.band  # type: ignore[misc]
                denom = self.scale * resolve_path(aggregates, self.other)  # type: ignore[arg-type]
                ratio = actual / denom if denom else float("inf")
                ok = lo <= ratio <= hi
                expected = f"ratio in [{lo}, {hi}] of {self.other} (got {ratio:.3f})"
        except KeyError as exc:
            return f"{self.metric}: {exc.args[0]}"
        except TypeError as exc:
            # An operand the run could not produce (``lag_seconds: None``
            # when a datacenter never caught up) fails the claim readably.
            return f"{self.metric} {self.op}: operands not comparable ({exc}){suffix}"
        if ok:
            return None
        return (
            f"{self.metric} {self.op} "
            f"{self.other + ' * ' + repr(self.scale) if self.other else expected!r}: "
            f"got {actual!r}{suffix}"
        )

    # -- serialisation -------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        data = dataclasses.asdict(self)
        if self.band is not None:
            data["band"] = list(self.band)
        return _prune(data, _defaults_of(type(self)))


# ===================================================================== #
# The scenario spec
# ===================================================================== #


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative experiment: topology + workload + faults + checks."""

    name: str
    title: str
    kind: str = "pipeline"
    runtime: str = "sim"
    tags: Tuple[str, ...] = ()
    topology: TopologySpec = field(default_factory=TopologySpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    #: PipelineConfig / FLStoreConfig overrides, as field dicts.
    pipeline: Dict[str, Any] = field(default_factory=dict)
    flstore: Dict[str, Any] = field(default_factory=dict)
    #: FaultPlan in its dict form (``FaultPlan.to_dict``); None = no chaos.
    faults: Optional[Dict[str, Any]] = None
    #: Per-point overrides; each entry may carry ``label`` plus partial
    #: ``topology`` / ``workload`` / ``pipeline`` / ``flstore`` sections.
    sweep: Tuple[Dict[str, Any], ...] = ()
    invariants: Tuple[Invariant, ...] = ()
    seed: int = 0
    notes: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown scenario kind {self.kind!r}")
        if self.runtime not in RUNTIMES:
            raise ConfigurationError(f"unknown runtime {self.runtime!r}")
        if self.kind in ("flstore", "pipeline", "corfu", "geo") and self.runtime != "sim":
            raise ConfigurationError(
                f"kind {self.kind!r} only runs on the sim runtime"
            )
        if self.kind == "functional" and self.runtime == "sim":
            raise ConfigurationError(
                "kind 'functional' runs on local, aio or multiproc, not sim"
            )
        # Constructing the configs validates the override dicts eagerly.
        self.pipeline_config()
        self.flstore_config()

    # -- derived -------------------------------------------------------- #

    @property
    def deterministic(self) -> bool:
        """True when two runs must produce byte-identical aggregates."""
        return self.runtime in ("sim", "local")

    def pipeline_config(self) -> PipelineConfig:
        return _config_from(PipelineConfig, "pipeline", self.pipeline)

    def flstore_config(self) -> FLStoreConfig:
        return _config_from(FLStoreConfig, "flstore", self.flstore)

    def points(self) -> List[Tuple[str, "ScenarioSpec"]]:
        """The resolved sweep: (label, effective spec) per point.

        With no sweep there is a single point labelled ``base``.
        """
        if not self.sweep:
            return [("base", self)]
        out: List[Tuple[str, ScenarioSpec]] = []
        for index, overrides in enumerate(self.sweep):
            label = str(overrides.get("label", f"point-{index}"))
            out.append((label, self.with_overrides(overrides)))
        return out

    def with_overrides(self, overrides: Mapping[str, Any]) -> "ScenarioSpec":
        """One sweep point: partial sections merged over the base spec."""
        unknown = set(overrides) - {"label", "topology", "workload", "pipeline", "flstore", "faults"}
        if unknown:
            raise ConfigurationError(f"unknown sweep override keys {sorted(unknown)}")
        topo = dataclasses.replace(
            self.topology,
            **{k: tuple(v) if k == "datacenters" else v
               for k, v in overrides.get("topology", {}).items()},
        )
        work_over = {
            k: tuple(v) if k in ("timeseries_sources", "drain_probe") and v is not None else v
            for k, v in overrides.get("workload", {}).items()
        }
        work = dataclasses.replace(self.workload, **work_over)
        pipe = {**self.pipeline, **overrides.get("pipeline", {})}
        fls = {**self.flstore, **overrides.get("flstore", {})}
        faults = overrides.get("faults", self.faults)
        return dataclasses.replace(
            self, topology=topo, workload=work, pipeline=pipe, flstore=fls,
            faults=faults, sweep=(),
        )

    # -- serialisation -------------------------------------------------- #

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "title": self.title,
            "kind": self.kind,
            "runtime": self.runtime,
            "tags": list(self.tags),
            "topology": self.topology.to_dict(),
            "workload": self.workload.to_dict(),
        }
        if self.pipeline:
            data["pipeline"] = dict(self.pipeline)
        if self.flstore:
            data["flstore"] = dict(self.flstore)
        if self.faults is not None:
            data["faults"] = self.faults
        if self.sweep:
            data["sweep"] = [dict(point) for point in self.sweep]
        if self.invariants:
            data["invariants"] = [inv.to_dict() for inv in self.invariants]
        if self.seed:
            data["seed"] = self.seed
        if self.notes:
            data["notes"] = self.notes
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"


def check_invariants(spec: ScenarioSpec, aggregates: Any) -> List[str]:
    """Every invariant failure message (empty = all claims hold)."""
    failures = []
    for invariant in spec.invariants:
        message = invariant.check(aggregates)
        if message is not None:
            failures.append(message)
    return failures
