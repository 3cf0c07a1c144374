"""The Controller: stateless, highly-available control plane (§5.1).

The controller is an oracle for application clients: it answers session
requests with the addresses of the log maintainers and indexers, the
ownership epoch journal, and approximate log-size information.  It also
collects load feedback from maintainers (§5.2's load-balancing hook) and is
the administrative entry point for elasticity operations (§6.3).

It never sits on the data path — clients talk to it once per session.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.config import FLStoreConfig
from ..runtime.actor import Actor
from .messages import LoadReport, SessionInfo, SessionRequest
from .range_map import OwnershipPlan


class ControllerCore:
    """Pure-logic cluster metadata registry."""

    def __init__(
        self,
        plan: OwnershipPlan,
        indexers: Optional[List[str]] = None,
        config: Optional[FLStoreConfig] = None,
    ) -> None:
        self.plan = plan
        self.indexers = list(indexers or [])
        self.config = config or FLStoreConfig()
        self._load: Dict[str, LoadReport] = {}
        self.sessions_served = 0

    def session_info(self, request_id: int) -> SessionInfo:
        self.sessions_served += 1
        return SessionInfo(
            request_id=request_id,
            maintainers=list(self.plan.current_epoch.maintainers),
            indexers=list(self.indexers),
            batch_size=self.plan.current_epoch.batch_size,
            approx_records=self.approx_records(),
            epochs=[
                (epoch.start_lid, epoch.batch_size, epoch.maintainers)
                for epoch in self.plan.epochs
            ],
            suggested_maintainer=self.least_loaded_maintainer() if self._load else None,
        )

    def note_load(self, report: LoadReport) -> None:
        self._load[report.maintainer] = report

    def approx_records(self) -> int:
        """Approximate record count from the latest load reports (§5.1)."""
        return sum(report.records_stored for report in self._load.values())

    def least_loaded_maintainer(self) -> Optional[str]:
        """Load-balancing hint: the maintainer with the fewest records."""
        current = self.plan.current_epoch.maintainers
        if not self._load:
            return current[0] if current else None
        candidates = [m for m in current if m in self._load]
        if not candidates:
            return current[0] if current else None
        return min(candidates, key=lambda m: self._load[m].records_stored)


class Controller(Actor):
    """Actor adapter for :class:`ControllerCore`."""

    def __init__(
        self,
        name: str,
        plan: OwnershipPlan,
        indexers: Optional[List[str]] = None,
        config: Optional[FLStoreConfig] = None,
    ) -> None:
        super().__init__(name)
        self.core = ControllerCore(plan, indexers=indexers, config=config)

    def on_message(self, sender: str, message: Any) -> None:
        if isinstance(message, SessionRequest):
            self.send(sender, self.core.session_info(message.request_id))
        elif isinstance(message, LoadReport):
            self.core.note_load(message)
