"""Kept only for the perf ledger's ``geo.py``, which still spells
``ProcChaos.from_plan(plan)``: every runtime, ``MultiprocRuntime`` included,
takes the :class:`~repro.chaos.plan.FaultPlan` itself as ``chaos``."""

from .plan import FaultPlan


class ProcChaos:
    """Vestige: :meth:`from_plan` hands the plan back unchanged."""

    @staticmethod
    def from_plan(plan: FaultPlan) -> FaultPlan:
        return plan
