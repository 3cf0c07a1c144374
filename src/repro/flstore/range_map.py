"""Deterministic LId ownership: round-robin ranges with elasticity epochs.

§5.2 (Figure 4): the shared log is split into *rounds* of ``batch_size``
consecutive LIds, assigned round-robin to the maintainers.  With maintainers
``[A, B, C]`` and batch size 1000, A owns LIds 0–999, B owns 1000–1999,
C owns 2000–2999, A owns 3000–3999, and so on.  Because the mapping is a
pure function of the LId, no coordination is ever needed to find a record's
owner — the property that removes CORFU's sequencer.

§6.3 ("Log maintainers" elasticity): growing or shrinking the maintainer
fleet uses *future reassignment* — a new mapping that takes effect at a
future LId, recorded here as an :class:`RangeEpoch`.  Old records stay
where the epoch that covered them put them; readers consult the epoch
journal (this plan) to locate them, exactly as the paper's "epoch journal"
describes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError


@dataclass(frozen=True)
class RangeEpoch:
    """One era of the ownership journal: a mapping effective from a LId."""

    start_lid: int
    batch_size: int
    maintainers: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.start_lid < 0:
            raise ConfigurationError("epoch start_lid must be >= 0")
        if self.batch_size < 1:
            raise ConfigurationError("epoch batch_size must be >= 1")
        if not self.maintainers:
            raise ConfigurationError("epoch needs at least one maintainer")
        if len(set(self.maintainers)) != len(self.maintainers):
            raise ConfigurationError("duplicate maintainer in epoch")

    def owner(self, lid: int) -> str:
        """Owner of ``lid``; caller must ensure the lid is in this epoch."""
        rel = lid - self.start_lid
        round_index = rel // self.batch_size
        return self.maintainers[round_index % len(self.maintainers)]

    def next_owned(self, name: str, after_lid: int) -> Optional[int]:
        """Smallest LId in this epoch owned by ``name`` strictly after
        ``after_lid`` (ignoring the epoch's end — caller bounds it)."""
        if name not in self.maintainers:
            return None
        m = self.maintainers.index(name)
        n = len(self.maintainers)
        target = max(after_lid + 1, self.start_lid) - self.start_lid
        round_index, _offset = divmod(target, self.batch_size)
        if round_index % n == m:
            return self.start_lid + target
        delta = (m - round_index % n) % n
        return self.start_lid + (round_index + delta) * self.batch_size


class OwnershipPlan:
    """The epoch journal: a sequence of range epochs covering all LIds.

    The first epoch must start at LId 0.  Later epochs (added by the
    elasticity machinery) take effect at their ``start_lid``; the previous
    epoch implicitly ends there.
    """

    def __init__(self, maintainers: Sequence[str], batch_size: int = 1000) -> None:
        self._epochs: List[RangeEpoch] = [RangeEpoch(0, batch_size, tuple(maintainers))]
        self._starts: List[int] = [0]

    @classmethod
    def from_epochs(cls, epochs: Sequence[Tuple[int, int, Sequence[str]]]) -> "OwnershipPlan":
        """Rebuild a plan from its ``(start_lid, batch_size, members)``
        tuples, the form :class:`~repro.flstore.messages.SessionInfo`
        carries."""
        if not epochs or epochs[0][0] != 0:
            raise ConfigurationError("an epoch journal starts with an epoch at 0")
        (_start, batch_size, members), *later = epochs
        plan = cls(members, batch_size)
        for start_lid, size, names in later:
            plan.add_epoch(start_lid, names, size)
        return plan

    # ------------------------------------------------------------------ #
    # Journal maintenance
    # ------------------------------------------------------------------ #

    @property
    def epochs(self) -> List[RangeEpoch]:
        return list(self._epochs)

    @property
    def current_epoch(self) -> RangeEpoch:
        return self._epochs[-1]

    def maintainers(self) -> List[str]:
        """Every maintainer named by any epoch (union over the journal)."""
        seen: List[str] = []
        for epoch in self._epochs:
            for name in epoch.maintainers:
                if name not in seen:
                    seen.append(name)
        return seen

    def add_epoch(
        self,
        start_lid: int,
        maintainers: Sequence[str],
        batch_size: Optional[int] = None,
    ) -> RangeEpoch:
        """Schedule a future reassignment effective at ``start_lid``.

        ``start_lid`` must exceed the previous epoch's start and fall on one
        of its round boundaries, so no round is split between epochs.
        """
        last = self._epochs[-1]
        if start_lid <= last.start_lid:
            raise ConfigurationError(
                f"new epoch at {start_lid} must start after {last.start_lid}"
            )
        if (start_lid - last.start_lid) % last.batch_size != 0:
            raise ConfigurationError(
                f"epoch boundary {start_lid} does not align with round size "
                f"{last.batch_size} of the prior epoch"
            )
        epoch = RangeEpoch(start_lid, batch_size or last.batch_size, tuple(maintainers))
        self._epochs.append(epoch)
        self._starts.append(start_lid)
        return epoch

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def epoch_for(self, lid: int) -> RangeEpoch:
        if lid < 0:
            raise ConfigurationError(f"LIds are non-negative, got {lid}")
        index = bisect_right(self._starts, lid) - 1
        return self._epochs[index]

    def owner(self, lid: int) -> str:
        """The maintainer responsible for ``lid`` (pure function, no RPC)."""
        return self.epoch_for(lid).owner(lid)

    def owned_run_start(self, lid: int) -> int:
        """First LId of the single-owner run (the round) containing ``lid``."""
        epoch = self.epoch_for(lid)
        rel = lid - epoch.start_lid
        return epoch.start_lid + (rel // epoch.batch_size) * epoch.batch_size

    def owned_run_end(self, lid: int) -> int:
        """Exclusive end of the single-owner run of LIds containing ``lid``.

        Every LId in ``[lid, owned_run_end(lid))`` has the same owner as
        ``lid``, letting batch assignment amortise one ownership lookup over
        a whole round instead of paying a bisect per record.  Epoch
        boundaries align with the prior epoch's round grid, so a run never
        spans epochs; the clamp below is a safety net.
        """
        if lid < 0:
            raise ConfigurationError(f"LIds are non-negative, got {lid}")
        index = bisect_right(self._starts, lid) - 1
        epoch = self._epochs[index]
        rel = lid - epoch.start_lid
        end = epoch.start_lid + (rel // epoch.batch_size + 1) * epoch.batch_size
        if index + 1 < len(self._epochs):
            end = min(end, self._starts[index + 1])
        return end

    def next_owned_lid(self, name: str, after_lid: int) -> Optional[int]:
        """Smallest LId owned by ``name`` strictly greater than ``after_lid``.

        Walks epochs, honouring their boundaries.  Returns ``None`` only if
        ``name`` appears in no epoch from that point on (decommissioned).
        """
        start_index = bisect_right(self._starts, max(after_lid, 0)) - 1
        if after_lid < 0:
            start_index = 0
        for i in range(start_index, len(self._epochs)):
            epoch = self._epochs[i]
            end = self._starts[i + 1] if i + 1 < len(self._epochs) else None
            candidate = epoch.next_owned(name, after_lid)
            if candidate is not None and (end is None or candidate < end):
                return candidate
        return None

    def first_owned_lid(self, name: str) -> Optional[int]:
        return self.next_owned_lid(name, -1)
