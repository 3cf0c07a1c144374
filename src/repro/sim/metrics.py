"""Throughput metrics for simulated deployments.

The paper's evaluation reports two kinds of numbers: steady-state throughput
per machine (Tables 2–5, Figures 7–8) and per-second throughput timeseries
(Figure 9).  :class:`MetricsRegistry` supports both: every counted event is
binned by simulated time, so totals, windowed rates, and timeseries all come
from the same counters.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError


class MetricsRegistry:
    """Time-binned counters keyed by ``(source, metric)``."""

    def __init__(self, bin_width: float = 0.1) -> None:
        if bin_width <= 0:
            raise ConfigurationError("bin_width must be positive")
        self.bin_width = bin_width
        self._bins: Dict[Tuple[str, str], Dict[int, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._totals: Dict[Tuple[str, str], float] = defaultdict(float)

    def add(self, source: str, metric: str, n: float, time: float) -> None:
        """Count ``n`` occurrences of ``metric`` at ``source`` at sim ``time``."""
        key = (source, metric)
        self._bins[key][int(time / self.bin_width)] += n
        self._totals[key] += n

    def total(self, source: str, metric: str) -> float:
        return self._totals.get((source, metric), 0.0)

    def sources(self, metric: Optional[str] = None) -> List[str]:
        """All sources seen (optionally only those reporting ``metric``)."""
        names = {
            src for (src, m) in self._totals if metric is None or m == metric
        }
        return sorted(names)

    def rate(
        self,
        source: str,
        metric: str,
        start: float,
        end: float,
    ) -> float:
        """Average events/second over the whole bins inside ``[start, end)``.

        Only bins fully contained in the window count, so partially-covered
        edge bins never bias the rate; the epsilon guards against
        floating-point bin-boundary drift (0.3/0.1 == 2.999...).
        """
        if end <= start:
            raise ConfigurationError(f"empty rate window [{start}, {end})")
        first = int(math.ceil(start / self.bin_width - 1e-9))
        last = int(math.floor(end / self.bin_width + 1e-9))
        if last <= first:
            raise ConfigurationError(
                f"window [{start}, {end}) spans no whole {self.bin_width}s bin"
            )
        bins = self._bins.get((source, metric), {})
        count = sum(bins.get(b, 0.0) for b in range(first, last))
        return count / ((last - first) * self.bin_width)

    def stage_rate(
        self,
        prefix: str,
        metric: str,
        start: float,
        end: float,
    ) -> float:
        """Summed rate across every source whose name starts with ``prefix``."""
        return sum(
            self.rate(source, metric, start, end)
            for source in self.sources(metric)
            if source.startswith(prefix)
        )

    def timeseries(
        self,
        source: str,
        metric: str,
        bin_width: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """(bin start time, events/second) pairs, in time order (Figure 9).

        ``bin_width`` may coarsen (must be an integer multiple of the
        registry's native width).
        """
        width = bin_width or self.bin_width
        factor = round(width / self.bin_width)
        if factor < 1 or abs(factor * self.bin_width - width) > 1e-12:
            raise ConfigurationError(
                f"bin_width {width} is not a multiple of native {self.bin_width}"
            )
        bins = self._bins.get((source, metric), {})
        if not bins:
            return []
        coarse: Dict[int, float] = defaultdict(float)
        for b, count in bins.items():
            coarse[b // factor] += count
        return [
            (b * width, coarse[b] / width) for b in sorted(coarse)
        ]
