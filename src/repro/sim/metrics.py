"""Reporting helpers shared by the benchmark harnesses."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple


class BarChart:
    """A named series of (label, value) bars — one paper figure.

    ``render`` produces the ASCII equivalent of the paper's bar charts so
    bench output can be eyeballed against the original.
    """

    def __init__(self, title: str, unit: str = "ms"):
        self.title = title
        self.unit = unit
        self.bars: List[Tuple[str, float]] = []

    def add(self, label: str, value: float) -> None:
        self.bars.append((label, value))

    def value(self, label: str) -> float:
        for bar_label, value in self.bars:
            if bar_label == label:
                return value
        raise KeyError(label)

    def render(self, width: int = 50) -> str:
        if not self.bars:
            return "%s (empty)" % self.title
        peak = max(value for _, value in self.bars) or 1.0
        label_width = max(len(label) for label, _ in self.bars)
        lines = [self.title]
        for label, value in self.bars:
            bar = "#" * max(1, int(round(width * value / peak)))
            lines.append(
                "  %-*s %8.1f %s  %s" % (label_width, label, value, self.unit, bar)
            )
        return "\n".join(lines)


class ComparisonTable:
    """Paper-vs-measured rows for EXPERIMENTS.md."""

    def __init__(self, title: str):
        self.title = title
        self.rows: List[Tuple[str, float, float]] = []

    def add(self, label: str, paper: float, measured: float) -> None:
        self.rows.append((label, paper, measured))

    def max_relative_error(self) -> float:
        worst = 0.0
        for _, paper, measured in self.rows:
            if paper:
                worst = max(worst, abs(measured - paper) / paper)
        return worst

    def render(self) -> str:
        lines = [
            self.title,
            "  %-34s %10s %10s %8s" % ("case", "paper", "simulated", "err"),
        ]
        for label, paper, measured in self.rows:
            err = "n/a" if not paper else "%+.0f%%" % (100 * (measured - paper) / paper)
            lines.append(
                "  %-34s %10.1f %10.1f %8s" % (label, paper, measured, err)
            )
        return "\n".join(lines)


class ClusterAggregate:
    """Aggregate view over a cluster's per-node meters.

    Each node's meter is its simulated CPU, so the *makespan* — the
    busiest node's total — is the parallel wall-clock of the run, while
    the *sum* is the serial-equivalent work.  Modeled throughput divides
    requests by makespan; the ratio of two aggregates' throughputs is the
    scaling figure the cluster benchmark asserts on.
    """

    def __init__(self, meters: Mapping[str, object]):
        if not meters:
            raise ValueError("an aggregate needs at least one meter")
        self._totals: Dict[str, float] = {
            node_id: meter.total_ms() for node_id, meter in meters.items()
        }
        self._breakdown: Dict[str, float] = {}
        for meter in meters.values():
            for operation, cost in meter.breakdown().items():
                self._breakdown[operation] = (
                    self._breakdown.get(operation, 0.0) + cost
                )

    @classmethod
    def of_nodes(cls, nodes) -> "ClusterAggregate":
        """Build from GuardNode-shaped objects (``node_id`` + ``meter``)."""
        return cls({node.node_id: node.meter for node in nodes})

    def totals(self) -> Dict[str, float]:
        """Per-node simulated milliseconds."""
        return dict(self._totals)

    def makespan_ms(self) -> float:
        """The busiest node's total — the parallel wall-clock."""
        return max(self._totals.values())

    def sum_ms(self) -> float:
        """Total work across the cluster — the serial-equivalent cost."""
        return sum(self._totals.values())

    def breakdown(self) -> Dict[str, float]:
        """Cluster-wide milliseconds per operation (the Table 1 view)."""
        return dict(self._breakdown)

    def imbalance(self) -> float:
        """Busiest node over mean load: 1.0 is a perfectly even split."""
        mean = self.sum_ms() / len(self._totals)
        return self.makespan_ms() / mean if mean else 1.0

    def throughput(self, requests: int) -> float:
        """Modeled requests per simulated second."""
        makespan = self.makespan_ms()
        if makespan <= 0:
            raise ValueError("no metered work to divide by")
        return requests / (makespan / 1000.0)

    @staticmethod
    def drain_makespan_ms(reports) -> float:
        """The longest single drain across a sequence of
        :class:`~repro.cluster.handoff.DrainReport` objects — the
        topology-change analogue of :meth:`makespan_ms` (a rolling
        upgrade's wall-clock is bounded by its slowest handoff)."""
        return max(
            (report.duration_ms for report in reports), default=0.0
        )


def shape_preserved(
    pairs: Sequence[Tuple[float, float]], tolerance: float = 0.0
) -> bool:
    """True when the measured series orders the same way the paper's does.

    ``pairs`` is a list of (paper, measured); the check is that every
    pairwise ordering in the paper's numbers holds in the measured numbers
    (within ``tolerance`` as a fraction of the larger paper value).
    """
    for i in range(len(pairs)):
        for j in range(len(pairs)):
            paper_i, measured_i = pairs[i]
            paper_j, measured_j = pairs[j]
            slack = tolerance * max(abs(paper_i), abs(paper_j))
            if paper_i + slack < paper_j and measured_i >= measured_j:
                return False
    return True
