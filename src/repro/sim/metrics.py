"""Reporting helpers shared by the benchmark harnesses."""

from __future__ import annotations

from typing import List, Sequence, Tuple


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
