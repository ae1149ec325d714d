"""Measurement substrate: simulated clock, cost model, and statistics.

The paper's evaluation ran on 270 MHz Sun Ultra 5 hosts; we cannot rerun
that testbed, so benchmarks report two kinds of numbers:

- *measured*: real wall-clock time of this Python implementation (via
  pytest-benchmark);
- *simulated*: the protocol implementations charge a :class:`Meter` for
  each abstract operation they perform (a public-key signature, a 2 KB
  S-expression parse, a MAC, a Jetty-class dispatch, ...), priced by the
  :class:`CostModel` calibrated from the paper's own component breakdowns
  (Table 1, Figures 6-8).  Because the charges are issued by the same code
  paths that do the work, the *shape* of every figure — who wins, by what
  factor, where the crossovers fall — emerges from protocol structure
  rather than from hard-coded totals.

:mod:`repro.sim.regression` reproduces the paper's experimental method
(Section 7.1): linear regressions to separate setup cost from per-request
and per-byte cost, with coefficient-of-variation re-run rules.
"""

from repro.sim.clock import SimClock
from repro.sim.costmodel import CostModel, Meter, PAPER_COSTS
from repro.sim.regression import linear_regression, coefficient_of_variation, Experiment

__all__ = [
    "SimClock",
    "CostModel",
    "Meter",
    "PAPER_COSTS",
    "linear_regression",
    "coefficient_of_variation",
    "Experiment",
]
