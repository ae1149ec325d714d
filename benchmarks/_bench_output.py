"""Benchmark result capture: every harness dumps ``BENCH_<name>.json``.

A benchmark that only prints to a terminal evaporates; one that lands
in a JSON artifact next to the repo root can be diffed across commits,
graphed, and asserted on by CI.  Each dump records the metrics, the
git revision they were measured at, and a wall-clock timestamp — the
one place in the tree where the wall clock is the *point*, since the
artifact describes a real run of a real machine.
"""

from __future__ import annotations

import json
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict

#: Repo root: BENCH files sit next to pyproject.toml, not inside benchmarks/.
ROOT = Path(__file__).resolve().parent.parent


def git_rev() -> str:
    """The short revision the numbers were measured at."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.decode("ascii", "replace").strip() or "unknown"


def stage_latency(registry) -> Dict[str, Dict[str, float]]:
    """Per-stage latency percentiles from a :class:`MetricsRegistry`:
    every ``guard.stage.*_ms`` histogram summarized as count/p50/p95/p99,
    keyed by the stage label (``fastpath``, ``proof_cache``,
    ``prover``, ``refused``)."""
    stages: Dict[str, Dict[str, float]] = {}
    for name, histogram in registry.snapshot()["histograms"].items():
        if not (name.startswith("guard.stage.") and name.endswith("_ms")):
            continue
        label = name[len("guard.stage."):-len("_ms")]
        stages[label] = {
            "count": histogram["count"],
            "p50": histogram["p50"],
            "p95": histogram["p95"],
            "p99": histogram["p99"],
        }
    return stages


def write_bench(
    name: str, metrics: Dict[str, object], registry=None
) -> Path:
    """Write ``BENCH_<name>.json`` at the repo root and return its path.

    Pass the run's :class:`MetricsRegistry` to add a ``stage_latency``
    section — p50/p95/p99 per guard stage next to the harness's own
    numbers."""
    path = ROOT / ("BENCH_%s.json" % name)
    payload = {
        "bench": name,
        "git_rev": git_rev(),
        "written_at": datetime.now(timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ"
        ),
        "metrics": metrics,
    }
    if registry is not None:
        payload["stage_latency"] = stage_latency(registry)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
