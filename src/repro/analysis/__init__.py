"""`repro.analysis` — the architecture linter (archlint).

The repo's load-bearing invariants — no `Guard(...)` construction outside
the backend factory, transports program against `AuthBackend`, clock and
entropy are always injected, every grant is audited, hot paths stay
await-friendly, credential failures map to `AuthorizationError` — used to
be enforced by ad-hoc greps and reviewer convention.  This package makes
them executable: a visitor framework over :mod:`ast`, a rule registry,
per-line suppressions (``# archlint: ignore[ARCH001]``, the one escape
hatch), and text/JSON reporters, exposed as ``python -m repro.analysis``
and ``repro.tools lint``.

The pass is self-hosted: ``tests/analysis/test_selfhost.py`` runs it over
``src/repro`` and fails on any finding.  The rule catalog
lives in ``docs/analysis.md``.
"""

from __future__ import annotations

from repro.analysis.engine import LintResult, SourceFile, iter_python_files, run
from repro.analysis.findings import Finding
from repro.analysis.registry import Rule, all_rules, get_rule, register

# Importing the rules package registers every built-in rule.
import repro.analysis.rules  # noqa: F401  (registration side effect)

__all__ = [
    "Finding",
    "LintResult",
    "Rule",
    "SourceFile",
    "all_rules",
    "get_rule",
    "iter_python_files",
    "register",
    "run",
]
