"""ARCH001: only the backend factory constructs ``Guard``."""

from __future__ import annotations

import ast

from repro.analysis.registry import Rule, register

# The one sanctioned construction site: default_backend/resolve_backend.
_ALLOWED = {"repro/guard/backend.py"}


@register
class GuardFactoryRule(Rule):
    """Flag ``Guard(...)`` calls anywhere but ``guard/backend.py``.

    Every transport and app accepts an injected ``AuthBackend`` and
    otherwise calls ``default_backend``/``resolve_backend``; a direct
    construction pins the caller to a single-process guard and skips the
    factory's uniform threading of meter/rng/prover/session knobs.
    """

    rule_id = "ARCH001"
    title = "Guard constructed outside the backend factory"
    rationale = (
        "default_backend/resolve_backend (repro.guard.backend) is the only "
        "sanctioned Guard construction; everything else takes an injected "
        "AuthBackend, so a deployment swaps its backend in one argument."
    )

    def applies_to(self, rel: str) -> bool:
        return rel not in _ALLOWED

    def check(self, source):
        for node in ast.walk(source.parse()):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name == "Guard":
                yield self.finding(
                    source, node,
                    "direct Guard(...) construction — use "
                    "default_backend()/resolve_backend() from "
                    "repro.guard.backend, or accept an injected AuthBackend",
                )
