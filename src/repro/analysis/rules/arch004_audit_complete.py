"""ARCH004: every grant in the guard pipeline emits an ``AuditRecord``."""

from __future__ import annotations

import ast
from typing import Dict, Set

from repro.analysis.registry import Rule, register

_SCOPE = ("repro/guard/pipeline.py",)

# The public decision surface: anything returning from one of these must
# have passed an audit emission on its grant paths.  ``check_many`` is
# the one function that orchestrates the stages; ``check`` (a batch of
# one) reaches the emission through it on the call graph.
_DECISION_FUNCTIONS = {"check", "check_many"}


def _called_names(func: ast.AST) -> Set[str]:
    """Bare names of local calls: ``foo(...)`` and ``self.foo(...)``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id in ("self", "cls"):
            names.add(target.attr)
    return names


def _emits_audit(func: ast.AST) -> bool:
    """Does this function body append to an audit log?  Matches
    ``<anything>.audit.record(...)`` and bare ``audit.record(...)``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if not (isinstance(target, ast.Attribute) and target.attr == "record"):
            continue
        base = target.value
        if isinstance(base, ast.Attribute) and base.attr == "audit":
            return True
        if isinstance(base, ast.Name) and base.id == "audit":
            return True
    return False


def _emitting_call_lines(func: ast.AST, emitting: Set[str]):
    """Lines of calls inside ``func`` that emit an AuditRecord: direct
    ``*.audit.record(...)`` calls, or calls to local emitting helpers."""
    lines = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        if isinstance(target, ast.Attribute) and target.attr == "record":
            base = target.value
            if (isinstance(base, ast.Attribute) and base.attr == "audit") or (
                isinstance(base, ast.Name) and base.id == "audit"
            ):
                lines.append(node.lineno)
                continue
        name = None
        if isinstance(target, ast.Name):
            name = target.id
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id in ("self", "cls"):
            name = target.attr
        if name in emitting:
            lines.append(node.lineno)
    return lines


def _granted_decisions(func: ast.AST):
    """Yield ``GuardDecision(...)`` constructions whose ``granted``
    argument is the literal ``True``."""
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        target = node.func
        name = target.id if isinstance(target, ast.Name) else (
            target.attr if isinstance(target, ast.Attribute) else None
        )
        if name != "GuardDecision":
            continue
        granted = None
        if node.args:
            granted = node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "granted":
                granted = keyword.value
        if isinstance(granted, ast.Constant) and granted.value is True:
            yield node


@register
class AuditCompleteRule(Rule):
    """Flag grant paths in ``guard/pipeline.py`` with no audit emission.

    The paper's uniform-audit property ("every grant appends an
    end-to-end AuditRecord naming the transport") is what makes
    cross-transport trails comparable; a new fast path that returns a
    granted ``GuardDecision`` without flowing through an
    ``audit.record`` call silently breaks it.  Emission may be direct or
    via a local helper (``self._grant``): the rule builds the module's
    call graph and requires every grant site — and every ``check*``
    decision function — to reach an emitting function.
    """

    rule_id = "ARCH004"
    title = "grant path without AuditRecord emission"
    rationale = (
        "Uniform audit is the pipeline's contract: a granted GuardDecision "
        "must be dominated by an audit.record() emission, directly or "
        "through a helper on its call path."
    )

    def applies_to(self, rel: str) -> bool:
        return rel in _SCOPE

    def check(self, source):
        tree = source.parse()
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # Methods and module functions share one namespace: local
                # call edges are matched by bare name, which is exactly
                # how ``self._grant`` / ``_grant`` call sites read.
                functions.setdefault(node.name, node)
        emitting = {
            name for name, func in functions.items() if _emits_audit(func)
        }
        # Transitive closure over local call edges.
        changed = True
        while changed:
            changed = False
            for name, func in functions.items():
                if name in emitting:
                    continue
                if _called_names(func) & emitting:
                    emitting.add(name)
                    changed = True
        for name, func in functions.items():
            # Per-grant-site dominance (lexical approximation): the grant
            # construction must be preceded, within its function, by a
            # direct audit.record() or a call into an emitting helper —
            # otherwise a second fast path added beside an audited one
            # would inherit the whole function's clean bill.
            emit_lines = _emitting_call_lines(func, emitting)
            for grant in _granted_decisions(func):
                if any(line <= grant.lineno for line in emit_lines):
                    continue
                yield self.finding(
                    source, grant,
                    "granted GuardDecision in %s() not dominated by an "
                    "audit.record() emission — every grant emits an "
                    "AuditRecord" % name,
                )
            if name in _DECISION_FUNCTIONS and name not in emitting:
                yield self.finding(
                    source, func,
                    "decision function %s() never reaches an "
                    "audit.record() emission" % name,
                )
