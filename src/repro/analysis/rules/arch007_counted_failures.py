"""ARCH007: serve-path exception handlers count what they swallow."""

from __future__ import annotations

import ast
from typing import Dict, Set

from repro.analysis.registry import Rule, register

# The wire serving path: the one place failures are routinely mapped
# (to RETRY/DENIED/ERROR replies) or absorbed (a vanished peer) instead
# of propagating, and therefore the one place an uncounted handler makes
# a failure class invisible to operators.
_FILE_SCOPE = ("repro/cluster/dispatch.py",)
_PREFIX_SCOPE = ("repro/serve/",)

# Flow-control signals: catching these is how asyncio queues and task
# teardown are *used*, not a failure being swallowed.
_EXEMPT_TYPES = {"CancelledError", "QueueFull", "QueueEmpty"}


def _caught_type_names(handler: ast.ExceptHandler) -> Set[str]:
    """The terminal names of the handler's caught types (``OSError``,
    ``asyncio.CancelledError`` → ``CancelledError``)."""
    nodes = []
    if isinstance(handler.type, ast.Tuple):
        nodes = list(handler.type.elts)
    elif handler.type is not None:
        nodes = [handler.type]
    names: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _counts_inline(node: ast.AST) -> bool:
    """Does this statement/expression tree hit a counting primitive?

    Two shapes count: a ``*.inc(...)`` call (the registry counter), and
    ``<anything>.stats[...] += ...`` / ``stats[...] += ...`` (a
    component's own counts, which ``(stats <id>)`` serves as a registry
    source).  An event is counted in one of the two, never both.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            target = child.func
            if isinstance(target, ast.Attribute) and target.attr == "inc":
                return True
        elif isinstance(child, ast.AugAssign) and isinstance(
            child.op, ast.Add
        ):
            slot = child.target
            if isinstance(slot, ast.Subscript):
                base = slot.value
                if isinstance(base, ast.Attribute) and base.attr == "stats":
                    return True
                if isinstance(base, ast.Name) and base.id == "stats":
                    return True
    return False


def _called_names(node: ast.AST) -> Set[str]:
    """Names of function calls reachable from ``node``: bare ``foo(...)``
    plus ``<any base>.foo(...)`` — the attribute form is matched by its
    terminal name so ``self._count`` and ``listener._count`` both edge
    onto a local ``_count`` definition."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if not isinstance(child, ast.Call):
            continue
        target = child.func
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


def _reraises(handler: ast.ExceptHandler) -> bool:
    """A handler that raises — the caught exception again, or a
    translation of it (``raise WireError(...)``) — swallows nothing:
    the failure keeps propagating to the boundary that turns it into a
    reply, and that handler is the one that must count it, on a
    registry it actually has."""
    return any(isinstance(child, ast.Raise) for child in ast.walk(handler))


@register
class CountedFailuresRule(Rule):
    """Flag serve-path ``except`` handlers that absorb a failure without
    incrementing an error counter.

    The serving loop's whole job is to convert failures into replies
    (RETRY on a crashed node, DENIED on a refused batch, ERROR on
    malformed bytes) or to absorb them (a peer that hung up mid-write).
    Every one of those conversions hides the failure from the process
    unless it is counted — a fleet quietly eating wire errors looks
    identical to a healthy one.  The rule builds the module's local
    call graph (like ARCH004) and requires each handler to reach a
    counting primitive — an ``*.inc(...)`` registry call or a
    ``stats[...] += 1`` dict bump — directly or through a local helper
    such as ``_count``; a handler that raises (the same exception or a
    translation of it), or that catches a pure flow-control signal
    (``CancelledError``, ``QueueFull``, ``QueueEmpty``), is exempt.
    """

    rule_id = "ARCH007"
    title = "swallowed failure without an error counter"
    rationale = (
        "The serve path maps failures to replies instead of propagating "
        "them; an except handler there must increment an obs counter "
        "(directly or via a helper) or the failure class is invisible."
    )

    def applies_to(self, rel: str) -> bool:
        return rel in _FILE_SCOPE or rel.startswith(_PREFIX_SCOPE)

    def check(self, source):
        tree = source.parse()
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        counting = {
            name
            for name, func in functions.items()
            if _counts_inline(func)
        }
        # Transitive closure over local call edges, as in ARCH004.
        changed = True
        while changed:
            changed = False
            for name, func in functions.items():
                if name in counting:
                    continue
                if _called_names(func) & counting:
                    counting.add(name)
                    changed = True
        for handler in ast.walk(tree):
            if not isinstance(handler, ast.ExceptHandler):
                continue
            caught = _caught_type_names(handler)
            if caught and caught <= _EXEMPT_TYPES:
                continue
            if _reraises(handler):
                continue
            if _counts_inline(handler):
                continue
            if _called_names(handler) & counting:
                continue
            label = ", ".join(sorted(caught)) if caught else "everything"
            yield self.finding(
                source, handler,
                "except handler catching %s neither raises nor "
                "reaches a counting primitive (*.inc() or "
                "stats[...] += 1) — count the failure it absorbs"
                % label,
            )
