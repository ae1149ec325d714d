"""ARCH002: transports program against ``AuthBackend``, not guard internals."""

from __future__ import annotations

import ast

from repro.analysis.registry import Rule, register

# The serving-side packages that must stay backend-agnostic.
_TRANSPORT_PREFIXES = (
    "repro/http/",
    "repro/rmi/",
    "repro/smtp/",
    "repro/net/",
    "repro/serve/",
    # The warm-handoff plane moves guard state between nodes, so it is
    # a transport in the boundary's sense: it must hand records over
    # through the guard's export/import hooks, never the prover or the
    # cache types — otherwise a handoff could smuggle state past the
    # receiver's re-validation.
    "repro/cluster/handoff.py",
)

# Off-limits to transports: the prover package wholesale, and the guard's
# internal cache machinery.  (repro.guard's public surface — GuardRequest,
# credentials, AuthBackend, the factory — is exactly what they *should*
# import.)
_FORBIDDEN_MODULES = ("repro.prover",)
_FORBIDDEN_NAMES = {"ProofCache", "CachedProof"}


@register
class BackendBoundaryRule(Rule):
    """Flag transport modules importing ``Prover``/``ProofCache``.

    PR 4 routed every transport through the ``AuthBackend`` protocol so a
    single guard and a sharded cluster are one constructor argument
    apart.  A transport that reaches for the prover
    or the proof cache directly re-couples wire framing to one backend.
    Client-side proof *assembly* (a proxy building its own chains) is the
    legitimate exception — suppress it inline with a reason.
    """

    rule_id = "ARCH002"
    title = "transport imports guard/prover internals"
    rationale = (
        "Transports own wire framing only; authorization state lives behind "
        "AuthBackend so cluster and single-guard deployments are "
        "interchangeable."
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(_TRANSPORT_PREFIXES)

    def check(self, source):
        for node in ast.walk(source.parse()):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if self._forbidden_module(alias.name):
                        yield self.finding(
                            source, node,
                            "transport imports %r — program against "
                            "repro.guard.AuthBackend instead" % alias.name,
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if self._forbidden_module(module):
                    yield self.finding(
                        source, node,
                        "transport imports from %r — program against "
                        "repro.guard.AuthBackend instead" % module,
                    )
                    continue
                for alias in node.names:
                    if alias.name in _FORBIDDEN_NAMES:
                        yield self.finding(
                            source, node,
                            "transport imports %s — the proof cache is "
                            "Guard-internal; delegate via AuthBackend"
                            % alias.name,
                        )

    @staticmethod
    def _forbidden_module(module: str) -> bool:
        return any(
            module == forbidden or module.startswith(forbidden + ".")
            for forbidden in _FORBIDDEN_MODULES
        )
