"""Name resolution over name certificates.

A *name certificate* (``Certificate.issue(..., issuer_name="friends")``)
states ``subject =T=> K·friends``: the subject is one of the principals
``K`` calls "friends".  Resolution walks dotted paths such as
``alice.friends.bob`` by following bindings level by level, and each step
yields the proof that justifies it — deposited into the Prover so later
authorization queries start from a warm graph.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.principals import (
    HashPrincipal,
    KeyPrincipal,
    NamePrincipal,
    Principal,
)
from repro.core.proofs import Proof, SignedCertificateStep, VerificationContext
from repro.core.rules import TransitivityStep
from repro.prover import Prover
from repro.spki.certificate import Certificate


class NameResolutionError(LookupError):
    """No binding (or an ambiguous one, when uniqueness was demanded)."""


class Binding:
    """One resolved step: ``subject`` is bound to ``name`` by ``proof``."""

    __slots__ = ("name", "subject", "proof")

    def __init__(self, name: NamePrincipal, subject: Principal, proof: Proof):
        self.name = name
        self.subject = subject
        self.proof = proof

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Binding(%s -> %s)" % (self.name.display(), self.subject.display())


class NameResolver:
    """Resolves compound names, feeding proofs to a Prover as it goes."""

    def __init__(self, prover: Optional[Prover] = None, context=None):
        self.prover = prover or Prover()
        self.context = context or VerificationContext()
        # name principal -> list of bindings
        self._bindings: Dict[NamePrincipal, List[Binding]] = {}

    # -- collection -------------------------------------------------------

    def add_certificate(self, certificate: Certificate) -> Binding:
        """Register a name certificate (verifying it first)."""
        if certificate.issuer_name is None:
            raise ValueError("not a name certificate (no issuer name)")
        proof = SignedCertificateStep(certificate)
        proof.verify(self.context)
        name = certificate.issuer_principal()
        assert isinstance(name, NamePrincipal)
        binding = Binding(name, certificate.subject, proof)
        self._bindings.setdefault(name, []).append(binding)
        # Collecting authorization in the course of naming (Section 4.4):
        self.prover.add_proof(proof)
        return binding

    def bindings_for(self, name: NamePrincipal) -> List[Binding]:
        return list(self._bindings.get(name, ()))

    # -- resolution -----------------------------------------------------------

    def resolve(self, name: NamePrincipal) -> List[Binding]:
        """All principals bound to one (possibly nested) name."""
        return self._resolve(name, depth=0)

    def _resolve(self, name: NamePrincipal, depth: int) -> List[Binding]:
        if depth > 16:
            raise NameResolutionError("name resolution too deep: %s" % name.display())
        results: List[Binding] = []
        results.extend(self._bindings.get(name, ()))
        # The base may itself be a name: resolve it first, then re-anchor.
        # (SDSI's "relative names": (K·a)·b resolves through each principal
        # K·a denotes.)
        if isinstance(name.base, NamePrincipal):
            for base_binding in self._resolve(name.base, depth + 1):
                anchored = NamePrincipal(base_binding.subject, name.label)
                for inner in self._resolve(anchored, depth + 1):
                    # subject => anchored-name => (via base binding) name.
                    results.append(Binding(name, inner.subject, inner.proof))
        return results

    def resolve_unique(self, name: NamePrincipal) -> Binding:
        bindings = self.resolve(name)
        if not bindings:
            raise NameResolutionError("no binding for %s" % name.display())
        subjects = {binding.subject for binding in bindings}
        if len(subjects) > 1:
            raise NameResolutionError(
                "ambiguous name %s: %d bindings" % (name.display(), len(subjects))
            )
        return bindings[0]

    def lookup(self, root: Principal, path: str) -> Binding:
        """Resolve a dotted path from a root principal.

        ``lookup(K_alice, "friends.bob")`` resolves ``K_alice·friends`` to
        some principal P, then ``P·bob``, returning the final binding.
        Every intermediate proof has already been deposited in the Prover.
        """
        labels = [label for label in path.split(".") if label]
        if not labels:
            raise NameResolutionError("empty name path")
        current = root
        binding: Optional[Binding] = None
        for label in labels:
            binding = self.resolve_unique(NamePrincipal(current, label))
            current = binding.subject
        return binding

    def proofs_of_path(self, root: Principal, path: str) -> List[Proof]:
        """The per-step proofs justifying a dotted-path lookup.

        Each element proves ``subject_k => subject_{k-1}·label_k``.  The
        steps re-anchor at each resolved principal, so there is no single
        end-to-end speaks-for statement to compose — the shippable artifact
        is the step list (and the Prover's digested graph holds them all).
        """
        labels = [label for label in path.split(".") if label]
        if not labels:
            raise NameResolutionError("empty name path")
        current = root
        proofs: List[Proof] = []
        for label in labels:
            binding = self.resolve_unique(NamePrincipal(current, label))
            proofs.append(binding.proof)
            current = binding.subject
        return proofs
