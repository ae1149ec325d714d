"""Exception hierarchy for the authorization system."""

from __future__ import annotations


class SnowflakeError(Exception):
    """Base class for all errors raised by this library."""


class ProofError(SnowflakeError):
    """A proof is structurally malformed (bad shapes, unknown rules)."""


class VerificationError(SnowflakeError):
    """A structurally sound proof failed verification.

    Examples: a signature does not check, a restriction widened along a
    chain, a certificate is outside its validity window or revoked.
    """


class AuthorizationError(SnowflakeError):
    """A request was denied: no acceptable proof of authority."""


class NodeUnavailableError(SnowflakeError, LookupError):
    """The backend that should decide a request is not serving right now.

    The condition is retryable, not a denial: the serving layer maps it
    onto its wire-level RETRY code, and the client resends the identical
    request once.  A single :class:`~repro.guard.Guard` never raises it;
    a backend that fronts something that can crash (a remote guard, a
    fault-injecting test wrapper) does.
    """

    def __init__(self, node_id=None):
        if node_id is None:
            message = "no serving node is available for this key"
        else:
            message = "node %r is not serving" % node_id
        super().__init__(message)
        self.node_id = node_id


class NeedAuthorizationError(SnowflakeError):
    """The server challenge: "prove you speak for *issuer* regarding *tag*".

    This is the paper's ``SfNeedAuthorizationException`` (Section 5.1.1).
    It carries the issuer the client must speak for, the minimum restriction
    set, and a reference to the server's proof recipient so the client's
    invoker can submit the proof and retry.
    """

    def __init__(self, issuer, tag, proof_recipient=None):
        super().__init__(
            "authorization required: prove you speak for %r regarding %s"
            % (issuer, tag.to_sexp().to_advanced() if tag is not None else "?")
        )
        self.issuer = issuer
        self.tag = tag
        self.proof_recipient = proof_recipient
