"""Decision-level differential test: a caching ``Guard`` against a
cacheless reference and a path model, under interleavings.

A hypothesis state machine drives one ``Guard`` with a ``Prover``
through the verbs that change what may be granted: delegate a
certificate (``digest_delegation``), check with a channel credential
(one request, or a batch), advance the clock, revoke a serial, retract
a delegation.  Every decision must agree with

- a reference ``Guard`` over a fresh ``Prover``, rebuilt from the live
  delegations before every check, so it holds no derived state; and
- a path model: grant iff a path of at most ``MAX_HOPS`` live
  delegations leads from the speaker to the issuer, each in its window
  now and each covering the request.

The world is one issuer, three middle keys and six speakers.  Speakers
are only ever subjects and the issuer is only ever a signer, so every
chain the guard caches concludes ``speaker => issuer``.  Channel
credentials only: whose proof a request-hash speaker may reuse is a
separate question this test leaves out.
"""

import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.core.errors import NeedAuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.core.statements import Validity
from repro.crypto import generate_keypair
from repro.guard import ChannelCredential, Guard, GuardRequest
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import sexp
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

MAX_HOPS = 3
READ, WRITE = sexp(["read"]), sexp(["write"])

# Node 0 is the issuer, 1-3 the middle keys, 4-9 the speakers.
_KEYS = [generate_keypair(384, random.Random(0x0AC1E + i)) for i in range(4)]
_NODES = [KeyPrincipal(kp.public) for kp in _KEYS] + [
    ChannelPrincipal.of_secret(b"speaker-%d" % i) for i in range(6)
]
_SPEAKERS = range(4, len(_NODES))
# Window bounds, as offsets from the clock at delegation time.
_OFFSETS = st.sampled_from([None, -2, 0, 1, 3, 6])


@st.composite
def _windows(draw):
    low, high = draw(_OFFSETS), draw(_OFFSETS)
    if low is not None and high is not None and low > high:
        low, high = high, low
    return low, high


def _in_window(window, now):
    low, high = window
    return (low is None or low <= now) and (high is None or now <= high)


def _request(speaker, logical):
    return GuardRequest(
        logical, issuer=_NODES[0],
        credential=ChannelCredential(_NODES[speaker]), transport="rmi",
    )


def _guard(clock):
    return Guard(TrustEnvironment(clock=clock), prover=Prover(max_depth=MAX_HOPS))


_LOGICAL = st.sampled_from([READ, WRITE])
# One delegation: signer, subject, window offsets, read-only tag?  Weighted
# toward the issuer and the middle keys, so that chains from a speaker up
# to the issuer form often.
_DELEGATIONS = st.tuples(
    st.sampled_from([0, 0, 1, 2, 3]),
    st.one_of(st.integers(1, 3), st.sampled_from(_SPEAKERS)),
    _windows(),
    st.booleans(),
)


class DecisionOracle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.clock = SimClock()
        self.guard = _guard(self.clock)
        # digest -> (proof, signer, subject, window, read-only tag?)
        self.live = {}
        self.issued = []

    @initialize(delegations=st.lists(_DELEGATIONS, max_size=8))
    def seed(self, delegations):
        for delegation in delegations:
            self.delegate(delegation)

    @rule(delegation=_DELEGATIONS)
    def delegate(self, delegation):
        signer, subject, window, read_only = delegation
        if signer == subject:
            return
        now = self.clock.now()
        window = tuple(None if at is None else now + at for at in window)
        certificate = Certificate.issue(
            _KEYS[signer], _NODES[subject],
            Tag.exactly(READ) if read_only else Tag.all(),
            validity=Validity(*window),
            serial=b"serial-%d" % len(self.issued),
        )
        proof = SignedCertificateStep(certificate)
        self.guard.digest_delegation(proof)
        self.live[proof.digest()] = (proof, signer, subject, window, read_only)
        self.issued.append(proof)

    @rule(seconds=st.sampled_from([1, 2, 3, 5]))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @precondition(lambda self: self.issued)
    @rule(data=st.data())
    def revoke(self, data):
        proof = data.draw(st.sampled_from(self.issued))
        serial = proof.certificate.serial
        self.guard.revoke_serial(serial)
        for digest, held in list(self.live.items()):
            if held[0].certificate.serial == serial:
                del self.live[digest]

    @precondition(lambda self: self.issued)
    @rule(data=st.data())
    def retract(self, data):
        proof = data.draw(st.sampled_from(self.issued))
        self.guard.retract_delegation(proof)
        self.live.pop(proof.digest(), None)

    def _asks(self):
        """A speaker and a request; mostly a speaker someone delegated
        to, so that grants are common, sometimes any speaker."""
        delegated = sorted({held[2] for held in self.live.values()} & set(_SPEAKERS))
        speakers = st.sampled_from(_SPEAKERS)
        if delegated:
            speakers = st.one_of(st.sampled_from(delegated), speakers)
        return st.tuples(speakers, _LOGICAL)

    @rule(data=st.data())
    def check(self, data):
        ask = data.draw(self._asks())
        try:
            granted = self.guard.check(_request(*ask)).granted
        except NeedAuthorizationError:
            granted = False
        self._agree(ask, granted)

    @rule(data=st.data())
    def check_batch(self, data):
        asks = data.draw(st.lists(self._asks(), min_size=2, max_size=5))
        decisions = self.guard.check_many([_request(*ask) for ask in asks])
        for ask, decision in zip(asks, decisions):
            self._agree(ask, decision.granted)

    def _agree(self, ask, granted):
        reference = _guard(self.clock)
        for proof, *_ in self.live.values():
            reference.digest_delegation(proof)
        expected = reference.check_many([_request(*ask)])[0].granted
        assert granted == expected, (ask, self.clock.now())
        assert granted == self._path_exists(*ask), (ask, self.clock.now())

    def _path_exists(self, speaker, logical):
        now = self.clock.now()
        hops = [
            (subject, signer)
            for _, signer, subject, window, read_only in self.live.values()
            if _in_window(window, now) and (logical == READ or not read_only)
        ]
        reached = {speaker}
        for _ in range(MAX_HOPS):
            reached = {signer for subject, signer in hops if subject in reached}
            if 0 in reached:
                return True
        return False


DecisionOracle.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
)
TestDecisionOracle = DecisionOracle.TestCase
