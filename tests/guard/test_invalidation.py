"""Invalidation on one guard: applied before the call returns.

A delegation retracted, a serial revoked, a channel closed or a
delivery withdrawn leaves the guard's premise set or delegation graph,
purges the proof cache of every chain built on it, and is refused from
then on — cached chains included, and with nothing left to re-derive it
from.  What survives an invalidation is exactly what did not depend on
it.
"""

import pytest

from repro.core.errors import NeedAuthorizationError, VerificationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import Says
from repro.guard import ChannelCredential, GuardRequest, default_backend
from repro.net.trust import TrustEnvironment
from repro.prover import Prover
from repro.sexp import to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag


class _World:
    """A guard and one digested delegation, ``client => issuer``."""

    def __init__(self, server_kp, alice_kp, rng):
        self.guard = default_backend(
            TrustEnvironment(clock=SimClock()), prover=Prover()
        )
        self.rng = rng
        self.issuer = KeyPrincipal(server_kp.public)
        self.client = KeyPrincipal(alice_kp.public)
        self.certificate = Certificate.issue(
            server_kp, self.client, Tag.all(), rng=rng
        )
        self.delegation = SignedCertificateStep(self.certificate)
        self.guard.digest_delegation(self.delegation)

    def request(self, speaker=None, path="/doc"):
        return GuardRequest(
            ["web", ["method", "GET"], ["path", path]],
            issuer=self.issuer,
            credential=ChannelCredential(
                speaker if speaker is not None else self.client
            ),
            transport="rmi",
        )

    def warm(self):
        """Grant the client once, so its chain is cached."""
        assert self.guard.check(self.request()).stage == "prover"
        assert self.guard.check(self.request()).stage == "cache"


@pytest.fixture()
def world(server_kp, alice_kp, rng):
    return _World(server_kp, alice_kp, rng)


def _invalidate(world, invalidation):
    if invalidation == "retract":
        return world.guard.retract_delegation(world.delegation)
    return world.guard.revoke_serial(world.certificate.serial)


@pytest.mark.parametrize("invalidation", ["retract", "revoke"])
def test_an_invalidation_purges_the_cache_and_the_graph(world, invalidation):
    world.warm()
    guard = world.guard
    assert _invalidate(world, invalidation) == 2  # the cached chain, the edge
    assert guard.cache.count() == 0
    assert world.delegation not in guard.prover.graph
    assert guard.metrics.counter("guard.cache.invalidations") == 1
    assert guard.prover.graph.invalidations == 1
    for path in ("/doc", "/doc-1"):
        with pytest.raises(NeedAuthorizationError):
            guard.check(world.request(path=path))


@pytest.mark.parametrize("invalidation", ["retract", "revoke"])
def test_an_invalidation_before_any_check_leaves_nothing_to_derive(
    world, invalidation
):
    """The chain was never cached: the one search the refused check
    runs finds nothing, because the graph lost the edge."""
    _invalidate(world, invalidation)
    with pytest.raises(NeedAuthorizationError):
        world.guard.check(world.request())
    assert world.guard.metrics.counter("prover.searches") == 1


def test_a_revocation_examines_only_what_cites_the_serial(world):
    world.warm()
    world.guard.revoke_serial(world.certificate.serial)
    counted = world.guard.metrics.counter
    assert counted("prover.invalidate_examined") == 1
    assert counted("guard.cache.retract_examined") == 1
    assert world.guard.prover.graph.edge_count() == 0


@pytest.mark.parametrize("invalidation", ["retract", "revoke"])
def test_an_invalidated_delegation_digested_again_stays_refused(
    world, invalidation
):
    """Digesting the same certificate again, as a quoting gateway
    digests a client-supplied chain, does not bring it back: the guard
    reads it against its tombstones first."""
    world.warm()
    _invalidate(world, invalidation)
    with pytest.raises(VerificationError):
        world.guard.digest_delegation(SignedCertificateStep(world.certificate))
    with pytest.raises(NeedAuthorizationError):
        world.guard.check(world.request())


def test_an_unrelated_revocation_is_a_noop(world):
    world.warm()
    assert world.guard.revoke_serial(b"\x00" * 8) == 0
    assert world.guard.check(world.request()).stage == "cache"


def test_a_retraction_drops_every_edge_built_on_it(world, alice_kp, bob_kp):
    """A retraction names a lemma: the graph drops every edge embedding
    it, not only the edge stored under its own digest, and keeps the
    onward hop, which was never retracted."""
    bob = KeyPrincipal(bob_kp.public)
    onward = SignedCertificateStep(
        Certificate.issue(alice_kp, bob, Tag.all(), rng=world.rng)
    )
    guard = world.guard
    guard.digest_delegation(TransitivityStep(onward, world.delegation))
    assert guard.check(world.request(speaker=bob)).granted
    guard.retract_delegation(world.delegation)
    for speaker in (bob, world.client):
        with pytest.raises(NeedAuthorizationError):
            guard.check(world.request(speaker=speaker))
    assert world.delegation not in guard.prover.graph
    assert onward in guard.prover.graph


@pytest.mark.parametrize("invalidation", ["retract", "revoke"])
def test_the_surviving_hop_still_grants(
    world, server_kp, bob_kp, carol_kp, invalidation
):
    """``server <- mid <- client`` arrives as one digested chain, and its
    second hop dies: ``mid`` still speaks for the server, the client
    no longer does."""
    mid = KeyPrincipal(bob_kp.public)
    client = KeyPrincipal(carol_kp.public)
    first = SignedCertificateStep(
        Certificate.issue(server_kp, mid, Tag.all(), rng=world.rng)
    )
    second = SignedCertificateStep(
        Certificate.issue(bob_kp, client, Tag.all(), rng=world.rng)
    )
    guard = world.guard
    guard.digest_delegation(TransitivityStep(second, first))
    if invalidation == "retract":
        guard.retract_delegation(second.digest())
    else:
        guard.revoke_serial(second.certificate.serial)
    decision = guard.check(world.request(speaker=mid))
    assert decision.granted and decision.stage == "prover"
    with pytest.raises(NeedAuthorizationError):
        guard.check(world.request(speaker=client))


def test_a_closed_channel_purges_the_chains_over_it(world):
    guard = world.guard
    channel = ChannelPrincipal.of_secret(b"conn-1")
    premise = guard.open_channel(channel, world.client)
    guard.submit_proof(to_canonical(
        TransitivityStep(PremiseStep(premise), world.delegation).to_sexp()
    ))
    decision = guard.check(world.request(speaker=channel))
    assert decision.granted and decision.stage == "cache"

    assert guard.close_channel(premise) == 1
    assert not guard.trust.vouches_for(premise)
    assert guard.cache.count() == 0
    (decision,) = guard.check_many([world.request(speaker=channel)])
    assert not decision.granted
    assert isinstance(decision.error, NeedAuthorizationError)


def test_a_retracted_delivery_leaves_the_premise_set(world):
    """``deliver`` vouches the utterance; ``retract_delivery`` at
    teardown withdraws exactly it."""
    request = world.request()
    assert world.guard.deliver(request) == world.client
    uttered = Says(world.client, request.logical)
    assert world.guard.trust.vouches_for(uttered)
    world.guard.retract_delivery(world.client, request.logical)
    assert not world.guard.trust.vouches_for(uttered)
