"""The guard's import hook refuses what the receiver knows is stale.

A drain hands cached chains to an inheritor's ``import_proof_entry``
hook, which re-validates each against the receiving guard's own
tombstones, clock and premise snapshot: a handed-off proof is never a
handed-off decision.  These tests drive the hook on one ``Guard``;
every refusal answers ``"refused"``, installs nothing and counts once
in ``stats["handoff_refused_stale"]``.  Sessions have no hook: one
handed over keeps its mint stamp, and so its absolute TTL.
"""

import pytest

from repro.core.errors import AuthorizationError
from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.crypto.mac import MacKey
from repro.guard import Guard, SessionRegistry
from repro.net.trust import TrustEnvironment
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

SESSION_TTL = 50.0


class HookWorld:
    """One guard, plus a two-link chain ``client => middle => issuer``
    and a channel binding ``channel => client`` it has not vouched."""

    def __init__(self, server_kp, alice_kp, bob_kp, rng):
        self.rng = rng
        self.server_kp = server_kp
        self.clock = SimClock()
        self.trust = TrustEnvironment(clock=self.clock)
        self.guard = Guard(
            self.trust,
            sessions=SessionRegistry(ttl=SESSION_TTL, clock=self.clock),
        )
        self.client = KeyPrincipal(alice_kp.public)
        middle = KeyPrincipal(bob_kp.public)
        self.leaf = SignedCertificateStep(
            Certificate.issue(bob_kp, self.client, Tag.all(), rng=rng)
        )
        self.link = SignedCertificateStep(
            Certificate.issue(server_kp, middle, Tag.all(), rng=rng)
        )
        self.chain = TransitivityStep(self.leaf, self.link)
        self.channel = ChannelPrincipal.of_secret(b"\x05" * 32)
        self.binding = SpeaksFor(self.channel, self.client, Tag.all())

    def refused(self, outcome):
        """Assert one counted refusal that left the cache empty."""
        assert outcome == "refused"
        assert self.guard.stats["handoff_refused_stale"] == 1
        assert self.guard.stats["handoff_installed"] == 0
        assert self.guard.cache.count() == 0
        return True


@pytest.fixture()
def hooks(server_kp, alice_kp, bob_kp, rng):
    return HookWorld(server_kp, alice_kp, bob_kp, rng)


def test_fresh_state_is_installed(hooks):
    """The control: with nothing stale, a chain installs — one over a
    vouched binding too — and a second offer of the same chain is a
    duplicate, not a refusal."""
    guard = hooks.guard
    premise = guard.open_channel(hooks.channel, hooks.client)
    over_binding = TransitivityStep(PremiseStep(premise), hooks.chain)
    assert guard.import_proof_entry(hooks.chain) == "installed"
    assert guard.import_proof_entry(over_binding) == "installed"
    assert guard.import_proof_entry(hooks.chain) == "duplicate"
    assert guard.stats["handoff_installed"] == 2
    assert guard.stats["handoff_refused_stale"] == 0
    assert guard.cache.count() == 2


def test_a_tombstoned_serial_is_refused(hooks):
    hooks.guard.revoke_serial(hooks.link.certificate.serial)
    assert hooks.refused(hooks.guard.import_proof_entry(hooks.chain))


def test_a_retracted_lemma_is_refused(hooks):
    hooks.guard.retract_delegation(hooks.link)
    assert hooks.refused(hooks.guard.import_proof_entry(hooks.chain))


def test_a_lapsed_window_is_refused(hooks, server_kp, rng):
    brief = SignedCertificateStep(
        Certificate.issue(
            server_kp, hooks.client, Tag.all(), Validity(0.0, 10.0), rng=rng
        )
    )
    hooks.clock.advance(20.0)
    assert hooks.refused(hooks.guard.import_proof_entry(brief))


def test_an_unvouched_premise_is_refused(hooks):
    """A chain over a channel binding this guard does not vouch."""
    chain = TransitivityStep(PremiseStep(hooks.binding), hooks.chain)
    assert hooks.refused(hooks.guard.import_proof_entry(chain))


def test_a_lapsed_session_is_refused_not_resurrected(hooks):
    """A session handed over with its original mint stamp — the one
    intake, ``install_session`` — stays dead once its TTL lapsed."""
    minted_at = hooks.clock.now()
    hooks.clock.advance(SESSION_TTL + 10.0)
    mac_key = MacKey.generate(hooks.rng)
    hooks.guard.install_session("s-1", mac_key, minted_at=minted_at)
    assert hooks.guard.sessions.get("s-1") is None
    with pytest.raises(AuthorizationError, match="unknown MAC session"):
        hooks.guard.sessions.verify_tag("s-1", b"m", mac_key.tag(b"m"))


def test_a_closed_channel_is_refused(hooks):
    """Every chain leaning on a closed binding: the close retracts its
    premise, which the hook's premise snapshot re-checks."""
    guard = hooks.guard
    premise = guard.open_channel(hooks.channel, hooks.client)
    guard.close_channel(premise)
    assert not hooks.trust.vouches_for(premise)
    chain = TransitivityStep(PremiseStep(premise), hooks.chain)
    assert hooks.refused(guard.import_proof_entry(chain))
