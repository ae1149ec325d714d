"""The guard's import hooks refuse what the receiver knows is stale.

A drain hands warm state to an inheritor's ``import_channel``,
``import_session`` and ``import_proof_entry`` hooks.  Each hook
re-validates against the receiving guard's own tombstones, clock,
premise snapshot and session TTL: a handed-off proof is never a
handed-off decision.  These tests drive the hooks on one ``Guard``;
every refusal answers ``"refused"``, installs nothing and counts once
in ``stats["handoff_refused_stale"]``.
"""

import pytest

from repro.core.principals import ChannelPrincipal, KeyPrincipal
from repro.core.proofs import PremiseStep, SignedCertificateStep
from repro.core.rules import TransitivityStep
from repro.core.statements import SpeaksFor, Validity
from repro.crypto.mac import MacKey
from repro.guard import Guard
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
        self.guard = Guard(self.trust, session_ttl=SESSION_TTL)
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
    """The control: with nothing stale, each hook installs, and a
    second offer of the same item is a duplicate, not a refusal."""
    guard = hooks.guard
    mac_key = MacKey.generate(hooks.rng)
    assert guard.import_channel(hooks.binding) == "installed"
    assert guard.import_session("s-1", mac_key, hooks.clock.now()) == "installed"
    assert guard.import_proof_entry(hooks.chain) == "installed"
    assert guard.import_proof_entry(hooks.chain) == "duplicate"
    assert guard.import_channel(hooks.binding) == "duplicate"
    assert guard.stats["handoff_installed"] == 3
    assert guard.stats["handoff_refused_stale"] == 0


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
    minted_at = hooks.clock.now()
    hooks.clock.advance(SESSION_TTL + 10.0)
    outcome = hooks.guard.import_session(
        "s-1", MacKey.generate(hooks.rng), minted_at
    )
    assert hooks.refused(outcome)
    assert hooks.guard.sessions.get("s-1") is None


def test_a_closed_channel_is_refused(hooks):
    """The binding and every chain leaning on it: the close tombstones
    the binding and retracts its premise."""
    guard = hooks.guard
    premise = guard.open_channel(hooks.channel, hooks.client)
    guard.close_channel(premise)
    assert hooks.refused(guard.import_channel(premise))
    assert not hooks.trust.vouches_for(premise)
    chain = TransitivityStep(PremiseStep(premise), hooks.chain)
    assert guard.import_proof_entry(chain) == "refused"
    assert guard.stats["handoff_refused_stale"] == 2
