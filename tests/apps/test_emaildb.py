"""Tests for the protected email database (Section 6.2)."""

import pytest

from repro.apps.emaildb import EmailClient, EmailDatabaseServer
from repro.core.errors import NeedAuthorizationError
from repro.core.principals import KeyPrincipal
from repro.db import Eq
from repro.net import Network
from repro.prover import KeyClosure, Prover
from repro.rmi import ClientIdentity, Registry, RmiServer
from repro.sim import SimClock
from repro.spki import Certificate


@pytest.fixture()
def world(host_kp, server_kp, alice_kp, bob_kp, rng):
    net = Network()
    clock = SimClock()
    rmi = RmiServer(net, "db.addr", host_kp, clock=clock)
    email = EmailDatabaseServer(rmi, server_kp)
    registry = Registry()
    registry.bind("email", "db.addr", "emaildb", host_kp.public)

    def client_for(keypair, mailbox=None):
        prover = Prover()
        prover.control(KeyClosure(keypair, rng))
        if mailbox is not None:
            prover.add_certificate(
                Certificate.issue(
                    server_kp, KeyPrincipal(keypair.public),
                    email.mailbox_tag(mailbox), rng=rng,
                )
            )
        identity = ClientIdentity(prover, keypair)
        stub = registry.connect(net, "email", keypair, identity=identity, rng=rng)
        return EmailClient(stub)

    return {"email": email, "client_for": client_for, "rmi": rmi}


class TestMailboxOperations:
    def test_send_and_read(self, world, alice_kp):
        alice = world["client_for"](alice_kp, "alice")
        rowid = alice.send("alice", "self", "note", "remember the milk")
        inbox = alice.inbox("alice")
        assert len(inbox) == 1
        assert inbox[0]["rowid"] == rowid
        assert inbox[0]["subject"] == "note"
        assert inbox[0]["unread"] is True

    def test_mark_read_and_delete(self, world, alice_kp):
        alice = world["client_for"](alice_kp, "alice")
        rowid = alice.send("alice", "bob", "hi", "body")
        alice.mark_read("alice", rowid)
        assert alice.inbox("alice")[0]["unread"] is False
        alice.delete("alice", rowid)
        assert alice.inbox("alice") == []

    def test_where_clause_over_rmi(self, world, alice_kp):
        alice = world["client_for"](alice_kp, "alice")
        alice.send("alice", "bob", "a", "x")
        alice.send("alice", "carol", "b", "y")
        rows = alice.inbox("alice", where=Eq("sender", "carol"))
        assert len(rows) == 1 and rows[0]["subject"] == "b"


class TestMailboxIsolation:
    def test_alice_cannot_read_bob(self, world, alice_kp, bob_kp):
        bob = world["client_for"](bob_kp, "bob")
        bob.send("bob", "dave", "private", "secret")
        alice = world["client_for"](alice_kp, "alice")
        with pytest.raises(NeedAuthorizationError):
            alice.inbox("bob")

    def test_alice_cannot_write_bob(self, world, alice_kp):
        alice = world["client_for"](alice_kp, "alice")
        with pytest.raises(NeedAuthorizationError):
            alice.send("bob", "alice", "spam", "buy stuff")

    def test_undelegated_client_fully_denied(self, world, carol_kp):
        carol = world["client_for"](carol_kp, mailbox=None)
        with pytest.raises(NeedAuthorizationError):
            carol.inbox("alice")

    def test_mailbox_delegation_covers_all_methods(self, world, alice_kp):
        # One delegation covers insert/select/update/delete on the mailbox.
        alice = world["client_for"](alice_kp, "alice")
        rowid = alice.send("alice", "x", "s", "b")
        alice.inbox("alice")
        alice.mark_read("alice", rowid)
        alice.delete("alice", rowid)
        # Exactly one proof was ever submitted to the server.
        assert world["rmi"].auth.cache.count() == 1

    def test_audit_names_the_mailbox_request(self, world, alice_kp):
        alice = world["client_for"](alice_kp, "alice")
        alice.send("alice", "x", "s", "b")
        record = world["rmi"].audit.records[-1]
        assert b"alice" in record.request.to_canonical()
