"""Ablation: local vs secure channels (Section 5.2).

"When a client is colocated in the same JVM with the server, there is no
encryption or system-call overhead associated with the channel, only RMI
serialization costs" — quantified here, plus the policy-invariance claim
of Section 2.2 (the same authorization outcome over either mechanism).
"""

import pytest

from repro.core.principals import KeyPrincipal
from repro.net import Network, TrustedHost
from repro.net.trust import TrustEnvironment
from repro.prover import KeyClosure, Prover
from repro.rmi import ClientIdentity, Registry, RemoteObject, RemoteStub, RmiServer
from repro.guard import Guard
from repro.rmi.remote import RmiSkeleton
from repro.sim import Meter, SimClock
from repro.spki import Certificate
from repro.tags import Tag


def _identity(object_kp, client_kp, rng, meter=None):
    prover = Prover()
    prover.control(KeyClosure(client_kp, rng, meter=meter))
    prover.add_certificate(
        Certificate.issue(
            object_kp, KeyPrincipal(client_kp.public), Tag.all(), rng=rng
        )
    )
    return ClientIdentity(prover, client_kp)


def _secure_stub(keypool, rng, meter):
    host_kp, object_kp, client_kp = keypool[0], keypool[1], keypool[2]
    net = Network()
    server = RmiServer(net, "svc", host_kp, meter=meter)
    server.export(
        RemoteObject("obj", KeyPrincipal(object_kp.public), {"ping": lambda: "pong"})
    )
    registry = Registry()
    registry.bind("obj", "svc", "obj", host_kp.public)
    return registry.connect(
        net, "obj", client_kp, identity=_identity(object_kp, client_kp, rng, meter),
        rng=rng, meter=meter,
    )


def _local_stub(keypool, rng, meter):
    object_kp, client_kp = keypool[1], keypool[2]
    trust = TrustEnvironment()
    skeleton = RmiSkeleton(Guard(trust, meter=meter), meter=meter)
    skeleton.export(
        RemoteObject("obj", KeyPrincipal(object_kp.public), {"ping": lambda: "pong"})
    )
    host = TrustedHost(rng)
    host.register_service("obj", skeleton, trust)
    channel = host.connect(
        KeyPrincipal(client_kp.public), "obj", meter=meter
    )
    return RemoteStub(channel, "obj", _identity(object_kp, client_kp, rng, meter))


def test_secure_channel_call(benchmark, keypool, rng):
    meter = Meter()
    stub = _secure_stub(keypool, rng, meter)
    stub.invoke("ping")
    benchmark(lambda: stub.invoke("ping"))
    before = meter.snapshot()
    stub.invoke("ping")
    assert meter.snapshot() - before == pytest.approx(18.0, rel=0.05)


def test_local_channel_call(benchmark, keypool, rng):
    meter = Meter()
    stub = _local_stub(keypool, rng, meter)
    stub.invoke("ping")
    benchmark(lambda: stub.invoke("ping"))
    before = meter.snapshot()
    stub.invoke("ping")
    simulated = meter.snapshot() - before
    # local_ipc + serialization + rmi dispatch + checkAuth: no crypto.
    assert simulated < 12.0


def test_local_channel_performs_no_public_key_work(benchmark, keypool, rng):
    meter = Meter()
    stub = _local_stub(keypool, rng, meter)
    stub.invoke("ping")
    stub.invoke("ping")
    counts = meter.counts()
    assert "pk_sign" not in counts and "pk_verify" not in counts
    benchmark(lambda: stub.invoke("ping"))


def test_same_authorization_outcome_either_channel(benchmark, keypool, rng):
    """Section 2.2's policy/mechanism separation, as a measured fact."""
    meter = Meter()
    secure = _secure_stub(keypool, rng, meter)
    local = _local_stub(keypool, rng, meter)
    assert secure.invoke("ping") == local.invoke("ping")
    benchmark(lambda: (secure.invoke("ping"), local.invoke("ping")))

    # And an unauthorized principal — on its *own* channels — is refused
    # over both mechanisms.
    from repro.core.errors import NeedAuthorizationError
    from repro.net.secure import SecureChannelClient

    host_kp, object_kp, intruder_kp = keypool[0], keypool[1], keypool[6]
    intruder_prover = Prover()
    intruder_prover.control(KeyClosure(intruder_kp, rng))
    identity = ClientIdentity(intruder_prover, intruder_kp)

    net = Network()
    server = RmiServer(net, "svc2", host_kp)
    server.export(
        RemoteObject("obj", KeyPrincipal(object_kp.public), {"ping": lambda: "pong"})
    )
    secure_channel = SecureChannelClient(
        net.connect("svc2"), intruder_kp, host_kp.public, rng=rng
    )
    trust = TrustEnvironment()
    skeleton = RmiSkeleton(Guard(trust))
    skeleton.export(
        RemoteObject("obj", KeyPrincipal(object_kp.public), {"ping": lambda: "pong"})
    )
    host = TrustedHost(rng)
    host.register_service("obj2", skeleton, trust)
    local_channel = host.connect(KeyPrincipal(intruder_kp.public), "obj2")

    denied = 0
    for channel in (secure_channel, local_channel):
        try:
            RemoteStub(channel, "obj", identity).invoke("ping")
        except NeedAuthorizationError:
            denied += 1
    assert denied == 2