"""The benchmark rig's counter contract, pinned with values.

``bench/layers.py`` turns two ``(stats <id>)`` snapshots into the ``S``
rows of ``BENCHMARK.json``.  ``bench/run.py --selfcheck`` fails only on a
*missing* key, so a key that stayed but stopped counting would read 0
there without complaint.  This test serves the rig's shape — one default
``ServeListener`` over ``AuthCluster(node_count=4)``, as
``bench/server.py`` builds it — on loopback, brackets pipelined repeated
MAC checks, one revocation round and one drain of a warm node between
two wire snapshots, and requires every row that traffic exercises to
read positive.
"""

from __future__ import annotations

import asyncio
import importlib.util
import os

from repro.cluster import AuthCluster, session_routing_key
from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential
from repro.serve import ServeClient, ServeListener
from repro.sexp import sexp, to_canonical
from repro.spki import Certificate
from repro.tags import Tag

LAYERS = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "bench", "layers.py"
)
SESSIONS = 8
WINDOW = 32
ROUNDS = 4

#: The rows this traffic exercises, each a difference between snapshots.
EXERCISED = (
    "serve.server.batch_size_mean",
    "serve.protocol.decode_hit_ratio",
    "cluster.dispatch.shard_batches_per_dispatch",
    "guard.pipeline.stage_fastpath_share",
    "cluster.bus.delivered",
    "cluster.handoff.records_installed",
)


def _layers():
    """``bench/layers.py``, imported by path (it is not a package)."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_exercised_row_reads_positive(server_kp, rng):
    cluster = AuthCluster(node_count=4)
    issuer = KeyPrincipal(server_kp.public)
    sessions = []
    for _ in range(SESSIONS):
        mac_id, mac_key = cluster.mint_session(rng)
        certificate = Certificate.issue(
            server_kp, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        cluster.add_delegation(SignedCertificateStep(certificate))
        sessions.append((mac_id, mac_key, certificate.serial))

    def request(index):
        # One question per session, so the frames repeat byte for byte.
        mac_id, mac_key, _ = sessions[index % SESSIONS]
        logical = sexp(["web", ["method", "GET"], ["path", "/doc"]])
        message = to_canonical(logical)
        return GuardRequest(
            logical, issuer=issuer,
            credential=SessionCredential(mac_id, mac_key.tag(message), message),
            transport="http",
        )

    async def scenario():
        listener = ServeListener(cluster)
        host, port = await listener.start()
        # No client-minted trace ids: repeated frames are identical bytes.
        client = await ServeClient.connect(host, port, trace_sample=10 ** 6)
        warm = await client.check_pipelined(
            [request(index) for index in range(SESSIONS)]
        )
        assert all(reply.granted for reply in warm)
        before = (await client.stats_snapshot()).data
        for _ in range(ROUNDS):
            replies = await client.check_pipelined(
                [request(index) for index in range(WINDOW)]
            )
            assert all(reply.granted for reply in replies)
        cluster.revoke_serial(sessions[0][2])
        assert cluster.deliver_invalidations() > 0
        warm_node = cluster.membership.node_for(
            session_routing_key(sessions[1][0])
        )
        assert cluster.drain(warm_node.node_id).installed > 0
        after = (await client.stats_snapshot()).data
        await client.close()
        await listener.shutdown()
        return before, after

    before, after = asyncio.run(scenario())
    metrics = _layers().counter_metrics(before, after)
    assert {name: metrics[name] for name in EXERCISED if metrics[name] <= 0} == {}
