"""A batch of one costs one wake-up, and a connection costs no task.

Both are counts that repeat, so neither gate needs a clock or a noise
margin beyond the helper thread's own hand-offs:

- a ``SelectorEventLoop`` over a selector that counts its ``select()``
  calls serves 200 serial requests (one in flight, sent by a blocking
  socket on a helper thread, the way ``steady_paced`` paces them).  A
  connection served from ``data_received`` needs one ``select()`` per
  request — readable, then decode → check → encode → write in that
  callback.  The streams + pump task + queue + dispatch task design it
  replaced needed about three (feed the reader, wake the pump, wake the
  dispatcher);
- opening connections creates no tasks: ``asyncio.all_tasks()`` is the
  same with eight connections open as with none (two per connection
  before).
"""

import asyncio
import selectors
import socket
import threading

from repro.core.principals import KeyPrincipal, MacPrincipal
from repro.core.proofs import SignedCertificateStep
from repro.guard import GuardRequest, SessionCredential, default_backend
from repro.net.trust import TrustEnvironment
from repro.obs import MetricsRegistry
from repro.prover import Prover
from repro.serve import ServeListener
from repro.serve.protocol import (
    HEADER,
    decode_reply,
    encode_check,
    encode_frame,
)
from repro.sexp import sexp, to_canonical
from repro.sim import SimClock
from repro.spki import Certificate
from repro.tags import Tag

REQUESTS = 200
SELECTS_PER_REQUEST = 1.5
CONNECTIONS = 8


class CountingSelector(selectors.DefaultSelector):
    calls = 0

    def select(self, timeout=None):
        self.calls += 1
        return super().select(timeout)


def _world(keypool, rng):
    """A guard with one warm MAC session, and that session's frames."""
    backend = default_backend(
        TrustEnvironment(clock=SimClock()), check_charge=None,
        prover=Prover(),
    )
    mac_id, mac_key = backend.mint_session(rng)
    backend.digest_delegation(SignedCertificateStep(Certificate.issue(
        keypool[0], MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng,
    )))
    frames = []
    for index in range(REQUESTS):
        logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
        message = to_canonical(logical)
        frames.append(encode_frame(encode_check(index + 1, GuardRequest(
            logical,
            issuer=KeyPrincipal(keypool[0].public),
            credential=SessionCredential(
                mac_id, mac_key.tag(message), message
            ),
            transport="http",
        ))))
    return backend, frames


def _serial_peer(address, frames, replies, loop, done):
    """Blocking request/reply, one in flight, off the loop's thread."""
    with socket.create_connection(address) as peer:
        peer.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for frame in frames:
            peer.sendall(frame)
            (length,) = HEADER.unpack(peer.recv(HEADER.size, socket.MSG_WAITALL))
            replies.append(peer.recv(length, socket.MSG_WAITALL))
    loop.call_soon_threadsafe(done.set_result, None)


def test_a_serial_request_costs_one_select_and_a_connection_no_task(
    keypool, rng
):
    backend, frames = _world(keypool, rng)
    selector = CountingSelector()
    loop = asyncio.SelectorEventLoop(selector)
    replies = []

    async def scenario():
        listener = ServeListener(backend, metrics=MetricsRegistry())
        address = await listener.start()

        # -- tasks per connection --------------------------------------
        tasks_before = len(asyncio.all_tasks())
        idle = [socket.create_connection(address) for _ in range(CONNECTIONS)]
        while listener.stats["connections"] < CONNECTIONS:
            await asyncio.sleep(0.001)
        tasks_with_connections = len(asyncio.all_tasks())
        for peer in idle:
            peer.close()

        # -- select() calls per serial request -------------------------
        done = loop.create_future()
        peer = threading.Thread(
            target=_serial_peer, args=(address, frames, replies, loop, done)
        )
        selects_before = selector.calls
        peer.start()
        await asyncio.wait_for(done, timeout=60)
        selects = selector.calls - selects_before
        peer.join(timeout=10)
        assert not peer.is_alive()
        await listener.shutdown()
        return tasks_before, tasks_with_connections, selects, listener.stats

    try:
        tasks_before, tasks_with_connections, selects, stats = (
            loop.run_until_complete(scenario())
        )
    finally:
        loop.close()

    assert all(decode_reply(reply).granted for reply in replies)
    assert len(replies) == REQUESTS == stats["grants"]
    # Serial means serial: every request was a batch of one.
    assert stats["batches"] >= REQUESTS
    per_request = selects / REQUESTS
    print("select() per serial request: %.2f; tasks per connection: %.2f" % (
        per_request, (tasks_with_connections - tasks_before) / CONNECTIONS,
    ))
    assert per_request <= SELECTS_PER_REQUEST
    assert tasks_with_connections == tasks_before
