"""The benchmark's server process.

One ``AuthCluster(node_count=4)`` behind one ``ServeListener`` on one
event loop, in the configuration a caller gets by default.  The process
learns nothing but bytes: wire frames on the listener socket, and a
line protocol on a second *control* socket served from the same loop
(single owner), which only calls public ``AuthCluster`` methods:

    session <mac-id> <secret-hex>     install_session
    delegate <proof-canonical-hex>    add_delegation
    revoke <serial-hex>               revoke_serial + deliver_invalidations
    drain <node-id>                   drain
    join                              add_node
    trace on | trace off              start / stop span recording
    report                            GC and recorder totals, as JSON
    quit                              drain the listener and exit

The process also exits when its standard input ends.

Every line is answered with one ``ok <json>`` or ``err <message>`` line.

With ``--trace`` the process records spans around the public functions
named in ``HOT_PATH`` and ``CONTROL_PLANE`` — from outside, by rebinding
the names; nothing in ``src/`` knows.  All of them are synchronous, so a call stack gives each
span its parent; ``read_frame`` is the one coroutine and is recorded as
one span per on-CPU slice (time parked on the socket is not a cost of
the framing layer).  Spans live in a flat integer array (untracked by
the cyclic GC, so recording does not lengthen the pauses it measures)
and are written as JSON lines on shutdown.  ``trace off`` restores every
hot-path binding, so until the next ``trace on`` the process is the
untraced program again; the control-plane wrappers stay (they are only
ever reached from a control line) and keep recording until the process
exits, with batch -1 while the hot path is untraced.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from array import array

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.cluster import AuthCluster  # noqa: E402
from repro.core.proofs import proof_from_sexp  # noqa: E402
from repro.crypto.mac import MacKey  # noqa: E402
from repro.crypto.rsa import RsaPublicKey  # noqa: E402
from repro.guard.pipeline import Guard  # noqa: E402
from repro.guard.sessions import SessionRegistry  # noqa: E402
from repro.prover.prover import Prover  # noqa: E402
from repro.serve import ServeListener  # noqa: E402
from repro.serve import protocol  # noqa: E402
from repro.sexp import encoder, parser  # noqa: E402

NODES = 4

#: Recording stops by itself at this many spans (about 48 MB of array).
SPAN_CAP = 1_000_000

#: span name -> (owner, attribute).  A class owner is patched in place;
#: a module-level function is rebound in every ``repro`` module that
#: imported it by name.
CONTROL_PLANE = {
    "cluster.bus.revoke_serial": (AuthCluster, "revoke_serial"),
    "cluster.bus.deliver_invalidations":
        (AuthCluster, "deliver_invalidations"),
    "cluster.handoff.drain": (AuthCluster, "drain"),
}
HOT_PATH = {
    "serve.protocol.read_frame": (protocol, "read_frame"),
    "serve.protocol.decode": (protocol.DecodeCache, "decode"),
    "serve.protocol.decision_reply": (protocol, "decision_reply"),
    "serve.protocol.encode_reply": (protocol, "encode_reply"),
    "cluster.dispatch.check_many": (AuthCluster, "check_many"),
    "guard.pipeline.check_many": (Guard, "check_many"),
    "guard.sessions.verify_tag": (SessionRegistry, "verify_tag"),
    "prover.find_proof": (Prover, "find_proof"),
    "sexp.parse_canonical": (parser, "parse_canonical"),
    "sexp.to_canonical": (encoder, "to_canonical"),
    "crypto.mac_verify": (MacKey, "verify"),
    "crypto.rsa_verify": (RsaPublicKey, "verify"),
}
GC_SPAN = "proc.gc"
NAMES = list(HOT_PATH) + list(CONTROL_PLANE) + [GC_SPAN]

_now = time.perf_counter_ns


class Recorder:
    """Spans as six integers each: id, name, start, end, parent, batch.

    ``batch`` counts serve batches: a decode that follows an encoded
    reply opens the next one (the listener serves one batch start to
    finish between awaits, so batches never interleave on one loop)."""

    def __init__(self):
        self.on = False
        self.data = array("q")
        self.count = 0
        self.top = -1
        self.batch = 0
        self.replied = True
        self.truncated = False
        self.installed = False
        self._undo = []
        # GC totals for the timed phase, kept even when spans are off.
        self.gc_started = 0
        self.gc_pause_ns = 0
        self.gc_gen2_max_ns = 0
        self.gc_gen2_count = 0

    # -- span capture ---------------------------------------------------------

    def begin(self) -> int:
        span = self.count
        self.count = span + 1
        if span >= SPAN_CAP:
            self.on = False
            self.truncated = True
        return span

    def sync(self, name: str, fn):
        rec = self
        name_id = NAMES.index(name)
        always = name in CONTROL_PLANE
        opens = name == "serve.protocol.decode"
        closes = name == "serve.protocol.encode_reply"

        def traced(*args, **kwargs):
            if not (rec.on or always):
                return fn(*args, **kwargs)
            if opens and rec.replied:
                rec.batch += 1
                rec.replied = False
            elif closes:
                rec.replied = True
            span = rec.begin()
            parent = rec.top
            rec.top = span
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = _now()
                rec.top = parent
                rec.data.extend((
                    span, name_id, start, end, parent,
                    rec.batch if rec.on else -1,
                ))

        traced.__wrapped__ = fn
        return traced

    def slices(self, name: str, fn):
        """Wrap a coroutine function: one span per stretch it actually
        runs, none for the time it is parked on a future."""
        rec = self
        name_id = NAMES.index(name)

        def note(start):
            if rec.on:
                rec.data.extend(
                    (rec.begin(), name_id, start, _now(), -1, rec.batch)
                )

        class Slices:
            __slots__ = ("coro",)

            def __init__(self, coro):
                self.coro = coro

            def __await__(self):
                step = self.coro.__await__()
                value = error = None
                while True:
                    start = _now()
                    try:
                        if error is None:
                            parked_on = step.send(value)
                        else:
                            parked_on = step.throw(error)
                    except StopIteration as done:
                        note(start)
                        return done.value
                    except BaseException:
                        note(start)
                        raise
                    note(start)
                    value = error = None
                    try:
                        value = yield parked_on
                    except BaseException as exc:  # cancellation: forward
                        error = exc

        def traced(*args, **kwargs):
            return Slices(fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def gc_event(self, phase, info) -> None:
        if phase == "start":
            self.gc_started = _now()
            return
        end = _now()
        pause = end - self.gc_started
        self.gc_pause_ns += pause
        if info["generation"] == 2:
            self.gc_gen2_count += 1
            self.gc_gen2_max_ns = max(self.gc_gen2_max_ns, pause)
        if self.on:
            self.data.extend((
                self.begin(), NAMES.index(GC_SPAN), self.gc_started, end,
                self.top, self.batch,
            ))

    # -- installing and removing the wrappers ---------------------------------

    def install(self) -> None:
        for name, (owner, attribute) in CONTROL_PLANE.items():
            original = getattr(owner, attribute)
            setattr(owner, attribute, self.sync(name, original))
        gc.callbacks.append(self.gc_event)
        self.installed = True

    def start(self) -> None:
        """Rebind every hot-path name to its recording wrapper."""
        if not self.count:
            self.gc_pause_ns = self.gc_gen2_max_ns = self.gc_gen2_count = 0
        for name, (owner, attribute) in HOT_PATH.items():
            original = getattr(owner, attribute)
            wrap = (
                self.slices if asyncio.iscoroutinefunction(original)
                else self.sync
            )
            traced = wrap(name, original)
            if isinstance(owner, type):
                self._rebind(owner, attribute, original, traced)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, alias, original, traced)
        self.on = not self.truncated

    def _rebind(self, owner, attribute, original, traced) -> None:
        setattr(owner, attribute, traced)
        self._undo.append((owner, attribute, original))

    def stop(self) -> None:
        self.on = False
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def report(self) -> dict:
        return {
            "spans": len(self.data) // 6,
            "truncated": self.truncated,
            "gc_pause_ms_total": self.gc_pause_ns / 1e6,
            "gc_gen2_max_ms": self.gc_gen2_max_ns / 1e6,
            "gc_gen2_count": self.gc_gen2_count,
        }

    def write(self, path: str) -> None:
        data = self.data
        with open(path, "w") as out:
            for base in range(0, len(data), 6):
                span, name_id, start, end, parent, batch = data[base:base + 6]
                out.write('[%d,"%s",%d,%d,%d,%d]\n' % (
                    span, NAMES[name_id], start, end, parent, batch
                ))


class Control:
    """The control socket's line protocol."""

    def __init__(self, cluster: AuthCluster, recorder: Recorder,
                 stop: asyncio.Event):
        self.cluster = cluster
        self.recorder = recorder
        self.stop = stop
        self.writers = set()

    async def handle(self, reader, writer) -> None:
        self.writers.add(writer)
        try:
            while not self.stop.is_set():
                line = await reader.readline()
                if not line:
                    break
                try:
                    result = self.execute(line.split())
                except Exception as exc:  # boundary: report, keep serving
                    writer.write(b"err %s\n" % repr(exc).encode("utf-8"))
                else:
                    writer.write(
                        b"ok %s\n" % json.dumps(result).encode("utf-8")
                    )
                await writer.drain()
        finally:
            self.writers.discard(writer)
            writer.close()

    def execute(self, words):
        cluster = self.cluster
        command = words[0].decode("ascii")
        if command == "session":
            cluster.install_session(
                words[1].decode("ascii"),
                MacKey(bytes.fromhex(words[2].decode("ascii"))),
            )
            return None
        if command == "delegate":
            cluster.add_delegation(proof_from_sexp(parser.parse_canonical(
                bytes.fromhex(words[1].decode("ascii"))
            )))
            return None
        if command == "revoke":
            removed = cluster.revoke_serial(
                bytes.fromhex(words[1].decode("ascii"))
            )
            return [removed, cluster.deliver_invalidations()]
        if command == "drain":
            return cluster.drain(words[1].decode("ascii")).as_dict()
        if command == "join":
            return cluster.add_node().node_id
        if command == "trace":
            if self.recorder.installed:
                if words[1] == b"on":
                    self.recorder.start()
                else:
                    self.recorder.stop()
            return None
        if command == "report":
            return self.recorder.report()
        if command == "quit":
            self.stop.set()
            return None
        raise ValueError("unknown control command %r" % command)


async def serve(trace: bool, spans_out: str) -> None:
    recorder = Recorder()
    if trace:
        recorder.install()
    cluster = AuthCluster(node_count=NODES)
    listener = ServeListener(cluster)
    _, port = await listener.start()
    stop = asyncio.Event()
    try:
        # End of input: the generator is gone (see loadgen.ServerProcess).
        asyncio.get_running_loop().add_reader(sys.stdin.fileno(), stop.set)
    except PermissionError:
        pass    # started by hand with a file for input, which cannot be polled
    lines = Control(cluster, recorder, stop)
    control = await asyncio.start_server(lines.handle, "127.0.0.1", 0)
    control_port = control.sockets[0].getsockname()[1]
    print("READY %d %d" % (port, control_port), flush=True)
    await stop.wait()
    control.close()
    # Closing a control connection ends its handler at the next read.
    for writer in list(lines.writers):
        writer.close()
    await listener.shutdown()
    if trace:
        recorder.write(spans_out)


def main() -> None:
    args = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    args.add_argument("--trace", action="store_true")
    args.add_argument("--spans-out", default="")
    options = args.parse_args()
    asyncio.run(serve(options.trace, options.spans_out))


if __name__ == "__main__":
    main()
