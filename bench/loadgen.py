"""The load generator: one thread, raw non-blocking sockets, ``select``.

Not ``ServeClient``: encoding a ``GuardRequest`` per send would make the
generator the bottleneck and put its cost in the measurement.  Frames
come pre-built from :mod:`world`; during the timed phase the generator
only writes tape slices, counts reply frames by their length prefixes,
and stamps times.  Raw reply bytes are kept and decoded *after* the
timed phase (:meth:`Connection.replies`).

Two loop shapes (choosing-metrics guide, section 5):

- **closed** (:func:`drive_closed`): each connection keeps ``window``
  requests in flight and sends the next only when a reply returns, so a
  slow server receives less load.  Latency runs from the actual send.
- **open** (:func:`drive_open`): frames are *due* on a fixed schedule
  whatever the server does, and each request is timed from when it was
  due, so a stall is charged to every request it delays.  This loop
  polls instead of sleeping, so the generator's own wake-ups are not in
  the latencies.

The listener serves one connection's batches in order, so the k-th
reply on a connection answers the k-th request sent on it; the checker
still matches every reply to its request id afterwards.
"""

from __future__ import annotations

import json
import os
import select
import socket
import struct
import subprocess
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
_HEADER = struct.Struct("!I")
_PAGE_KB = os.sysconf("SC_PAGE_SIZE") / 1024.0
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
_now = time.perf_counter

#: A loop that has heard nothing for this long past its deadline fails
#: the run instead of hanging it.
GIVE_UP_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run as designed (not a wrong reply)."""


# -- the server process -----------------------------------------------------


class ControlChannel:
    """One connection to the server's control line protocol."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._lines = self.sock.makefile("rb")

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, line: bytes) -> None:
        self.sock.sendall(line)

    def acknowledge(self):
        """Read one reply line; returns its JSON payload."""
        reply = self._lines.readline()
        if not reply.startswith(b"ok "):
            raise BenchError("control command failed: %r" % reply)
        return json.loads(reply[3:])

    def command(self, line: bytes):
        self.send(line)
        return self.acknowledge()

    def close(self) -> None:
        self._lines.close()
        self.sock.close()


#: The busy loop :class:`Placement` parks on the server's CPU.  It runs
#: only when nothing else wants that CPU (SCHED_IDLE), and it ends by
#: itself when the generator is gone, however that went.
_SPIN = """
import os, sys
cpu, parent = int(sys.argv[1]), int(sys.argv[2])
os.sched_setaffinity(0, {cpu})
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
print("ok", flush=True)
while os.getppid() == parent:
    for _ in range(1000000):
        pass
"""


class Placement:
    """One CPU for the server, kept out of idle; the rest for the
    generator.

    A server that sleeps between requests leaves its virtual CPU idle,
    and what waking it costs is the host's business: on this VM the
    paced workloads read 15 to 60 % worse in some half hours than in
    others, whole runs at a time, while a server that never sleeps
    (``steady_pipelined``) reads the same.  With a busy loop of idle
    priority on the server's CPU — what booting with ``idle=poll`` does
    — ``lat_p50_ms`` on ``steady_paced`` repeated to 3 % where it had
    spread over 25 %.  The loop is not in ``server_cpu_us_per_req``: that
    is the server's own on-CPU time.

    With a single CPU there is nothing to separate, and nothing is done.
    """

    def __init__(self):
        self._before = os.sched_getaffinity(0)
        cpus = sorted(self._before)
        self.server_cpu: Optional[int] = None
        self._spinner = None
        if len(cpus) < 2:
            return
        self.server_cpu = cpus[0]
        os.sched_setaffinity(0, cpus[1:])
        self._spinner = subprocess.Popen(
            [sys.executable, "-c", _SPIN, str(cpus[0]), str(os.getpid())],
            stdout=subprocess.PIPE,
        )
        if self._spinner.stdout.readline() != b"ok\n":
            self.close()
            raise BenchError("could not park a busy loop on the server's CPU")

    def close(self) -> None:
        if self._spinner is not None:
            self._spinner.kill()
            self._spinner.wait()
            self._spinner.stdout.close()
            self._spinner = None
        os.sched_setaffinity(0, self._before)


class ServerProcess:
    """``bench/server.py`` in its own interpreter, on ``cpu`` if given."""

    def __init__(self, trace: bool = False, spans_out: str = "",
                 cpu: Optional[int] = None):
        command = [sys.executable, os.path.join(HERE, "server.py")]
        if trace:
            command += ["--trace", "--spans-out", spans_out]
        # Hash randomization would move dict orders, and with them GC
        # timing, between two runs over the same bytes.
        env = dict(os.environ, PYTHONHASHSEED="0")
        # The server ends when its standard input does, so it cannot
        # outlive a generator that was killed.
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env
        )
        self.pid = self.process.pid
        self.control: Optional[ControlChannel] = None
        try:
            if cpu is not None:
                # Before the server has started a thread of its own.
                os.sched_setaffinity(self.pid, {cpu})
            ready = self.process.stdout.readline().split()
            if len(ready) != 3 or ready[0] != b"READY":
                raise BenchError("server did not start: %r" % (ready,))
            self.port = int(ready[1])
            self.control_port = int(ready[2])
            self.control = ControlChannel(self.control_port)
        except BaseException:
            self.kill()
            raise

    def install(self, lines: List[bytes]) -> None:
        """Pipeline the whole world, then collect every acknowledgement."""
        self.control.send(b"".join(lines))
        for _ in lines:
            self.control.acknowledge()

    def usage(self) -> Tuple[float, float]:
        """``(cpu seconds, resident KB)`` of the server, read from /proc
        — from outside, so no server code is in the measurement.  CPU is
        the on-CPU nanoseconds of every thread (``schedstat``); a kernel
        without it falls back to ``stat``'s 10 ms ticks."""
        base = "/proc/%d" % self.pid
        try:
            cpu = 0
            for task in os.listdir(base + "/task"):
                with open("%s/task/%s/schedstat" % (base, task)) as stat:
                    cpu += int(stat.read().split()[0])
            cpu *= 1e-9
        except (OSError, ValueError, IndexError):
            with open(base + "/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            cpu = (int(fields[11]) + int(fields[12])) * _TICK_S
        with open(base + "/statm") as statm:
            resident = int(statm.read().split()[1])
        return cpu, resident * _PAGE_KB

    def quit(self) -> None:
        """Ask for a draining shutdown and wait for the process."""
        try:
            self.control.command(b"quit\n")
            self.process.wait(timeout=60)
        finally:
            self.kill()

    def kill(self) -> None:
        if self.control is not None:
            self.control.close()
            self.control = None
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()


# -- one data connection ------------------------------------------------------


class Connection:
    """A non-blocking socket that sends frames and counts reply frames."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.sent = 0            # frames handed to send()
        self.received = 0        # complete reply frames seen
        self._unsent = b""       # tail of a partial send
        self._chunks: List[bytes] = []
        self._partial = b""      # bytes of a reply frame still arriving

    def fileno(self) -> int:
        return self.sock.fileno()

    @property
    def outstanding(self) -> int:
        return self.sent - self.received

    def send(self, frames: List[bytes]) -> None:
        self.sent += len(frames)
        data = self._unsent + b"".join(frames)
        try:
            done = self.sock.send(data)
        except BlockingIOError:
            done = 0
        self._unsent = data[done:]

    def flush(self) -> None:
        if self._unsent:
            self.send([])

    def receive(self) -> int:
        """Read what is there; returns how many replies it completed.
        Only length prefixes are walked; payloads are decoded later."""
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return 0
        if not data:
            raise BenchError("server closed a data connection")
        self._chunks.append(data)
        buffer = self._partial + data
        size = len(buffer)
        offset = completed = 0
        while offset + 4 <= size:
            (length,) = _HEADER.unpack_from(buffer, offset)
            if offset + 4 + length > size:
                break
            offset += 4 + length
            completed += 1
        self._partial = buffer[offset:]
        self.received += completed
        return completed

    def replies(self) -> List[bytes]:
        """Every complete reply payload received so far, in order."""
        stream = b"".join(self._chunks)
        payloads = []
        offset = 0
        while offset + 4 <= len(stream):
            (length,) = _HEADER.unpack_from(stream, offset)
            if offset + 4 + length > len(stream):
                break
            payloads.append(stream[offset + 4:offset + 4 + length])
            offset += 4 + length
        return payloads

    def close(self) -> None:
        self.sock.close()


# -- the two loops --------------------------------------------------------------


class Timed:
    """What a timed phase hands back."""

    def __init__(self):
        self.started = _now()
        self.ended = self.started
        self.latencies: List[float] = []   # seconds, one per reply
        self.send_lag: List[float] = []    # open loop: actual send - due
        self._cpu = time.process_time()
        self.generator_busy = 0.0          # seconds the generator worked

    def finish(self, idle: Optional[float] = None) -> "Timed":
        """A loop that sleeps is busy for its CPU time; one that polls
        says how long it polled in vain (``idle``)."""
        self.ended = _now()
        if idle is None:
            self.generator_busy = time.process_time() - self._cpu
        else:
            self.generator_busy = self.elapsed - idle
        return self

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


def wait_readable(readers, timeout: float):
    return select.select(readers, [], [], max(timeout, 0.0))[0]


def drive_closed(connections: List[Connection], tapes, window: int,
                 seconds: float, marks=()) -> Timed:
    """Keep ``window`` requests in flight on every connection until
    ``seconds`` have passed or a tape runs out, then collect the tail.
    ``marks`` is an ordered list of ``(reply count, callable)``; each
    callable runs once, when that many replies have arrived."""
    timed = Timed()
    deadline = timed.started + seconds
    marks = list(marks)
    lanes = [
        (connection, tape.frames, deque())
        for connection, tape in zip(connections, tapes)
    ]
    positions = [0] * len(lanes)
    sending = True
    while True:
        now = _now()
        if now >= deadline:
            sending = False
        while marks and sum(c.received for c in connections) >= marks[0][0]:
            marks.pop(0)[1]()
        for index, (connection, frames, sent_at) in enumerate(lanes):
            room = window - connection.outstanding
            if sending and room > 0:
                position = positions[index]
                batch = frames[position:position + room]
                if not batch:
                    sending = False   # a tape ran out: stop everywhere
                    continue
                positions[index] = position + len(batch)
                connection.send(batch)
                sent_at.append([len(batch), _now()])
            else:
                connection.flush()
        if not sending and not any(c.outstanding for c in connections):
            return timed.finish()
        if now > deadline + GIVE_UP_S:
            raise BenchError("replies stopped arriving")
        readable = wait_readable(connections, 0.05)
        now = _now()
        for connection, _, sent_at in lanes:
            if connection not in readable:
                continue
            completed = connection.receive()
            # Charge the replies to the oldest unanswered sends.
            while completed:
                group = sent_at[0]
                take = min(group[0], completed)
                timed.latencies.extend([now - group[1]] * take)
                completed -= take
                group[0] -= take
                if not group[0]:
                    sent_at.popleft()


class WriteCycles:
    """Revoke / re-grant cycles beside the read traffic.

    One cycle, for the next victim session: probe (expect OK); control
    ``revoke``; on its acknowledgement probe again (expect CHALLENGE —
    ``revoke_to_deny`` runs from sending the revoke to that reply);
    control ``delegate`` the replacement certificate; on acknowledgement
    probe (expect OK — ``regrant``).  ``extras`` maps a cycle index to
    one more control line sent before that cycle (drain, join).

    The cycles talk to the server over their own control channel and
    probe connection, and never block: :meth:`advance` moves the script
    as far as the sockets that are readable allow.
    """

    def __init__(self, control: ControlChannel, probe: Connection, steps,
                 period: float, extras: Dict[int, bytes]):
        self.control = control
        self.probe = probe
        self.steps = steps      # [(three (id, frame) probes, revoke, delegate)]
        self.period = period
        self.extras = extras
        self.revoke_to_deny: List[float] = []
        self.regrant: List[float] = []
        #: (request id, expected status) of every probe sent.
        self.expected: List[Tuple[int, int]] = []
        self.done = False
        self._script = None
        self._waiting = None    # ("until", t) | ("probe",) | ("control",)

    def _run(self, started: float):
        for cycle, (probes, revoke, delegate) in enumerate(self.steps):
            yield ("until", started + cycle * self.period)
            extra = self.extras.get(cycle)
            if extra is not None:
                yield ("control", extra)
            yield ("probe", probes[0], 0)
            at = _now()
            yield ("control", revoke)
            yield ("probe", probes[1], 1)
            self.revoke_to_deny.append(_now() - at)
            at = _now()
            yield ("control", delegate)
            yield ("probe", probes[2], 0)
            self.regrant.append(_now() - at)

    def readers(self):
        kind = self._waiting[0] if self._waiting else None
        if kind == "probe":
            return [self.probe]
        if kind == "control":
            return [self.control]
        return []

    def advance(self, started: float, readable) -> None:
        if self._script is None:
            self._script = self._run(started)
            self._waiting = next(self._script)
        while not self.done:
            kind = self._waiting[0]
            result = None
            if kind == "until":
                if _now() < self._waiting[1]:
                    return
            elif kind == "probe":
                if self.probe not in readable or not self.probe.receive():
                    return
            else:
                if self.control not in readable:
                    return
                result = self.control.acknowledge()
            readable = ()
            try:
                self._waiting = step = self._script.send(result)
            except StopIteration:
                self.done = True
                return
            if step[0] == "probe":
                request_id, frame = step[1]
                self.expected.append((request_id, step[2]))
                self.probe.send([frame])
            elif step[0] == "control":
                self.control.send(step[1])


def drive_open(connection: Connection, tape, rate: float, seconds: float,
               writes: Optional[WriteCycles] = None, marks=()) -> Timed:
    """Send ``tape`` on ``connection`` at ``rate`` frames a second for
    ``seconds`` and run ``writes`` beside it until they are done
    (``marks`` as in :func:`drive_closed`).

    The loop polls and never sleeps: a generator parked in ``select``
    is woken late (0.2 ms at the median on this box, tens of
    milliseconds when the box stalls), and that lateness would be
    charged to the server in every latency."""
    timed = Timed()
    started = timed.started
    frames = tape.frames
    total = min(len(frames), int(rate * seconds))
    interval = 1.0 / rate
    marks = list(marks)
    position = 0
    idle = 0.0
    now = started
    while True:
        turn = now
        while marks and connection.received >= marks[0][0]:
            marks.pop(0)[1]()
        worked = False
        if position < total:
            # Everything due by now goes out; each frame is timed from
            # when it was due, not from this (possibly late) send.
            ready = min(int((now - started) * rate) + 1, total)
            if ready > position:
                connection.send(frames[position:ready])
                timed.send_lag.extend(
                    now - (started + k * interval)
                    for k in range(position, ready)
                )
                position = ready
                worked = True
        connection.flush()
        waiting = writes.readers() if writes is not None else []
        readable = wait_readable([connection] + waiting, 0.0)
        now = _now()
        if connection in readable:
            completed = connection.receive()
            first = connection.received - completed
            timed.latencies.extend(
                now - (started + k * interval)
                for k in range(first, connection.received)
            )
        if writes is not None:
            writes.advance(started, readable)
        reads_done = position >= total and not connection.outstanding
        if reads_done and (writes is None or writes.done):
            return timed.finish(idle)
        if now > started + seconds + GIVE_UP_S:
            raise BenchError("replies stopped arriving")
        now = _now()
        if not (worked or readable):
            idle += now - turn
