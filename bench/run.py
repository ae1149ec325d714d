"""The repo's benchmark: out-of-process wire load against ``repro.serve``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run of one workload; the last line of standard output is the
        result object ``BENCHMARK.json`` describes (end-to-end metrics
        with ``--trace 0``, per-layer metrics with ``--trace 1``)
    python3 bench/run.py [--seed N] [--seconds S] [--repeat R] [--out FILE]
        every workload, untraced (R times, seeds N..N+R-1; medians go to
        FILE) then traced, as a readable report
    python3 bench/run.py --compare A.json B.json
        two ``--out`` files side by side, against the declared bounds
    python3 bench/run.py --selfcheck
        tapes are a function of the seed; printed names = declared names

Each run builds a seeded world (:mod:`world`), starts ``bench/server.py``
as a fresh process, installs the world over the control line, warms up,
drives the timed phase from :mod:`loadgen` (on ``churn_paced`` with the
write cycles beside it), reads the server's counters with
``(stats <id>)``, stops the server, and only then decodes every reply and
checks it against what its request id was built to get.  See
``bench/README.md`` for what each workload is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import loadgen  # noqa: E402
import world as worlds  # noqa: E402
from repro.serve.protocol import (  # noqa: E402
    CHALLENGE, OK, RETRY, STATS_OK, WireError, decode_reply, encode_frame,
    encode_stats,
)

_now = time.perf_counter

#: Fresh servers set up per untraced run; ``setup_s`` is their lower
#: quartile (see BEST).
SETUPS = 5
#: The timed phase is cut into this many slices of equal reply count, and
#: each timing metric is computed per slice.
SLICES = 60
#: A run reports the slice (or write cycle) at this quantile from the
#: *good* end.  What disturbs a run on a shared box — a neighbour's load,
#: a stall, a collection that lands in the slice — only ever makes it
#: slower, so the good end is where the program's own cost shows, and it
#: repeats from run to run two to three times better than the median or
#: the whole-run mean do.  (The whole-run figures are kept per layer.)
BEST = 0.1
#: Write cycles a second beside the ``churn_paced`` bystanders.
CHURN_HZ = 10
#: A generator busier than this is measuring itself, not the server.
MAX_GENERATOR_SHARE = 0.8
OUT_DIR = os.path.join(HERE, "out")


class Spec(NamedTuple):
    """One workload: loop shape, size, and which tape feeds it.

    Request counts are fixed (``rate x --seconds``), not durations, so the
    server's heap and caches are in the same state at every point of a
    run on both sides of a comparison.  For an open loop ``rate`` is the
    pace; for a closed loop it only sizes the tape, at about today's
    throughput, so that a run measures for about ``--seconds``."""

    loop: str
    tape: str
    warm: int
    rate: float
    connections: int = 1
    window: int = 0
    churn: bool = False


SPECS = {
    "steady_pipelined": Spec("closed", "steady_tape", 3000, 5500.0,
                             connections=2, window=32),
    "steady_paced": Spec("open", "steady_tape", 3000, 1500.0),
    "offpath_mixed": Spec("closed", "offpath_tape", 200, 800.0,
                          connections=2, window=8),
    "churn_paced": Spec("open", "steady_tape", 3000, 1000.0, churn=True),
}
#: A closed loop that has not finished its tape after this many times
#: ``--seconds`` stops sending (a server several times slower than today).
CLOSED_LOOP_CAP = 3.0


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared_units(spec: dict) -> dict:
    return {
        metric["name"]: metric["unit"]
        for metric in spec["end_to_end"] + spec["per_layer"]
    }


# -- one run --------------------------------------------------------------------


class Phase:
    """Correctness of one phase: what was sent and how it was answered."""

    def __init__(self, name: str):
        self.name = name
        self.sent = self.ok = self.challenge = self.failed = 0
        self.retries = 0

    def check(self, payloads, expected, ok_labels=None) -> None:
        """``expected`` maps request id -> world.OK / world.CHALLENGE for
        every request sent; each must be answered exactly once with that
        status (and, where pinned, that via/stage)."""
        self.sent += len(expected)
        pending = dict(expected)
        for payload in payloads:
            try:
                reply = decode_reply(payload)
            except (WireError, ValueError):
                self.failed += 1
                continue
            want = pending.pop(reply.request_id, None)
            if reply.status == RETRY:
                self.retries += 1
            if want == worlds.OK and reply.status == OK and (
                ok_labels is None or (reply.via, reply.stage) == ok_labels
            ):
                self.ok += 1
            elif want == worlds.CHALLENGE and reply.status == CHALLENGE:
                self.challenge += 1
            else:
                # Wrong status, unknown or duplicate id.  An OK where a
                # CHALLENGE was due is a grant that outlived its revoke.
                self.failed += 1
        self.failed += len(pending)   # never answered

    def as_dict(self) -> dict:
        return {"sent": self.sent, "ok": self.ok,
                "challenge": self.challenge, "failed": self.failed}


def tape_expectation(tape, sent: int) -> dict:
    return {
        tape.first_id + index: tape.expect[index] for index in range(sent)
    }


def fetch_stats(port: int, request_id: int):
    """One ``(stats <id>)`` round trip: ``(snapshot, milliseconds)``."""
    connection = loadgen.Connection(port)
    try:
        started = _now()
        connection.send([encode_frame(encode_stats(request_id))])
        while not connection.received:
            loadgen.wait_readable([connection], 30.0)
            connection.receive()
            if _now() - started > 30.0:
                raise loadgen.BenchError("no reply to (stats)")
        elapsed_ms = (_now() - started) * 1000.0
        reply = decode_reply(connection.replies()[0])
    finally:
        connection.close()
    if reply.status != STATS_OK:
        raise loadgen.BenchError("(stats) answered %s" % reply.status)
    return reply.data, elapsed_ms


class Run:
    """Everything one invocation measured."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.metrics = {}
        self.phases = []
        self.wall_s = 0.0
        self.server_pid = 0

    @property
    def attempted(self) -> int:
        return sum(phase.sent for phase in self.phases)

    @property
    def failed(self) -> int:
        return sum(phase.failed for phase in self.phases)

    @property
    def valid(self) -> bool:
        return self.metrics["loadgen.cpu_share"] <= MAX_GENERATOR_SHARE


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Run:
    spec = SPECS[name]
    run = Run(trace)
    wall = _now()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, "%s.spans.jsonl" % name)

    # The world and every byte the server will receive, from the seed.
    cycles = max(int(seconds * CHURN_HZ), 3) if spec.churn else 0
    world = worlds.World(seed, victims=cycles)
    build_tape = getattr(world, spec.tape)
    warm_tapes = [
        world.cover_tape(world.sessions + world.victims),
        build_tape(spec.warm),
    ]
    tapes = [
        build_tape(int(spec.rate * seconds / spec.connections))
        for _ in range(spec.connections)
    ]
    steps = [
        ([world.probe_frame(victim) for _ in range(3)],
         worlds.revoke_line(victim.leaf),
         worlds.delegate_line(victim.replacement))
        for victim in world.victims
    ]
    install = world.install_lines()
    stats_ids = [world.take_id() for _ in range(2)]
    world_build_s = _now() - wall

    # Set-up: a fresh server made to hold the world and warmed up.  Done
    # several times because one process start is a noisy thing to time;
    # the last server is the one measured.
    setup_times = []
    server = None
    closing = []
    placement = loadgen.Placement()
    try:
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                server.quit()
            started = _now()
            server = loadgen.ServerProcess(
                trace, spans_path, placement.server_cpu
            )
            server.install(install)
            warm = loadgen.Connection(server.port)
            closing.append(warm)
            for tape in warm_tapes:
                loadgen.drive_closed([warm], [tape], 32, loadgen.GIVE_UP_S)
            setup_times.append(_now() - started)
        run.server_pid = server.pid

        connections = [
            loadgen.Connection(server.port) for _ in range(spec.connections)
        ]
        closing += connections
        writes = None
        if spec.churn:
            probe = loadgen.Connection(server.port)
            cycle_control = loadgen.ControlChannel(server.control_port)
            closing += [probe, cycle_control]
            writes = loadgen.WriteCycles(
                cycle_control, probe, steps, 1.0 / CHURN_HZ,
                {cycles // 3: b"drain node-1\n", 2 * cycles // 3: b"join\n"},
            )
        # The traced run records spans in the first and last quarter
        # of the timed phase and runs untraced in between, so heap
        # growth (GC gets dearer as a run goes on) weighs on both sides
        # of trace.overhead_ratio alike.
        samples = []

        def switch(command):
            def mark():
                samples.append((
                    server.usage()[0], sum(c.received for c in connections)
                ))
                server.control.send(command)
            return mark

        total = int(spec.rate * seconds)
        marks = [
            (total // 4, switch(b"trace off\n")),
            (total * 3 // 4, switch(b"trace on\n")),
        ] if trace else []
        # Slice boundaries: (time, server CPU, replies so far).
        cuts = []

        def cut():
            cuts.append((
                _now(), server.usage()[0],
                sum(c.received for c in connections),
            ))

        switches = len(marks)
        marks = sorted(
            marks + [(total * k // SLICES, cut) for k in range(1, SLICES)],
            key=lambda mark: mark[0],
        )

        before, _ = fetch_stats(server.port, stats_ids[0])
        if trace:
            server.control.command(b"trace on\n")
        # The generator allocates nothing cyclic while it drives, and a
        # collection over the world's object graph would stall its sends.
        gc.collect()
        gc.disable()
        usage_start = server.usage()
        if spec.loop == "closed":
            timed = loadgen.drive_closed(
                connections, tapes, spec.window, seconds * CLOSED_LOOP_CAP,
                marks=marks,
            )
        else:
            timed = loadgen.drive_open(
                connections[0], tapes[0], spec.rate, seconds,
                writes=writes, marks=marks,
            )
        usage_end = server.usage()
        gc.enable()
        report = None
        if trace:
            if len(samples) != switches:
                raise loadgen.BenchError("timed phase ended before its marks")
            for _ in range(switches):
                server.control.acknowledge()
            server.control.command(b"trace off\n")
            report = server.control.command(b"report\n")
        after, snapshot_ms = fetch_stats(server.port, stats_ids[1])
        rss_end_kb = server.usage()[1]
        for item in closing:
            item.close()
        closing = []
        server.quit()
        server = None
    finally:
        for item in closing:
            item.close()
        if server is not None:
            server.kill()
        placement.close()

    # Only now decode and check every reply.
    warmup = Phase("warmup")
    expected = {}
    for tape in warm_tapes:
        expected.update(tape_expectation(tape, len(tape)))
    warmup.check(warm.replies(), expected)
    timed_phase = Phase("timed")
    for connection, tape in zip(connections, tapes):
        timed_phase.check(
            connection.replies(), tape_expectation(tape, connection.sent),
            tape.ok_labels,
        )
    write_phase = Phase("writes")
    if writes is not None:
        write_phase.check(writes.probe.replies(), dict(writes.expected))
    run.phases = [warmup, timed_phase, write_phase]

    replies = sum(connection.received for connection in connections)
    cuts = (
        [(timed.started, usage_start[0], 0)] + cuts
        + [(timed.ended, usage_end[0], replies)]
    )
    rates, costs, medians = [], [], []
    for (t0, cpu0, n0), (t1, cpu1, n1) in zip(cuts, cuts[1:]):
        if n1 > n0:
            rates.append((n1 - n0) / (t1 - t0))
            costs.append((cpu1 - cpu0) / (n1 - n0))
            medians.append(layers.percentile(timed.latencies[n0:n1], 0.50))
    cpu_s = usage_end[0] - usage_start[0]
    metrics = run.metrics
    metrics["setup_s"] = layers.percentile(setup_times, 0.25)
    # An open loop's rate is its schedule; what it shows is whether the
    # server kept up over the whole phase.
    metrics["rps"] = (
        layers.percentile(rates, 1.0 - BEST) if spec.loop == "closed"
        else replies / timed.elapsed
    )
    metrics["lat_p50_ms"] = layers.percentile(medians, BEST) * 1e3
    metrics["server_cpu_us_per_req"] = layers.percentile(costs, BEST) * 1e6
    metrics["server_rss_kb_per_kreq"] = (
        (usage_end[1] - usage_start[1]) / replies * 1e3
    )
    metrics["failed_share"] = run.failed / run.attempted

    metrics["loadgen.cpu_share"] = timed.generator_busy / timed.elapsed
    metrics["loadgen.send_lag_p99_ms"] = (
        layers.percentile(timed.send_lag, 0.99) * 1e3
    )
    metrics["loadgen.rps_whole_run"] = replies / timed.elapsed
    # Zero where there are no write cycles (every workload but churn_paced).
    metrics["loadgen.revoke_to_deny_ms"] = layers.percentile(
        writes.revoke_to_deny if writes else (), BEST) * 1e3
    metrics["loadgen.regrant_ms"] = layers.percentile(
        writes.regrant if writes else (), BEST) * 1e3
    # Whole-run tails: on this box they are set by how long the gen-2
    # collections and the box's own stalls last, and vary by half from
    # run to run, so they carry no bound.
    for name, q in (("p99", 0.99), ("p999", 0.999)):
        metrics["loadgen.lat_%s_ms" % name] = (
            layers.percentile(timed.latencies, q) * 1e3
        )
    metrics["proc.cpu_us_per_req_whole_run"] = cpu_s / replies * 1e6
    metrics["loadgen.world_build_s"] = world_build_s
    metrics["obs.snapshot_ms"] = snapshot_ms
    metrics["proc.rss_mb_end"] = rss_end_kb / 1024.0
    metrics["cluster.handoff.client_retries"] = sum(
        phase.retries for phase in run.phases
    )
    metrics.update(layers.counter_metrics(before, after))
    if trace:
        (off_cpu, off_replies), (on_cpu, on_replies) = samples
        traced_replies = off_replies + replies - on_replies
        traced_cpu_us = (
            (off_cpu - usage_start[0] + usage_end[0] - on_cpu)
            / traced_replies * 1e6
        )
        untraced_cpu_us = (
            (on_cpu - off_cpu) / (on_replies - off_replies) * 1e6
        )
        hot, late = layers.read_spans(spans_path)
        metrics.update(
            layers.span_metrics(hot, late, traced_replies, traced_cpu_us)
        )
        metrics["trace.server_cpu_us_per_req"] = traced_cpu_us
        metrics["trace.overhead_ratio"] = traced_cpu_us / untraced_cpu_us
        for key in ("gc_pause_ms_total", "gc_gen2_max_ms", "gc_gen2_count"):
            metrics["proc.%s" % key] = report[key]
        if report["truncated"]:
            raise loadgen.BenchError(
                "span recording hit its cap before the timed phase ended"
            )
    run.wall_s = _now() - wall
    return run


# -- output ---------------------------------------------------------------------


def result_line(run: Run, names) -> str:
    """The contract's result object for one run."""
    units = declared_units(declared())
    return json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": run.metrics[name], "unit": units[name]}
            for name in names
        },
    })


def environment(seed: int, seconds: float) -> dict:
    """Where and on what these numbers were taken."""

    def git(*words) -> str:
        try:
            return subprocess.run(
                ("git", "-C", ROOT) + words, capture_output=True, text=True,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return ""

    revision = git("rev-parse", "HEAD")
    return {
        "cpu_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_rev": revision or "unknown",
        "git_dirty": bool(git("status", "--porcelain")) if revision else None,
        "seed": seed,
        "seconds": seconds,
        "link": "loopback, not a real link",
        "generator_pid": os.getpid(),
    }


def print_run(run: Run, names, units) -> None:
    print("  %s run: wall %.1f s, server pid %d; %s" % (
        "traced" if run.trace else "untraced", run.wall_s, run.server_pid,
        "; ".join(
            "%s sent %d ok %d challenge %d failed %d" % (
                phase.name, phase.sent, phase.ok, phase.challenge,
                phase.failed)
            for phase in run.phases
        ),
    ))
    print("  generator: loadgen.cpu_share %.3f  loadgen.send_lag_p99_ms "
          "%.3f%s" % (
              run.metrics["loadgen.cpu_share"],
              run.metrics["loadgen.send_lag_p99_ms"],
              "" if run.valid else "  ** INVALID: generator-bound **"))
    for name in names:
        print("    %-46s %14.4f %s" % (name, run.metrics[name], units[name]))


def full_report(seed: int, seconds: float, out: str, repeat: int) -> int:
    """Every workload: ``repeat`` untraced runs on seeds ``seed``,
    ``seed + 1``, ... (the document holds each metric's median over them),
    then one traced run."""
    spec = declared()
    units = dict(declared_units(spec), failed_share="ratio")
    end_to_end = [m["name"] for m in spec["end_to_end"]] + ["failed_share"]
    per_layer = [m["name"] for m in spec["per_layer"]]
    env = dict(environment(seed, seconds), untraced_runs=repeat)
    print("environment: %s" % json.dumps(env))
    document = {"env": env, "workloads": {}}
    failed = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        print("\n%s — %s" % (name, workload["why"]))
        plains = []
        for offset in range(repeat):
            plains.append(
                run_workload(name, seed + offset, seconds, trace=False)
            )
            print_run(plains[-1], end_to_end, units)
        medians = {
            n: statistics.median(run.metrics[n] for run in plains)
            for n in end_to_end
        }
        if repeat > 1:
            print("  median of %d untraced runs" % repeat)
            for n in end_to_end:
                print("    %-46s %14.4f %s" % (n, medians[n], units[n]))
        traced = run_workload(name, seed, seconds, trace=True)
        print_run(traced, per_layer, units)
        print("  budget: %.1f%% of traced server_cpu_us_per_req (%.1f us) is "
              "attributed to named layers; the rest is serve.server.self_us"
              % (traced.metrics["trace.attributed_share"] * 100.0,
                 traced.metrics["trace.server_cpu_us_per_req"]))
        runs = plains + [traced]
        valid = all(run.valid for run in runs)
        failed += sum(run.failed for run in runs) + (not valid)
        document["workloads"][name] = {
            "end_to_end": medians,
            "per_layer": {n: traced.metrics[n] for n in per_layer},
            "phases": {p.name: p.as_dict() for p in plains[0].phases},
            "wall_s": sum(run.wall_s for run in runs),
            "server_pids": [run.server_pid for run in runs],
            "valid": valid,
        }
    if out:
        with open(out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
    return 1 if failed else 0


def compare(path_a: str, path_b: str) -> int:
    """Both values, the relative difference and the bound per (metric,
    workload); non-zero when any end-to-end metric differs by more."""
    with open(path_a) as a, open(path_b) as b:
        first, second = json.load(a), json.load(b)
    bounds = {m["name"]: m for m in declared()["end_to_end"]}
    beyond = 0
    for env in (first["env"], second["env"]):
        print("env: %s" % json.dumps(env, sort_keys=True))
    print("%-18s %-24s %14s %14s %9s %7s" % (
        "workload", "metric", "A", "B", "diff", "bound"))
    for workload, entry in first["workloads"].items():
        other = second["workloads"][workload]["end_to_end"]
        for name, value in entry["end_to_end"].items():
            if name == "failed_share":
                worse = other[name] > value
                diff, bound = other[name] - value, 0.0
            else:
                diff = (other[name] - value) / value
                bound = bounds[name]["bound"]
                worse = abs(diff) > bound
            beyond += worse
            print("%-18s %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s" % (
                workload, name, value, other[name], diff * 100.0,
                bound * 100.0, "  <-- beyond bound" if worse else ""))
    return 1 if beyond else 0


def selfcheck() -> int:
    """Same seed, same bytes; another seed, other bytes; and the names a
    run prints are the names ``BENCHMARK.json`` declares."""
    spec = declared()
    seconds = spec["run_seconds"] / 20.0

    def fingerprint(seed: int) -> str:
        world = worlds.World(seed, victims=3)
        digest = hashlib.sha256(b"".join(world.install_lines()))
        for workload in SPECS.values():
            tape = getattr(world, workload.tape)(
                int(workload.rate * seconds)
            )
            digest.update(b"".join(tape.frames))
        return digest.hexdigest()

    def require(holds: bool, what: str) -> None:
        if not holds:
            raise loadgen.BenchError("selfcheck: " + what)

    require(fingerprint(7) == fingerprint(7), "same seed, different tapes")
    require(fingerprint(7) != fingerprint(8), "different seed, same tapes")
    require(
        sorted(SPECS) == sorted(w["name"] for w in spec["workloads"]),
        "workloads run are not the workloads declared",
    )
    for name in SPECS:
        # A traced run computes the end-to-end metrics too, so one run a
        # workload covers both sections.
        run = run_workload(name, 7, seconds, trace=True)
        for section in ("end_to_end", "per_layer"):
            names = [metric["name"] for metric in spec[section]]
            # result_line raises KeyError for a declared name the run
            # did not measure.
            printed = json.loads(result_line(run, names))
            require(printed["failed"] == 0, "%s: %r" % (name, printed))
    print("selfcheck ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--selfcheck", action="store_true")
    options = parser.parse_args()
    if options.compare:
        return compare(*options.compare)
    if options.selfcheck:
        return selfcheck()
    spec = declared()
    seconds = options.seconds or float(spec["run_seconds"])
    if options.workload is None:
        return full_report(
            options.seed, seconds, options.out, max(options.repeat, 1)
        )
    run = run_workload(
        options.workload, options.seed, seconds, bool(options.trace)
    )
    if not run.valid:
        print("invalid run: loadgen.cpu_share %.2f > %.1f" % (
            run.metrics["loadgen.cpu_share"], MAX_GENERATOR_SHARE),
            file=sys.stderr)
        return 2
    section = "per_layer" if options.trace else "end_to_end"
    names = [metric["name"] for metric in spec[section]]
    print("environment: %s" % json.dumps(environment(options.seed, seconds)))
    print(options.workload)
    print_run(run, names, declared_units(spec))
    print(result_line(run, names))
    return 1 if run.failed else 0


if __name__ == "__main__":
    sys.exit(main())
