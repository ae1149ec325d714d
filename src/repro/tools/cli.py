"""The ``repro.tools`` command-line interface."""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.core.principals import principal_from_sexp
from repro.core.proofs import (
    SignedCertificateStep,
    VerificationContext,
    proof_from_sexp,
)
from repro.core.statements import Validity
from repro.crypto.numtheory import int_to_bytes
from repro.crypto.rsa import RsaKeyPair, RsaPrivateKey, RsaPublicKey, generate_keypair
from repro.sexp import (
    Atom,
    SExp,
    SList,
    parse,
    parse_canonical,
    to_advanced,
    to_canonical,
)
from repro.spki.certificate import Certificate
from repro.tags import Tag


def _private_key_sexp(keypair: RsaKeyPair) -> SExp:
    private = keypair.private
    return SList(
        [
            Atom("private-key"),
            SList(
                [
                    Atom("rsa"),
                    SList([Atom("e"), Atom(int_to_bytes(private.e))]),
                    SList([Atom("n"), Atom(int_to_bytes(private.n))]),
                    SList([Atom("d"), Atom(int_to_bytes(private.d))]),
                    SList([Atom("p"), Atom(int_to_bytes(private.p))]),
                    SList([Atom("q"), Atom(int_to_bytes(private.q))]),
                ]
            ),
        ]
    )


def load_private_key(path: str) -> RsaKeyPair:
    node = _read_object(path)
    if not isinstance(node, SList) or node.head() != "private-key":
        raise SystemExit("%s: not a private key" % path)
    body = node.items[1]
    fields = {}
    for name in ("e", "n", "d", "p", "q"):
        field = body.find(name)
        if field is None:
            raise SystemExit("%s: private key missing %r" % (path, name))
        fields[name] = int.from_bytes(field.items[1].value, "big")
    public = RsaPublicKey(fields["n"], fields["e"])
    private = RsaPrivateKey(
        fields["n"], fields["e"], fields["d"], fields["p"], fields["q"]
    )
    return RsaKeyPair(public, private)


def _read_object(path: str) -> SExp:
    data = sys.stdin.buffer.read() if path == "-" else open(path, "rb").read()
    data = data.strip()
    try:
        if data.startswith(b"("):
            return parse(data)
        return parse_canonical(data)
    except Exception as exc:
        raise SystemExit("%s: cannot parse S-expression: %s" % (path, exc))


def _write(path: Optional[str], node: SExp, canonical: bool) -> None:
    payload = to_canonical(node) if canonical else (to_advanced(node) + "\n").encode()
    if path in (None, "-"):
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as handle:
            handle.write(payload)


def cmd_keygen(args) -> int:
    rng = random.Random(args.seed) if args.seed is not None else None
    keypair = generate_keypair(args.bits, rng)
    _write(args.out + ".private", _private_key_sexp(keypair), canonical=True)
    _write(args.out + ".public", keypair.public.to_sexp(), canonical=True)
    print("wrote %s.private and %s.public" % (args.out, args.out))
    print("fingerprint:", to_advanced(keypair.fingerprint().to_sexp()))
    return 0


def cmd_fingerprint(args) -> int:
    node = _read_object(args.key)
    if isinstance(node, SList) and node.head() == "private-key":
        keypair = load_private_key(args.key)
        print(to_advanced(keypair.fingerprint().to_sexp()))
    else:
        key = RsaPublicKey.from_sexp(node)
        print(to_advanced(key.fingerprint().to_sexp()))
    return 0


def cmd_issue(args) -> int:
    issuer = load_private_key(args.issuer)
    subject = principal_from_sexp(_read_object(args.subject))
    tag = Tag.from_sexp(parse(args.tag))
    validity = Validity(args.not_before, args.not_after)
    certificate = Certificate.issue(
        issuer, subject, tag, validity,
        propagate=not args.no_propagate,
        issuer_name=args.name,
    )
    _write(args.out, certificate.to_sexp(), canonical=args.canonical)
    return 0


def cmd_show(args) -> int:
    node = _read_object(args.object)
    print(to_advanced(node))
    head = node.head() if isinstance(node, SList) else None
    if head == "signed-cert":
        certificate = Certificate.from_sexp(node)
        print("\nmeaning:", certificate.statement().display())
    elif head == "proof":
        proof = proof_from_sexp(node)
        print("\nproof tree:")
        print(proof.display_tree(1))
    return 0


def cmd_verify(args) -> int:
    node = _read_object(args.object)
    head = node.head() if isinstance(node, SList) else None
    context = VerificationContext(now=args.now)
    if head == "signed-cert":
        proof = SignedCertificateStep(Certificate.from_sexp(node))
    elif head == "proof":
        proof = proof_from_sexp(node)
    else:
        raise SystemExit("expected a signed-cert or proof object")
    try:
        proof.verify(context)
    except Exception as exc:
        print("INVALID: %s" % exc)
        return 1
    conclusion = proof.conclusion
    print("VALID:", conclusion.display())
    from repro.core.statements import SpeaksFor

    if isinstance(conclusion, SpeaksFor) and not conclusion.validity.contains(
        args.now
    ):
        print("note: conclusion is outside its validity window at t=%s" % args.now)
        return 2
    return 0


def cmd_tag(args) -> int:
    first = Tag.from_sexp(parse(args.first))
    if args.match is not None:
        request = parse(args.match)
        print("match" if first.matches(request) else "no-match")
        return 0 if first.matches(request) else 1
    if args.intersect is not None:
        second = Tag.from_sexp(parse(args.intersect))
        result = first.intersect(second)
        print(to_advanced(result.to_sexp()))
        return 0 if not result.is_empty() else 1
    print(to_advanced(first.to_sexp()))
    return 0


def _demo_guard(**kwargs):
    """The backend the demo subcommands serve: the one
    :class:`~repro.guard.Guard` ``default_backend`` builds, with a
    prover over its delegation graph."""
    from repro.guard import default_backend
    from repro.net.trust import TrustEnvironment
    from repro.prover import Prover

    return default_backend(TrustEnvironment(), prover=Prover(), **kwargs)


def _demo_sessions(args, guard):
    """Mint ``args.sessions`` MAC sessions on ``guard``, each delegated
    the whole tag by a seeded server key; returns ``request(index)``,
    which builds the ``index``-th check of the demo workload."""
    from repro.core.principals import KeyPrincipal, MacPrincipal
    from repro.guard import GuardRequest, SessionCredential
    from repro.sexp import sexp

    rng = random.Random(args.seed)
    server = generate_keypair(512, rng)
    issuer = KeyPrincipal(server.public)
    sessions = []
    for _ in range(args.sessions):
        mac_id, mac_key = guard.mint_session(rng)
        certificate = Certificate.issue(
            server, MacPrincipal(mac_key.fingerprint()), Tag.all(), rng=rng
        )
        guard.digest_delegation(SignedCertificateStep(certificate))
        sessions.append((mac_id, mac_key))

    def request(index: int) -> GuardRequest:
        mac_id, mac_key = sessions[index % len(sessions)]
        logical = sexp(["web", ["method", "GET"], ["path", "/doc-%d" % index]])
        message = to_canonical(logical)
        return GuardRequest(
            logical,
            issuer=issuer,
            credential=SessionCredential(mac_id, mac_key.tag(message), message),
            transport="http",
        )

    return request


def _demo_run(args, **kwargs):
    """Drive the deterministic demo workload the ``stats`` and ``audit``
    subcommands share — a MAC-session request stream, one batch — on a
    fresh guard, and return the guard."""
    guard = _demo_guard(**kwargs)
    request = _demo_sessions(args, guard)
    guard.check_many([request(i) for i in range(args.requests)])
    return guard


def cmd_stats(args) -> int:
    """Run a deterministic demo workload on a guard and dump, as JSON,
    its registry's counters (one section per prefix: ``guard.stage``,
    ``guard.cache``, ``prover``, ...) beside its graph and audit ring."""
    from repro.obs import MetricsRegistry

    guard = _demo_run(args, metrics=MetricsRegistry())
    snapshot = {}
    for name, value in guard.metrics.snapshot()["counters"].items():
        prefix, _, key = name.rpartition(".")
        snapshot.setdefault(prefix, {})[key] = value
    graph = guard.prover.graph
    snapshot["graph"] = {
        "edges": graph.edge_count(),
        "invalidations": graph.invalidations,
        "generation": graph.generation,
    }
    snapshot["audit"] = {
        "recorded": guard.audit.recorded,
        "evicted": guard.audit.evicted,
    }
    print(json.dumps(snapshot, indent=args.indent, sort_keys=True))
    return 0


def cmd_audit(args) -> int:
    """Run the demo workload and print the guard's audit trail, every
    grant in grant order (``--retain`` sizes its ring).  What the ring
    no longer holds is said first."""
    from repro.guard.audit import AUDIT_RETAIN, AuditLog

    retain = AUDIT_RETAIN if args.retain is None else args.retain
    log = _demo_run(args, audit=AuditLog(retain=retain)).audit
    records = log.records
    print("# audit: %d record%s"
          % (len(records), "" if len(records) == 1 else "s"))
    if log.evicted > 0:
        print("# %d earlier records evicted" % log.evicted)
    for record in records:
        print(record.render())
    return 0


def _drive_fleet(args, guard):
    """Mint MAC sessions on ``guard``, serve ``args.requests`` checks
    through a real loopback listener fleet, and return ``(chunks,
    elapsed, stats)`` — the workload the ``serve`` and ``metrics``
    subcommands share."""
    import asyncio

    from repro.core.timebase import default_timebase
    from repro.serve import ServeClient, ServeFleet

    request = _demo_sessions(args, guard)
    # Real RPS over real sockets needs the wall clock — taken through
    # the injected-timebase seam, not an ambient perf_counter() read.
    timebase = default_timebase()

    async def drive():
        fleet = ServeFleet(guard, listeners=args.listeners)
        addresses = await fleet.start()
        clients = [
            await ServeClient.connect(*address) for address in addresses
        ]
        slices = [
            [request(index) for index in
             range(offset, args.requests, len(clients))]
            for offset in range(len(clients))
        ]
        start = timebase.now()
        chunks = await asyncio.gather(
            *[
                client.check_pipelined(chunk)
                for client, chunk in zip(clients, slices)
            ]
        )
        elapsed = timebase.now() - start
        for client in clients:
            await client.close()
        stats = fleet.stats()
        await fleet.shutdown()
        return chunks, elapsed, stats

    return asyncio.run(drive())


def cmd_serve(args) -> int:
    """Serve the demo workload over real loopback sockets and print
    measured requests/sec as JSON (a smoke, not a measurement: the
    client shares the process — ``bench/run.py`` is the benchmark)."""
    chunks, elapsed, stats = _drive_fleet(args, _demo_guard())
    replies = [reply for chunk in chunks for reply in chunk]
    granted = sum(1 for reply in replies if reply.granted)
    print(
        json.dumps(
            {
                "listeners": args.listeners,
                "requests": args.requests,
                "granted": granted,
                "real_rps": args.requests / elapsed if elapsed else None,
                "batches": stats["batches"],
                "batched_requests": stats["batched_requests"],
                "coalesced": stats["coalesced"],
            },
            indent=args.indent,
            sort_keys=True,
        )
    )
    return 0 if granted == args.requests else 1


def cmd_metrics(args) -> int:
    """Drive the scripted serve-fleet workload against a private
    :class:`MetricsRegistry` and print it — text by default, ``--json``
    for the snapshot, ``--prom`` for Prometheus exposition."""
    from repro.obs import MetricsRegistry, Tracer

    registry = MetricsRegistry()
    # Every trace kept: this command demonstrates the trace surface.
    tracer = Tracer(registry=registry, sample=1)
    chunks, _, _ = _drive_fleet(
        args, _demo_guard(metrics=registry, tracer=tracer)
    )
    granted = sum(
        1 for chunk in chunks for reply in chunk if reply.granted
    )
    if args.json:
        print(json.dumps(registry.snapshot(), indent=args.indent,
                         sort_keys=True))
    elif args.prom:
        print(registry.render_prometheus())
    else:
        print(registry.render_text())
    return 0 if granted == args.requests else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools", description=__doc__
    )
    commands = parser.add_subparsers(dest="command", required=True)

    keygen = commands.add_parser("keygen", help="generate an RSA key pair")
    keygen.add_argument("--bits", type=int, default=1024)
    keygen.add_argument("--seed", type=int, default=None,
                        help="deterministic keys (testing only)")
    keygen.add_argument("--out", required=True, help="output path stem")
    keygen.set_defaults(func=cmd_keygen)

    fingerprint = commands.add_parser(
        "fingerprint", help="print a key's SPKI hash name"
    )
    fingerprint.add_argument("key", help="public or private key file")
    fingerprint.set_defaults(func=cmd_fingerprint)

    issue = commands.add_parser("issue", help="sign a delegation certificate")
    issue.add_argument("--issuer", required=True, help="private key file")
    issue.add_argument("--subject", required=True,
                       help="subject principal file (e.g. a .public)")
    issue.add_argument("--tag", required=True,
                       help="restriction, e.g. '(tag (web (method GET)))'")
    issue.add_argument("--not-before", type=float, default=None)
    issue.add_argument("--not-after", type=float, default=None)
    issue.add_argument("--name", default=None,
                       help="issue as the compound name <issuer>·NAME")
    issue.add_argument("--no-propagate", action="store_true")
    issue.add_argument("--canonical", action="store_true",
                       help="write canonical bytes instead of advanced text")
    issue.add_argument("--out", default="-")
    issue.set_defaults(func=cmd_issue)

    show = commands.add_parser("show", help="pretty-print a Snowflake object")
    show.add_argument("object")
    show.set_defaults(func=cmd_show)

    verify = commands.add_parser("verify", help="verify a certificate or proof")
    verify.add_argument("object")
    verify.add_argument("--now", type=float, default=0.0)
    verify.set_defaults(func=cmd_verify)

    stats = commands.add_parser(
        "stats",
        help="run a demo workload on a guard and dump all counters as JSON",
    )
    stats.add_argument("--sessions", type=int, default=16)
    stats.add_argument("--requests", type=int, default=64)
    stats.add_argument("--seed", type=int, default=7)
    stats.add_argument("--indent", type=int, default=2)
    stats.set_defaults(func=cmd_stats)

    audit = commands.add_parser(
        "audit",
        help="run the demo workload on a guard and print its audit trail",
    )
    audit.add_argument("--sessions", type=int, default=16)
    audit.add_argument("--requests", type=int, default=64)
    audit.add_argument("--seed", type=int, default=7)
    audit.add_argument("--retain", type=int, default=None,
                       help="keep only the most recent N records in the "
                            "guard's audit ring (default 2048)")
    audit.set_defaults(func=cmd_audit)

    serve = commands.add_parser(
        "serve",
        help="serve the demo workload over real loopback sockets and "
             "print measured requests/sec",
    )
    serve.add_argument("--sessions", type=int, default=16)
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--listeners", type=int, default=2)
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--indent", type=int, default=2)
    serve.set_defaults(func=cmd_serve)

    metrics = commands.add_parser(
        "metrics",
        help="drive the serve-fleet workload against a private metrics "
             "registry and print it (text, --json, or --prom)",
    )
    metrics.add_argument("--sessions", type=int, default=16)
    metrics.add_argument("--requests", type=int, default=64)
    metrics.add_argument("--listeners", type=int, default=2)
    metrics.add_argument("--seed", type=int, default=7)
    metrics.add_argument("--indent", type=int, default=2)
    style = metrics.add_mutually_exclusive_group()
    style.add_argument("--json", action="store_true",
                       help="the full registry snapshot as JSON")
    style.add_argument("--prom", action="store_true",
                       help="Prometheus text exposition format")
    metrics.set_defaults(func=cmd_metrics)

    tag = commands.add_parser("tag", help="authorization-tag algebra")
    tag.add_argument("first", help="a tag, e.g. '(tag (web))'")
    tag.add_argument("--intersect", default=None, help="another tag")
    tag.add_argument("--match", default=None, help="a ground request")
    tag.set_defaults(func=cmd_tag)

    lint = commands.add_parser(
        "lint",
        help="archlint: check the architecture invariants "
             "(same engine as python -m repro.analysis)",
    )
    from repro.analysis.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)

    return parser


def cmd_lint(args) -> int:
    from repro.analysis.cli import run_lint

    return run_lint(args)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
