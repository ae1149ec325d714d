"""The ``repro.serve`` wire protocol: framing and the request/reply codec.

Everything on the wire is a *frame*: a 4-byte big-endian length prefix
followed by that many payload bytes, where the payload is one canonical
S-expression — the repo's native wire form, so principals, tags, and
proofs ride the same encoders every other transport uses.

Client commands (``<id>`` is a client-assigned decimal request id; ids
let a client pipeline many commands and match replies out of order):

- ``(check <id> <guard-request>)`` — one authorization question;
- ``(proof <id> <proof-bytes>)`` — submit a delegation chain to the
  backend's proof recipient (canonical proof bytes);
- ``(ping <id>)`` — liveness probe;
- ``(stats <id>)`` — ask the listener for its metrics snapshot.

The guard-request form carries exactly what a transport hands the guard
pipeline in-process::

    (request (transport <atom>) (logical <sexp>)
             [(issuer <principal>)] [(min-tag <tag>)]
             [(credential <credential>)] [(trace <hex>)])

The optional ``trace`` field is the request's trace id: a client mints
one per logical request and a RETRY resend carries the same bytes, so
both server-side attempts land in one trace.

with the three credential kinds of :mod:`repro.guard.request`::

    (channel <principal>)
    (session <id> <tag-bytes> <message-bytes> [<proof-transport-bytes>])
    (proof <proof-transport-bytes> [(subject <principal>)])

Server replies:

- ``(ok <id> (via <atom>) (stage <atom>))`` — granted;
- ``(challenge <id> (issuer <principal>) [(tag <tag>)])`` — the wire
  form of :class:`NeedAuthorizationError`: prove you speak for *issuer*
  regarding *tag*, then retry;
- ``(denied <id> <message>)`` — :class:`AuthorizationError`;
- ``(retry <id> <message>)`` — the serving node crashed mid-connection;
  the server has re-swept the ring, resubmit the identical request once;
- ``(error <id> <message>)`` — the frame could not be served (malformed
  command, oversize payload); ``<id>`` is 0 when the id itself was
  unreadable;
- ``(proof-ok <id>)``;
- ``(pong <id> [(uptime <seconds>)])`` — the liveness reply doubles as
  a cheap health probe: listener uptime;
- ``(stats-ok <id> <value>)`` — the listener's metrics snapshot, as the
  tagged value encoding of :func:`value_to_sexp`.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
    NodeUnavailableError,
    SnowflakeError,
)
from repro.core.principals import Principal, principal_from_sexp
from repro.guard.request import (
    ChannelCredential,
    Credential,
    GuardRequest,
    ProofCredential,
    SessionCredential,
)
from repro.obs.registry import default_registry
from repro.sexp import (
    Atom,
    SExp,
    SList,
    SexpParseError,
    canonical_atom_at,
    canonical_extent,
    parse_canonical,
    to_canonical,
    to_transport,
)
from repro.tags import Tag

#: Frame length prefix: unsigned 32-bit big-endian.
HEADER = struct.Struct("!I")

#: Default ceiling on one frame's payload; a peer announcing more is
#: speaking a different protocol (or attacking the allocator).
MAX_FRAME = 1 << 20

# Reply status atoms.
OK = "ok"
CHALLENGE = "challenge"
DENIED = "denied"
RETRY = "retry"
ERROR = "error"
PROOF_OK = "proof-ok"
PONG = "pong"
STATS_OK = "stats-ok"


class WireError(SnowflakeError):
    """The peer's bytes do not parse as this protocol."""


# -- framing ---------------------------------------------------------------


def encode_frame(payload: bytes, max_frame: int = MAX_FRAME) -> bytes:
    """Prefix ``payload`` with its length."""
    if len(payload) > max_frame:
        raise WireError(
            "frame of %d bytes exceeds the %d-byte ceiling"
            % (len(payload), max_frame)
        )
    return HEADER.pack(len(payload)) + payload


class FrameBuffer:
    """An incremental frame decoder for any byte stream.

    Feed it whatever the transport produced — one byte or one megabyte —
    and pop complete frames as they materialize.  This is the
    partial-read seam: the network owes us no alignment, so the buffer
    owns reassembly and the caller only ever sees whole payloads.
    """

    #: Consumed prefixes below this size are left in place; beyond it
    #: the one ``del`` reclaims them.  Keeps compaction amortized O(1)
    #: per byte instead of the old per-frame ``del`` (O(frames²) on a
    #: dribbled stream).
    COMPACT_THRESHOLD = 1 << 16

    def __init__(self, max_frame: int = MAX_FRAME):
        self.max_frame = max_frame
        self._buffer = bytearray()
        # Consumed-prefix length: frames are *read* at an offset, not
        # carved off the front, so a drain of N frames costs one
        # compaction instead of N head-deletions.
        self._offset = 0

    def feed(self, data: bytes) -> None:
        if self._offset >= self.COMPACT_THRESHOLD:
            self._compact()
        self._buffer.extend(data)

    def pending(self) -> int:
        """Bytes buffered but not yet framed (for diagnostics/tests)."""
        return len(self._buffer) - self._offset

    def frames(self) -> Iterator[bytes]:
        """Yield every complete frame currently buffered."""
        while True:
            buffer = self._buffer
            offset = self._offset
            if len(buffer) - offset < HEADER.size:
                break
            (length,) = HEADER.unpack_from(buffer, offset)
            if length > self.max_frame:
                raise WireError(
                    "announced frame of %d bytes exceeds the %d-byte "
                    "ceiling" % (length, self.max_frame)
                )
            start = offset + HEADER.size
            end = start + length
            if len(buffer) < end:
                break
            payload = bytes(buffer[start:end])
            self._offset = end
            yield payload
        self._compact()

    def _compact(self) -> None:
        """Reclaim the consumed prefix in one move (or for free, when
        the buffer was fully drained)."""
        offset = self._offset
        if not offset:
            return
        if offset == len(self._buffer):
            del self._buffer[:]
            self._offset = 0
        elif offset >= self.COMPACT_THRESHOLD:
            del self._buffer[:offset]
            self._offset = 0


async def read_frame(reader, max_frame: int = MAX_FRAME) -> Optional[bytes]:
    """Read one frame from an asyncio stream; ``None`` on clean EOF.

    ``readexactly`` owns the partial-read loop for header and body
    alike; an EOF landing *inside* a frame is a protocol error, not a
    close — only a clean EOF on a frame boundary returns ``None``."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise WireError("connection closed inside a frame header")
    (length,) = HEADER.unpack(header)
    if length > max_frame:
        raise WireError(
            "announced frame of %d bytes exceeds the %d-byte ceiling"
            % (length, max_frame)
        )
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise WireError("connection closed inside a frame body")


def write_frame(writer, payload: bytes, max_frame: int = MAX_FRAME) -> None:
    """Queue one frame on an asyncio stream writer (caller drains)."""
    writer.write(encode_frame(payload, max_frame))


# -- guard-request codec ---------------------------------------------------


def _as_bytes(value) -> bytes:
    if isinstance(value, str):
        return value.encode("utf-8")
    return bytes(value)


def credential_to_sexp(credential: Credential) -> SExp:
    if isinstance(credential, ChannelCredential):
        return SList([Atom("channel"), credential.speaker.to_sexp()])
    if isinstance(credential, SessionCredential):
        items = [
            Atom("session"),
            Atom(credential.session_id),
            Atom(credential.tag),
            Atom(credential.message),
        ]
        if credential.proof_wire is not None:
            items.append(Atom(_as_bytes(credential.proof_wire)))
        return SList(items)
    if isinstance(credential, ProofCredential):
        wire = (
            _as_bytes(credential.wire)
            if credential.wire is not None
            else to_transport(credential.node)
        )
        items = [Atom("proof"), Atom(wire)]
        if credential.expected_subject is not None:
            items.append(
                SList([Atom("subject"),
                       credential.expected_subject.to_sexp()])
            )
        return SList(items)
    raise WireError("unencodable credential kind %r" % credential.kind)


def credential_from_sexp(node: SExp) -> Credential:
    if not isinstance(node, SList) or not node.items:
        raise WireError("credential must be a non-empty list")
    head = node.head()
    try:
        if head == "channel":
            if len(node) != 2:
                raise WireError("bad (channel principal) form")
            return ChannelCredential(principal_from_sexp(node.items[1]))
        if head == "session":
            if len(node) not in (4, 5):
                raise WireError("bad (session id tag message [proof]) form")
            session_id, tag, message = node.items[1:4]
            proof_wire = node.items[4].value if len(node) == 5 else None
            return SessionCredential(
                session_id.text(), tag.value, message.value,
                proof_wire=proof_wire,
            )
        if head == "proof":
            if len(node) not in (2, 3):
                raise WireError("bad (proof wire [subject]) form")
            subject: Optional[Principal] = None
            if len(node) == 3:
                field = node.items[2]
                if (
                    not isinstance(field, SList)
                    or field.head() != "subject"
                    or len(field) != 2
                ):
                    raise WireError("bad (subject principal) field")
                subject = principal_from_sexp(field.items[1])
            return ProofCredential(subject, wire=node.items[1].value)
    except (ValueError, AttributeError) as exc:
        raise WireError("credential rejected: %s" % exc)
    raise WireError("unknown credential kind %r" % head)


def guard_request_to_sexp(request: GuardRequest) -> SExp:
    items: List[SExp] = [
        Atom("request"),
        SList([Atom("transport"), Atom(request.transport)]),
        SList([Atom("logical"), request.logical]),
    ]
    if request.issuer is not None:
        items.append(SList([Atom("issuer"), request.issuer.to_sexp()]))
    if request.min_tag is not None:
        items.append(SList([Atom("min-tag"), request.min_tag.to_sexp()]))
    if request.credential is not None:
        items.append(
            SList([Atom("credential"),
                   credential_to_sexp(request.credential)])
        )
    if request.trace is not None:
        # Inside the frame bytes on purpose: a RETRY resend is a
        # verbatim re-send, so both attempts share one trace id.
        items.append(SList([Atom("trace"), Atom(request.trace)]))
    return SList(items)


#: GuardRequest keywords whose decoded values repeat across sessions and
#: requests, so :class:`DecodeCache` shares one object per distinct value.
_SHARED_FIELDS = frozenset(("transport", "logical", "issuer", "min_tag"))


def _decode_field(field: SExp) -> Tuple[str, object]:
    """One ``(name value)`` request field as ``(GuardRequest keyword,
    decoded value)``.

    The one place that knows what ``(issuer ...)`` means: the node path
    (:func:`guard_request_from_sexp`) and :class:`DecodeCache`'s byte
    path both call it, one field at a time."""
    if not isinstance(field, SList) or len(field) != 2:
        raise WireError("bad request field %r" % (field,))
    name = field.head()
    value = field.items[1]
    try:
        if name == "transport":
            return "transport", value.text()
        if name == "logical":
            return "logical", value
        if name == "issuer":
            return "issuer", principal_from_sexp(value)
        if name == "min-tag":
            return "min_tag", Tag.from_sexp(value)
        if name == "credential":
            return "credential", credential_from_sexp(value)
        if name == "trace":
            return "trace", value.text()
    except (ValueError, AttributeError) as exc:
        raise WireError("request field %r rejected: %s" % (name, exc))
    raise WireError("unknown request field %r" % name)


def _request_from_fields(fields: Dict[str, object]) -> GuardRequest:
    """Build the request from decoded fields (a repeated field's last
    occurrence won when the dict was filled)."""
    if "logical" not in fields:
        raise WireError("request carries no (logical ...) field")
    fields.setdefault("transport", "serve")
    return GuardRequest(**fields)


def guard_request_from_sexp(node: SExp) -> GuardRequest:
    if not isinstance(node, SList) or node.head() != "request":
        raise WireError("expected a (request ...) form")
    return _request_from_fields(dict(map(_decode_field, node.items[1:])))


# -- commands --------------------------------------------------------------


class Command:
    """One decoded client command."""

    __slots__ = ("op", "request_id", "body")

    def __init__(self, op: str, request_id: int, body=None):
        self.op = op            # "check" | "proof" | "ping" | "stats"
        self.request_id = request_id
        self.body = body        # GuardRequest | proof bytes | None


def encode_check(request_id: int, request: GuardRequest) -> bytes:
    return to_canonical(
        SList([Atom("check"), Atom(str(request_id)),
               guard_request_to_sexp(request)])
    )


def encode_submit_proof(request_id: int, proof_wire: bytes) -> bytes:
    return to_canonical(
        SList([Atom("proof"), Atom(str(request_id)),
               Atom(_as_bytes(proof_wire))])
    )


def encode_ping(request_id: int) -> bytes:
    return to_canonical(SList([Atom("ping"), Atom(str(request_id))]))


def encode_stats(request_id: int) -> bytes:
    return to_canonical(SList([Atom("stats"), Atom(str(request_id))]))


def _parse_payload(payload: bytes) -> SList:
    try:
        node = parse_canonical(payload)
    except (SexpParseError, ValueError) as exc:
        raise WireError("unparseable frame: %s" % exc)
    if not isinstance(node, SList) or len(node) < 2:
        raise WireError("frame is not a command list")
    return node


def _text(node: SExp, what: str) -> str:
    """The text of a field that must be one UTF-8 atom."""
    if not isinstance(node, Atom):
        raise WireError("%s must be an atom" % what)
    try:
        return node.text()
    except UnicodeDecodeError as exc:
        raise WireError("%s is not UTF-8: %s" % (what, exc))


def _request_id(node: SList) -> int:
    atom = node.items[1]
    if not isinstance(atom, Atom):
        raise WireError("request id must be an atom")
    # ASCII digits only: bare ``int()`` also takes signs, blanks and
    # underscores, and would echo the id back in a different spelling.
    if not atom.value.isdigit():
        raise WireError("unreadable request id %r" % (atom,))
    try:
        return int(atom.value)
    except ValueError:  # more digits than ``int()`` will convert
        raise WireError("request id of %d digits" % len(atom.value))


def decode_command(payload: bytes) -> Command:
    node = _parse_payload(payload)
    op = node.head()
    request_id = _request_id(node)
    if op == "check":
        if len(node) != 3:
            raise WireError("bad (check id request) form")
        return Command("check", request_id,
                       guard_request_from_sexp(node.items[2]))
    if op == "proof":
        if len(node) != 3 or not isinstance(node.items[2], Atom):
            raise WireError("bad (proof id bytes) form")
        return Command("proof", request_id, node.items[2].value)
    if op == "ping":
        return Command("ping", request_id)
    if op == "stats":
        return Command("stats", request_id)
    raise WireError("unknown command %r" % op)


# -- decode fast path ------------------------------------------------------


def _split_id_header(
    payload: bytes, digits_start: int
) -> Optional[Tuple[int, int]]:
    """``(request_id, id_end)`` for a frame whose ``<len>:<id>`` atom
    starts at ``digits_start``, or ``None`` to take the full parser.

    Both fields must be ASCII digits and nothing else — exactly what the
    full parser accepts — so the sliced path can never admit a frame
    (``+1:``, ``0_1:``, a signed or blank-padded id) that
    :func:`decode_command` would reject.  An id with more digits than
    ``int()`` converts is the full parser's ``WireError``, raised here."""
    read = canonical_atom_at(payload, digits_start, len(payload))
    if read is None or not read[0].isdigit():
        return None
    try:
        return int(read[0]), read[1]
    except ValueError:  # more digits than ``int()`` will convert
        raise WireError("request id of %d digits" % len(read[0]))


#: Decoded fields, and decoded questions, a :class:`DecodeCache`
#: memoises before it clears that memo and lets it refill.
FIELD_MEMO_CAPACITY = 1024

#: Neither memo keys on more bytes than this (the benchmark's frames are
#: 330 B and 1 051 B).  Larger questions and fields decode uncached, so
#: what a peer can pin is capacity times this and not capacity times
#: ``MAX_FRAME``.
CACHED_BYTES_CEILING = 4096

#: Where a request's credential field starts: the request bytes before
#: it are the *question* :class:`DecodeCache` memoises.
_CREDENTIAL_FIELD = b"(10:credential("


def _read_tail(
    payload: bytes, pos: int
) -> Optional[Tuple[Credential, Optional[str]]]:
    """``(credential, trace)`` from the credential field at ``pos`` to
    the end of a check frame, read by length prefixes alone.

    Reads ``(credential (session id tag message [proof]))`` or
    ``(credential (proof wire))``, then an optional ``(trace hex)``, then
    the request's and the frame's closing ``))``.  Anything else — a
    channel, a ``(subject ...)``, a non-ASCII id, a further field —
    returns ``None`` for the field walk to decode."""
    # Each atom here is followed by at least its own list's ")" and the
    # request's and the frame's, so none may reach the last three bytes.
    limit = len(payload) - 3
    pos += len(_CREDENTIAL_FIELD)
    if payload.startswith(b"7:session", pos):
        pos += 9
        atoms = []
        while len(atoms) < 4 and pos < limit and payload[pos] != 41:  # ")"
            read = canonical_atom_at(payload, pos, limit)
            if read is None:
                return None
            atoms.append(read[0])
            pos = read[1]
        if len(atoms) < 3 or not atoms[0].isascii():
            return None
        credential: Credential = SessionCredential(
            atoms[0].decode("ascii"), atoms[1], atoms[2],
            proof_wire=atoms[3] if len(atoms) == 4 else None,
        )
    elif payload.startswith(b"5:proof", pos):
        read = canonical_atom_at(payload, pos + 7, limit)
        if read is None:
            return None
        credential = ProofCredential(None, wire=read[0])
        pos = read[1]
    else:
        return None
    if not payload.startswith(b"))", pos):
        return None
    pos += 2
    trace = None
    if payload.startswith(b"(5:trace", pos):
        read = canonical_atom_at(payload, pos + 8, limit)
        if read is None or payload[read[1]] != 41 or not read[0].isascii():
            return None
        trace = read[0].decode("ascii")
        pos = read[1] + 1
    if pos != len(payload) - 2:
        return None
    return credential, trace


class DecodeCache:
    """Decode reuse for check frames: a question memo over a field memo.

    Decoding a check frame — sexp parse, principal reconstruction,
    credential validation — dominates the listener's per-request Python
    cost.  Real clients repeat their *questions* (which path, of which
    issuer) far more often than their frames, which a MAC tag and a
    trace id make unique.  After the request id has been sliced off by
    byte arithmetic:

    - a **question memo** keys on the request bytes from just after
      ``(7:request`` up to the first ``(10:credential(``, and holds the
      decoded ``transport`` / ``logical`` / ``issuer`` / ``min-tag``
      fields.  The credential and trace after the question are read by
      their length prefixes (:func:`_read_tail`), with no tree built;
    - a **field memo** on the bytes of each ``transport`` / ``logical``
      / ``issuer`` / ``min-tag`` field: a question miss walks the
      request field by field (:func:`~repro.sexp.parser.canonical_extent`)
      and parses only the fields that are new, so every request naming
      one path or one issuer shares one decoded object.  The same walk
      decodes a tail :func:`_read_tail` declines.

    A question is stored only after a walk lands exactly on the
    credential field.  Canonical form is self-delimiting, so a later
    frame with equal bytes there holds the same complete fields, and the
    offset is a field boundary wherever the marker bytes came from.
    *A memoised question is a parsed value, never a verified one*: it
    holds no trust state, and the pipeline still runs MAC / proof /
    session verification on every request, so a hit can never turn a
    deny into a grant.

    The byte path only ever *succeeds*: non-check frames go straight to
    :func:`decode_command`, and so does any check frame it could not
    finish (irregular bytes, a field the codec rejects), counted in
    ``serve.protocol.decode_fallbacks`` — the full parser owns every
    error.
    """

    def __init__(self):
        self._questions: Dict[bytes, Dict[str, object]] = {}
        self._fields: Dict[bytes, Tuple[str, object]] = {}
        self.hits = 0
        self.misses = 0
        #: Where fall-backs and field-memo traffic are counted; the
        #: listener that owns the cache points it at its own registry.
        self.metrics = default_registry()

    def decode(self, payload: bytes) -> Command:
        """Decode one frame, through the memos when it is a check."""
        if payload.startswith(b"(5:check"):
            try:
                return self._decode_check(payload)
            except WireError:
                self.metrics.inc("serve.protocol.decode_fallbacks")
        return decode_command(payload)

    def _decode_check(self, payload: bytes) -> Command:
        header = _split_id_header(payload, 8)
        if (
            header is None
            or not payload.startswith(b"(7:request", header[1])
            or not payload.endswith(b"))")
        ):
            raise WireError("irregular check frame")
        request_id, id_end = header
        start = id_end + 10
        last = len(payload) - 2
        cut = payload.find(_CREDENTIAL_FIELD, start)
        question = payload[start:cut] if cut >= 0 else None
        known = self._questions.get(question)
        if known is not None:
            self.hits += 1
            # A copy: this frame's credential and trace join it below.
            fields = dict(known)
            pos = cut
        else:
            self.misses += 1
            fields = {}
            pos = self._walk(payload, start, last if cut < 0 else cut, fields)
            if pos == cut and len(question) <= CACHED_BYTES_CEILING:
                questions = self._questions
                if len(questions) >= FIELD_MEMO_CAPACITY:
                    questions.clear()
                questions[question] = dict(fields)
        if pos == cut:
            tail = _read_tail(payload, cut)
            if tail is not None:
                fields["credential"] = tail[0]
                if tail[1] is not None:
                    fields["trace"] = tail[1]
                pos = last
        if pos != last and self._walk(payload, pos, last, fields) != last:
            raise WireError("irregular request field")
        return Command("check", request_id, _request_from_fields(fields))

    def _walk(
        self, data: bytes, pos: int, stop: int, fields: Dict[str, object]
    ) -> int:
        """Decode whole request fields from ``pos`` into ``fields`` while
        each ends by ``stop``; returns the offset the walk reached."""
        memo = self._fields
        hits = parsed = 0
        while pos < stop:
            end = canonical_extent(data, pos)
            if end is None or end > stop:
                break
            field_bytes = data[pos:end]
            pair = memo.get(field_bytes)
            if pair is not None:
                hits += 1
            else:
                parsed += 1
                pair = _decode_field(parse_canonical(field_bytes))
                if (
                    pair[0] in _SHARED_FIELDS
                    and len(field_bytes) <= CACHED_BYTES_CEILING
                ):
                    if len(memo) >= FIELD_MEMO_CAPACITY:
                        memo.clear()
                    memo[field_bytes] = pair
            fields[pair[0]] = pair[1]
            pos = end
        self.metrics.inc("serve.decode.field_hits", hits)
        self.metrics.inc("serve.decode.field_misses", parsed)
        return pos


# -- value codec -----------------------------------------------------------
#
# The STATS reply carries an arbitrary JSON-shaped snapshot (nested
# dicts, lists, numbers, strings).  Canonical s-expressions have no
# native numbers or null, so every value rides a tagged form:
#
#     (nil) (true) (false) (int <decimal>) (num <repr>) (str <utf8>)
#     (vec <value>...) (map (<key> <value>)...)


def value_to_sexp(value) -> SExp:
    """Encode a JSON-shaped Python value as a tagged s-expression."""
    if value is None:
        return SList([Atom("nil")])
    if value is True:
        return SList([Atom("true")])
    if value is False:
        return SList([Atom("false")])
    if isinstance(value, int):
        return SList([Atom("int"), Atom(str(value))])
    if isinstance(value, float):
        return SList([Atom("num"), Atom(repr(value))])
    if isinstance(value, str):
        return SList([Atom("str"), Atom(value)])
    if isinstance(value, (list, tuple)):
        return SList([Atom("vec")] + [value_to_sexp(item) for item in value])
    if isinstance(value, dict):
        items: List[SExp] = [Atom("map")]
        for key, entry in value.items():
            items.append(SList([Atom(str(key)), value_to_sexp(entry)]))
        return SList(items)
    raise WireError("unencodable value of type %s" % type(value).__name__)


def value_from_sexp(node: SExp):
    """Decode :func:`value_to_sexp`'s tagged forms."""
    if not isinstance(node, SList) or not node.items:
        raise WireError("value must be a tagged list")
    head = node.head()
    try:
        if head == "nil":
            return None
        if head == "true":
            return True
        if head == "false":
            return False
        if head == "int":
            return int(_text(node.items[1], "int value"))
        if head == "num":
            return float(_text(node.items[1], "num value"))
        if head == "str":
            return _text(node.items[1], "str value")
        if head == "vec":
            return [value_from_sexp(item) for item in node.items[1:]]
        if head == "map":
            result = {}
            for field in node.items[1:]:
                if not isinstance(field, SList) or len(field) != 2:
                    raise WireError("bad map entry %r" % (field,))
                key = _text(field.items[0], "map key")
                result[key] = value_from_sexp(field.items[1])
            return result
    except (IndexError, ValueError) as exc:
        raise WireError("bad %s value: %s" % (head, exc))
    raise WireError("unknown value tag %r" % head)


# -- replies ---------------------------------------------------------------


class Reply:
    """One decoded server reply."""

    __slots__ = ("status", "request_id", "via", "stage", "issuer", "tag",
                 "message", "uptime", "data")

    def __init__(
        self,
        status: str,
        request_id: int,
        via: Optional[str] = None,
        stage: Optional[str] = None,
        issuer: Optional[Principal] = None,
        tag: Optional[Tag] = None,
        message: Optional[str] = None,
        uptime: Optional[float] = None,
        data=None,
    ):
        self.status = status
        self.request_id = request_id
        self.via = via
        self.stage = stage
        self.issuer = issuer
        self.tag = tag
        self.message = message
        self.uptime = uptime      # PONG: listener uptime, seconds
        self.data = data          # STATS_OK: the metrics snapshot

    @property
    def granted(self) -> bool:
        return self.status == OK

    def raise_for_status(self) -> "Reply":
        """Map a non-granting reply back onto the exceptions an
        in-process backend would have raised, so wire callers and
        in-process callers share one error-handling idiom."""
        if self.status in (OK, PROOF_OK, PONG, STATS_OK):
            return self
        if self.status == CHALLENGE:
            raise NeedAuthorizationError(self.issuer, self.tag)
        if self.status == RETRY:
            raise NodeUnavailableError()
        if self.status == DENIED:
            raise AuthorizationError(self.message or "denied")
        raise WireError(self.message or "protocol error")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Reply(%s #%d)" % (self.status, self.request_id)


#: Canonical ``(via X)(stage Y)`` tails, memoized per label pair: every
#: granted reply in a steady-state run carries one of a handful of
#: (via, stage) combinations, and only the request id varies.
_OK_TAILS: Dict[Tuple[str, str], bytes] = {}


def _ok_reply_bytes(request_id: int, via: str, stage: str) -> bytes:
    pair = (via, stage)
    tail = _OK_TAILS.get(pair)
    if tail is None:
        if len(_OK_TAILS) >= 256:
            _OK_TAILS.clear()
        tail = to_canonical(
            SList([Atom("via"), Atom(via)])
        ) + to_canonical(SList([Atom("stage"), Atom(stage)]))
        _OK_TAILS[pair] = tail
    rid = b"%d" % request_id
    return b"(2:ok%d:%s%s)" % (len(rid), rid, tail)


def encode_reply(reply: Reply) -> bytes:
    if reply.status == OK:
        # Byte-identical to the generic encoding of ``(ok id (via X)
        # (stage Y))``, minus the tree build and walk (the grant path
        # emits thousands of these).
        return _ok_reply_bytes(
            reply.request_id,
            reply.via or "unknown",
            reply.stage or "unknown",
        )
    items: List[SExp] = [Atom(reply.status), Atom(str(reply.request_id))]
    if reply.status == CHALLENGE:
        if reply.issuer is not None:
            items.append(SList([Atom("issuer"), reply.issuer.to_sexp()]))
        if reply.tag is not None:
            items.append(SList([Atom("tag"), reply.tag.to_sexp()]))
    elif reply.status in (DENIED, RETRY, ERROR):
        items.append(Atom(reply.message or ""))
    elif reply.status == PONG:
        if reply.uptime is not None:
            items.append(SList([Atom("uptime"),
                                Atom("%.6f" % reply.uptime)]))
    elif reply.status == STATS_OK:
        items.append(value_to_sexp(reply.data))
    return to_canonical(SList(items))


#: Parsed ``(via X)(stage Y)`` tails by their canonical bytes — the
#: decode twin of :data:`_OK_TAILS`.  Its traffic is the benchmark's own
#: reply check: ``bench/run.py`` decodes all ≈ 85 000 replies of a
#: ``steady_pipelined`` run after the timed phase, 1.8 µs a reply this
#: way against 20.9 µs through the parser (0.15 s against 1.8 s a run).
_OK_TAIL_LABELS: Dict[bytes, Tuple[str, str]] = {}


def _split_ok_reply(payload: bytes) -> Optional[Reply]:
    """Decode a granted reply without building its AST, or ``None`` to
    fall back to the generic parser (which also handles malformed
    frames' error reporting)."""
    if not payload.startswith(b"(2:ok") or not payload.endswith(b")"):
        return None
    header = _split_id_header(payload, 5)
    if header is None:
        return None
    request_id, id_end = header
    tail = payload[id_end:-1]
    labels = _OK_TAIL_LABELS.get(tail)
    if labels is None:
        return None
    return Reply(OK, request_id, via=labels[0], stage=labels[1])


def decode_reply(payload: bytes) -> Reply:
    fast = _split_ok_reply(payload)
    if fast is not None:
        return fast
    node = _parse_payload(payload)
    status = node.head()
    request_id = _request_id(node)
    if status == OK:
        via = stage = None
        for field in node.items[2:]:
            if not isinstance(field, SList) or len(field) != 2:
                raise WireError("bad ok field %r" % (field,))
            if field.head() == "via":
                via = _text(field.items[1], "via")
            elif field.head() == "stage":
                stage = _text(field.items[1], "stage")
        if via is not None and stage is not None:
            # Teach the fast path this (via, stage) pair: the learned
            # key is our own canonical re-encoding, so only frames that
            # are byte-identical to what we would emit can ever match.
            if len(_OK_TAIL_LABELS) >= 256:
                _OK_TAIL_LABELS.clear()
            _OK_TAIL_LABELS[
                to_canonical(SList([Atom("via"), Atom(via)]))
                + to_canonical(SList([Atom("stage"), Atom(stage)]))
            ] = (via, stage)
        return Reply(OK, request_id, via=via, stage=stage)
    if status == CHALLENGE:
        issuer = None
        tag = None
        for field in node.items[2:]:
            if not isinstance(field, SList) or len(field) != 2:
                raise WireError("bad challenge field %r" % (field,))
            try:
                if field.head() == "issuer":
                    issuer = principal_from_sexp(field.items[1])
                elif field.head() == "tag":
                    tag = Tag.from_sexp(field.items[1])
            except ValueError as exc:
                raise WireError("challenge field rejected: %s" % exc)
        return Reply(CHALLENGE, request_id, issuer=issuer, tag=tag)
    if status in (DENIED, RETRY, ERROR):
        message = (
            _text(node.items[2], "%s message" % status)
            if len(node) > 2 else ""
        )
        return Reply(status, request_id, message=message)
    if status == PONG:
        uptime = None
        for field in node.items[2:]:
            if not isinstance(field, SList) or len(field) < 2:
                raise WireError("bad pong field %r" % (field,))
            try:
                # Unknown fields are ignored.
                if field.head() == "uptime":
                    uptime = float(_text(field.items[1], "uptime"))
            except ValueError as exc:
                raise WireError("pong field rejected: %s" % exc)
        return Reply(PONG, request_id, uptime=uptime)
    if status == STATS_OK:
        if len(node) != 3:
            raise WireError("bad (stats-ok id value) form")
        try:
            data = value_from_sexp(node.items[2])
        except RecursionError:
            raise WireError("stats value nested too deep")
        return Reply(STATS_OK, request_id, data=data)
    if status == PROOF_OK:
        return Reply(status, request_id)
    raise WireError("unknown reply status %r" % status)


def decision_reply(request_id: int, decision) -> Reply:
    """Render one :class:`GuardDecision` (from ``check_many``) as a reply."""
    if decision.granted:
        return Reply(OK, request_id, via=decision.via, stage=decision.stage)
    error = decision.error
    if isinstance(error, NeedAuthorizationError):
        return Reply(CHALLENGE, request_id, issuer=error.issuer,
                     tag=error.tag)
    return Reply(DENIED, request_id, message=str(error))
