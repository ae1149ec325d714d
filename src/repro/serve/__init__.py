"""Real wire serving: an asyncio listener fleet over loopback sockets.

Every earlier layer of the reproduction exercises the guard in-process;
this package puts it behind actual TCP sockets, the way the paper's
guards sit behind HTTP and RMI endpoints.  The wire is deliberately
thin — a 4-byte length prefix framing one canonical S-expression per
message (:mod:`repro.serve.protocol`) — because the interesting part is
what the *server* does between frames:

- **Pipelining → batching.** Each connection is served from its own
  ``data_received``: the complete frames of one recv are coalesced
  into one ``check_many`` batch (at most ``max_batch``), so in-flight
  pipelined requests pay one premise snapshot per batch, not per
  request, and a batch of one costs one loop wake-up
  (:mod:`repro.serve.server`).
- **Backpressure.** The transport's own: a peer that does not read its
  replies stops being served and stops being read, and the kernel's
  TCP window pushes back on its writes.
- **Failure mapping.** A batch that routes onto a crashed cluster node
  raises :class:`~repro.core.errors.NodeUnavailableError`; the server
  triggers the failure sweep and answers RETRY, and the client
  resubmits once against the repaired ring
  (:mod:`repro.serve.client`).
- **One owner.** The listener calls its backend directly on its event
  loop, and that loop is the only thread of control that touches the
  backend; control-plane calls (revoke, drain, join) run on the same
  loop, so invalidation-versus-check order is loop order
  ("Concurrency model" in ``docs/serve.md``).

:mod:`repro.serve.fleet` scales this to N listeners on one loop sharing
one backend; ``bench/`` (see ``bench/README.md``) measures the whole
stack from a separate load-generator process.
"""

from repro.serve.client import ServeClient
from repro.serve.fleet import ServeFleet
from repro.serve.protocol import (
    DecodeCache,
    FrameBuffer,
    MAX_FRAME,
    STATS_OK,
    Reply,
    WireError,
    decode_command,
    decode_reply,
    encode_check,
    encode_frame,
    encode_ping,
    encode_reply,
    encode_stats,
    encode_submit_proof,
    guard_request_from_sexp,
    guard_request_to_sexp,
    read_frame,
    value_from_sexp,
    value_to_sexp,
    write_frame,
)
from repro.serve.server import ServeListener

__all__ = [
    "ServeClient",
    "ServeFleet",
    "ServeListener",
    "DecodeCache",
    "FrameBuffer",
    "MAX_FRAME",
    "STATS_OK",
    "Reply",
    "WireError",
    "decode_command",
    "decode_reply",
    "encode_check",
    "encode_frame",
    "encode_ping",
    "encode_reply",
    "encode_stats",
    "encode_submit_proof",
    "guard_request_from_sexp",
    "guard_request_to_sexp",
    "read_frame",
    "value_from_sexp",
    "value_to_sexp",
    "write_frame",
]
