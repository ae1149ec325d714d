"""An authorization cluster: one guard, and a ring of owners.

The paper's end-to-end model puts one guard in front of one resource.
In one process on one loop, a cluster is that guard
(:class:`~repro.guard.Guard`, built once over the cluster's one premise
set, session table, delegation graph, audit log and proof cache) plus a
membership table (:mod:`repro.cluster.membership`) whose consistent-hash
ring (:mod:`repro.cluster.ring`) names each speaker's owner.  A node is
a ring member with an id.

Every call asks the ring for the owner first, so a crashed owner raises
the retryable ``NodeUnavailableError`` the serving layer turns into a
wire-level RETRY; then the one guard decides
(:mod:`repro.cluster.dispatch`).  A batch is one ``Guard.check_many``,
and an invalidation is one guard call whose tombstone is kept for good,
so no ring change can re-admit what it refused.  The ring decides only
what a departure loses: a leave, failure or crash forgets the cached
chains of the speakers the node owned, a drain forgets nothing, and a
join moves nothing; see ``docs/cluster.md``.

The cluster implements the full :class:`~repro.guard.backend.AuthBackend`
protocol, so transports front it exactly as they front a single guard
(every listener of a fleet is handed the cluster itself).
"""

from repro.cluster.dispatch import AuthCluster
from repro.cluster.membership import (
    CRASHED,
    FAILED,
    LEFT,
    UP,
    ClusterMembership,
    MembershipEvent,
)
from repro.cluster.ring import (
    GuardNode,
    HashRing,
    principal_fingerprint,
    routing_key,
    session_routing_key,
)

__all__ = [
    "AuthCluster",
    "ClusterMembership",
    "MembershipEvent",
    "UP",
    "LEFT",
    "FAILED",
    "CRASHED",
    "GuardNode",
    "HashRing",
    "principal_fingerprint",
    "routing_key",
    "session_routing_key",
]
