"""A sharded authorization cluster.

The paper's end-to-end model puts one guard in front of one resource;
this package shards that guard horizontally for the ROADMAP's
millions-of-users target.  Requests shard by *speaker fingerprint* on a
consistent-hash ring (:mod:`repro.cluster.ring`), each shard served by a
:class:`GuardNode` wrapping a :class:`~repro.guard.Guard` and its own
proof cache; nodes serve real traffic and charge no cost model.  A node
holds only its shard's proof-cache buckets; everything else the cluster
knows — premises, sessions, delegations, grants — it holds once: every
node's guard decides against one premise set, one session table and one
delegation graph, and records into one audit log, so a ring change moves
work, never authority.  Membership — join, leave, fail, heartbeat sweep
— is explicit and clock-injected (:mod:`repro.cluster.membership`); a
delegation retraction, channel close or revocation is applied on every
serving node before the call that publishes it returns, so no node's
cached chains outlive a justification; and ``AuthCluster.check_many``
(:mod:`repro.cluster.dispatch`) rides ``Guard.check_many`` so each shard
pays one premise snapshot per batch.

The speaks-for model is what makes all of this safe: a proof is valid
wherever its premises and delegations are held, and every node holds the
one premise set and the one graph, so whichever node owns a speaker's
shard — before or after a ring change — decides its requests the same
way; see ``docs/cluster.md``.

The cluster implements the full :class:`~repro.guard.backend.AuthBackend`
protocol, so transports front it exactly as they front a single guard
(every listener of a fleet is handed the cluster itself), and every
check is served by its speaker's shard owner.
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
