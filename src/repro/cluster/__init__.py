"""The front the benchmark's server still serves: one guard, a list of names.

The paper's end-to-end model puts one guard in front of one resource,
and one process is one failure domain, so a single
:class:`~repro.guard.Guard` is the whole authorization service; every
transport, tool and test serves one.  :class:`AuthCluster` stays only
because the frozen rig (``bench/server.py``) constructs it and
``bench/layers.py`` reads its ``cluster`` stats source.  It *composes*
one guard, so the rig's ``cluster.dispatch.check_many`` span keeps
measuring the front's own time apart from ``guard.pipeline.check_many``.

Its members are a plain list of names.  A drain or a join changes that
list and nothing else: no cached chain is forgotten or moved, because
the one guard holds them all.

This module goes when the benchmark rig is pointed at ``Guard``.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple

from repro.guard import default_backend
from repro.net.trust import TrustEnvironment
from repro.obs.registry import Histogram
from repro.prover import Prover


class Member(NamedTuple):
    """A name on the member list (the rig's ``join`` reads its id)."""

    node_id: str


class DrainReport(NamedTuple):
    """What one drain kept: it forgets nothing, so ``installed`` counts
    every chain the guard has cached."""

    node_id: str
    installed: int
    duration_ms: float

    def as_dict(self) -> Dict[str, object]:
        return self._asdict()


class AuthCluster:
    """One :class:`~repro.guard.Guard` behind ``node_count`` member
    names, with the calls and the stats tree the benchmark rig uses."""

    def __init__(self, node_count: int = 1):
        self.guard = default_backend(TrustEnvironment(), prover=Prover())
        self.members: List[str] = []
        self._joined = 0
        self._drains = {
            "records_installed": 0,
            "records_refused_stale": 0,
            "drains": 0,
            "last_drain_ms": 0.0,
        }
        for _ in range(node_count):
            self.add_node()
        self.guard.metrics.register_source("cluster", self.stats_snapshot)

    # -- the calls the rig makes ---------------------------------------------

    def check_many(self, requests):
        return self.guard.check_many(requests)

    def submit_proof(self, proof_wire: bytes):
        return self.guard.submit_proof(proof_wire)

    def install_session(self, mac_id, mac_key, minted_at=None) -> None:
        self.guard.install_session(mac_id, mac_key, minted_at=minted_at)

    def add_delegation(self, proof) -> None:
        self.guard.digest_delegation(proof)

    def revoke_serial(self, serial: bytes) -> int:
        return self.guard.revoke_serial(serial)

    def deliver_invalidations(self) -> int:
        """Nothing is ever pending: an invalidation is applied by the
        call that publishes it.  Returns 0."""
        return 0

    # -- members -------------------------------------------------------------

    def add_node(self) -> Member:
        """Add the next ``node-<n>`` name; nothing moves."""
        node_id = "node-%d" % self._joined
        self._joined += 1
        self.members.append(node_id)
        return Member(node_id)

    def drain(self, node_id: str) -> DrainReport:
        """Take ``node_id`` off the member list; nothing is forgotten."""
        timebase = self.guard.metrics.timebase
        started = timebase.now()
        self.members.remove(node_id)
        kept = self.guard.cache.count()
        duration_ms = (timebase.now() - started) * 1000.0
        tally = self._drains
        tally["records_installed"] += kept
        tally["drains"] += 1
        tally["last_drain_ms"] = duration_ms
        return DrainReport(node_id, kept, duration_ms)

    # -- the stats tree bench/layers.py reads --------------------------------

    def stats_snapshot(self) -> Dict[str, object]:
        """``nodes`` holds the one guard's counters, read off its
        registry; ``dispatch`` counts its batches; ``bus.delivered`` the
        delegation edges its invalidations removed; ``handoff`` the
        drains."""
        guard = self.guard

        def section(prefix, keys):
            return {key: guard.metrics.counter(prefix + key)
                    for key in keys.split()}

        # ``check_many`` observes each batch's size: the histogram's
        # count is the batches, its sum the checks.
        sizes = guard.metrics.histogram("guard.batch_size") or Histogram()
        batches, checks = sizes.count, int(sizes.total)
        stages = section("guard.stage.", "fastpath proof_cache prover")
        totals = section("guard.", "denials challenges credential_verifications")
        totals.update(checks=checks, batches=batches,
                      grants=sum(stages.values()),
                      cache_hits=stages["fastpath"] + stages["proof_cache"])
        return {
            "nodes": {"guard": {
                "guard": totals,
                "cache": section("guard.cache.", "insertions dedup_hits "
                                 "evictions invalidations retract_examined"),
                "prover": section("prover.", "searches nodes_expanded "
                                  "invalidate_examined"),
            }},
            "dispatch": {
                "dispatches": batches,
                "requests": checks,
                "shard_batches": batches,
            },
            "bus": {"delivered": guard.prover.graph.invalidations},
            "handoff": dict(self._drains),
        }
