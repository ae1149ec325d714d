"""A fleet of listeners sharing one backend (and one ring).

N listening sockets, one authorization state, one event loop: every
listener runs on the *caller's* loop, which is therefore the single
owner of the backend ("Concurrency model" in ``docs/serve.md``).  When
the shared backend is an :class:`~repro.cluster.AuthCluster`, each
listener fronts it through its own counted
:class:`~repro.cluster.ClusterFrontend` handle — the same arrangement
``benchmarks/test_frontend_routing.py`` models in-process — so
per-listener traffic shows up in the frontend stats.  Any other
:class:`AuthBackend` (a bare guard, a single frontend) is shared
directly by every listener.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.dispatch import AuthCluster
from repro.cluster.frontend import fleet as frontend_fleet
from repro.obs.registry import default_registry
from repro.obs.trace import default_tracer
from repro.serve.server import ServeListener


class ServeFleet:
    """N :class:`ServeListener`\\ s over one shared backend."""

    def __init__(
        self,
        backend,
        listeners: int = 1,
        host: str = "127.0.0.1",
        metrics=None,
        tracer=None,
        **listener_kwargs,
    ):
        if listeners < 1:
            raise ValueError("a fleet needs at least one listener")
        self.backend = backend
        # One registry/tracer per fleet: the backend's (so guard, frontend
        # and listener counters merge) unless the caller injects one.
        if metrics is None:
            metrics = getattr(backend, "metrics", None)
        self.metrics = default_registry(metrics)
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        self.tracer = default_tracer(tracer)
        self.metrics.register_source("serve.fleet", self.stats)
        if isinstance(backend, AuthCluster):
            frontends = frontend_fleet(backend, listeners)
        else:
            frontends = [backend] * listeners
        self.listeners: List[ServeListener] = [
            ServeListener(
                frontend,
                host=host,
                name="listener-%d" % index,
                metrics=self.metrics,
                tracer=self.tracer,
                **listener_kwargs,
            )
            for index, frontend in enumerate(frontends)
        ]

    async def start(self) -> List[Tuple[str, int]]:
        """Start every listener; returns their bound addresses."""
        addresses = []
        for listener in self.listeners:
            addresses.append(await listener.start())
        return addresses

    async def shutdown(self) -> None:
        for listener in self.listeners:
            await listener.shutdown()

    def addresses(self) -> List[Tuple[str, int]]:
        return [listener.address for listener in self.listeners]

    def stats(self) -> dict:
        """Fleet-wide counters: the sum over listeners."""
        total: dict = {}
        for listener in self.listeners:
            for key, value in listener.stats.items():
                total[key] = total.get(key, 0) + value
        return total
