"""A fleet of listeners sharing one backend (and one ring).

N listening sockets, one authorization state, one event loop: every
listener runs on the *caller's* loop, which is therefore the single
owner of the backend ("Concurrency model" in ``docs/serve.md``).  Every
listener is handed the backend the fleet was given — a bare guard or an
:class:`~repro.cluster.AuthCluster` alike; per-listener traffic shows
up in each listener's own ``stats``.
"""

from __future__ import annotations

from typing import List, Tuple

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
        # One registry/tracer per fleet: the backend's (so guard, cluster
        # and listener counters merge) unless the caller injects one.
        if metrics is None:
            metrics = getattr(backend, "metrics", None)
        self.metrics = default_registry(metrics)
        if tracer is None:
            tracer = getattr(backend, "tracer", None)
        self.tracer = default_tracer(tracer)
        self.listeners: List[ServeListener] = [
            ServeListener(
                backend,
                host=host,
                name="listener-%d" % index,
                metrics=self.metrics,
                tracer=self.tracer,
                **listener_kwargs,
            )
            for index in range(listeners)
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
        """Fleet-wide counters: the sum over listeners (the registry
        serves each listener's dict as its own ``serve.<name>`` source)."""
        total: dict = {}
        for listener in self.listeners:
            for key, value in listener.stats.items():
                total[key] = total.get(key, 0) + value
        return total
