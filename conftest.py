"""Fixtures every test suite shares (``tests/`` and ``benchmarks/``)."""

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_registry,
    get_tracer,
    set_registry,
    set_tracer,
)


@pytest.fixture(autouse=True)
def fresh_registry():
    """Each test counts on a fresh process-wide registry, with a default
    tracer bound to it, as each process does: a component built without
    an injected registry counts there, so no test reads another's counts."""
    registry, tracer = get_registry(), get_tracer()
    fresh = set_registry(MetricsRegistry())
    set_tracer(Tracer(registry=fresh))
    yield fresh
    set_registry(registry)
    set_tracer(tracer)
