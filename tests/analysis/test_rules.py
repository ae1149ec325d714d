"""Each rule: a violating fixture and a clean one, scope included."""

from __future__ import annotations

from tests.analysis.conftest import rule_ids


class TestArch001GuardFactory:
    def test_direct_construction_flagged(self, lint):
        result = lint(
            "repro/apps/scratch.py",
            """
            from repro.guard import Guard

            def build(trust):
                return Guard(trust)
            """,
        )
        assert rule_ids(result) == ["ARCH001"]
        assert "default_backend" in result.findings[0].message

    def test_attribute_construction_flagged(self, lint):
        result = lint(
            "repro/apps/scratch.py",
            """
            import repro.guard.pipeline as pipeline

            def build(trust):
                return pipeline.Guard(trust)
            """,
        )
        assert rule_ids(result) == ["ARCH001"]

    def test_factory_module_is_exempt(self, lint):
        result = lint(
            "repro/guard/backend.py",
            """
            def default_backend(trust, **kwargs):
                return Guard(trust, **kwargs)
            """,
        )
        assert rule_ids(result) == []

    def test_factory_call_is_clean(self, lint):
        result = lint(
            "repro/apps/scratch.py",
            """
            from repro.guard.backend import resolve_backend

            def build(backend, trust):
                return resolve_backend(backend, trust)
            """,
        )
        assert rule_ids(result) == []


class TestArch002BackendBoundary:
    def test_transport_prover_import_flagged(self, lint):
        result = lint(
            "repro/http/scratch.py",
            "from repro.prover import Prover\n",
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_transport_cache_import_flagged(self, lint):
        result = lint(
            "repro/smtp/scratch.py",
            "from repro.guard import ProofCache\n",
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_plain_import_flagged(self, lint):
        result = lint(
            "repro/net/scratch.py",
            "import repro.prover.graph\n",
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_non_transport_module_is_exempt(self, lint):
        result = lint(
            "repro/names/scratch.py",
            "from repro.prover import Prover\n",
        )
        assert rule_ids(result) == []

    def test_public_guard_surface_is_clean(self, lint):
        result = lint(
            "repro/http/scratch.py",
            "from repro.guard import GuardRequest, SessionCredential\n",
        )
        assert rule_ids(result) == []

    def test_handoff_plane_prover_import_flagged(self, lint):
        """The warm-handoff module is in the boundary's scope: state it
        moves must re-enter through the guard's import hooks, never by
        touching the prover or the cache types directly."""
        result = lint(
            "repro/cluster/handoff.py",
            "from repro.prover import Prover\n",
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_handoff_plane_cache_type_flagged(self, lint):
        result = lint(
            "repro/cluster/handoff.py",
            "from repro.guard.cache import CachedProof\n",
        )
        assert rule_ids(result) == ["ARCH002"]

    def test_other_cluster_modules_stay_exempt(self, lint):
        # Only the handoff plane is scoped in: the dispatch layer builds
        # nodes (prover included) and legitimately imports it.
        result = lint(
            "repro/cluster/scratch.py",
            "from repro.prover import Prover\n",
        )
        assert rule_ids(result) == []


class TestArch003InjectedEntropy:
    def test_system_random_default_flagged(self, lint):
        result = lint(
            "repro/net/scratch.py",
            """
            import random

            def mint(rng=None):
                rng = rng or random.SystemRandom()
                return rng.getrandbits(64)
            """,
        )
        assert rule_ids(result) == ["ARCH003"]

    def test_wall_clock_flagged(self, lint):
        result = lint(
            "repro/cluster/scratch.py",
            """
            import time

            def stamp():
                return time.time()
            """,
        )
        assert rule_ids(result) == ["ARCH003"]
        assert "clock" in result.findings[0].message

    def test_wall_clock_in_handoff_flagged(self, lint):
        """Drain timing must ride the registry's injected timebase: a
        naked wall-clock read in the handoff plane would make drain
        makespans non-deterministic under simulation."""
        result = lint(
            "repro/cluster/handoff.py",
            """
            import time

            def drain_started():
                return time.time()
            """,
        )
        assert rule_ids(result) == ["ARCH003"]

    def test_from_import_alias_resolved(self, lint):
        result = lint(
            "repro/apps/scratch.py",
            """
            from time import time as wallclock
            from datetime import datetime

            def stamp():
                return wallclock(), datetime.now()
            """,
        )
        assert rule_ids(result) == ["ARCH003", "ARCH003"]

    def test_secrets_outside_rng_module_flagged(self, lint):
        result = lint(
            "repro/http/scratch.py",
            """
            import secrets

            def nonce():
                return secrets.token_bytes(16)
            """,
        )
        assert rule_ids(result) == ["ARCH003"]

    def test_injected_rng_is_clean(self, lint):
        result = lint(
            "repro/net/scratch.py",
            """
            from repro.crypto.rng import default_rng

            def mint(rng=None):
                rng = default_rng(rng)
                return rng.randrange(2, 100)
            """,
        )
        assert rule_ids(result) == []

    def test_seeded_random_is_clean(self, lint):
        # random.Random(seed) is the deterministic object tests inject.
        result = lint(
            "repro/apps/scratch.py",
            """
            import random

            def witnesses(n):
                return random.Random(n).randrange(2, n)
            """,
        )
        assert rule_ids(result) == []

    def test_rng_seam_and_sim_are_exempt(self, lint):
        source = """
        import secrets
        import time

        def draw():
            return secrets.randbits(8), time.time()
        """
        assert rule_ids(lint("repro/crypto/rng.py", source)) == []
        assert rule_ids(lint("repro/sim/scratch.py", source)) == []


class TestArch004AuditComplete:
    def test_unaudited_grant_flagged(self, lint):
        result = lint(
            "repro/guard/pipeline.py",
            """
            class Guard:
                def check(self, request):
                    return GuardDecision(True, via="channel")
            """,
        )
        assert "ARCH004" in rule_ids(result)

    def test_grant_via_audited_helper_is_clean(self, lint):
        result = lint(
            "repro/guard/pipeline.py",
            """
            class Guard:
                def check(self, request):
                    return self._grant(request)

                def _grant(self, request):
                    record = AuditRecord(request)
                    self.audit.record(record)
                    return GuardDecision(True, record=record)
            """,
        )
        assert rule_ids(result) == []

    def test_new_fast_path_bypassing_audit_flagged(self, lint):
        # The bug class the rule exists for: a second grant site added
        # beside the audited one.
        result = lint(
            "repro/guard/pipeline.py",
            """
            class Guard:
                def check(self, request):
                    return self._grant(request)

                def _grant(self, request):
                    self.audit.record(AuditRecord(request))
                    return GuardDecision(True)

                def check_fast(self, request):
                    if request.cached:
                        return GuardDecision(True, stage="cache")
                    return self._grant(request)
            """,
        )
        assert rule_ids(result) == ["ARCH004"]
        assert "check_fast" in result.findings[0].message

    def test_only_pipeline_module_in_scope(self, lint):
        result = lint(
            "repro/guard/sessions.py",
            """
            def check(request):
                return GuardDecision(True)
            """,
        )
        assert rule_ids(result) == []


class TestArch005AsyncReady:
    def test_sleep_flagged(self, lint):
        result = lint(
            "repro/cluster/scratch.py",
            """
            import time

            def backoff():
                time.sleep(0.1)
            """,
        )
        assert rule_ids(result) == ["ARCH005"]

    def test_socket_and_open_flagged(self, lint):
        result = lint(
            "repro/guard/scratch.py",
            """
            import socket

            def spill(path):
                connection = socket.create_connection(("host", 80))
                with open(path) as handle:
                    return handle.read(), connection
            """,
        )
        assert rule_ids(result) == ["ARCH005", "ARCH005"]

    def test_outside_hot_path_is_exempt(self, lint):
        result = lint(
            "repro/tools/scratch.py",
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()
            """,
        )
        assert rule_ids(result) == []

    def test_injected_sleep_is_clean(self, lint):
        # clock.sleep() on an injected SimClock is how delays are modeled.
        result = lint(
            "repro/cluster/scratch.py",
            """
            def backoff(clock):
                clock.sleep(0.1)
            """,
        )
        assert rule_ids(result) == []

    def test_serve_package_is_in_scope(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            import time

            def settle():
                time.sleep(0.1)
            """,
        )
        assert rule_ids(result) == ["ARCH005"]

    def test_awaitless_while_true_in_async_handler_flagged(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            async def pump(queue):
                while True:
                    if queue.empty():
                        continue
                    queue.get_nowait()
            """,
        )
        assert rule_ids(result) == ["ARCH005"]
        assert "unbounded synchronous loop" in result.findings[0].message

    def test_while_true_with_await_is_clean(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            async def pump(queue):
                while True:
                    frame = await queue.get()
                    if frame is None:
                        break
            """,
        )
        assert rule_ids(result) == []

    def test_nested_closure_await_does_not_launder_the_loop(self, lint):
        # An await inside a function *defined* in the loop body runs on
        # someone else's schedule; the loop itself still never yields.
        result = lint(
            "repro/serve/scratch.py",
            """
            async def pump(queue):
                while True:
                    async def later():
                        await queue.get()
                    register(later)
            """,
        )
        assert rule_ids(result) == ["ARCH005"]

    def test_sync_while_true_outside_async_def_is_clean(self, lint):
        # A synchronous decoder loop never holds an event loop hostage.
        result = lint(
            "repro/serve/scratch.py",
            """
            def frames(buffer):
                while True:
                    if len(buffer) < 4:
                        return
                    yield buffer.pop()
            """,
        )
        assert rule_ids(result) == []


    def test_thread_use_in_single_owner_code_flagged(self, lint):
        # The concurrency model: a cluster is touched only by the event
        # loop that serves it — no thread may be started or handed work.
        result = lint(
            "repro/serve/scratch.py",
            """
            import asyncio
            import threading
            from concurrent.futures import ThreadPoolExecutor

            async def offload(backend, requests, other_loop):
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, backend.check_many, requests)
                asyncio.run_coroutine_threadsafe(backend.drain(), other_loop)
            """,
        )
        assert rule_ids(result) == ["ARCH005"] * 4
        messages = " ".join(finding.message for finding in result.findings)
        for name in ("threading", "concurrent.futures", "run_in_executor",
                     "run_coroutine_threadsafe"):
            assert name in messages

    def test_direct_backend_call_on_the_loop_is_clean(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            import asyncio

            async def serve(backend, queue, writer):
                while True:
                    requests = await queue.get()
                    decisions = backend.check_many(requests)
                    writer.write(decisions)
                    await writer.drain()
            """,
        )
        assert rule_ids(result) == []

    def test_threads_outside_the_single_owner_scope_are_exempt(self, lint):
        # repro.obs keeps its locks: in-process embedders are threaded.
        result = lint(
            "repro/obs/scratch.py",
            """
            import threading

            LOCK = threading.Lock()
            """,
        )
        assert rule_ids(result) == []


class TestArch006ExceptionDiscipline:
    def test_bare_except_flagged(self, lint):
        result = lint(
            "repro/smtp/scratch.py",
            """
            def parse(wire):
                try:
                    return decode(wire)
                except:
                    return None
            """,
        )
        assert rule_ids(result) == ["ARCH006"]

    def test_except_exception_flagged(self, lint):
        result = lint(
            "repro/rmi/scratch.py",
            """
            def parse(wire):
                try:
                    return decode(wire)
                except Exception:
                    return None
            """,
        )
        assert rule_ids(result) == ["ARCH006"]

    def test_serve_package_is_in_scope(self, lint):
        # repro.serve is a transport: the same discipline applies (and
        # ARCH007 also fires — the swallow is uncounted).
        result = lint(
            "repro/serve/scratch.py",
            """
            def parse(wire):
                try:
                    return decode(wire)
                except Exception:
                    return None
            """,
        )
        assert rule_ids(result) == ["ARCH006", "ARCH007"]

    def test_overbroad_tuple_flagged(self, lint):
        result = lint(
            "repro/http/scratch.py",
            """
            def parse(wire):
                try:
                    return decode(wire)
                except (ValueError, Exception):
                    return None
            """,
        )
        assert rule_ids(result) == ["ARCH006"]

    def test_specific_except_is_clean(self, lint):
        result = lint(
            "repro/http/scratch.py",
            """
            from repro.core.errors import AuthorizationError

            def parse(wire):
                try:
                    return decode(wire)
                except ValueError as exc:
                    raise AuthorizationError("credential rejected: %s" % exc)
            """,
        )
        assert rule_ids(result) == []

    def test_non_transport_is_exempt(self, lint):
        result = lint(
            "repro/tools/scratch.py",
            """
            def parse(wire):
                try:
                    return decode(wire)
                except Exception:
                    return None
            """,
        )
        assert rule_ids(result) == []


class TestArch007CountedFailures:
    def test_silent_swallow_flagged(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            def pump(self):
                try:
                    return self.read()
                except ValueError:
                    return None
            """,
        )
        assert rule_ids(result) == ["ARCH007"]
        assert "ValueError" in result.findings[0].message

    def test_inline_inc_is_clean(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            def pump(self):
                try:
                    return self.read()
                except ValueError:
                    self.metrics.inc("serve.conn.read_errors")
                    return None
            """,
        )
        assert rule_ids(result) == []

    def test_stats_dict_bump_is_clean(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            def pump(self):
                try:
                    return self.read()
                except ValueError:
                    self.stats["read_errors"] += 1
                    return None
            """,
        )
        assert rule_ids(result) == []

    def test_counting_helper_is_reached_transitively(self, lint):
        # The handler calls a local helper (by attribute, off a base
        # that is not ``self``); the helper is what counts.
        result = lint(
            "repro/serve/scratch.py",
            """
            def _count(listener, status):
                listener.metrics.inc("serve.replies.%s" % status)

            def serve(listener, frame):
                try:
                    return listener.dispatch(frame)
                except ValueError:
                    return listener._count("error")
            """,
        )
        assert rule_ids(result) == []

    def test_bare_reraise_is_clean(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            def pump(self):
                try:
                    return self.read()
                except ValueError:
                    self.cleanup()
                    raise
            """,
        )
        assert rule_ids(result) == []

    def test_translating_raise_is_clean(self, lint):
        # A codec function has no registry to count on; translating the
        # failure keeps it propagating to the listener, which does.
        result = lint(
            "repro/serve/scratch.py",
            """
            def decode(payload):
                try:
                    return parse(payload)
                except ValueError as exc:
                    raise WireError("unparseable frame: %s" % exc)
            """,
        )
        assert rule_ids(result) == []

    def test_flow_control_signals_are_exempt(self, lint):
        result = lint(
            "repro/serve/scratch.py",
            """
            import asyncio

            def drain(self):
                try:
                    return self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    return None

            async def pump(self):
                try:
                    await self.task
                except asyncio.CancelledError:
                    return None
            """,
        )
        assert rule_ids(result) == []

    def test_guard_package_is_out_of_scope(self, lint):
        result = lint(
            "repro/guard/scratch.py",
            """
            def check(self, request):
                try:
                    return self.backend.check(request)
                except ValueError:
                    return None
            """,
        )
        assert rule_ids(result) == []

    def test_cluster_dispatch_is_in_scope(self, lint):
        result = lint(
            "repro/cluster/dispatch.py",
            """
            def route(self, batch):
                try:
                    return self.owner.check_many(batch)
                except ValueError:
                    return []
            """,
        )
        assert rule_ids(result) == ["ARCH007"]
