"""ARCH005: no blocking calls and no second thread on the guard/cluster/
serve hot paths."""

from __future__ import annotations

import ast

from repro.analysis.registry import Rule, register
from repro.analysis.symbols import qualified

# The asyncio listener fleet (repro.serve) and the packages its
# connection handlers call into.  One time.sleep() here stalls every
# connection sharing the event loop.
_SCOPE_PREFIXES = ("repro/guard/", "repro/cluster/", "repro/serve/")

_BLOCKING_CALLS = {
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "select.select", "select.poll", "select.epoll",
}
_BLOCKING_PREFIXES = (
    "socket.",
    "subprocess.",
    "requests.",
    "urllib.request.",
    "http.client.",
)
# Builtins that suspend the thread on the filesystem or the terminal.
_BLOCKING_BUILTINS = {"open", "input"}

# The concurrency model (docs/serve.md): a backend is touched only by
# the event loop that serves it.  Anything that starts a thread, or
# hands a call to one, breaks that by construction.
_THREAD_MODULES = ("threading", "concurrent.futures")
_THREAD_HANDOFFS = {
    "run_in_executor", "run_coroutine_threadsafe", "to_thread",
}


@register
class AsyncReadyRule(Rule):
    """Flag blocking calls and thread use inside ``repro.guard`` /
    ``repro.cluster`` / ``repro.serve``.

    These packages run on the listener's event loop, which is the only
    thread of control allowed to touch the backend.  A synchronous sleep,
    socket operation, subprocess, or file read there blocks the whole
    loop; a ``threading`` / ``concurrent.futures`` import or a
    ``run_in_executor`` / ``run_coroutine_threadsafe`` / ``to_thread``
    call puts a second thread on state that has no locks.  Real I/O
    belongs in the serving layer, where it can be ``await``-ed.
    """

    rule_id = "ARCH005"
    title = "blocking call or thread use in guard/cluster/serve"
    rationale = (
        "The asyncio listener dispatches into guard/cluster from its "
        "connection handlers and is their single owner; blocking calls "
        "stall every connection on the loop, and a second thread races "
        "unlocked caches."
    )

    def applies_to(self, rel: str) -> bool:
        return rel.startswith(_SCOPE_PREFIXES)

    def check(self, source):
        imports = source.imports
        tree = source.parse()
        for handler in ast.walk(tree):
            if isinstance(handler, ast.AsyncFunctionDef):
                for finding in self._awaitless_loops(source, handler):
                    yield finding
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for module in self._thread_imports(node):
                    yield self.finding(
                        source, node,
                        "import of %s in single-owner code — a backend is "
                        "touched only by the event loop that serves it"
                        % module,
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # Matched on spelling, not import origin: the receiver is a
            # loop object (``loop.run_in_executor``), never an import.
            called = getattr(func, "attr", None) or getattr(func, "id", None)
            if called in _THREAD_HANDOFFS:
                yield self.finding(
                    source, node,
                    "thread handoff %s() in single-owner code — call the "
                    "backend on the event loop that owns it" % called,
                )
                continue
            if isinstance(func, ast.Name) and func.id in _BLOCKING_BUILTINS:
                yield self.finding(
                    source, node,
                    "blocking builtin %s() on the dispatch hot path — do "
                    "I/O in the serving layer, not in authorization logic"
                    % func.id,
                )
                continue
            target = qualified(func, imports)
            if target is None:
                continue
            if target in _BLOCKING_CALLS or target.startswith(
                _BLOCKING_PREFIXES
            ):
                yield self.finding(
                    source, node,
                    "blocking call %s() on the dispatch hot path — an "
                    "asyncio handler awaiting this stalls the event loop"
                    % target,
                )

    @staticmethod
    def _thread_imports(node):
        """The thread-starting modules an import statement names."""
        if isinstance(node, ast.ImportFrom):
            if node.level:
                return []  # relative imports never name the stdlib
            prefix = node.module + "."
        else:
            prefix = ""
        names = [prefix + alias.name + "." for alias in node.names]
        return [
            module for module in _THREAD_MODULES
            if any(name.startswith(module + ".") for name in names)
        ]

    def _awaitless_loops(self, source, handler):
        """Flag ``while True`` (or any constant-true test) loops inside an
        ``async def`` whose bodies never suspend: with no ``await`` (or
        async iteration) in the loop, the coroutine monopolizes the event
        loop for as long as the loop spins, which starves every other
        connection exactly like a blocking call — only harder to grep
        for.  Nested function bodies do not count as suspension points:
        an ``await`` inside a closure defined in the loop runs on
        *someone else's* schedule, not this iteration's."""
        stack = list(ast.iter_child_nodes(handler))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue  # nested defs run on their own schedule
            if (
                isinstance(node, ast.While)
                and self._constant_true(node.test)
                and not self._suspends(node)
            ):
                yield self.finding(
                    source, node,
                    "unbounded synchronous loop in async handler — a "
                    "while-True with no await never yields the event "
                    "loop back",
                )
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _constant_true(test) -> bool:
        return isinstance(test, ast.Constant) and bool(test.value)

    @staticmethod
    def _suspends(loop) -> bool:
        """True when the loop body contains a suspension point, not
        counting ones hidden inside nested function definitions."""
        stack = list(ast.iter_child_nodes(loop))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return False
