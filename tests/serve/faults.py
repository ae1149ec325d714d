"""A fault-injecting backend: a guard that can be crashed on demand."""

from repro.core.errors import NodeUnavailableError


class CrashingBackend:
    """Forward everything to ``backend``; while ``crashes`` is positive,
    each ``check_many`` or ``submit_proof`` call uses one up, raises
    :class:`NodeUnavailableError` and decides nothing."""

    def __init__(self, backend):
        self._backend = backend
        self.crashes = 0

    def check_many(self, requests):
        self._fault()
        return self._backend.check_many(requests)

    def submit_proof(self, proof_wire):
        self._fault()
        return self._backend.submit_proof(proof_wire)

    def _fault(self) -> None:
        if self.crashes > 0:
            self.crashes -= 1
            raise NodeUnavailableError("node-0")

    def __getattr__(self, name):
        return getattr(self._backend, name)
