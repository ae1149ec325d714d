"""Remote objects and the server-side skeleton.

A :class:`RemoteObject` is the implementation object of Figure 4: it is
controlled by an issuer principal (the paper's ``KS``), maps method
invocations to minimum restriction sets, and has ``checkAuth()`` prepended
to every method by the :class:`RmiSkeleton` — "it would be simple to
automate the injection of checkAuth() calls to insure that no Remote
interface is left unprotected," and here it *is* automated.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.errors import (
    AuthorizationError,
    NeedAuthorizationError,
)
from repro.core.principals import Principal
from repro.guard import AuthBackend, ChannelCredential, GuardRequest
from repro.net.secure import SecureChannelService
from repro.sexp import Atom, SExp, SList, sexp
from repro.sim.costmodel import Meter, maybe_charge
from repro.tags import Tag


def invocation_sexp(object_name: str, method: str, args) -> SExp:
    """The canonical request form: ``(invoke (object o) (method m) (args ..))``."""
    return SList(
        [
            Atom("invoke"),
            SList([Atom("object"), Atom(object_name)]),
            SList([Atom("method"), Atom(method)]),
            SList([Atom("args")] + [sexp(arg) for arg in args]),
        ]
    )


class RemoteObject:
    """A server-side object whose methods require proof of authority.

    ``methods`` maps method names to callables taking the deserialized
    argument S-expressions.  ``restriction_for`` maps an invocation to the
    minimum restriction set a client must prove (default: the singleton
    tag containing exactly the invocation, per Section 5.1.1's footnote).
    """

    def __init__(
        self,
        name: str,
        issuer: Principal,
        methods: Dict[str, Callable],
        restriction_for: Optional[Callable[[str, list], Tag]] = None,
    ):
        self.name = name
        self.issuer = issuer
        self.methods = dict(methods)
        self._restriction_for = restriction_for

    def restriction(self, method: str, args) -> Tag:
        if self._restriction_for is not None:
            return self._restriction_for(method, args)
        return Tag.exactly(invocation_sexp(self.name, method, args))

    def dispatch(self, method: str, args) -> SExp:
        handler = self.methods.get(method)
        if handler is None:
            raise AuthorizationError("no such method %r" % method)
        return sexp(handler(*args))


class RmiSkeleton(SecureChannelService):
    """Unmarshals invocations, runs checkAuth, dispatches, marshals replies.

    Wire protocol (inside whatever channel carries it):

    - ``(invoke ...)`` → ``(result <value>)`` on success;
    - on missing proof → ``(error need-auth (issuer <p>) (tag ...))`` — the
      serialized ``SfNeedAuthorizationException``;
    - ``(submit-proof <proof>)`` → ``(result ok)`` — the proofRecipient;
    - any other failure → ``(error denied <message>)``.
    """

    def __init__(self, auth: AuthBackend, meter: Optional[Meter] = None):
        # ``auth`` is any AuthBackend: the skeleton only needs ``check``
        # and ``submit_proof``.
        self.auth = auth
        self.meter = meter
        self._objects: Dict[str, RemoteObject] = {}

    def export(self, obj: RemoteObject) -> None:
        if obj.name in self._objects:
            raise ValueError("object %r already exported" % obj.name)
        self._objects[obj.name] = obj

    def object(self, name: str) -> RemoteObject:
        return self._objects[name]

    def handle_request(self, request: SExp, speaker: Principal, connection) -> SExp:
        maybe_charge(self.meter, "rmi_base")
        head = request.head() if isinstance(request, SList) else None
        try:
            if head == "invoke":
                return self._invoke(request, speaker)
            if head == "submit-proof":
                self.auth.submit_proof(request.items[1].to_canonical())
                return SList([Atom("result"), Atom("ok")])
            return _error("denied", "unknown request %r" % head)
        except NeedAuthorizationError as exc:
            return SList(
                [
                    Atom("error"),
                    Atom("need-auth"),
                    SList([Atom("issuer"), exc.issuer.to_sexp()]),
                    exc.tag.to_sexp(),
                ]
            )
        except AuthorizationError as exc:
            return _error("denied", str(exc))
        except Exception as exc:  # archlint: ignore[ARCH006] invocation fault boundary: the wire must answer, not unwind
            return _error("fault", "%s: %s" % (type(exc).__name__, exc))

    def _invoke(self, request: SList, speaker: Principal) -> SExp:
        object_field = request.find("object")
        method_field = request.find("method")
        args_field = request.find("args")
        if object_field is None or method_field is None or args_field is None:
            return _error("denied", "malformed invocation")
        name = object_field.items[1].text()
        method = method_field.items[1].text()
        args = list(args_field.tail())
        obj = self._objects.get(name)
        if obj is None:
            return _error("denied", "no such object %r" % name)
        # The checkAuth() prefix on every remote method (Figure 4, step l):
        # the invocation becomes a GuardRequest and rides the shared
        # pipeline, like every other transport.
        self.auth.check(
            GuardRequest(
                request,
                issuer=obj.issuer,
                min_tag=obj.restriction(method, args),
                credential=ChannelCredential(speaker),
                transport="rmi",
                channel={"object": name, "method": method},
            )
        )
        result = obj.dispatch(method, args)
        wire_kb = len(result.to_canonical()) / 1024.0
        maybe_charge(self.meter, "serialize_per_kb", times=wire_kb)
        return SList([Atom("result"), result])


def _error(kind: str, message: str) -> SExp:
    return SList([Atom("error"), Atom(kind), Atom(message)])
