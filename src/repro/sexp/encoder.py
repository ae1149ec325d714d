"""Encoders for the three S-expression wire forms.

The canonical form is the basis for hashing and signing; transport form is
base64-of-canonical wrapped in braces (safe inside HTTP headers, as in the
paper's Figure 5); advanced form is the human-readable syntax used in the
paper's listings.
"""

from __future__ import annotations

import base64
import re

from repro.sexp.ast import Atom, SExp, SList

# A token may be printed bare in advanced form: it must start with a
# non-digit token character and contain only token characters.
_TOKEN_CHARS = re.compile(rb"\A[A-Za-z0-9\-./_:*+=]+\Z")
_TOKEN_START = re.compile(rb"\A[A-Za-z\-./_:*+=]")
# Strings of printable characters (plus blank) may be shown quoted.
_QUOTABLE = re.compile(rb"\A[\x20-\x7e]*\Z")


def to_canonical(node: SExp) -> bytes:
    """Encode in canonical form: ``<len>:<bytes>`` atoms, ``(`` ``)`` lists.

    Nodes are immutable, so every node memoizes its encoding on first
    use (the ``_canonical`` slot): a request's logical form is encoded
    once even though it is hashed, MAC-tagged, and framed separately.
    The encoder itself is iterative — an explicit frame stack instead of
    recursion — and each completed list is assembled with one pre-sized
    ``join`` over its children's (mostly memoized) encodings.
    """
    encoded = node._canonical
    if encoded is not None:
        return encoded
    if isinstance(node, Atom):
        encoded = _atom_canonical(node)
        object.__setattr__(node, "_canonical", encoded)
        return encoded
    if not isinstance(node, SList):
        raise TypeError("not an SExp: %r" % (node,))
    # One frame per open list: (node, collected parts, next child index).
    frames = [(node, [b"("], 0)]
    while True:
        current, parts, index = frames[-1]
        items = current.items
        descended = False
        while index < len(items):
            child = items[index]
            index += 1
            cached = child._canonical
            if cached is not None:
                parts.append(cached)
            elif isinstance(child, Atom):
                encoded = _atom_canonical(child)
                object.__setattr__(child, "_canonical", encoded)
                parts.append(encoded)
            elif isinstance(child, SList):
                frames[-1] = (current, parts, index)
                frames.append((child, [b"("], 0))
                descended = True
                break
            else:  # pragma: no cover - type guard
                raise TypeError("not an SExp: %r" % (child,))
        if descended:
            continue
        parts.append(b")")
        encoded = b"".join(parts)
        object.__setattr__(current, "_canonical", encoded)
        frames.pop()
        if not frames:
            return encoded
        frames[-1][1].append(encoded)


def _atom_canonical(atom: Atom) -> bytes:
    value = atom.value
    if atom.hint is not None:
        return b"[%d:%s]%d:%s" % (
            len(atom.hint), atom.hint, len(value), value
        )
    return b"%d:%s" % (len(value), value)


def to_transport(node: SExp) -> bytes:
    """Encode in transport form: ``{base64(canonical)}``."""
    return b"{" + base64.b64encode(to_canonical(node)) + b"}"


def transport_to_canonical(data) -> bytes:
    """The canonical bytes a transport-form S-expression wraps, unparsed:
    a caller that may already hold what they encode (a proof cache keyed
    by digest) can look them up before paying for a parse."""
    from repro.sexp.parser import SexpParseError

    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.strip()
    if not (data.startswith(b"{") and data.endswith(b"}")):
        raise SexpParseError("transport form must be wrapped in braces")
    try:
        return base64.b64decode(data[1:-1], validate=True)
    except Exception as exc:
        raise SexpParseError("bad base64 in transport form: %s" % exc)


def from_transport(data) -> SExp:
    """Decode a transport-form S-expression back into an AST."""
    from repro.sexp.parser import parse_canonical

    return parse_canonical(transport_to_canonical(data))


def to_advanced(node: SExp) -> str:
    """Encode in advanced (human-readable) form."""
    parts = []
    _advanced_into(node, parts)
    return "".join(parts)


def _advanced_into(node: SExp, parts: list) -> None:
    if isinstance(node, Atom):
        parts.append(_advanced_atom(node))
    elif isinstance(node, SList):
        parts.append("(")
        for index, item in enumerate(node.items):
            if index:
                parts.append(" ")
            _advanced_into(item, parts)
        parts.append(")")
    else:  # pragma: no cover - type guard
        raise TypeError("not an SExp: %r" % (node,))


def _advanced_atom(atom: Atom) -> str:
    prefix = ""
    if atom.hint is not None:
        prefix = "[" + _advanced_atom(Atom(atom.hint)) + "]"
    value = atom.value
    if value and _TOKEN_CHARS.match(value) and _TOKEN_START.match(value):
        return prefix + value.decode("ascii")
    if _QUOTABLE.match(value) and b'"' not in value and b"\\" not in value:
        return prefix + '"' + value.decode("ascii") + '"'
    return prefix + "|" + base64.b64encode(value).decode("ascii") + "|"
