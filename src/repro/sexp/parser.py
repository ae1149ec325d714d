"""Parsers for canonical and advanced S-expression forms.

``parse`` accepts the advanced form (what humans and the paper's figures
write); ``parse_canonical`` accepts the canonical form (what goes under
hashes and signatures).  Both are recursive-descent parsers over a byte
cursor; SPKI expressions are shallow so recursion depth is not a concern.
"""

from __future__ import annotations

import base64
from typing import Optional, Tuple

from repro.sexp.ast import Atom, SExp, SList


class SexpParseError(ValueError):
    """Raised when input is not a well-formed S-expression."""


_WHITESPACE = b" \t\r\n\f\v"
_TOKEN_CHARS = frozenset(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-./_:*+="
)
_DIGITS = frozenset(b"0123456789")


class _Cursor:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def peek(self) -> int:
        if self.pos >= len(self.data):
            raise SexpParseError("unexpected end of input at byte %d" % self.pos)
        return self.data[self.pos]

    def at_end(self) -> bool:
        return self.pos >= len(self.data)

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise SexpParseError(
                "truncated input: wanted %d bytes at %d" % (count, self.pos)
            )
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def skip_whitespace(self) -> None:
        data, pos = self.data, self.pos
        while pos < len(data) and data[pos] in _WHITESPACE:
            pos += 1
        self.pos = pos


def parse_canonical(data) -> SExp:
    """Parse one canonical-form S-expression; reject trailing garbage.

    This is the hot decode path (every wire request), so it is
    iterative over plain ints and slices rather than
    going through the :class:`_Cursor` methods the advanced parser
    uses.  It also fills each node's memoized canonical encoding from
    the input it just consumed — the mirror of the encoder's memo —
    so a parsed node re-encodes, digests, and MAC-checks without ever
    being serialized again.  The memo is only stamped when the consumed
    bytes are verifiably canonical (length prefixes free of leading
    zeros); degenerate-but-accepted input parses fine, it just skips
    the shortcut.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    node, pos = parse_canonical_prefix(data, 0)
    if pos != len(data):
        raise SexpParseError("trailing bytes after canonical expression")
    return node


# Constructor bypass for the hot loop: the parser guarantees bytes-typed
# values and SExp-typed items, so the public constructors' type checks
# are pure overhead here.  ``object.__setattr__`` is how the immutable
# nodes are populated everywhere (see ast.py).
_NEW_ATOM = Atom.__new__
_NEW_SLIST = SList.__new__
_SET = object.__setattr__


def parse_canonical_prefix(data: bytes, pos: int) -> Tuple[SExp, int]:
    """``(node, end)`` for the one canonical expression starting at
    ``pos``; the bytes after ``end`` are left for the caller.

    A byte reader uses this for the subtrees it hands to a node decoder.
    ``node._canonical`` is ``None`` when the consumed bytes were not
    verbatim canonical (a leading-zero length), so ``data[pos:end]`` is
    the node's encoding exactly when it is set."""
    size = len(data)
    # One frame per open list: [items, start offset, canonical-clean].
    stack: list = []
    while True:
        if pos >= size:
            raise SexpParseError("unexpected end of input at byte %d" % pos)
        ch = data[pos]
        if ch == 40:  # "("
            stack.append([[], pos, True])
            pos += 1
            continue
        if ch == 41 and stack:  # ")"
            pos += 1
            items, start, clean = stack.pop()
            node = _NEW_SLIST(SList)
            _SET(node, "items", tuple(items))
            _SET(node, "_canonical", data[start:pos] if clean else None)
            if not stack:
                return node, pos
            frame = stack[-1]
            frame[0].append(node)
            if not clean:
                frame[2] = False
            continue
        start = pos
        hint = None
        clean = True
        if ch == 91:  # "["
            hint, pos, clean = _verbatim_at(data, pos + 1)
            if pos >= size or data[pos] != 93:  # "]"
                raise SexpParseError("unterminated display hint")
            pos += 1
        value, pos, value_clean = _verbatim_at(data, pos)
        clean = clean and value_clean
        node = _NEW_ATOM(Atom)
        _SET(node, "value", value)
        _SET(node, "hint", hint)
        _SET(node, "_canonical", data[start:pos] if clean else None)
        if not stack:
            return node, pos
        frame = stack[-1]
        frame[0].append(node)
        if not clean:
            frame[2] = False


def _verbatim_at(data: bytes, pos: int) -> Tuple[bytes, int, bool]:
    start = pos
    size = len(data)
    while pos < size and 48 <= data[pos] <= 57:  # "0".."9"
        pos += 1
    if pos == start:
        raise SexpParseError("expected length prefix at byte %d" % pos)
    length = int(data[start:pos])
    if pos >= size or data[pos] != 58:  # ":"
        raise SexpParseError("expected ':' after length at byte %d" % pos)
    end = pos + 1 + length
    if end > size:
        raise SexpParseError(
            "truncated input: wanted %d bytes at %d" % (length, pos + 1)
        )
    # Canonical length prefixes carry no leading zero ("0:" itself is
    # the one single-digit exception), so a clean prefix means the
    # consumed bytes equal the node's canonical encoding verbatim.
    clean = data[start] != 48 or pos - start == 1
    return data[pos + 1 : end], end, clean


def canonical_atom_at(
    data: bytes, pos: int, limit: int
) -> Optional[Tuple[bytes, int]]:
    """``(value, end)`` of the plain ``<len>:<bytes>`` atom at ``pos``
    when it ends by ``limit``; ``None`` for anything else — a list, a
    display hint, a leading-zero length, an overrun."""
    colon = data.find(b":", pos, pos + 11)
    if colon <= pos:
        return None
    length = data[pos:colon]
    if not length.isdigit() or (length[0] == 48 and colon - pos > 1):
        return None
    end = colon + 1 + int(length)
    if end > limit:
        return None
    return data[colon + 1:end], end


def canonical_extent(data: bytes, pos: int = 0) -> Optional[int]:
    """End offset of the one canonical expression starting at ``pos``.

    Skips by length prefixes alone — no nodes built — so a caller can
    slice a sub-expression out of a frame and decide whether it has seen
    those exact bytes before.  Anything irregular (a display hint, a
    prefix that is not plain digits, truncation, a stray ``)``) returns
    ``None``: take the full parser, which owns the error.  Whenever this
    returns ``end``, ``parse_canonical(data[pos:end])`` succeeds.
    """
    size = len(data)
    depth = 0
    while pos < size:
        ch = data[pos]
        if ch == 40:  # "("
            depth += 1
            pos += 1
        elif ch == 41:  # ")"
            depth -= 1
            pos += 1
            if depth <= 0:
                return pos if depth == 0 else None
        else:
            colon = data.find(b":", pos, pos + 11)
            prefix = data[pos:colon]
            if colon < 0 or not prefix.isdigit():
                return None
            pos = colon + 1 + int(prefix)
            if pos > size:
                return None
            if not depth:
                return pos
    return None


def parse(text) -> SExp:
    """Parse one advanced-form S-expression; reject trailing garbage.

    Also accepts transport form (``{...}``) and canonical verbatim atoms,
    per Rivest's draft where all three may be mixed.
    """
    if isinstance(text, str):
        text = text.encode("utf-8")
    cursor = _Cursor(text)
    cursor.skip_whitespace()
    node = _parse_advanced_node(cursor)
    cursor.skip_whitespace()
    if not cursor.at_end():
        raise SexpParseError("trailing bytes after expression")
    return node


def _parse_advanced_node(cursor: _Cursor) -> SExp:
    cursor.skip_whitespace()
    ch = cursor.peek()
    if ch == ord("("):
        cursor.take(1)
        items = []
        while True:
            cursor.skip_whitespace()
            if cursor.peek() == ord(")"):
                cursor.take(1)
                return SList(items)
            items.append(_parse_advanced_node(cursor))
    if ch == ord("{"):
        return _parse_transport(cursor)
    hint = None
    if ch == ord("["):
        cursor.take(1)
        cursor.skip_whitespace()
        hint_atom = _parse_advanced_atom(cursor)
        hint = hint_atom.value
        cursor.skip_whitespace()
        if cursor.take(1) != b"]":
            raise SexpParseError("unterminated display hint")
    atom = _parse_advanced_atom(cursor)
    if hint is not None:
        atom = Atom(atom.value, hint=hint)
    return atom


def _parse_transport(cursor: _Cursor) -> SExp:
    cursor.take(1)  # consume '{'
    start = cursor.pos
    while cursor.peek() != ord("}"):
        cursor.pos += 1
    encoded = cursor.data[start : cursor.pos]
    cursor.take(1)  # consume '}'
    try:
        canonical = base64.b64decode(bytes(encoded).translate(None, _WHITESPACE))
    except Exception as exc:
        raise SexpParseError("bad base64 in transport form: %s" % exc)
    return parse_canonical(canonical)


def _parse_advanced_atom(cursor: _Cursor) -> Atom:
    ch = cursor.peek()
    if ch == ord('"'):
        return Atom(_parse_quoted(cursor))
    if ch == ord("#"):
        return Atom(_parse_delimited_base(cursor, ord("#"), 16))
    if ch == ord("|"):
        return Atom(_parse_delimited_base(cursor, ord("|"), 64))
    if ch in _DIGITS:
        # Either a verbatim atom (3:abc), a length-prefixed quoted/hex/
        # base64 atom, or a bare numeric token.
        return _parse_numeric_start(cursor)
    if ch in _TOKEN_CHARS:
        return Atom(_parse_token(cursor))
    raise SexpParseError("unexpected byte %r at %d" % (chr(ch), cursor.pos))


def _parse_token(cursor: _Cursor) -> bytes:
    start = cursor.pos
    while not cursor.at_end() and cursor.peek() in _TOKEN_CHARS:
        cursor.pos += 1
    return cursor.data[start : cursor.pos]


def _parse_numeric_start(cursor: _Cursor) -> Atom:
    start = cursor.pos
    while not cursor.at_end() and cursor.peek() in _DIGITS:
        cursor.pos += 1
    if not cursor.at_end():
        ch = cursor.peek()
        length = int(cursor.data[start : cursor.pos])
        if ch == ord(":"):
            cursor.take(1)
            return Atom(cursor.take(length))
        if ch == ord('"'):
            value = _parse_quoted(cursor)
            if len(value) != length:
                raise SexpParseError("quoted-string length mismatch")
            return Atom(value)
        if ch == ord("#"):
            value = _parse_delimited_base(cursor, ord("#"), 16)
            if len(value) != length:
                raise SexpParseError("hex length mismatch")
            return Atom(value)
        if ch == ord("|"):
            value = _parse_delimited_base(cursor, ord("|"), 64)
            if len(value) != length:
                raise SexpParseError("base64 length mismatch")
            return Atom(value)
        if ch in _TOKEN_CHARS:
            # Token that merely starts with digits (SPKI forbids these as
            # pure tokens, but dates like 2000-10-01 appear in validity
            # fields and we accept them).
            cursor.pos = start
            return Atom(_parse_token(cursor))
    return Atom(cursor.data[start : cursor.pos])


_ESCAPES = {
    ord("b"): b"\b",
    ord("t"): b"\t",
    ord("v"): b"\v",
    ord("n"): b"\n",
    ord("f"): b"\f",
    ord("r"): b"\r",
    ord('"'): b'"',
    ord("'"): b"'",
    ord("\\"): b"\\",
}


def _parse_quoted(cursor: _Cursor) -> bytes:
    cursor.take(1)  # opening quote
    out = bytearray()
    while True:
        ch = cursor.take(1)[0]
        if ch == ord('"'):
            return bytes(out)
        if ch != ord("\\"):
            out.append(ch)
            continue
        esc = cursor.take(1)[0]
        if esc in _ESCAPES:
            out += _ESCAPES[esc]
        elif esc in _DIGITS:  # octal escape \ooo
            digits = bytes([esc]) + cursor.take(2)
            out.append(int(digits, 8))
        elif esc == ord("x"):
            out.append(int(cursor.take(2), 16))
        elif esc in (ord("\n"), ord("\r")):
            continue  # line continuation
        else:
            raise SexpParseError("bad escape \\%c" % esc)


def _parse_delimited_base(cursor: _Cursor, delim: int, base: int) -> bytes:
    cursor.take(1)  # opening delimiter
    start = cursor.pos
    while cursor.peek() != delim:
        cursor.pos += 1
    body = bytes(cursor.data[start : cursor.pos]).translate(None, _WHITESPACE)
    cursor.take(1)  # closing delimiter
    try:
        if base == 16:
            return bytes.fromhex(body.decode("ascii"))
        return base64.b64decode(body, validate=True)
    except Exception as exc:
        raise SexpParseError("bad base-%d atom: %s" % (base, exc))
