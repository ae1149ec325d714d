"""An in-memory hierarchical file system.

The substrate behind the protected web file server: directories, files,
and the usual tree operations.  Paths are ``/``-separated absolute
strings; the root is ``/``.

:class:`GuardedFileSystem` wraps the tree with per-operation
authorization through the shared guard pipeline — the same delegation
chains that authorize HTTP or RMI requests authorize direct file access,
and every grant leaves the same audit record.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class FileSystemError(Exception):
    """Missing paths, type mismatches, bad names."""


class _Node:
    __slots__ = ("name",)


class _File(_Node):
    __slots__ = ("name", "content")

    def __init__(self, name: str, content: bytes):
        self.name = name
        self.content = content


class _Directory(_Node):
    __slots__ = ("name", "children")

    def __init__(self, name: str):
        self.name = name
        self.children: Dict[str, _Node] = {}


def _split(path: str) -> List[str]:
    if not path.startswith("/"):
        raise FileSystemError("paths must be absolute: %r" % path)
    return [part for part in path.split("/") if part]


class InMemoryFileSystem:
    """A tree of directories and byte-content files."""

    def __init__(self):
        self._root = _Directory("")

    def _walk(self, parts: List[str]) -> _Node:
        node: _Node = self._root
        for part in parts:
            if not isinstance(node, _Directory) or part not in node.children:
                raise FileSystemError("no such path: /%s" % "/".join(parts))
            node = node.children[part]
        return node

    def mkdir(self, path: str, parents: bool = False) -> None:
        parts = _split(path)
        node = self._root
        for index, part in enumerate(parts):
            child = node.children.get(part)
            if child is None:
                if index < len(parts) - 1 and not parents:
                    raise FileSystemError("missing parent for %r" % path)
                child = _Directory(part)
                node.children[part] = child
            if not isinstance(child, _Directory):
                raise FileSystemError("%r is a file" % part)
            node = child

    def write(self, path: str, content, parents: bool = False) -> None:
        if isinstance(content, str):
            content = content.encode("utf-8")
        parts = _split(path)
        if not parts:
            raise FileSystemError("cannot write to /")
        if len(parts) > 1:
            directory = "/" + "/".join(parts[:-1])
            if parents:
                self.mkdir(directory, parents=True)
            parent = self._walk(parts[:-1])
        else:
            parent = self._root
        if not isinstance(parent, _Directory):
            raise FileSystemError("parent of %r is a file" % path)
        existing = parent.children.get(parts[-1])
        if isinstance(existing, _Directory):
            raise FileSystemError("%r is a directory" % path)
        parent.children[parts[-1]] = _File(parts[-1], content)

    def read(self, path: str) -> bytes:
        node = self._walk(_split(path))
        if not isinstance(node, _File):
            raise FileSystemError("%r is not a file" % path)
        return node.content

    def listdir(self, path: str) -> List[str]:
        node = self._walk(_split(path))
        if not isinstance(node, _Directory):
            raise FileSystemError("%r is not a directory" % path)
        return sorted(node.children)

    def exists(self, path: str) -> bool:
        try:
            self._walk(_split(path))
            return True
        except FileSystemError:
            return False

    def is_dir(self, path: str) -> bool:
        try:
            return isinstance(self._walk(_split(path)), _Directory)
        except FileSystemError:
            return False

    def remove(self, path: str) -> None:
        parts = _split(path)
        if not parts:
            raise FileSystemError("cannot remove /")
        parent = self._walk(parts[:-1])
        if not isinstance(parent, _Directory) or parts[-1] not in parent.children:
            raise FileSystemError("no such path: %r" % path)
        del parent.children[parts[-1]]

    def tree(self, path: str = "/") -> List[Tuple[str, bool]]:
        """Depth-first listing of (path, is_dir) pairs under ``path``."""
        result: List[Tuple[str, bool]] = []

        def visit(prefix: str, node: _Node) -> None:
            if isinstance(node, _Directory):
                result.append((prefix or "/", True))
                for name in sorted(node.children):
                    visit(prefix + "/" + name, node.children[name])
            else:
                result.append((prefix, False))

        start = self._walk(_split(path))
        visit(path.rstrip("/"), start)
        return result


def fs_request_sexp(operation: str, path: str):
    """The logical form of a file-system operation:
    ``(fs (op read) (path "/x"))`` — the guard's canonical request."""
    from repro.sexp import Atom, SList

    return SList(
        [
            Atom("fs"),
            SList([Atom("op"), Atom(operation)]),
            SList([Atom("path"), Atom(path)]),
        ]
    )


def fs_subtree_tag(operation: str, prefix: str):
    """Authority over one operation on a whole subtree:
    ``(tag (fs (op read) (path (* prefix "/shared"))))``."""
    from repro.tags import Tag, TagList, TagPrefix
    from repro.tags.tag import TagAtom

    return Tag(
        TagList(
            [
                TagAtom("fs"),
                TagList([TagAtom("op"), TagAtom(operation)]),
                TagList([TagAtom("path"), TagPrefix(prefix)]),
            ]
        )
    )


class GuardedFileSystem:
    """Per-operation authorization over an :class:`InMemoryFileSystem`.

    Every call names the principal performing it (vouched for by
    whatever brought the request into the process — a channel, a local
    pipe); the operation becomes a :class:`~repro.guard.GuardRequest`
    and rides the shared pipeline, so delegation, caching, challenge,
    and audit behave exactly as on the network transports.  ``guard``
    is any :class:`~repro.guard.AuthBackend` — this wrapper never
    constructs one itself.
    """

    def __init__(self, fs: "InMemoryFileSystem", issuer, guard,
                 transport: str = "fs"):
        self.fs = fs
        self.issuer = issuer
        self.guard = guard
        self.transport = transport

    def _check(self, operation: str, path: str, speaker) -> None:
        from repro.guard import ChannelCredential, GuardRequest

        self.guard.check(
            GuardRequest(
                fs_request_sexp(operation, path),
                issuer=self.issuer,
                credential=ChannelCredential(speaker),
                transport=self.transport,
                channel={"op": operation, "path": path},
            )
        )

    def read(self, path: str, speaker) -> bytes:
        self._check("read", path, speaker)
        return self.fs.read(path)

    def listdir(self, path: str, speaker) -> List[str]:
        self._check("read", path, speaker)
        return self.fs.listdir(path)

    def write(self, path: str, content, speaker, parents: bool = False) -> None:
        self._check("write", path, speaker)
        self.fs.write(path, content, parents=parents)

    def remove(self, path: str, speaker) -> None:
        self._check("write", path, speaker)
        self.fs.remove(path)
