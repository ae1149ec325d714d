"""The lint engine: discover files, parse once, run rules, filter.

Per file: read -> parse one AST shared by every rule -> run the rules
scoped to the file -> drop suppressed findings.  Across files: sort and
report.  Every finding fails the run; ``# archlint: ignore[...]`` is the
one escape hatch.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterable, Iterator, List, Optional

from repro.analysis.findings import Finding
from repro.analysis.suppress import scan, split_suppressed

PARSE_ERROR_RULE = "E001"

_SKIP_DIRS = {"__pycache__", ".git", ".hg", "node_modules"}


class SourceFile:
    """One parsed file handed to every applicable rule.

    ``rel`` is the path from the enclosing ``repro`` package root
    (``repro/http/proxy.py``) when the file lives under one, else the
    bare filename — rules scope on it, and findings name it, so results
    are independent of where the checkout lives.
    """

    def __init__(self, path: str, source: str):
        self.path = path
        self.rel = package_relpath(path)
        self.module = self.rel[:-3].replace("/", ".") \
            if self.rel.endswith(".py") else self.rel
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.AST] = None
        self._import_map: Optional[Dict[str, str]] = None

    def parse(self) -> ast.AST:
        if self.tree is None:
            self.tree = ast.parse(self.source, filename=self.path)
        return self.tree

    @property
    def imports(self) -> Dict[str, str]:
        """Lazily built import map shared by every rule on this file."""
        if self._import_map is None:
            from repro.analysis.symbols import import_map

            self._import_map = import_map(self.parse())
        return self._import_map

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""


def package_relpath(path: str) -> str:
    """Posix path from the last ``repro`` directory component, so
    ``/any/checkout/src/repro/http/proxy.py`` -> ``repro/http/proxy.py``.
    Files outside a ``repro`` tree keep their basename — fixtures in
    tests exercise rules by building a ``repro/...``-shaped tree."""
    parts = os.path.abspath(path).replace(os.sep, "/").split("/")
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return parts[-1]


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``.py`` paths."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                name for name in dirnames
                if name not in _SKIP_DIRS and not name.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


class LintResult:
    """Everything one run learned, pre-rendered-report."""

    def __init__(self):
        self.findings: List[Finding] = []     # every one fails the run
        self.suppressed = 0                   # silenced by # archlint: ignore
        self.files = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def summary(self) -> dict:
        return {
            "files": self.files,
            "findings": len(self.findings),
            "suppressed": self.suppressed,
        }


def lint_source(source: SourceFile, rules) -> (List[Finding]):
    """Run every applicable rule over one in-memory file; returns the
    raw findings (suppressions not yet applied)."""
    applicable = [rule for rule in rules if rule.applies_to(source.rel)]
    if not applicable:
        return []
    try:
        source.parse()
    except SyntaxError as exc:
        return [Finding(
            PARSE_ERROR_RULE, source.rel, exc.lineno or 1,
            (exc.offset or 0) + 1, "cannot parse: %s" % exc.msg,
            snippet=source.line(exc.lineno or 1),
        )]
    findings: List[Finding] = []
    for rule in applicable:
        findings.extend(rule.check(source))
    return findings


def run(paths: Iterable[str], rules=None) -> LintResult:
    """Lint ``paths`` (files or directories) and return a
    :class:`LintResult`."""
    from repro.analysis.registry import all_rules

    if rules is None:
        rules = all_rules()
    result = LintResult()
    for path in iter_python_files(paths):
        result.files += 1
        with open(path, "rb") as handle:
            source = SourceFile(path, handle.read().decode("utf-8"))
        raw = lint_source(source, rules)
        findings, dropped = split_suppressed(raw, scan(source.source))
        result.findings.extend(findings)
        result.suppressed += len(dropped)
    result.findings.sort(key=Finding.sort_key)
    return result
