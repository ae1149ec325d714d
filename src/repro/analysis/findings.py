"""The unit of lint output: one rule violation at one source location."""

from __future__ import annotations

from typing import Optional


class Finding:
    """One violation: rule, location, message, and the offending line.

    ``path`` is the package-relative posix path (``repro/http/proxy.py``)
    so findings are stable across checkouts; ``snippet`` is the stripped
    source line the report prints under the finding.
    """

    __slots__ = ("rule", "path", "line", "col", "message", "snippet",
                 "end_line")

    def __init__(self, rule: str, path: str, line: int, col: int,
                 message: str, snippet: str = "",
                 end_line: Optional[int] = None):
        self.rule = rule
        self.path = path
        self.line = line
        self.col = col
        self.message = message
        self.snippet = snippet
        # Last physical line of the offending node — a suppression
        # comment anywhere in the span silences the finding.  Not part of
        # the serialized form.
        self.end_line = end_line if end_line is not None else line

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.rule, self.message
        )

    def __repr__(self) -> str:
        return "Finding(%r, %r, %d)" % (self.rule, self.path, self.line)
