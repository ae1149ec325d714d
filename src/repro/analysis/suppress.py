"""Per-line suppressions: ``# archlint: ignore[RULE-ID]``.

A suppression comment silences findings whose source span covers the
comment's line:

    from repro.prover import Prover  # archlint: ignore[ARCH002] client-side

``ignore[ARCH002,ARCH006]`` silences several rules; a bare ``ignore``
(no bracket) silences every rule on that line.  Anything after the
bracket is a free-form reason — **write one**: a suppression is the one
way to keep a finding, so it says why the finding is acceptable.

Comments are found with :mod:`tokenize`, not a regex over lines, so the
marker inside a string literal is never honored.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, FrozenSet, List, Optional

# line -> None (suppress everything) or the frozenset of rule ids.
SuppressionMap = Dict[int, Optional[FrozenSet[str]]]

_MARKER = re.compile(
    r"#\s*archlint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s-]*)\])?"
)


def scan(source: str) -> SuppressionMap:
    """Map each suppressing line to the rule ids it silences."""
    suppressions: SuppressionMap = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        # Unfinishable token stream: the parse error is reported by the
        # engine; there is nothing to suppress.
        return suppressions
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = _MARKER.search(token.string)
        if match is None:
            continue
        line = token.start[0]
        rules = match.group("rules")
        if rules is None:
            suppressions[line] = None  # bare ignore: everything
            continue
        ids = frozenset(
            part.strip().upper() for part in rules.split(",") if part.strip()
        )
        if not ids:
            suppressions[line] = None
            continue
        previous = suppressions.get(line)
        if previous is None and line in suppressions:
            continue  # an earlier bare ignore already covers the line
        suppressions[line] = ids | (previous or frozenset())
    return suppressions


def is_suppressed(finding, suppressions: SuppressionMap) -> bool:
    """True if a suppression on any line of the finding's span names its
    rule (or suppresses everything)."""
    for line in range(finding.line, finding.end_line + 1):
        if line not in suppressions:
            continue
        rules = suppressions[line]
        if rules is None or finding.rule in rules:
            return True
    return False


def split_suppressed(findings: List, suppressions: SuppressionMap):
    """Partition findings into (kept, suppressed)."""
    kept, suppressed = [], []
    for finding in findings:
        (suppressed if is_suppressed(finding, suppressions) else kept).append(
            finding
        )
    return kept, suppressed
