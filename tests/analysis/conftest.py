"""Fixture helpers: lint in-memory snippets as if they lived in the tree.

Rules scope on the package-relative path (``repro/http/...``), so the
helper materializes each snippet inside a ``repro/``-shaped directory
under ``tmp_path`` — the engine then sees exactly what it would see in
``src/repro``.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import run


@pytest.fixture()
def lint(tmp_path):
    """``lint(rel, source, ...)`` -> list of findings for one snippet."""

    def _lint(rel, source, rules=None):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        return run([str(path)], rules=rules)

    return _lint


def rule_ids(result):
    return [finding.rule for finding in result.findings]
