"""The command-line surface: exit codes, formats, rule selection."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.analysis.cli import main
from repro.tools.cli import main as tools_main

_VIOLATION = textwrap.dedent(
    """
    import random

    def mint(rng=None):
        return (rng or random.SystemRandom()).getrandbits(64)
    """
)
_CLEAN = "def mint(rng):\n    return rng.getrandbits(64)\n"


@pytest.fixture()
def scratch(tmp_path, monkeypatch):
    """A repro-shaped scratch tree, with cwd moved there."""
    package = tmp_path / "repro" / "net"
    package.mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    return package


def test_clean_run_exits_zero(scratch, capsys):
    (scratch / "mod.py").write_text(_CLEAN)
    assert main([str(scratch)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_findings_exit_one_with_rule_id(scratch, capsys):
    (scratch / "mod.py").write_text(_VIOLATION)
    assert main([str(scratch)]) == 1
    out = capsys.readouterr().out
    assert "ARCH003" in out and "mod.py" in out


def test_json_format(scratch, capsys):
    (scratch / "mod.py").write_text(_VIOLATION)
    assert main([str(scratch), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["findings"][0]["rule"] == "ARCH003"
    assert payload["summary"]["files"] == 1


def test_rule_selection(scratch):
    (scratch / "mod.py").write_text(_VIOLATION)
    assert main([str(scratch), "--rules", "arch006"]) == 0
    assert main([str(scratch), "--rules", "ARCH003"]) == 1
    assert main([str(scratch), "--rules", "NOPE"]) == 2


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH005",
                    "ARCH006"):
        assert rule_id in out


def test_missing_path_exits_two(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["definitely/not/here"]) == 2


def test_repro_tools_lint_subcommand(scratch, capsys):
    (scratch / "mod.py").write_text(_VIOLATION)
    assert tools_main(["lint", str(scratch)]) == 1
    assert "ARCH003" in capsys.readouterr().out
