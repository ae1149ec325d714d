"""The self-hosting gate: ``src/repro`` stays archlint-clean.

This is the tier-1 enforcement of the invariants — the same check CI
runs.  The injection tests then prove the gate has teeth: dropping any
one of the six violations into a scratch module turns the run red with
the right rule id.
"""

from __future__ import annotations

import ast
import pathlib
import re
import shutil

import pytest

from repro.analysis import all_rules, run

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"
RULES = SRC_REPRO / "analysis" / "rules"


def test_src_repro_is_archlint_clean():
    result = run([str(SRC_REPRO)])
    assert result.ok, "findings:\n%s" % "\n".join(
        finding.render() for finding in result.findings
    )


def test_rule_scopes_name_only_live_files():
    """A rule scoped to a deleted module checks nothing: every
    ``repro/....py`` path a rule names is a file in the tree."""
    named = {
        literal
        for path in RULES.glob("*.py")
        for literal in re.findall(r"[\"'](repro/[\w/]+\.py)[\"']",
                                  path.read_text())
    }
    assert named, "no scoped rule found"
    missing = sorted(
        literal for literal in named
        if not (SRC_REPRO.parent / literal).is_file()
    )
    assert missing == []


#: The two surfaces the benchmark rig reads as registry sources: the
#: listener's ``serve.<name>`` dict and the cluster front's drain tally.
_DICT_TALLIES = {"serve/server.py", "cluster/__init__.py"}


def _tally_name(node):
    """``stats`` / ``tally`` when ``node`` names one, bare or as an
    attribute, else ``None``."""
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in ("stats", "tally") else None


def test_every_count_lands_in_the_registry():
    """One accounting system: outside the two surfaces the rig reads, no
    module keeps a ``stats`` dict or bumps ``stats[...]`` /
    ``tally[...]``; a component counts on its ``MetricsRegistry``."""
    found = []
    for path in sorted(SRC_REPRO.rglob("*.py")):
        rel = path.relative_to(SRC_REPRO).as_posix()
        if rel in _DICT_TALLIES:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Subscript
            ):
                bumped = _tally_name(node.target.value)
                if bumped:
                    found.append("%s:%d %s[...] +=" % (
                        rel, node.lineno, bumped
                    ))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                if isinstance(node.value, ast.Dict) and any(
                    _tally_name(target) == "stats" for target in targets
                ):
                    found.append("%s:%d stats = {...}" % (rel, node.lineno))
    assert found == []


def test_all_seven_rules_are_registered():
    ids = [rule.rule_id for rule in all_rules()]
    assert ids == [
        "ARCH001", "ARCH002", "ARCH003", "ARCH004", "ARCH005", "ARCH006",
        "ARCH007",
    ]


_INJECTIONS = {
    "ARCH001": (
        "repro/apps/scratch_injected.py",
        "from repro.guard import Guard\n\n"
        "def build(trust):\n    return Guard(trust)\n",
    ),
    "ARCH002": (
        "repro/http/scratch_injected.py",
        "from repro.prover import Prover\n",
    ),
    "ARCH003": (
        "repro/net/scratch_injected.py",
        "import random\n\n"
        "def mint(rng=None):\n"
        "    return (rng or random.SystemRandom()).getrandbits(64)\n",
    ),
    "ARCH004": (
        "repro/guard/pipeline.py",  # appended to the real module
        "\n\ndef sneaky_fast_path(request):\n"
        "    return GuardDecision(True, stage='bypass')\n",
    ),
    "ARCH005": (
        "repro/cluster/scratch_injected.py",
        "import time\n\ndef backoff():\n    time.sleep(0.5)\n",
    ),
    "ARCH006": (
        "repro/smtp/scratch_injected.py",
        "def parse(wire):\n"
        "    try:\n        return wire.decode()\n"
        "    except Exception:\n        return None\n",
    ),
}


@pytest.mark.parametrize("rule_id", sorted(_INJECTIONS))
def test_injected_violation_turns_the_run_red(rule_id, tmp_path):
    # Copy the real tree so ARCH004's append lands on the real pipeline.
    tree = tmp_path / "repro"
    shutil.copytree(SRC_REPRO, tree)
    rel, source = _INJECTIONS[rule_id]
    target = tmp_path / rel
    if target.exists():
        target.write_text(target.read_text() + source)
    else:
        target.write_text(source)
    result = run([str(tree)])
    assert not result.ok
    assert rule_id in {finding.rule for finding in result.findings}
