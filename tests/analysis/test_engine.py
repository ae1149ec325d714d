"""Engine mechanics: suppressions, paths, the directory walk."""

from __future__ import annotations

from repro.analysis import run
from repro.analysis.engine import PARSE_ERROR_RULE, package_relpath
from tests.analysis.conftest import rule_ids

_VIOLATION = """
import random

def mint(rng=None):
    rng = rng or random.SystemRandom(){comment}
    return rng.getrandbits(64)
"""


class TestSuppressions:
    def test_named_suppression_silences_the_rule(self, lint):
        result = lint(
            "repro/net/scratch.py",
            _VIOLATION.format(comment="  # archlint: ignore[ARCH003] why"),
        )
        assert rule_ids(result) == []
        assert result.suppressed == 1

    def test_bare_ignore_silences_everything(self, lint):
        result = lint(
            "repro/net/scratch.py",
            _VIOLATION.format(comment="  # archlint: ignore"),
        )
        assert rule_ids(result) == []

    def test_other_rule_id_does_not_silence(self, lint):
        result = lint(
            "repro/net/scratch.py",
            _VIOLATION.format(comment="  # archlint: ignore[ARCH001]"),
        )
        assert rule_ids(result) == ["ARCH003"]
        assert result.suppressed == 0

    def test_multi_rule_suppression(self, lint):
        result = lint(
            "repro/net/scratch.py",
            _VIOLATION.format(
                comment="  # archlint: ignore[ARCH001, ARCH003]"
            ),
        )
        assert rule_ids(result) == []

    def test_marker_inside_string_is_not_honored(self, lint):
        result = lint(
            "repro/net/scratch.py",
            """
            import random

            MARKER = "# archlint: ignore[ARCH003]"

            def mint():
                return random.SystemRandom()
            """,
        )
        assert rule_ids(result) == ["ARCH003"]

    def test_suppression_on_spanning_statement(self, lint):
        # The comment may sit on any physical line of the offending node.
        result = lint(
            "repro/http/scratch.py",
            """
            from repro.prover import (  # archlint: ignore[ARCH002] client side
                Prover,
            )
            """,
        )
        assert rule_ids(result) == []


class TestCacheAndPaths:
    """Package-relative paths, parse errors, and a directory walk that
    skips ``__pycache__``."""

    def test_package_relpath(self):
        assert package_relpath("/a/b/src/repro/http/proxy.py") \
            == "repro/http/proxy.py"
        assert package_relpath("/tmp/x/repro/guard/pipeline.py") \
            == "repro/guard/pipeline.py"
        assert package_relpath("/somewhere/else/scratch.py") == "scratch.py"

    def test_syntax_error_becomes_parse_finding(self, lint):
        result = lint("repro/net/scratch.py", "def broken(:\n")
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]

    def test_directory_walk_skips_pycache(self, tmp_path):
        package = tmp_path / "repro" / "net"
        package.mkdir(parents=True)
        (package / "ok.py").write_text("x = 1\n")
        cachedir = package / "__pycache__"
        cachedir.mkdir()
        (cachedir / "junk.py").write_text("import random\nrandom.random()\n")
        result = run([str(tmp_path)])
        assert result.files == 1
        assert result.ok
