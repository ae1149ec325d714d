"""Tests for the repro.tools command-line interface."""

import pytest

from repro.tools.cli import main, load_private_key


@pytest.fixture()
def keys(tmp_path):
    alice = str(tmp_path / "alice")
    bob = str(tmp_path / "bob")
    assert main(["keygen", "--bits", "512", "--seed", "1", "--out", alice]) == 0
    assert main(["keygen", "--bits", "512", "--seed", "2", "--out", bob]) == 0
    return {"alice": alice, "bob": bob, "tmp": tmp_path}


class TestKeygen:
    def test_writes_both_halves(self, keys, tmp_path):
        assert (tmp_path / "alice.private").exists()
        assert (tmp_path / "alice.public").exists()

    def test_private_key_roundtrip(self, keys):
        keypair = load_private_key(keys["alice"] + ".private")
        signature = keypair.sign(b"message")
        assert keypair.public.verify(b"message", signature)

    def test_deterministic_seed(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        main(["keygen", "--bits", "512", "--seed", "7", "--out", a])
        main(["keygen", "--bits", "512", "--seed", "7", "--out", b])
        assert open(a + ".public", "rb").read() == open(b + ".public", "rb").read()

    def test_fingerprint(self, keys, capsys):
        assert main(["fingerprint", keys["alice"] + ".public"]) == 0
        public_fp = capsys.readouterr().out.strip()
        assert main(["fingerprint", keys["alice"] + ".private"]) == 0
        private_fp = capsys.readouterr().out.strip()
        assert public_fp == private_fp
        assert public_fp.startswith("(hash md5 ")


class TestIssueShowVerify:
    def _issue(self, keys, out, extra=()):
        return main(
            [
                "issue",
                "--issuer", keys["alice"] + ".private",
                "--subject", keys["bob"] + ".public",
                "--tag", "(tag (web (method GET)))",
                "--out", out,
                *extra,
            ]
        )

    def test_issue_and_verify(self, keys, tmp_path, capsys):
        cert_path = str(tmp_path / "grant.cert")
        assert self._issue(keys, cert_path) == 0
        assert main(["verify", cert_path]) == 0
        assert "VALID" in capsys.readouterr().out

    def test_show_explains_meaning(self, keys, tmp_path, capsys):
        cert_path = str(tmp_path / "grant.cert")
        self._issue(keys, cert_path)
        assert main(["show", cert_path]) == 0
        out = capsys.readouterr().out
        assert "meaning:" in out and "=>" in out

    def test_expired_certificate_flagged(self, keys, tmp_path, capsys):
        cert_path = str(tmp_path / "short.cert")
        assert self._issue(keys, cert_path, ["--not-after", "100"]) == 0
        assert main(["verify", cert_path, "--now", "50"]) == 0
        assert main(["verify", cert_path, "--now", "500"]) == 2

    def test_tampered_certificate_invalid(self, keys, tmp_path, capsys):
        cert_path = str(tmp_path / "grant.cert")
        self._issue(keys, cert_path)
        text = open(cert_path).read().replace("GET", "PUT")
        open(cert_path, "w").write(text)
        assert main(["verify", cert_path]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_canonical_output_parses(self, keys, tmp_path):
        cert_path = str(tmp_path / "grant.bin")
        assert self._issue(keys, cert_path, ["--canonical"]) == 0
        assert main(["verify", cert_path]) == 0

    def test_name_certificate(self, keys, tmp_path, capsys):
        cert_path = str(tmp_path / "name.cert")
        assert self._issue(keys, cert_path, ["--name", "assistant"]) == 0
        main(["show", cert_path])
        assert "assistant" in capsys.readouterr().out


class TestStatsCommand:
    def _snapshot(self, capsys):
        assert main(
            [
                "stats",
                "--sessions", "6",
                "--requests", "24",
                "--seed", "11",
            ]
        ) == 0
        import json

        return json.loads(capsys.readouterr().out)

    def test_dumps_every_counter_family_as_json(self, capsys):
        """One section per counter prefix the workload touched, beside
        the graph and the audit ring.  The 24 checks are one batch:
        each session's first is a prover grant, the rest fast-path
        grants, and no MAC check fails."""
        snapshot = self._snapshot(capsys)
        assert set(snapshot) == {
            "guard.stage", "guard.cache", "prover", "audit", "graph",
        }
        assert snapshot["guard.stage"] == {"prover": 6, "fastpath": 18}
        assert snapshot["guard.cache"] == {"insertions": 6}
        assert snapshot["prover"] == {"searches": 6, "nodes_expanded": 6}
        assert snapshot["audit"] == {"recorded": 24, "evicted": 0}
        assert snapshot["graph"] == {
            "edges": 6, "invalidations": 0, "generation": 0,
        }


class TestAuditCommand:
    ARGS = ["--sessions", "4", "--requests", "12", "--seed", "11"]

    def test_trail_is_time_ordered(self, capsys):
        """Every grant, in the one trail, in clock order."""
        assert main(["audit", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# audit: 12 records\n")
        stamps = [
            float(line.split()[0])
            for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert len(stamps) == 12
        assert stamps == sorted(stamps)

    def test_retention_cap(self, capsys):
        assert main(["audit", "--retain", "5", *self.ARGS]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "5 records" in lines[0]
        # What the ring no longer holds is said, not silently dropped.
        assert lines[1] == "# 7 earlier records evicted"

    def test_nothing_evicted_says_nothing(self, capsys):
        assert main(["audit", *self.ARGS]) == 0
        assert "evicted" not in capsys.readouterr().out

    def test_retain_one_keeps_one_record(self, capsys):
        """``--retain 1`` keeps one record and says the other 11 were
        evicted."""
        assert main(["audit", "--retain", "1", *self.ARGS]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["# audit: 1 record", "# 11 earlier records evicted"]
        assert sum(line.count("[http]") for line in lines) == 1


class TestTagCommand:
    def test_match(self, capsys):
        assert main(["tag", "(tag (web))", "--match", "(web (method GET))"]) == 0
        assert capsys.readouterr().out.strip() == "match"

    def test_no_match_exit_code(self, capsys):
        assert main(["tag", "(tag (ftp))", "--match", "(web)"]) == 1

    def test_intersect(self, capsys):
        assert main(
            ["tag", "(tag (web))", "--intersect", "(tag (web (method GET)))"]
        ) == 0
        assert "(method GET)" in capsys.readouterr().out

    def test_empty_intersection_exit_code(self):
        assert main(["tag", "(tag (web))", "--intersect", "(tag (ftp))"]) == 1


class TestMetricsCommand:
    ARGS = ["--sessions", "4", "--requests", "16", "--listeners", "1",
            "--seed", "5"]

    def test_text_report_lists_stages_and_spans(self, capsys):
        assert main(["metrics", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "counter guard.stage.prover" in out
        assert "counter guard.stage.fastpath" in out
        assert "histogram span.serve.request_ms" in out
        assert "source serve.listener-0" in out

    def test_json_snapshot_parses_and_balances(self, capsys):
        import json

        assert main(["metrics", "--json", *self.ARGS]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        counters = snapshot["counters"]
        assert snapshot["sources"]["serve.listener-0"]["grants"] == 16
        # Every grant was priced by exactly one stage.
        staged = sum(
            value for name, value in counters.items()
            if name.startswith("guard.stage.")
        )
        assert staged == 16

    def test_prometheus_exposition(self, capsys):
        assert main(["metrics", "--prom", *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out
        assert 'le="+Inf"' in out
