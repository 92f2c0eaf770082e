import json

import pytest

import extract_fixture as efx
import ruleset_fixture as rfx
from rexincl import cli
from rexincl.reducer import save_rules


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_included_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", "ab", "[a-b](a|b)*")
        assert code == 0
        assert "included: True" in out
        assert "Σ-gate: pass" in out

    def test_negative_exits_one_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "ab|c", "ab")
        assert code == 1
        assert "witness: 'c'" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "check", "--json", "ab", "[a-b](a|b)*")
        doc = json.loads(out)
        assert code == 0
        assert doc["included"] is True
        assert doc["witness"] is None
        assert doc["superset_postfix"]

    def test_unoptimized_flag(self, capsys):
        code, out, _ = run(capsys, "check", "--json", "--unoptimized", "a", "a?")
        assert code == 0
        assert json.loads(out)["included"] is True

    def test_syntax_error_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "a{3,1}", "ab")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("pattern", ["(" * 3000 + "a" + ")" * 3000, "a" * 5000],
                             ids=["nested", "long"])
    def test_pattern_too_deep_exits_two(self, capsys, pattern):
        code, _, err = run(capsys, "check", pattern, "a")
        assert code == 2
        assert "error:" in err

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "check", "--nope", "a", "b")
        assert code == 2

    def test_approximate_note(self, capsys):
        code, out, _ = run(capsys, "check", "^ab$", "[a-b](a|b)*")
        assert code == 0
        assert "review manually" in out


class TestExplain:
    def test_trace_table_rows(self, capsys):
        code, out, _ = run(capsys, "explain", "(b|a)&(a|b)*")
        assert code == 0
        # A rule is read as `re` reads it: '&' is a literal character.
        assert "postfix: [ab][&]&[ab]*&" in out
        assert "digraph" in out  # automata rendered as dot

    def test_json_shape(self, capsys):
        code, out, _ = run(capsys, "explain", "--json", "(b|a)&(a|b)*")
        doc = json.loads(out)
        assert code == 0
        assert doc["postfix"] == "[ab][&]&[ab]*&"
        assert doc["nfa_states"] == 6
        assert len(doc["trace"]) == 10


class TestReduce:
    def test_fixture_roundtrip(self, capsys, tmp_path):
        rules_path = tmp_path / "rules.jsonl"
        save_rules(rfx.build_rules(), rules_path)
        out_path = tmp_path / "report.json"
        surv_path = tmp_path / "survivors.jsonl"
        code, out, _ = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(out_path), "--survivors", str(surv_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["rules"] == 50
        assert summary["removed"] == len(rfx.EXPECTED_REMOVED)
        report = json.loads(out_path.read_text())
        assert set(report["removed"]) == rfx.EXPECTED_REMOVED
        survivors = [json.loads(l) for l in surv_path.read_text().splitlines()]
        assert {r["id"] for r in survivors} == set(range(50)) - rfx.EXPECTED_REMOVED

    def test_strict_flag_keeps_flagged_rules(self, capsys, tmp_path):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_text(
            '{"id": 0, "pattern": "cat[12]", "polarity": "negative"}\n'
            '{"id": 1, "pattern": "^cat1$", "polarity": "negative"}\n'
        )
        out_path = tmp_path / "report.json"
        code, out, _ = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(out_path))
        assert code == 0
        assert json.loads(out)["needs_review"] == 1
        code, out, _ = run(capsys, "reduce", "--strict", "--rules", str(rules_path),
                           "--out", str(out_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["needs_review"] == 0
        assert summary["removed"] == 0

    def test_bad_rules_file_exits_two(self, capsys, tmp_path):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_text("{broken\n")
        code, _, err = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("content", [
        b'{"id": 1, "pattern": 5, "polarity": "negative"}\n',
        b'\xff\xfe{"id": 1, "pattern": "a", "polarity": "negative"}\n',
    ], ids=["non_string_pattern", "not_utf8"])
    def test_bad_rule_line_exits_two(self, capsys, tmp_path, content):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_bytes(content)
        code, _, err = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error: line 1:" in err


class TestExtract:
    @pytest.fixture
    def paths(self, tmp_path):
        rules_path = tmp_path / "rules.jsonl"
        save_rules(efx.RULES, rules_path)
        corpus_path = tmp_path / "corpus.jsonl"
        with open(corpus_path, "w") as fh:
            for doc in efx.build_corpus():
                fh.write(json.dumps({"doc_id": doc.doc_id, "text": doc.text}) + "\n")
        return rules_path, corpus_path, tmp_path

    def test_report_and_results(self, capsys, paths):
        rules_path, corpus_path, tmp_path = paths
        out_path = tmp_path / "report.json"
        results_path = tmp_path / "results.jsonl"
        code, out, _ = run(capsys, "extract", "--rules", str(rules_path),
                           "--corpus", str(corpus_path), "--out", str(out_path),
                           "--results", str(results_path))
        assert code == 0
        report = json.loads(out)
        assert report == json.loads(out_path.read_text())
        assert report["total_statistics"] == 15
        assert report["apa_share_with_anova_no_r"] == pytest.approx(efx.APA_SHARE_WITH)
        assert len(results_path.read_text().splitlines()) == 30

    def test_sampling_deterministic(self, capsys, paths, monkeypatch):
        rules_path, corpus_path, tmp_path = paths
        out_path = tmp_path / "report.json"
        monkeypatch.setenv("REXINCL_SEED", "42")
        code, out1, _ = run(capsys, "extract", "--rules", str(rules_path),
                            "--corpus", str(corpus_path), "--out", str(out_path),
                            "--sample", "2")
        code2, out2, _ = run(capsys, "extract", "--rules", str(rules_path),
                             "--corpus", str(corpus_path), "--out", str(out_path),
                             "--sample", "2")
        assert code == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 6  # 2 per statistic type


    @pytest.mark.parametrize("corpus", [
        '{"doc_id": "d0", "text": "t = 2.1."}\n{oops\n',
        '{"doc_id": "d0", "text": "t = 2.1."}\n{"text": "t = 2.1."}\n',
    ], ids=["bad_json", "missing_doc_id"])
    def test_bad_corpus_line_exits_two(self, capsys, paths, corpus):
        rules_path, corpus_path, tmp_path = paths
        corpus_path.write_text(corpus)
        code, _, err = run(capsys, "extract", "--rules", str(rules_path),
                           "--corpus", str(corpus_path), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error: line 2:" in err

    def test_corpus_not_utf8_exits_two(self, capsys, paths):
        rules_path, corpus_path, tmp_path = paths
        corpus_path.write_bytes(b'\xff\xfe{"doc_id": "d0", "text": "t = 2.1."}\n')
        code, _, err = run(capsys, "extract", "--rules", str(rules_path),
                           "--corpus", str(corpus_path), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error: line 1:" in err

    def test_corpus_dir_file_not_utf8_exits_two(self, capsys, paths):
        rules_path, _, tmp_path = paths
        corpus_dir = tmp_path / "papers"
        corpus_dir.mkdir()
        (corpus_dir / "good.txt").write_text("We found t(12) = 2.10, p < .05 here.")
        (corpus_dir / "bad.txt").write_bytes(b"\xff\xfe t = 2.1.")
        code, _, err = run(capsys, "extract", "--rules", str(rules_path),
                           "--corpus", str(corpus_dir), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error:" in err and "bad.txt" in err

    @pytest.mark.parametrize("missing", ["--rules", "--corpus"])
    def test_missing_input_file_exits_two(self, capsys, paths, missing):
        rules_path, corpus_path, tmp_path = paths
        files = {"--rules": rules_path, "--corpus": corpus_path}
        files[missing] = tmp_path / "absent.jsonl"
        code, _, err = run(capsys, "extract", "--rules", str(files["--rules"]),
                           "--corpus", str(files["--corpus"]), "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error:" in err and "absent.jsonl" in err


class TestBenchCmd:
    def test_reports_means(self, capsys, tmp_path):
        full_path = tmp_path / "full.jsonl"
        save_rules(efx.RULES, full_path)
        corpus_path = tmp_path / "corpus.jsonl"
        with open(corpus_path, "w") as fh:
            for doc in efx.build_corpus():
                fh.write(json.dumps({"doc_id": doc.doc_id, "text": doc.text}) + "\n")
        code, out, _ = run(capsys, "bench", "--rules", str(full_path),
                           "--reduced", str(full_path), "--corpus", str(corpus_path),
                           "--repeats", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["repeats"] == 2
        assert doc["full_mean_s"] > 0


class TestOracleVerify:
    def test_positive(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--left", "ab",
                           "--right", "[a-b](a|b)*")
        assert code == 0
        assert json.loads(out)["included_up_to_bound"] is True

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "oracle-verify", "--left", "ab|c",
                           "--right", "ab", "--max-len", "3")
        assert code == 1
        assert json.loads(out)["included_up_to_bound"] is False


def test_console_script_installed():
    import shutil

    assert shutil.which("rexincl") is not None
