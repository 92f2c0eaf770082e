import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import extract_fixture as efx
import ruleset_fixture as rfx
from bench_rules import bench_rule_set
from rexincl import cli, extractor, frontend, oracle
from rexincl.reducer import save_rules


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def watchdog():
    """Fails the test after 30 s of the process's CPU time.  A budget test
    whose timer is never armed backtracks for hours; `re` holds the GIL
    while it searches, so a thread's timer would never get to run, but a
    SIGPROF handler does."""
    def expired(signum, frame):
        pytest.fail("ran 30 s of CPU time: the budget's timer was never armed")

    previous = signal.signal(signal.SIGPROF, expired)
    signal.setitimer(signal.ITIMER_PROF, 30)
    yield
    signal.setitimer(signal.ITIMER_PROF, 0)
    signal.signal(signal.SIGPROF, previous)


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

    def test_nested_bounded_repeat_checks(self, capsys):
        # Bounded repetition is linear in size, so this ends in a verdict.
        code, out, err = run(capsys, "check", "(a{1,40}){1,40}", "a+")
        assert code == 0
        assert "included: True" in out and err == ""

    def test_bound_above_two_hundred_checks(self, capsys):
        code, out, err = run(capsys, "check", r"\d{1,500}", r"\d+")
        assert code == 0
        assert "included: True" in out and err == ""

    def test_doubly_nested_bounded_repeat_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "((a|b){0,200}){0,200}", "a")
        assert code == 2
        assert "too deeply nested" in err and "Traceback" not in err

    def test_nested_repeat_over_the_size_bound_exits_two_at_once(self, capsys):
        # 20,100 operands once expanded: refused before the automata are built.
        start = time.perf_counter()
        code, _, err = run(capsys, "check", "((a|b){0,100}){0,100}", "a")
        assert code == 2 and "20100 symbols after expansion exceed" in err
        assert time.perf_counter() - start < 2

    def test_long_literal_checks(self, capsys):
        code, out, err = run(capsys, "check", "a" * 1000, "a+")
        assert code == 0
        assert "included: True" in out and err == ""

    def test_sigma_gate_reads_the_languages(self, capsys):
        # The superset's label b is behind an empty class, so it adds no
        # character: both sides match only 'a'.
        code, out, _ = run(capsys, "check", r"a|[^\x00-\U0010ffff]b", "a")
        assert code == 0
        assert "Σ-gate: pass" in out and "included: True" in out
        code, out, _ = run(capsys, "check", "--json", r"a|[^\x00-\U0010ffff]b", "a")
        assert json.loads(out)["sigma_subset"] is True

    @pytest.mark.parametrize("pattern", [r"(x(\d{0,200})y){0,3}", "(a|(b|(c|(d|e)))){0,200}",
                                         r"(\d{1,100}){1,3}"])
    def test_deep_bounded_repeats_still_check(self, capsys, pattern):
        # Hundreds of nested optionals, each a level of parentheses in the
        # infix tokens, and within MAX_SYMBOLS.
        code, _, err = run(capsys, "check", pattern, pattern)
        assert code == 0 and err == ""

    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run(capsys, "check", "--nope", "a", "b")
        assert code == 2

    def test_unprintable_characters_print_as_escapes(self, capsys):
        code, out, _ = run(capsys, "check", r"[\ud800]", "a")
        assert code == 1
        assert r"candidate normalized: \ud800" in out
        code, out, _ = run(capsys, "check", r"a\x00", "a")
        assert code == 1
        assert r"candidate normalized: a&\x00" in out and "\x00" not in out

    def test_unicode_classes_as_re_defines_them(self, capsys):
        assert run(capsys, "check", "é", r"\D")[0] == 0
        assert run(capsys, "check", "é", ".")[0] == 0
        code, out, _ = run(capsys, "check", "--json", r"\w+ 1", "[a-zA-Z0-9_]+ 1")
        assert code == 1
        witness = json.loads(out)["witness"]
        assert re.fullmatch(r"\w+ 1", witness) and not re.fullmatch("[a-zA-Z0-9_]+ 1", witness)

    def test_full_range_class_checks(self, capsys):
        code, out, _ = run(capsys, "check", r"[\u0000-\U0010ffff]", "a")
        assert code == 1
        assert r"candidate normalized: [\x00-\U0010ffff]" in out

    def test_empty_class_is_included_in_everything(self, capsys):
        empty = r"[^\x00-\U0010ffff]"
        code, out, _ = run(capsys, "check", empty, "a")
        assert code == 0
        assert f"candidate normalized: {empty}" in out
        code, out, _ = run(capsys, "check", "--json", "a", empty)
        assert code == 1
        assert json.loads(out)["witness"] == "a"

    def test_named_class_prints_by_name(self, capsys):
        code, out, _ = run(capsys, "check", r"\w", "a")
        assert code == 1
        assert "candidate normalized: \\w\n" in out
        assert len(out) < 200

    def test_approximate_note(self, capsys):
        code, out, _ = run(capsys, "check", "^ab$", "[a-b](a|b)*")
        assert code == 0
        assert "review manually" in out

    # The normalized and postfix lines come from the token route, which the
    # decision no longer takes; these are the bytes it printed when it did.
    @pytest.mark.parametrize("argv, code, stdout", [
        (['check', '\\d{1,3}', '\\d+'], 0,
         'candidate normalized: \\d&(\\d&(\\d|ε)|ε)\nsuperset  normalized: \\d&\\d*\ncandidate postfix: \\d\\d\\dε|&ε|&\nsuperset  postfix: \\d\\d*&\nΣ-gate: pass\nincluded: True\n'),
        (['check', '--json', '\\d{1,3}', '\\d+'], 0,
         '{"candidate": "\\\\d{1,3}", "candidate_normalized": "\\\\d&(\\\\d&(\\\\d|\\u03b5)|\\u03b5)", "candidate_postfix": "\\\\d\\\\d\\\\d\\u03b5|&\\u03b5|&", "flagged_approximate": false, "included": true, "sigma_subset": true, "superset": "\\\\d+", "superset_normalized": "\\\\d&\\\\d*", "superset_postfix": "\\\\d\\\\d*&", "witness": null}\n'),
        (['check', '(a|b)*c', '(a|b|c)*'], 0,
         'candidate normalized: [ab]*&c\nsuperset  normalized: [a-c]*\ncandidate postfix: [ab]*c&\nsuperset  postfix: [a-c]*\nΣ-gate: pass\nincluded: True\n'),
        (['check', '--json', '(a|b)*c', '(a|b|c)*'], 0,
         '{"candidate": "(a|b)*c", "candidate_normalized": "[ab]*&c", "candidate_postfix": "[ab]*c&", "flagged_approximate": false, "included": true, "sigma_subset": true, "superset": "(a|b|c)*", "superset_normalized": "[a-c]*", "superset_postfix": "[a-c]*", "witness": null}\n'),
        (['check', 'a|[^\\x00-\\U0010ffff]b', 'a'], 0,
         'candidate normalized: a|[^\\x00-\\U0010ffff]&b\nsuperset  normalized: a\ncandidate postfix: a[^\\x00-\\U0010ffff]b&|\nsuperset  postfix: a\nΣ-gate: pass\nincluded: True\n'),
        (['check', '--json', 'a|[^\\x00-\\U0010ffff]b', 'a'], 0,
         '{"candidate": "a|[^\\\\x00-\\\\U0010ffff]b", "candidate_normalized": "a|[^\\\\x00-\\\\U0010ffff]&b", "candidate_postfix": "a[^\\\\x00-\\\\U0010ffff]b&|", "flagged_approximate": false, "included": true, "sigma_subset": true, "superset": "a", "superset_normalized": "a", "superset_postfix": "a", "witness": null}\n'),
        (['check', '(?=a)b', 'b'], 0,
         'candidate normalized: b\nsuperset  normalized: b\ncandidate postfix: b\nsuperset  postfix: b\nΣ-gate: pass\nincluded: True\nnote: a side was normalized approximately; review manually\n'),
        (['check', '--json', '(?=a)b', 'b'], 0,
         '{"candidate": "(?=a)b", "candidate_normalized": "b", "candidate_postfix": "b", "flagged_approximate": true, "included": true, "sigma_subset": true, "superset": "b", "superset_normalized": "b", "superset_postfix": "b", "witness": null}\n'),
        (['check', '\\w', 'a'], 1,
         "candidate normalized: \\w\nsuperset  normalized: a\ncandidate postfix: \\w\nsuperset  postfix: a\nΣ-gate: fail\nincluded: False\nwitness: '0'\n"),
        (['check', '--json', '\\w', 'a'], 1,
         '{"candidate": "\\\\w", "candidate_normalized": "\\\\w", "candidate_postfix": "\\\\w", "flagged_approximate": false, "included": false, "sigma_subset": false, "superset": "a", "superset_normalized": "a", "superset_postfix": "a", "witness": "0"}\n'),
    ], ids=[f"{name}{suffix}" for name in ("repeat", "star", "dead-label", "lookahead", "class")
            for suffix in ("", "-json")])
    def test_display_bytes_are_pinned(self, capsys, argv, code, stdout):
        assert run(capsys, *argv)[:2] == (code, stdout)


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
        assert doc["dfa_states"] == 5  # the complete DFA, sink included
        assert len(doc["trace"]) == 10

    def test_long_program_omits_trace(self, capsys, monkeypatch):
        # The trace restates every unread token in each row, so a long
        # program's table is left out, and none of its rows is built.
        def refuse(*args, **kwargs):
            raise AssertionError("a trace row was built")

        monkeypatch.setattr(frontend, "TraceRow", refuse)
        code, out, _ = run(capsys, "explain", "a{2000}")
        assert code == 0
        assert len(out.encode()) < 1_000_000
        assert "trace omitted: the postfix program has 3999 tokens, more than" in out
        assert "Reason" not in out
        code, out, _ = run(capsys, "explain", "--json", "a{2000}")
        assert code == 0 and json.loads(out)["trace"] is None


    @pytest.mark.parametrize("pattern, shown", [('a"', {"a", '"'}), (r"[\n]\w", {r"\n", r"\w"})])
    def test_dot_labels_read_back(self, capsys, pattern, shown):
        # Every label is one DOT quoted string, in which only '\"' and '\\'
        # are escapes, so Graphviz reads no '\n' or '\N' of a display as its own.
        _, out, _ = run(capsys, "explain", pattern)
        labels = re.findall(r"label=(.*)\];$", out, re.M)
        quoted = r'"((?:[^"\\]|\\["\\])*)"'
        assert labels and all(re.fullmatch(quoted, label) for label in labels), labels
        displays = {re.sub(r"\\(.)", r"\1", re.fullmatch(quoted, label)[1]) for label in labels}
        assert displays == shown | {""}  # "" labels the start arrow's hidden node


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
        b'[1]\n',
    ], ids=["non_string_pattern", "not_utf8", "not_an_object"])
    def test_bad_rule_line_exits_two(self, capsys, tmp_path, content):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_bytes(content)
        code, _, err = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert "error: line 1:" in err

    @pytest.mark.parametrize("line, message", [
        ('{"id": 1, "polarity": "negative"}', "missing field 'pattern'"),
        ('{"id": 1, "pattern": "a", "polarity": "positive", "subrules": [5]}',
         "subrules must be a list of objects with a name and a pattern"),
    ], ids=["missing_pattern", "subrules_not_objects"])
    def test_bad_rule_line_names_the_problem(self, capsys, tmp_path, line, message):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_text(line + "\n")
        code, _, err = run(capsys, "reduce", "--rules", str(rules_path),
                           "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err.splitlines() == [f"error: line 1: {message}"]

    def test_error_is_one_stderr_line(self, tmp_path):
        # In a process of its own, so that stderr is what the logging set-up
        # of `main` writes there, not what the test's log capture takes.
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_text("[1]\n")
        proc = subprocess.run([sys.executable, "-m", "rexincl.cli", "reduce", "--rules",
                               str(rules_path), "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: line 1: not a JSON object"]

    def test_polarity_reduces_that_polarity_alone(self, capsys, tmp_path):
        # Rules of one polarity never include the other's, so a one-polarity
        # report is the two-polarity report restricted to its ids.
        rules = bench_rule_set(1, 20)
        rules_path = tmp_path / "rules.jsonl"
        save_rules(rules, rules_path)

        def reduce_to(polarity):
            out_path, surv_path = tmp_path / f"{polarity}.json", tmp_path / f"{polarity}.jsonl"
            code, _, _ = run(capsys, "reduce", "--polarity", polarity, "--rules", str(rules_path),
                             "--out", str(out_path), "--survivors", str(surv_path))
            assert code == 0
            survivors = [json.loads(line)["id"] for line in surv_path.read_text().splitlines()]
            return json.loads(out_path.read_text()), survivors

        both, _ = reduce_to("both")
        for polarity, wanted in (("pos", "positive"), ("neg", "negative")):
            ids = {r.id for r in rules if r.polarity == wanted}
            report, survivors = reduce_to(polarity)
            assert {int(i) for i in report["includes"]} == ids
            assert report["includes"] == {i: inc for i, inc in both["includes"].items()
                                          if int(i) in ids}
            for key in ("removed", "needs_review"):
                assert report[key] == [i for i in both[key] if i in ids]
            assert report["equivalence_classes"] == [
                c for c in both["equivalence_classes"] if c[0] in ids]
            assert survivors == [i for i in both["survivors"] if i in ids]

    def test_verbose_summary_goes_to_stderr(self, tmp_path):
        # Run in a process of its own, for the logging set-up of `main`:
        # stdout stays data-only.
        rules_path = tmp_path / "rules.jsonl"
        save_rules(rfx.build_rules(), rules_path)
        proc = subprocess.run([sys.executable, "-m", "rexincl.cli", "-v", "reduce", "--rules",
                               str(rules_path), "--out", str(tmp_path / "r.json")],
                              capture_output=True, text=True, env=_src_env(), timeout=60)
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["rules"] == 50
        assert "INFO rexincl: rules: 50, removed: " in proc.stderr

    @pytest.mark.parametrize("command", ["reduce", "extract"])
    @pytest.mark.parametrize("field, value", [("apa", "no"), ("statistic_type", 5), ("id", 3.9),
                                              ("id", True), ("id", "3")])
    def test_metadata_of_wrong_type_exits_two(self, capsys, tmp_path, command, field, value):
        rules_path = tmp_path / "rules.jsonl"
        rules_path.write_text(json.dumps(
            {"id": 0, "pattern": "a", "polarity": "positive", field: value}) + "\n")
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text('{"doc_id": "d", "text": "a 1."}\n')
        extra = ["--corpus", str(corpus_path)] if command == "extract" else []
        code, _, err = run(capsys, command, "--rules", str(rules_path),
                           "--out", str(tmp_path / "r.json"), *extra)
        assert code == 2
        assert f"error: line 1: {field}" in err and "Traceback" not in err


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

    def test_sampling_deterministic(self, capsys, paths):
        rules_path, corpus_path, tmp_path = paths
        out_path = tmp_path / "report.json"
        code, out1, _ = run(capsys, "extract", "--rules", str(rules_path),
                            "--corpus", str(corpus_path), "--out", str(out_path),
                            "--sample", "2")
        code2, out2, _ = run(capsys, "extract", "--rules", str(rules_path),
                             "--corpus", str(corpus_path), "--out", str(out_path),
                             "--sample", "2")
        assert code == code2 == 0
        assert out1 == out2
        assert len(out1.splitlines()) == 6  # 2 per statistic type


    @pytest.mark.parametrize("sample", ["0", "-1", "two"])
    def test_sample_must_be_positive(self, capsys, paths, sample):
        rules_path, corpus_path, tmp_path = paths
        code, _, err = run(capsys, "extract", "--rules", str(rules_path), "--corpus",
                           str(corpus_path), "--out", str(tmp_path / "r.json"), "--sample", sample)
        assert code == 2
        assert "not a positive integer" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["extract", "bench"])
    def test_corpus_text_not_a_string_exits_two(self, capsys, paths, command):
        rules_path, corpus_path, tmp_path = paths
        corpus_path.write_text('{"doc_id": "d0", "text": "t = 2.1."}\n{"doc_id": "d", "text": 5}\n')
        extra = (["--out", str(tmp_path / "r.json")] if command == "extract"
                 else ["--reduced", str(rules_path)])
        code, _, err = run(capsys, command, "--rules", str(rules_path),
                           "--corpus", str(corpus_path), *extra)
        assert code == 2
        assert "error: line 2: document text must be a str" in err and "Traceback" not in err

    def test_subrule_name_not_a_string_exits_two(self, capsys, paths):
        rules_path, corpus_path, tmp_path = paths
        rules_path.write_text(json.dumps(
            {"id": 0, "pattern": r"a(\d)", "polarity": "positive",
             "subrules": [{"name": 5, "pattern": r"(\d)"}, {"name": "x", "pattern": "a"}]}) + "\n")
        corpus_path.write_text('{"doc_id": "d", "text": "We saw a1 here."}\n')
        code, _, err = run(capsys, "extract", "--rules", str(rules_path), "--corpus",
                           str(corpus_path), "--out", str(tmp_path / "r.json"),
                           "--results", str(tmp_path / "results.jsonl"))
        assert code == 2
        assert "error: line 1: subrule name must be a str" in err and "Traceback" not in err

    def test_too_deeply_nested_rule_skipped(self, capsys, caplog, paths):
        rules_path, corpus_path, tmp_path = paths
        with open(rules_path, "a") as fh:
            fh.write(json.dumps({"id": 999, "pattern": "(" * 1000 + "a" + ")" * 1000,
                                 "polarity": "negative"}) + "\n")
        code, out, err = run(capsys, "extract", "--rules", str(rules_path),
                             "--corpus", str(corpus_path), "--out", str(tmp_path / "r.json"))
        assert code == 0
        assert json.loads(out)["total_statistics"] == 15
        assert "skipping rule 999: pattern too long or too deeply nested" in caplog.text
        assert "Traceback" not in err

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

    def test_backtracking_rule_ends_within_its_budget(self, capsys, monkeypatch, tmp_path,
                                                      watchdog):
        # The host backtracks on (a+)+b exponentially in the run of a's after
        # the b: at 40 it would search this one sentence for hours.
        rules_path, corpus_path = tmp_path / "rules.jsonl", tmp_path / "corpus.jsonl"
        rules_path.write_text(json.dumps({"id": 1, "pattern": "(a+)+b", "polarity": "positive",
                                          "statistic_type": "t"}) + "\n")
        corpus_path.write_text(json.dumps({"doc_id": "d", "text": "Value 1 b " + "a" * 40 + "."})
                               + "\n")
        monkeypatch.setattr(extractor, "MAX_SECONDS", 0.2)
        handler = signal.getsignal(signal.SIGALRM)
        began = time.perf_counter()
        code, out, err = run(capsys, "extract", "--rules", str(rules_path), "--corpus",
                             str(corpus_path), "--out", str(tmp_path / "r.json"))
        assert time.perf_counter() - began < 5
        assert code == 2
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert "rule 1 " in err and "d:0" in err and "budget" in err
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler

    def test_run_corpus_without_a_budget_arms_nothing(self, monkeypatch):
        # The library default, which `bench` times, installs no handler and
        # arms no timer; neither does a budget off the main thread.
        def refused(*args):
            raise AssertionError("signal handler or timer touched")

        handler = signal.getsignal(signal.SIGALRM)
        expected = extractor.run_corpus(efx.build_corpus(), efx.RULES)[1]
        monkeypatch.setattr(signal, "signal", refused)
        monkeypatch.setattr(signal, "setitimer", refused)
        assert extractor.run_corpus(efx.build_corpus(), efx.RULES)[1] == expected
        got = []
        thread = threading.Thread(target=lambda: got.append(
            extractor.run_corpus(efx.build_corpus(), efx.RULES, budget=0.2)[1]))
        thread.start()
        thread.join()
        assert got == [expected]
        assert signal.getsignal(signal.SIGALRM) is handler

    def test_budget_leaves_results_as_they_are(self):
        expected = extractor.run_corpus(efx.build_corpus(), efx.RULES)
        got = extractor.run_corpus(efx.build_corpus(), efx.RULES, budget=extractor.MAX_SECONDS)
        assert got[0] == expected[0] and got[1] == expected[1]
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

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
    @pytest.fixture
    def paths(self, tmp_path):
        rules_path = tmp_path / "full.jsonl"
        save_rules(efx.RULES, rules_path)
        corpus_path = tmp_path / "corpus.jsonl"
        with open(corpus_path, "w") as fh:
            for doc in efx.build_corpus():
                fh.write(json.dumps({"doc_id": doc.doc_id, "text": doc.text}) + "\n")
        return rules_path, corpus_path

    def test_reports_means(self, capsys, paths):
        full_path, corpus_path = paths
        code, out, _ = run(capsys, "bench", "--rules", str(full_path),
                           "--reduced", str(full_path), "--corpus", str(corpus_path),
                           "--repeats", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["repeats"] == 2
        assert doc["full_mean_s"] > 0

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_must_be_positive(self, capsys, paths, repeats):
        full_path, corpus_path = paths
        code, _, err = run(capsys, "bench", "--rules", str(full_path), "--reduced",
                           str(full_path), "--corpus", str(corpus_path), "--repeats", repeats)
        assert code == 2
        assert "not a positive integer" in err and "Traceback" not in err


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

    @pytest.mark.parametrize("left, right, max_len, code", [
        ("T", "(?i)t", "2", 0),
        ("(?i)t", "t", "2", 1),
        ("(?s).", r"[^\n]", "2", 1),
        ("(?-i:a)", "a", "6", 0),
        (r"(?=a)\w", "b", "2", 1),
    ], ids=["case_folded_superset", "case_folded_candidate", "dotall", "removed_flag",
            "lookaround_body"])
    def test_the_hosts_answer(self, capsys, left, right, max_len, code):
        # The host judges the stripped flags that the frontend approximates.
        got, out, err = run(capsys, "oracle-verify", "--left", left, "--right", right,
                            "--max-len", max_len)
        assert (got, err) == (code, "")
        assert json.loads(out)["included_up_to_bound"] is (code == 0)

    @pytest.mark.parametrize("left", [r"\w", r"[\u0000-\U0010ffff]"])
    def test_large_alphabet_exits_two(self, capsys, left):
        # A large class is one block, but the right side's ten letters, their
        # case partners, '\n' and a space make 23 probes: 23**6 strings of length 6.
        code, out, err = run(capsys, "oracle-verify", "--left", left, "--right", "abcdefghij")
        assert code == 2
        assert out == "" and "exceeds" in err and err.count("\n") == 1

    def test_long_literal_gets_the_hosts_answer(self, capsys):
        # No string of at most 2 characters matches a literal of 1,000.
        code, out, err = run(capsys, "oracle-verify", "--left", "a" * 1000, "--right", "a",
                             "--max-len", "2")
        assert code == 0 and err == ""
        assert json.loads(out)["included_up_to_bound"] is True

    def test_negative_max_len_exits_two(self, capsys):
        code, out, err = run(capsys, "oracle-verify", "--left", "a", "--right", "b",
                             "--max-len", "-1")
        assert code == 2
        assert out == "" and "max_len -1" in err

    def test_backtracking_enumeration_ends_within_its_budget(self, capsys, monkeypatch, watchdog):
        # The host backtracks exponentially on this nested bounded repeat:
        # without a time bound, its 781 strings of up to 4 characters take
        # many seconds.
        pattern = r"(((\d|\s)?(\s{0,2}Z{2}){0,2}){0,2}|((()?a*){1,3}|\d+){1,3}){2}"
        monkeypatch.setattr(oracle, "MAX_SECONDS", 0.2)
        handler = signal.getsignal(signal.SIGALRM)
        began = time.perf_counter()
        code, out, err = run(capsys, "oracle-verify", "--left", pattern, "--right", pattern,
                             "--max-len", "4")
        assert time.perf_counter() - began < 5
        assert code == 2
        assert out == "" and "budget" in err and err.count("\n") == 1 and "Traceback" not in err
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler


def test_console_script_installed():
    import shutil

    assert shutil.which("rexincl") is not None
    proc = subprocess.run(["rexincl", "check", "ab", "a"], capture_output=True,
                          encoding="utf-8", timeout=60)
    assert proc.returncode == 1
    assert "Σ-gate: fail" in proc.stdout
