"""The CLI's contract, one row per promise, each run as `python -m rexincl.cli` in
a fresh process under its timeout, so a hang fails its row.  A row checks the exit
code, stderr, text in stdout, and fields of the JSON result: the --out file if the
row writes one, else stdout.  A new promise of the CLI is a new row."""

import json
import subprocess
import sys
from typing import NamedTuple

import pytest

from test_cli import _src_env

EMPTY, CLEAN, ONE_LINE = "empty", "no traceback", "one line, no traceback"


class Row(NamedTuple):
    name: str
    argv: tuple
    exit: int
    stderr: str = EMPTY
    out: tuple = ()  # text that stdout holds
    not_out: tuple = ()  # text that stdout lacks
    err: tuple = ()  # text that stderr holds
    report: dict = {}  # fields of the JSON result
    files: dict = {}  # input files by name, written to the row's directory
    timeout: float = 60


def _jsonl(*objs):
    return "".join(json.dumps(obj) + "\n" for obj in objs)


def _rule(rule_id, pattern, polarity="negative", **meta):
    return {"id": rule_id, "pattern": pattern, "polarity": polarity, **meta}


REDUCE = ("reduce", "--rules", "rules.jsonl", "--out", "report.json")
EXTRACT = ("extract", "--rules", "rules.jsonl", "--corpus", "corpus.jsonl", "--out", "report.json")
DEAD = _jsonl(_rule(0, "a"), _rule(1, r"a|[^\x00-\U0010ffff]b"))
NESTED = r"(((\d|\s)?(\s{0,2}Z{2}){0,2}){0,2}|((()?a*){1,3}|\d+){1,3}){2}"
# re reads atomic groups and possessive repeats from Python 3.11; before, it rejects them.
SINCE_311 = (0, EMPTY) if sys.version_info >= (3, 11) else (2, ONE_LINE)


# 20,000 sentences in 2,000 documents, each sentence a statistic with its own values.
LARGE_CORPUS = _jsonl(*({"doc_id": f"paper{d}", "text": " ".join(
    f"Run {s} gave t({d}) = {s}.{d}, p < .05." for s in range(10))} for d in range(2000)))


def _oracle(left, right, *max_len):
    return ("oracle-verify", "--left", left, "--right", right, *max_len)


ROWS = [
    # A clean negative verdict; an uncaught exception would also exit 1.
    Row("bounded full-range class", ("check", r"[\u0000-\U0010ffff]", "a"), 1, timeout=20),
    Row("unprintable output", ("check", r"[\ud800]", "a"), 1),
    Row("nested repeat", ("check", "(a{1,40}){1,40}", "a+"), 0, timeout=20),
    # Of two rules of one text and one other rule, the duplicate with the higher id goes, alone.
    Row("repeated rule text", REDUCE, 0, report={"removed": [2]}, timeout=20,
        files={"rules.jsonl": _jsonl(_rule(0, r"a\d+"), _rule(1, "b"), _rule(2, r"a\d+"))}),
    # `explain` shows the complete DFA, sink included.
    Row("complete DFA", ("explain", "--json", "(b|a)&(a|b)*"), 0, report={"dfa_states": 5}),
    # A rule line that is JSON but not an object.
    Row("non-object rule line", REDUCE, 2, ONE_LINE, files={"rules.jsonl": "[1]\n"}),
    # A rule whose subrule re rejects is skipped, so it removes nothing.
    Row("bad subrule", REDUCE, 0, CLEAN, report={"removed": []}, files={"rules.jsonl": _jsonl(
        _rule(0, r"a\d+", "positive", statistic_type="t",
              subrules=[{"name": "x", "pattern": "("}]),
        _rule(1, r"a\d", "positive", statistic_type="t"))}),
    # A statistic_type that is not a string.
    Row("bad metadata", REDUCE, 2, CLEAN,
        files={"rules.jsonl": _jsonl(_rule(0, "a", "positive", statistic_type=5))}),
    Row("negative oracle bound", _oracle("a", "b", "--max-len", "-1"), 2, CLEAN),
    # Two rules of one language, one with a label behind an empty class, reduce to the lower id.
    Row("dead label", REDUCE, 0, CLEAN, report={"removed": [1]}, files={"rules.jsonl": DEAD}),
    # `extract` skips a rule nested 1000 deep.
    Row("deep rule", EXTRACT, 0, CLEAN, files={
        "rules.jsonl": _jsonl(_rule(0, "(" * 1000 + "a" + ")" * 1000)),
        "corpus.jsonl": _jsonl({"doc_id": "d", "text": "We saw a1 here."})}),
    # `bench` on a corpus line whose text is a number.
    Row("non-string text", ("bench", "--rules", "rules.jsonl", "--reduced", "rules.jsonl",
                            "--corpus", "corpus.jsonl"), 2, CLEAN,
        files={"rules.jsonl": DEAD, "corpus.jsonl": _jsonl({"doc_id": "d", "text": 5})}),
    Row("long literal", ("check", "a" * 1000, "a+"), 0, CLEAN),
    # A nested repeat of 20,100 operands is refused at once.
    Row("size bound", ("check", "((a|b){0,100}){0,100}", "a"), 2, CLEAN, timeout=10),
    Row("verbose flag", ("check", "(?x)a b", "ab"), 0, CLEAN, not_out=("approximate",)),
    # The Σ-gate line agrees with a superset whose label is behind an empty class.
    Row("Σ gate", ("check", r"a|[^\x00-\U0010ffff]b", "a"), 0, CLEAN, out=("Σ-gate: pass",)),
    # A repeat bound above 200 within 4,000 operands checks.
    Row("bound above 200", ("check", r"\d{1,500}", r"\d+"), 0, CLEAN),
    # A bound of 4294967294 is refused at once.
    Row("huge repeat", ("check", "a{4294967294}", "a"), 2, CLEAN, timeout=10),
    Row("long oracle literal", _oracle("a" * 1000, "a", "--max-len", "2"), 0, CLEAN),
    # A lookaround body is dropped unread, so one of 5,000 operands checks.
    Row("lookaround body", ("check", "(?=a{5000})b", "b"), 0, CLEAN, out=("approximate",)),
    # re refuses a look-behind of varying width nested in a lookahead.
    Row("nested look-behind", ("check", "(?=(?<=a|bc))x", "x"), 2, ONE_LINE),
    # 200 lookaheads of 3,609 operands each check at once.
    Row("many lookarounds", ("check", "(?=(?:a{0,200}){0,9})" * 200 + "b", "b"), 0, CLEAN,
        timeout=10),
    # No sink: a label behind an empty class is included in `[…]*`, and `[…]*` is not in `a`.
    Row("superset without a sink", ("check", r"a|[^\x00-\U0010ffff]b", r"[\x00-\U0010ffff]*"),
        0, CLEAN),
    Row("candidate without a sink", ("check", r"[\x00-\U0010ffff]*", "a"), 1, CLEAN,
        out=("witness: ''",)),
    # `check` prints the failing Σ gate that `reduce` also tests.
    Row("failing Σ gate", ("check", "ab", "a"), 1, CLEAN, out=("Σ-gate: fail",)),
    Row("missing field", REDUCE, 2, ONE_LINE, err=("missing field",),
        files={"rules.jsonl": _jsonl({"id": 0, "polarity": "negative"})}),
    # `oracle-verify` judges with the host's re: `T` is in `(?i)t`, and `(?i)t` is not in `t`.
    Row("oracle case fold both ways, included", _oracle("T", "(?i)t", "--max-len", "2"), 0),
    Row("oracle case fold both ways, not included", _oracle("(?i)t", "t", "--max-len", "2"), 1),
    # A group that removes a flag is exact.
    Row("removed flag", ("check", "(?-i:a)", "a"), 0, not_out=("approximate",)),
    # `explain --json` on a chain of 1,999 optionals leaves its trace out.
    Row("long explain", ("explain", "--json", "(a?){1999}"), 0, timeout=20),
    Row("chain of optionals", ("check", "(a?){1999}", "a*"), 0, timeout=20),
    # The normalized and postfix forms of the token route, which the decision no longer builds.
    Row("check display", ("check", "--json", r"\d{1,3}", r"\d+"), 0,
        report={"candidate_postfix": r"\d\d\dε|&ε|&", "superset_normalized": r"\d&\d*"}),
    # DFA states hold up to 1,998 positions each.
    Row("chain of optional pairs", ("check", "(a?b?){999}", "(a|b)*"), 0, timeout=20),
    # A case-insensitive rule has no literal to skip it by, so it is always searched.
    Row("case-insensitive extract rule", EXTRACT, 0, report={"total_statistics": 1}, files={
        "rules.jsonl": _jsonl(_rule(0, r"(?i)t\(\d+\)", "positive", statistic_type="t")),
        "corpus.jsonl": _jsonl({"doc_id": "d", "text": "We saw T(12) here."})}),
    # The superset's DFA has over 2^40 states; the walk builds rows only as it reaches them.
    Row("short witness against a huge superset", ("check", "b", "(a|b)*a(a|b){40}"), 1,
        out=("witness: 'b'",), timeout=10),
    # The nested repeat is built as the one repeat a{1,1600}.
    Row("fused nested repeat", ("check", "a{1,1600}", "(a{1,40}){1,40}"), 0, timeout=20),
    # The host backtracks on NESTED for many seconds; it stops at its 10 s budget.
    Row("oracle time budget", _oracle(NESTED, NESTED, "--max-len", "4"), 2, ONE_LINE),
    # `(a+)+b` backtracks for hours on a b then 40 a's; it stops at its 1 s budget per sentence.
    Row("extract time budget", EXTRACT, 2, ONE_LINE, err=("rule 1 ",), files={
        "rules.jsonl": _jsonl(_rule(1, "(a+)+b", "positive", statistic_type="t")),
        "corpus.jsonl": _jsonl({"doc_id": "d", "text": "Value 1 b " + "a" * 40 + "."})}),
    # `extract` streams a larger corpus: each result is written and tallied, then dropped.
    Row("larger corpus", EXTRACT + ("--results", "results.jsonl", "--sample", "2"), 0,
        out=('"statistic_type": "t"',), report={"total_statistics": 20000, "total_sentences": 20000},
        files={"rules.jsonl": _jsonl(_rule(0, r"t\(\d+\) = \d+\.\d+", "positive",
                                           statistic_type="t",
                                           subrules=[{"name": "df", "pattern": r"\((\d+)\)"}])),
               "corpus.jsonl": LARGE_CORPUS}),
    # Counted-repeat chains, built in closed form, check both ways.
    Row("counted-repeat chains, included", ("check", r"\d{100,200}", r"\d{1,200}"), 0,
        timeout=10),
    Row("counted-repeat chains, not included", ("check", r"\d{1,200}", r"\d{100,200}"), 1,
        out=("witness: '0'",)),
    # `oracle-verify` judges every pattern re accepts; one it rejects at parse or compile exits 2.
    Row("oracle backreference", _oracle(r"(a)\1", "aa"), 0),
    Row("oracle repeat past the frontend's bound", _oracle("a{5000}", "a"), 0),
    Row("oracle atomic group", _oracle("(?>a)", "a"), *SINCE_311),
    Row("oracle possessive repeat", _oracle("a++", "a+"), *SINCE_311),
    Row("oracle unbalanced group", _oracle("(", "a"), 2, ONE_LINE),
    Row("oracle varying look-behind", _oracle("(?<=a|bc)x", "x"), 2, ONE_LINE),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_cli_contract(row, tmp_path):
    for name, text in row.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "rexincl.cli", *row.argv], cwd=tmp_path,
                          capture_output=True, encoding="utf-8", env=_src_env(),
                          timeout=row.timeout)
    assert proc.returncode == row.exit, proc.stderr
    assert "Traceback" not in proc.stderr
    if row.stderr == EMPTY:
        assert proc.stderr == ""
    elif row.stderr == ONE_LINE:
        assert proc.stderr.count("\n") == 1, proc.stderr
    assert all(text in proc.stderr for text in row.err)
    assert all(text in proc.stdout for text in row.out)
    assert not any(text in proc.stdout for text in row.not_out)
    if row.report:
        result = json.loads((tmp_path / "report.json").read_text(encoding="utf-8")
                            if "--out" in row.argv else proc.stdout)
        assert {key: result[key] for key in row.report} == row.report
