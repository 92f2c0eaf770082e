"""Corpus pipeline: sentence splitting, digit filtering, rule-driven
classification with value capture, aggregation, sampling, and full-vs-reduced
benchmarking.

Classification runs the rules as host regexes (unanchored substring search);
the formal pipeline exists for inclusion checking, not matching.
"""

from __future__ import annotations

import json
import logging
import re
import signal
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import BoundExceeded, FormatError, OutcomeMismatch, PatternSyntaxError
from .frontend import host_compile, required_literal
from .reducer import Rule, read_jsonl

log = logging.getLogger(__name__)

SENTENCE_BREAK = re.compile(r"(?<=\.)\s?(?=[A-Z])")
LINE_BREAK = re.compile(r"\s*\n\s*")
HAS_DIGIT = re.compile(r"\d")

STATISTIC = "statistic"
REJECTED = "rejected"
UNMATCHED = "unmatched"

ANOVA_NO_R = "anova-no-r"

MAX_SECONDS = 1  # the longest `rexincl extract` may classify one sentence


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise TypeError(f"document text must be a str, not {self.text!r}")


@dataclass(frozen=True, slots=True)
class Sentence:
    """One digit-bearing sentence: its document, its place among that
    document's kept sentences, and its text.  One is kept per sentence of a
    corpus, so it has slots and no instance dict: about 57 bytes in place
    of 97."""

    doc_id: str
    index: int
    text: str


@dataclass(frozen=True, slots=True)
class ExtractionResult:
    """How `classify` judged one sentence, with the values its sub-rules
    captured.  One is kept per sentence of a corpus, so it has slots and no
    instance dict: about 81 bytes in place of 129, its `values` aside."""

    sentence: Sentence
    outcome: str  # STATISTIC | REJECTED | UNMATCHED
    matched_rule_id: int | None = None
    statistic_type: str | None = None
    apa: bool | None = None
    values: dict = field(default_factory=dict)

    def to_obj(self):
        return {
            "doc_id": self.sentence.doc_id,
            "sentence_index": self.sentence.index,
            "sentence": self.sentence.text,
            "outcome": self.outcome,
            "matched_rule_id": self.matched_rule_id,
            "statistic_type": self.statistic_type,
            "apa": self.apa,
            "values": self.values,
        }


@dataclass
class CorpusReport:
    by_type: dict = field(default_factory=dict)  # type -> {"apa": n, "non_apa": n}
    total_statistics: int = 0
    rejected: int = 0
    unmatched: int = 0
    total_sentences: int = 0
    apa_share_with_anova_no_r: float = 0.0
    apa_share_without_anova_no_r: float = 0.0

    def to_obj(self):
        return {
            "by_type": {t: dict(c) for t, c in sorted(self.by_type.items())},
            "total_statistics": self.total_statistics,
            "rejected": self.rejected,
            "unmatched": self.unmatched,
            "total_sentences": self.total_sentences,
            "apa_share_with_anova_no_r": self.apa_share_with_anova_no_r,
            "apa_share_without_anova_no_r": self.apa_share_without_anova_no_r,
        }


def split_sentences(doc: Document) -> list[Sentence]:
    """Flatten each line break and the whitespace around it to one space,
    split after every period that at most one whitespace character and a
    capital letter follow (`SENTENCE_BREAK`), strip each piece, and keep,
    numbered from 0, the pieces that hold a digit."""
    text = LINE_BREAK.sub(" ", doc.text)
    kept = filter(HAS_DIGIT.search, map(str.strip, SENTENCE_BREAK.split(text)))
    return [Sentence(doc.doc_id, index, piece) for index, piece in enumerate(kept)]


class CompiledRuleSet:
    """Rules compiled for matching, split by polarity, id order preserved.
    Rules whose pattern the host engine rejects are logged and skipped.

    `positive` and `negative` hold (rule, rx, subs) triples.  `order` is the
    matching order, positives first: (literal, rx.search, rule, subs), where
    literal is `required_literal` of the pattern, a string every match
    contains, computed once per rule.  A case-insensitive rule's literal is
    "", so it is always searched."""

    def __init__(self, rules):
        self.positive = []
        self.negative = []
        for rule in sorted(rules, key=lambda r: r.id):
            try:
                rx = host_compile(rule.pattern)
                subs = [(name, host_compile(p)) for name, p in rule.subrules]
            except PatternSyntaxError as exc:
                log.warning("skipping rule %d: %s", rule.id, exc)
                continue
            (self.positive if rule.polarity == "positive" else self.negative).append(
                (rule, rx, subs)
            )
        self.order = [(required_literal(rule.pattern.text), rx.search, rule, subs)
                      for rule, rx, subs in self.positive + self.negative]


def classify(sentence: Sentence, rules: CompiledRuleSet) -> ExtractionResult:
    """First match wins: every positive rule before any negative, id order
    within each polarity.  The order is fixed.

    A rule is searched only if the sentence holds its literal.  The skip is
    exact: a match is a substring of the sentence and contains the literal,
    so a sentence without it has no match.  An empty literal is in every
    sentence."""
    text = sentence.text
    for literal, search, rule, subs in rules.order:
        if literal not in text:
            continue
        m = search(text)
        if m is None:
            continue
        if rule.polarity == "negative":
            return ExtractionResult(sentence=sentence, outcome=REJECTED,
                                    matched_rule_id=rule.id)
        # Sub-rule capture runs only on the span matched by the main rule.
        span = m.group(0)
        values = {}
        for name, sub_rx in subs:
            sm = sub_rx.search(span)
            if sm is not None:
                values[name] = sm.group(1) if sm.groups() else sm.group(0)
        return ExtractionResult(
            sentence=sentence,
            outcome=STATISTIC,
            matched_rule_id=rule.id,
            statistic_type=rule.statistic_type or "other",
            apa=bool(rule.apa),
            values=values,
        )
    return ExtractionResult(sentence=sentence, outcome=UNMATCHED)


def run_corpus(corpus, rules, budget=None):
    """Compile the rule list once and classify every digit-bearing sentence
    of every document.

    The host engine backtracks, so a rule such as `(a+)+b` may search one
    sentence for hours.  With a `budget` in seconds, each sentence is
    classified under a real-time timer whose expiry raises BoundExceeded,
    naming the rule and the sentence; the caller's SIGALRM handler is
    restored on return.  Signals reach only the main thread, so off it the
    budget is not applied.  Without a budget no handler is installed and
    no timer armed, and the loop runs unbounded.

    Returns (CorpusReport, list of ExtractionResult in document order).
    """
    compiled = CompiledRuleSet(rules)
    results = []
    timed = budget is not None and threading.current_thread() is threading.main_thread()
    if timed:
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: _expired(frame, budget))
    try:
        for doc in corpus:
            for sentence in split_sentences(doc):
                if timed:
                    signal.setitimer(signal.ITIMER_REAL, budget)
                results.append(classify(sentence, compiled))
                if timed:
                    signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
    return aggregate(results), results


def _expired(frame, budget):
    """The SIGALRM handler of `run_corpus`'s budget.  `frame` is where the
    signal landed: `classify`'s frame, or one it called.  The rule being
    searched is read off `classify`'s locals, so the loop keeps no record
    of it.  A timer that fires after `classify` returned is ignored."""
    while frame is not None and frame.f_code is not classify.__code__:
        frame = frame.f_back
    if frame is None:
        return
    sentence, rule = frame.f_locals["sentence"], frame.f_locals.get("rule")
    name = "classifying" if rule is None else f"rule {rule.id}"
    raise BoundExceeded(f"{name} ran past the budget of {budget} s on sentence "
                        f"{sentence.doc_id}:{sentence.index}")


def aggregate(results) -> CorpusReport:
    report = CorpusReport()
    apa_total = 0
    anova_no_r_apa = 0
    for res in results:
        report.total_sentences += 1
        if res.outcome == STATISTIC:
            report.total_statistics += 1
            cell = report.by_type.setdefault(res.statistic_type, {"apa": 0, "non_apa": 0})
            cell["apa" if res.apa else "non_apa"] += 1
            if res.apa:
                apa_total += 1
                if res.statistic_type == ANOVA_NO_R:
                    anova_no_r_apa += 1
        elif res.outcome == REJECTED:
            report.rejected += 1
        else:
            report.unmatched += 1
    if report.total_statistics:
        report.apa_share_with_anova_no_r = 100.0 * apa_total / report.total_statistics
        report.apa_share_without_anova_no_r = (
            100.0 * (apa_total - anova_no_r_apa) / report.total_statistics
        )
    return report


def sample(results, n: int, seed: int) -> list[ExtractionResult]:
    """Per statistic type, a uniform sample of min(n, available) results
    without replacement; deterministic for a fixed seed."""
    import random

    if n <= 0:
        raise ValueError("sample size must be positive")
    by_type = {}
    for res in results:
        if res.outcome == STATISTIC:
            by_type.setdefault(res.statistic_type, []).append(res)
    rng = random.Random(seed)
    out = []
    for stype in sorted(by_type):
        pool = by_type[stype]
        if len(pool) <= n:
            out.extend(pool)
        else:
            out.extend(rng.sample(pool, n))
    return out


@dataclass
class BenchReport:
    full_mean: float
    full_stdev: float
    reduced_mean: float
    reduced_stdev: float
    repeats: int
    sentences: int

    def to_obj(self):
        return {
            "full_mean_s": self.full_mean,
            "full_stdev_s": self.full_stdev,
            "reduced_mean_s": self.reduced_mean,
            "reduced_stdev_s": self.reduced_stdev,
            "repeats": self.repeats,
            "sentences": self.sentences,
        }


def bench(corpus, full_rules, reduced_rules, repeats: int = 5) -> BenchReport:
    """Wall-clock comparison of the full and reduced rule sets.

    Classification outcomes are asserted identical for every sentence first;
    a mismatch signals an unsound reduction.  One warm-up run per rule set is
    discarded, then `repeats` timed runs are averaged (monotonic clock).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    full = CompiledRuleSet(full_rules)
    reduced = CompiledRuleSet(reduced_rules)
    sentences = [s for doc in corpus for s in split_sentences(doc)]

    for sentence in sentences:
        a = classify(sentence, full)
        b = classify(sentence, reduced)
        if (a.outcome, a.statistic_type) != (b.outcome, b.statistic_type):
            raise OutcomeMismatch(
                f"sentence {sentence.doc_id}:{sentence.index} classified "
                f"{a.outcome}/{a.statistic_type} under full rules but "
                f"{b.outcome}/{b.statistic_type} under reduced rules"
            )

    def timed(ruleset):
        for sentence in sentences:  # warm-up, discarded
            classify(sentence, ruleset)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for sentence in sentences:
                classify(sentence, ruleset)
            times.append(time.perf_counter() - t0)
        mean = statistics.fmean(times)
        stdev = statistics.stdev(times) if len(times) > 1 else 0.0
        return mean, stdev

    full_mean, full_stdev = timed(full)
    reduced_mean, reduced_stdev = timed(reduced)
    return BenchReport(
        full_mean=full_mean,
        full_stdev=full_stdev,
        reduced_mean=reduced_mean,
        reduced_stdev=reduced_stdev,
        repeats=repeats,
        sentences=len(sentences),
    )


# ---------------------------------------------------------------------------
# Corpus ingestion
# ---------------------------------------------------------------------------

def load_corpus(path) -> list[Document]:
    """Plain-text directory (one document per .txt file) or JSONL with
    {"doc_id", "text"} objects."""
    path = Path(path)
    if path.is_dir():
        return [Document(doc_id=f.stem, text=_read_text(f)) for f in sorted(path.glob("*.txt"))]
    return list(read_jsonl(
        path, lambda obj: Document(doc_id=str(obj["doc_id"]), text=obj["text"])))


def _read_text(path):
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_results(results, path):
    with open(path, "w", encoding="utf-8") as fh:
        for res in results:
            fh.write(json.dumps(res.to_obj(), sort_keys=True) + "\n")
