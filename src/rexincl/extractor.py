"""Corpus pipeline: sentence splitting, digit filtering, rule-driven
classification with value capture, aggregation, sampling, and full-vs-reduced
benchmarking.

Classification runs the rules as host regexes (unanchored substring search);
the formal pipeline exists for inclusion checking, not matching.
"""

from __future__ import annotations

import json
import logging
import random
import re
import signal
import statistics
import threading
import time
from contextlib import contextmanager
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


@dataclass(frozen=True, slots=True)
class Document:
    """One document of a corpus: a .txt file or a JSON Lines object.  Its
    text must be a str.  `load_corpus` keeps one per document, so it has
    slots and no instance dict, like `Sentence` and `ExtractionResult`."""

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
    captured.  `run_corpus` keeps one per sentence of a corpus, so it has
    slots and no instance dict: about 81 bytes in place of 129, its `values`
    aside.  In one `run_corpus` list, equal captured values are one string.
    `rexincl extract` streams results and keeps none."""

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


@contextmanager
def time_budget(seconds, expired):
    """Install `expired` as the SIGALRM handler for the body and yield
    whether the budget applies, so the body arms `ITIMER_REAL` itself:
    once, or again for each step.  Signals reach only the main thread, so
    off it, or with `seconds` None, nothing is installed and it yields
    False.  On exit the timer is disarmed and the caller's handler
    restored, also when the body raises or a generator holding the context
    is closed early."""
    if seconds is None or threading.current_thread() is not threading.main_thread():
        yield False
        return
    previous = signal.signal(signal.SIGALRM, expired)
    try:
        yield True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def classify_corpus(corpus, rules: CompiledRuleSet, budget=None):
    """Yield, in document order, `classify` of every digit-bearing sentence
    of every document; `corpus` may be any iterable of documents, read as
    the sentences are needed.

    The host engine backtracks, so a rule such as `(a+)+b` may search one
    sentence for hours.  With a `budget` in seconds, each sentence is
    classified under a real-time timer whose expiry raises BoundExceeded,
    naming the rule and the sentence.  The handler is installed for the
    generator's whole life (`time_budget`), and the timer is disarmed
    whenever a result is yielded.  Without a budget no handler is installed
    and no timer armed, and the loop runs unbounded."""
    with time_budget(budget, lambda signum, frame: _expired(frame, budget)) as timed:
        for doc in corpus:
            for sentence in split_sentences(doc):
                if timed:
                    signal.setitimer(signal.ITIMER_REAL, budget)
                result = classify(sentence, rules)
                if timed:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                yield result


def run_corpus(corpus, rules, budget=None):
    """Compile the rule list once and classify every digit-bearing sentence
    of every document with `classify_corpus`, under its `budget`.

    Every result is kept, so equal captured values are stored once: a dict
    local to the call maps each value to the first string equal to it, and
    the results' `values` hold that string.  `rexincl extract` streams
    `classify_corpus` instead and keeps no result.

    Returns (CorpusReport, list of ExtractionResult in document order).
    """
    shared = {}
    results = []
    for result in classify_corpus(corpus, CompiledRuleSet(rules), budget):
        values = result.values
        for name in values:
            values[name] = shared.setdefault(values[name], values[name])
        results.append(result)
    return aggregate(results), results


def _expired(frame, budget):
    """The SIGALRM handler of `classify_corpus`'s budget.  `frame` is where
    the signal landed: `classify`'s frame, or one it called.  The rule being
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
    """Tally results one at a time; `results` may be any iterable, such as
    `classify_corpus`'s stream, and none is kept."""
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
    without replacement; deterministic for a fixed seed.  `results` is read
    twice, so it must be a collection, not an iterator."""
    return take(results, sample_positions(aggregate(results), n, seed))


def sample_positions(report: CorpusReport, n: int, seed: int) -> dict:
    """For each statistic type of `report`, in sorted order, the positions
    that `sample` picks among the results of that type, counted in document
    order: all of them when there are at most n, else
    `rng.sample(range(count), n)`, which picks what `rng.sample` would pick
    from a list of those results."""
    if n <= 0:
        raise ValueError("sample size must be positive")
    rng = random.Random(seed)
    picks = {}
    for stype, cell in sorted(report.by_type.items()):
        count = cell["apa"] + cell["non_apa"]
        picks[stype] = range(count) if count <= n else rng.sample(range(count), n)
    return picks


def take(results, picks: dict) -> list[ExtractionResult]:
    """The statistics at `picks`'s positions, type by type in its order, in
    one pass over `results`; only the picked results are kept."""
    kept = {stype: dict.fromkeys(positions) for stype, positions in picks.items()}
    seen = dict.fromkeys(kept, 0)
    for res in results:
        if res.outcome == STATISTIC:
            position = seen[res.statistic_type]
            seen[res.statistic_type] = position + 1
            if position in kept[res.statistic_type]:
                kept[res.statistic_type][position] = res
    return [res for picked in kept.values() for res in picked.values()]


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
    return list(read_corpus(path))


def read_corpus(path):
    """`load_corpus`'s documents one at a time, each read when it is
    needed.  Files are decoded as UTF-8; a leading byte-order mark is
    dropped."""
    path = Path(path)
    if path.is_dir():
        return (Document(doc_id=f.stem, text=_read_text(f)) for f in sorted(path.glob("*.txt")))
    return read_jsonl(path, lambda obj: Document(doc_id=str(obj["doc_id"]), text=obj["text"]))


def _read_text(path):
    try:
        return path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def write_results(results, path):
    with open(path, "w", encoding="utf-8") as fh:
        for _ in written(results, fh):
            pass


def written(results, fh):
    """Each result, after writing it to `fh` as one JSON line, so that
    `rexincl extract` writes --results while `aggregate` tallies."""
    for res in results:
        fh.write(json.dumps(res.to_obj(), sort_keys=True) + "\n")
        yield res
