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
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from .errors import FormatError, OutcomeMismatch
from .reducer import Rule, read_jsonl

log = logging.getLogger(__name__)

SENTENCE_SPLIT = re.compile(r"\.\s?[A-Z]")
HAS_DIGIT = re.compile(r"\d")

STATISTIC = "statistic"
REJECTED = "rejected"
UNMATCHED = "unmatched"

ANOVA_NO_R = "anova-no-r"


@dataclass(frozen=True)
class Document:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    index: int
    text: str


@dataclass(frozen=True)
class ExtractionResult:
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
    """Split at period + optional single whitespace + capital letter, then
    drop every sentence without a digit.  Line breaks are flattened first."""
    text = re.sub(r"\s*\n\s*", " ", doc.text).strip()
    pieces = []
    start = 0
    for m in SENTENCE_SPLIT.finditer(text):
        pieces.append(text[start:m.start() + 1])  # period ends the sentence
        start = m.end() - 1  # the capital letter starts the next one
    pieces.append(text[start:])
    sentences = []
    for piece in pieces:
        piece = piece.strip()
        if piece and HAS_DIGIT.search(piece):
            sentences.append(Sentence(doc_id=doc.doc_id, index=len(sentences), text=piece))
    return sentences


class CompiledRuleSet:
    """Rules compiled for matching, split by polarity, id order preserved.
    Rules whose pattern the host engine rejects are logged and skipped."""

    def __init__(self, rules, precedence: str = "positive-first"):
        if precedence not in ("positive-first", "negative-first"):
            raise ValueError(f"bad precedence {precedence!r}")
        self.precedence = precedence
        self.positive = []
        self.negative = []
        for rule in sorted(rules, key=lambda r: r.id):
            try:
                rx = re.compile(rule.pattern.text)
                subs = [(name, re.compile(p.text)) for name, p in rule.subrules]
            except re.error as exc:
                log.warning("skipping rule %d: %s", rule.id, exc)
                continue
            (self.positive if rule.polarity == "positive" else self.negative).append(
                (rule, rx, subs)
            )


def classify(sentence: Sentence, rules: CompiledRuleSet | list) -> ExtractionResult:
    """First-match-wins within a polarity, positive rules first by default."""
    if not isinstance(rules, CompiledRuleSet):
        rules = CompiledRuleSet(rules)
    ordered = (rules.positive, rules.negative)
    if rules.precedence == "negative-first":
        ordered = (rules.negative, rules.positive)
    for group in ordered:
        for rule, rx, subs in group:
            m = rx.search(sentence.text)
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


def run_corpus(corpus, rules, precedence: str = "positive-first"):
    """Classify every digit-bearing sentence of every document.

    Returns (CorpusReport, list of ExtractionResult in document order).
    """
    compiled = rules if isinstance(rules, CompiledRuleSet) else CompiledRuleSet(rules, precedence)
    results = []
    for doc in corpus:
        try:
            sentences = split_sentences(doc)
        except Exception:  # unreadable document: skip with warning
            log.warning("skipping unreadable document %r", getattr(doc, "doc_id", doc))
            continue
        for sentence in sentences:
            results.append(classify(sentence, compiled))
    return aggregate(results), results


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


def bench(corpus, full_rules, reduced_rules, repeats: int = 5,
          precedence: str = "positive-first") -> BenchReport:
    """Wall-clock comparison of the full and reduced rule sets.

    Classification outcomes are asserted identical for every sentence first;
    a mismatch signals an unsound reduction.  One warm-up run per rule set is
    discarded, then `repeats` timed runs are averaged (monotonic clock).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    full = CompiledRuleSet(full_rules, precedence)
    reduced = CompiledRuleSet(reduced_rules, precedence)
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
