"""Rule-set loading, pairwise inclusion computation, and reduction.

Rules are compared only within their own polarity group.  A rule is removed
when another rule strictly includes it; mutually-inclusive (equivalent)
groups keep their lowest-id member.  Inclusions whose normalization stripped
features on either side are never allowed to silently remove a rule — they
land in a needs-review list instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import automata
from .errors import DuplicateId, FormatError, PatternSyntaxError, UnsupportedFeature
from .frontend import RawPattern

HISTOGRAM_BUCKET = 100  # rule-id bucket width for the removal histogram


@dataclass(frozen=True)
class Rule:
    id: int
    pattern: RawPattern
    polarity: str  # "positive" | "negative"
    statistic_type: str | None = None
    apa: bool | None = None
    subrules: tuple = ()  # (name, RawPattern) pairs, positive rules only

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("rule id must be non-negative")
        if self.polarity not in ("positive", "negative"):
            raise ValueError(f"bad polarity {self.polarity!r}")
        if self.subrules and self.polarity != "positive":
            raise ValueError("subrules only allowed on positive rules")


@dataclass
class InclusionReport:
    includes: dict = field(default_factory=dict)  # id -> sorted ids it includes
    included_by_count: dict = field(default_factory=dict)
    removed: set = field(default_factory=set)
    survivors: set = field(default_factory=set)
    equivalence_classes: list = field(default_factory=list)
    flagged: set = field(default_factory=set)  # (includer, included) approximate pairs
    needs_review: set = field(default_factory=set)  # removals blocked pending manual check
    histogram_by_id_bucket: dict = field(default_factory=dict)
    skipped: dict = field(default_factory=dict)  # id -> reason, rules excluded from comparison

    def to_json(self) -> str:
        doc = {
            "includes": {str(k): sorted(v) for k, v in self.includes.items()},
            "included_by_count": {str(k): v for k, v in self.included_by_count.items()},
            "removed": sorted(self.removed),
            "survivors": sorted(self.survivors),
            "equivalence_classes": sorted(sorted(c) for c in self.equivalence_classes),
            "flagged": sorted(list(p) for p in self.flagged),
            "needs_review": sorted(self.needs_review),
            "histogram_by_id_bucket": {str(k): v for k, v in sorted(self.histogram_by_id_bucket.items())},
            "skipped": {str(k): v for k, v in self.skipped.items()},
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def read_jsonl(path, build):
    """`build(obj)` for every non-blank line of a UTF-8 JSON Lines file, in
    order.  Invalid UTF-8 or JSON, and a KeyError, TypeError or ValueError
    from `build`, raise FormatError with the line number."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                item = build(json.loads(line))
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(str(exc), line=lineno) from exc
            yield item


def load_rules(path) -> list[Rule]:
    """Parse a JSON Lines rule file; rules come back sorted by id."""
    rules = []
    seen = set()
    for rule in read_jsonl(path, _rule_from_obj):
        if rule.id in seen:
            raise DuplicateId(f"duplicate rule id {rule.id}")
        seen.add(rule.id)
        rules.append(rule)
    rules.sort(key=lambda r: r.id)
    return rules


def _rule_from_obj(obj) -> Rule:
    subrules = tuple(
        (sr["name"], RawPattern(sr["pattern"])) for sr in obj.get("subrules") or ()
    )
    return Rule(
        id=int(obj["id"]),
        pattern=RawPattern(obj["pattern"], source_id=int(obj["id"])),
        polarity=obj["polarity"],
        statistic_type=obj.get("statistic_type"),
        apa=obj.get("apa"),
        subrules=subrules,
    )


def rule_to_obj(rule: Rule) -> dict:
    return {
        "id": rule.id,
        "pattern": rule.pattern.text,
        "polarity": rule.polarity,
        "statistic_type": rule.statistic_type,
        "apa": rule.apa,
        "subrules": [{"name": n, "pattern": p.text} for n, p in rule.subrules],
    }


def save_rules(rules, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rule in rules:
            fh.write(json.dumps(rule_to_obj(rule), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Pairwise inclusion
# ---------------------------------------------------------------------------

def _compile_rules(rules):
    compiled = {}
    skipped = {}
    for rule in rules:
        try:
            compiled[rule.id] = automata.compile_pattern(rule.pattern)
        except (PatternSyntaxError, UnsupportedFeature) as exc:
            skipped[rule.id] = f"{type(exc).__name__}: {exc}"
    return compiled, skipped


def _includes_in_group(ids, compiled):
    """The pairwise procedure over one polarity group: every rule r1 mapped
    to the rules it includes.

    All rules of the group share one partition alphabet, so each rule's
    completed DFA, its complement and its character set are built once and
    reused across all of its pairs.
    """
    dfas = dict(zip(ids, automata.completed_dfas([compiled[i] for i in ids])))
    chars = {i: compiled[i].nfa.chars() for i in ids}
    includes = {}
    for r1 in ids:
        sup = automata.complement(dfas[r1])
        includes[r1] = []
        for r2 in ids:
            # The Σ gate is a necessary condition, cheaper than the product.
            if r2 == r1 or not chars[r2] <= chars[r1]:
                continue
            if automata.inclusion(sup, dfas[r2]).included:
                includes[r1].append(r2)
    return includes


def compute_inclusions(rules, jobs: int = 1, strict: bool = False) -> InclusionReport:
    """Run the pairwise inclusion procedure over a rule set and derive the
    report from the inverted relation: who includes each rule.

    With `strict`, approximate rules are left out of the comparison.  `jobs`
    is accepted for compatibility and ignored: the decision runs in this
    process.
    """
    report = InclusionReport()
    compiled, report.skipped = _compile_rules(rules)
    approximate = {i for i, c in compiled.items() if c.approximate}

    groups = {}
    for rule in rules:
        if rule.id in compiled and not (strict and rule.id in approximate):
            groups.setdefault(rule.polarity, []).append(rule.id)
    includes = {}
    for _, ids in sorted(groups.items()):
        includes.update(_includes_in_group(ids, compiled))

    all_ids = [r.id for r in rules]
    report.includes = {i: sorted(includes.get(i, [])) for i in all_ids}
    report.flagged = {(a, b) for a, inc in includes.items() for b in inc
                      if a in approximate or b in approximate}
    includers = {i: [] for i in all_ids}
    for a, inc in includes.items():
        for b in inc:
            includers[b].append(a)
    report.included_by_count = {i: len(includers[i]) for i in all_ids}

    # Decisions are exact, so mutual inclusion is an equivalence.  A rule is
    # covered by an includer outside its class or by a lower id inside it,
    # and removed when one cover's pair is unflagged: neither side approximate.
    in_a_class = set()
    for i in all_ids:
        equivalent = set(includers[i]).intersection(includes.get(i, ()))
        if equivalent and i not in in_a_class:
            report.equivalence_classes.append(sorted(equivalent | {i}))
            in_a_class |= equivalent
        covers = [s for s in includers[i] if s not in equivalent or s < i]
        if covers and i not in approximate and not approximate.issuperset(covers):
            report.removed.add(i)
        elif covers:
            report.needs_review.add(i)

    report.survivors = set(all_ids) - report.removed
    histogram = {}
    for i in report.removed:
        bucket = (i // HISTOGRAM_BUCKET) * HISTOGRAM_BUCKET
        histogram[bucket] = histogram.get(bucket, 0) + 1
    report.histogram_by_id_bucket = histogram
    return report


def reduce(report: InclusionReport, rules) -> list[Rule]:
    """Survivors of the reduction, in id order."""
    return [r for r in sorted(rules, key=lambda r: r.id) if r.id in report.survivors]


# ---------------------------------------------------------------------------
# Pattern-idiom analysis
# ---------------------------------------------------------------------------

import re as _re

_IDIOMS = {
    # number with an optional decimal part, e.g. \d(\.\d+)?
    "optional-decimal": _re.compile(r"\(\\\.\\d\+?\)\?"),
    # optional whitespace on both sides of a short symbol, e.g. \s?=\s?
    "optional-spacing": _re.compile(r"\\s\?.{1,3}\\s\?"),
    # same letter in both cases, e.g. [mM]
    "case-pair": _re.compile(r"\[([a-zA-Z])([a-zA-Z])\]"),
    # a word of letters in front of or after a number, e.g. [a-zA-Z]{3,}
    "word-context": _re.compile(r"\[a-zA-Z\]\{\d+,\d*\}"),
    # SI-prefix character class before a unit letter, e.g. [µkmndc...]?m
    "si-prefix": _re.compile(r"\[[µkmndcpfazyhMGTPEZY]{4,}\]\??[a-zA-Z]"),
}


def analyze_patterns(rules) -> dict:
    """Count known rule idioms across a rule set (one count per rule/tag)."""
    counts = {tag: 0 for tag in _IDIOMS}
    for rule in rules:
        text = rule.pattern.text
        for tag, rx in _IDIOMS.items():
            if tag == "case-pair":
                hit = any(
                    a.lower() == b.lower() and a != b
                    for a, b in rx.findall(text)
                )
            else:
                hit = rx.search(text) is not None
            if hit:
                counts[tag] += 1
    return counts


def rule_tags(rule: Rule) -> set:
    """Idiom tags for a single rule (used by tests and the CLI)."""
    return {tag for tag, n in analyze_patterns([rule]).items() if n}
