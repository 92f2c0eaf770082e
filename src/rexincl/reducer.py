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


def load_rules(path) -> list[Rule]:
    """Parse a JSON Lines rule file; rules come back sorted by id."""
    rules = []
    seen = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
            try:
                rule = _rule_from_obj(obj)
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(str(exc), line=lineno) from exc
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
    to the rules it includes, and the included pairs that depend on an
    approximate normalization.

    All rules of the group share one partition alphabet, so each rule's
    completed DFA, its complement and its character set are built once and
    reused across all of its pairs.
    """
    sigma = automata.partition_classes(
        set().union(*(compiled[i].nfa.classes for i in ids)))
    dfas, chars = {}, {}
    for i in ids:
        dfas[i] = automata.complete(automata.powerset(compiled[i].nfa, sigma), sigma)
        chars[i] = compiled[i].nfa.chars()
    includes, flagged = {}, set()
    for r1 in ids:
        sup = automata.complement(dfas[r1])
        includes[r1] = []
        for r2 in ids:
            # The Σ gate is a necessary condition, cheaper than the product.
            if r2 == r1 or not chars[r2] <= chars[r1]:
                continue
            if automata.inclusion(sup, dfas[r2]).included:
                includes[r1].append(r2)
                if compiled[r1].approximate or compiled[r2].approximate:
                    flagged.add((r1, r2))
    return includes, flagged


def compute_inclusions(rules, jobs: int = 1, strict: bool = False) -> InclusionReport:
    """Run the pairwise inclusion procedure over a rule set.

    With `strict`, inclusions involving approximate normalizations are
    treated as non-inclusions.  `jobs` is accepted for compatibility and
    ignored: the decision runs in this process.
    """
    report = InclusionReport()
    compiled, skipped = _compile_rules(rules)
    report.skipped = skipped

    groups = {}
    for rule in rules:
        if rule.id in compiled:
            groups.setdefault(rule.polarity, []).append(rule.id)

    raw_includes = {}
    flagged_pairs = set()
    for _, ids in sorted(groups.items()):
        includes, flagged = _includes_in_group(ids, compiled)
        raw_includes.update(includes)
        flagged_pairs |= flagged

    if strict:
        raw_includes = {
            r1: [r2 for r2 in inc if (r1, r2) not in flagged_pairs]
            for r1, inc in raw_includes.items()
        }
        flagged_pairs = set()

    all_ids = [r.id for r in rules]
    report.includes = {i: sorted(raw_includes.get(i, [])) for i in all_ids}
    report.flagged = flagged_pairs
    report.included_by_count = {
        i: sum(1 for inc in raw_includes.values() if i in inc) for i in all_ids
    }

    includes_sets = {i: set(v) for i, v in report.includes.items()}

    def mutual(a, b):
        return b in includes_sets[a] and a in includes_sets[b]

    # Equivalence classes: connected components of mutual inclusion.
    assigned = {}
    for i in all_ids:
        if i in assigned:
            continue
        component = {i}
        todo = [i]
        while todo:
            a = todo.pop()
            for b in all_ids:
                if b not in component and mutual(a, b):
                    component.add(b)
                    todo.append(b)
        for m in component:
            assigned[m] = component
        if len(component) > 1:
            report.equivalence_classes.append(sorted(component))

    for rule in rules:
        i = rule.id
        strict_includers = [
            s for s in all_ids
            if i in includes_sets[s] and s not in includes_sets[i]
        ]
        clean_strict = [s for s in strict_includers if (s, i) not in flagged_pairs]
        equiv_lower = [s for s in assigned[i] if s < i]
        clean_equiv = [
            s for s in equiv_lower
            if (s, i) not in flagged_pairs and (i, s) not in flagged_pairs
        ]
        if clean_strict or clean_equiv:
            report.removed.add(i)
        elif strict_includers or equiv_lower:
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
