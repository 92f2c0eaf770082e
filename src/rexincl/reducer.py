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

from . import automata, frontend
from .errors import DuplicateId, FormatError, PatternSyntaxError, UnsupportedFeature
from .frontend import RawPattern, host_compile

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
        if not isinstance(self.id, int) or isinstance(self.id, bool):
            raise TypeError(f"id must be an int, not {self.id!r}")
        if self.id < 0:
            raise ValueError("rule id must be non-negative")
        if self.polarity not in ("positive", "negative"):
            raise ValueError(f"bad polarity {self.polarity!r}")
        if self.subrules and self.polarity != "positive":
            raise ValueError("subrules only allowed on positive rules")
        if self.statistic_type is not None and not isinstance(self.statistic_type, str):
            raise TypeError(f"statistic_type must be a str or None, not {self.statistic_type!r}")
        if self.apa is not None and not isinstance(self.apa, bool):
            raise TypeError(f"apa must be a bool or None, not {self.apa!r}")
        for name, _ in self.subrules:
            if not isinstance(name, str):
                raise TypeError(f"subrule name must be a str, not {name!r}")


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
    order, read one line at a time; a leading byte-order mark, which Windows
    editors write, is dropped.  Invalid UTF-8 or JSON, a line that is not a
    JSON object, and a KeyError (a missing field), TypeError or ValueError
    from `build`, raise FormatError with the line number."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8-sig").strip()
                if not line:
                    continue
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise FormatError("not a JSON object", line=lineno)
                item = build(obj)
            except json.JSONDecodeError as exc:
                raise FormatError(f"invalid JSON: {exc}", line=lineno) from exc
            except KeyError as exc:
                raise FormatError(f"missing field {exc}", line=lineno) from exc
            except (TypeError, ValueError) as exc:
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
    subrules = [] if obj.get("subrules") is None else obj["subrules"]
    if not (isinstance(subrules, list) and all(isinstance(sr, dict) for sr in subrules)):
        raise TypeError("subrules must be a list of objects with a name and a pattern")
    subrules = tuple((sr["name"], RawPattern(sr["pattern"])) for sr in subrules)
    return Rule(
        id=obj["id"],
        pattern=RawPattern(obj["pattern"]),
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
    """Each rule id mapped to its compiled pattern, or to the reason it is
    skipped.  A rule is skipped when its pattern cannot be compiled, or when
    re rejects one of its subrules, since the extractor then never runs it.
    Each distinct pattern and subrule text is compiled once, and every rule
    with that text shares the result."""
    bad_subrules = {}  # subrule text -> the reason re rejects it
    for sub in {sub.text: sub for rule in rules for _, sub in rule.subrules}.values():
        try:
            host_compile(sub)
        except PatternSyntaxError as exc:
            bad_subrules[sub.text] = f"{type(exc).__name__}: {exc}"
    by_text = {}  # text -> CompiledPattern, or the reason it failed
    compiled = {}
    skipped = {}
    for rule in rules:
        text = rule.pattern.text
        if text not in by_text:
            try:
                by_text[text] = automata.compile_pattern(rule.pattern)
            except (PatternSyntaxError, UnsupportedFeature) as exc:
                by_text[text] = f"{type(exc).__name__}: {exc}"
        result = by_text[text]
        if bad_subrules and not isinstance(result, str):
            result = next((bad_subrules[sub.text] for _, sub in rule.subrules
                           if sub.text in bad_subrules), result)
        if isinstance(result, str):
            skipped[rule.id] = result
        else:
            compiled[rule.id] = result
    return compiled, skipped


def _includes_in_group(ids, compiled):
    """The pairwise procedure over one polarity group: every rule r1 mapped
    to the rules it includes.

    Rules that share a pattern text share one compiled pattern; they include
    each other, and everything else is decided once per distinct pattern.
    All patterns of the group share one partition alphabet, and each one's
    `LazyDfa` over it, made for this call, serves every pair it is on, as
    superset or as candidate: a row is built the first time any walk
    reaches its state, and reused by every later walk.  A pattern's
    characters are the blocks of its useful positions' labels (`chars`),
    and a pair is searched only when the candidate's lie inside the
    superset's: the Σ gate that `rexincl check` prints, tested pair by pair.
    Every verdict is an exact language inclusion, so a pair that known
    verdicts already decide through a third pattern k is inferred instead of
    searched.
    """
    shared = {}  # id(pattern) -> (pattern, the ids of the rules that use it)
    for rule_id in ids:
        pattern = compiled[rule_id]
        shared.setdefault(id(pattern), (pattern, []))[1].append(rule_id)
    patterns = [pattern for pattern, _ in shared.values()]
    members = [rule_ids for _, rule_ids in shared.values()]
    dfas = automata.lazy_dfas(patterns)
    n = len(patterns)
    chars = [dfa.chars for dfa in dfas]
    # Bitsets over positions: bit j of inc[i] (and bit i of sup[j]) when
    # i ⊇ j is known; ninc and nsup likewise when i ⊉ j is known.
    inc, sup, ninc, nsup = ([0] * n for _ in range(4))
    for i in range(n):
        for j in range(n):
            # The Σ gate, a necessary condition cheaper than the product:
            # j uses no block outside i's characters.
            if j == i or chars[j] & ~chars[i]:
                continue
            if inc[i] & sup[j]:  # i ⊇ k ⊇ j
                included = True
            elif sup[i] & nsup[j] or inc[j] & ninc[i]:  # k ⊇ i, k ⊉ j; or j ⊇ k, i ⊉ k
                included = False
            else:
                included = automata._included(dfas[i], dfas[j])
            if included:
                inc[i] |= 1 << j
                sup[j] |= 1 << i
            else:
                ninc[i] |= 1 << j
                nsup[j] |= 1 << i
    includes = {}
    for i in range(n):
        below = [rule_id for j in frontend.members(inc[i]) for rule_id in members[j]]
        for rule_id in members[i]:
            includes[rule_id] = below + [r for r in members[i] if r != rule_id]
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
