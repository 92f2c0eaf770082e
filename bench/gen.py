"""Seeded input generators: an APA-style rule set, a batch of inclusion
queries and a synthetic corpus.

Every rule is a *template* of slots.  A slot lists variants from narrow to
wide, and each variant's language includes the one before it (``t`` then
``[tT]``; `` = `` then ``\\s?=\\s?`` then ``\\s*=\\s*``).  That structure gives
the benchmark answers it can trust without asking the program:

* two rules of one family whose slots are all no wider than the other's are
  included in it (slot-wise inclusion of a concatenation);
* a slot that is wider in the candidate yields a distinguishing string,
  built from that slot's "extra" sample and confirmed with the host ``re``;
* every sentence drawn from a rule has a known outcome.

The statistic type of a positive rule is the statistic its head names (t, F,
r, z, chi-square), so no rule of one type can include a rule of another.
The idioms are those of the repository's extraction fixture and of
``reducer._IDIOMS``: ``\\s?=\\s?``, optional decimals, case pairs,
``\\d{1,2}``, table and figure references, a word of letters before a year,
and an SI-prefix class before a unit.
"""

from __future__ import annotations

import json
import math
import re

NBSP = "\u00a0"
# What ``\s`` samples: mostly a plain space, sometimes a tab or a no-break
# space (common in text extracted from PDFs).
_WS = " " * 8 + "\t" + NBSP


def _digits(lo, hi):
    return lambda rng: "".join(rng.choice("0123456789") for _ in range(rng.randint(lo, hi)))


def _const(text):
    return lambda rng: text


def _pick(*texts):
    return lambda rng: rng.choice(texts)


def _join(*parts):
    return lambda rng: "".join(p(rng) for p in parts)


def _ws_opt(rng):
    return rng.choice(("", rng.choice(_WS)))


def _ws_star(rng):
    return "".join(rng.choice(_WS) for _ in range(rng.randint(0, 2)))


class V:
    """One slot variant: its pattern, a sampler of strings it matches and,
    for every variant but the narrowest, a sampler of strings it matches
    that the next narrower variant does not."""

    __slots__ = ("pattern", "sample", "extra")

    def __init__(self, pattern, sample, extra=None):
        self.pattern = pattern
        self.sample = sample
        self.extra = extra


def lit(pattern, text):
    return (V(pattern, _const(text)),)


LPAREN, RPAREN, COMMA = lit(r"\(", "("), lit(r"\)", ")"), lit(",", ",")

HEAD_T = (V("t", _const("t")), V("[tT]", _pick("t", "T"), _const("T")))
HEAD_R = (V("r", _const("r")), V("[rR]", _pick("r", "R"), _const("R")))
HEAD_Z = (V("z", _const("z")), V("[zZ]", _pick("z", "Z"), _const("Z")))
HEAD_CHI = (V("χ2", _const("χ2")), V("χ[2²]", _pick("χ2", "χ²"), _const("χ²")))
DF = (
    V(r"\d{1,2}", _digits(1, 2)),
    V(r"\d{1,3}", _digits(1, 3), _digits(3, 3)),
    V(r"\d+", _digits(1, 4), _digits(4, 4)),
)
SPACE = (
    V(" ", _const(" ")),
    V(r"\s?", _ws_opt, _const("")),
    V(r"\s*", _ws_star, _const("  ")),
)
EQ = (
    V(" = ", _const(" = ")),
    V(r"\s?=\s?", _join(_ws_opt, _const("="), _ws_opt), _const("=")),
    V(r"\s*=\s*", _join(_ws_star, _const("="), _ws_star), _const(" =  ")),
)
SIGN = (V("", _const("")), V("-?", _pick("", "-"), _const("-")))
VALUE = (
    V(r"\d+\.\d{2}", _join(_digits(1, 2), _const("."), _digits(2, 2))),
    V(r"\d+\.\d+", _join(_digits(1, 2), _const("."), _digits(1, 3)),
      _join(_digits(1, 2), _const("."), _digits(3, 3))),
    V(r"\d+(\.\d+)?", _join(_digits(1, 2), _pick("", ".5", ".25")), _digits(1, 2)),
)
R_VALUE = (
    V(r"\.\d{2}", _join(_const("."), _digits(2, 2))),
    V(r"\.\d+", _join(_const("."), _digits(1, 3)), _join(_const("."), _digits(3, 3))),
    V(r"0?\.\d+", _join(_pick("", "0"), _const("."), _digits(1, 3)),
      _join(_const("0."), _digits(2, 2))),
)
SEP = (V(", ", _const(", ")), V(r",\s?", _join(_const(","), _ws_opt), _const(",")))
P_LETTER = (V("p", _const("p")), V("[pP]", _pick("p", "P"), _const("P")))
P_CMP = (
    V(" < ", _const(" < ")),
    V(r"\s?<\s?", _join(_ws_opt, _const("<"), _ws_opt), _const("<")),
    V(r"\s?[<>=]\s?", _join(_ws_opt, _pick("<", ">", "="), _ws_opt), _const(" > ")),
)
P_VALUE = (
    V(r"\.\d{2,3}", _join(_const("."), _digits(2, 3))),
    V(r"\.\d+", _join(_const("."), _digits(1, 4)), _const(".0001")),
    V(r"0?\.\d+", _join(_pick("", "0"), _const("."), _digits(1, 3)), _const("0.05")),
)
P_PART = (SEP, P_LETTER, P_CMP, P_VALUE)

REF_NUMBER = (
    V(r"\d", _digits(1, 1)),
    V(r"\d{1,2}", _digits(1, 2), _digits(2, 2)),
    V(r"\d+", _digits(1, 3), _digits(3, 3)),
)
SPACE_OPT = SPACE[:2]
NAMES = ("Smith", "Garcia", "Nguyen", "Miller", "Okafor", "Lindqvist")

_STAT = r"=\s*(-?\d+(?:\.\d+)?)"
_P = r"[<>=]\s*(0?\.\d+)"


class Family:
    """A rule template with the metadata every rule built from it shares."""

    def __init__(self, name, polarity, slots, statistic_type=None, apa=None,
                 subrules=(), carriers=()):
        self.name = name
        self.polarity = polarity
        self.slots = slots
        self.statistic_type = statistic_type
        self.apa = apa
        self.subrules = subrules
        self.carriers = carriers

    def pattern(self, levels):
        return "".join(slot[lv].pattern for slot, lv in zip(self.slots, levels))

    def sample(self, levels, rng):
        return "".join(slot[lv].sample(rng) for slot, lv in zip(self.slots, levels))

    def random_levels(self, rng):
        return tuple(rng.randrange(len(slot)) for slot in self.slots)

    def witness(self, sup_levels, cand_levels, rng):
        """A string of the candidate's language built to fall outside the
        superset's: the extra sample at every slot where the candidate is
        wider.  None when the candidate is nowhere wider."""
        if all(c <= s for c, s in zip(cand_levels, sup_levels)):
            return None
        parts = []
        for slot, s, c in zip(self.slots, sup_levels, cand_levels):
            parts.append(slot[c].extra(rng) if c > s else slot[c].sample(rng))
        return "".join(parts).replace(NBSP, " ")


_STAT_LEADS = (
    "The effect of condition was reliable, {}.",
    "Scores differed between the groups, {}.",
    "Accuracy improved after training, {}.",
    "The interaction was significant, {}.",
    "Recall varied with memory load, {}.",
)
_REF_LEADS = ("See {} for details.", "The full model appears in {}.",
              "Means are given in {} below.")

POSITIVE = (
    Family("t-apa", "positive", (HEAD_T, LPAREN, DF, RPAREN, EQ, SIGN, VALUE) + P_PART,
           "t-test", True,
           (("df", r"\((\d+)\)"), ("statistic", _STAT), ("p_value", _P)), _STAT_LEADS),
    Family("t-plain", "positive", (HEAD_T, LPAREN, DF, RPAREN, EQ, SIGN, VALUE),
           "t-test", False, (("df", r"\((\d+)\)"), ("statistic", _STAT)), _STAT_LEADS),
    Family("t-value", "positive", (lit("t-value of ", "t-value of "), VALUE),
           "t-test", False, (("statistic", r"of (\d+(?:\.\d+)?)"),),
           ("The pilot reported a {} without degrees of freedom.",)),
    Family("f-apa", "positive",
           (lit("F", "F"), LPAREN, DF, COMMA, SPACE, DF, RPAREN, EQ, VALUE) + P_PART,
           "anova", True,
           (("df", r"\((\d+,\s*\d+)\)"), ("statistic", _STAT), ("p_value", _P)), _STAT_LEADS),
    Family("f-plain", "positive", (lit("F", "F"), LPAREN, DF, COMMA, SPACE, DF, RPAREN, EQ, VALUE),
           "anova", False, (("df", r"\((\d+,\s*\d+)\)"), ("statistic", _STAT)), _STAT_LEADS),
    Family("r-apa", "positive", (HEAD_R, EQ, SIGN, R_VALUE) + P_PART, "pearson", True,
           (("statistic", r"=\s*(-?0?\.\d+)"), ("p_value", _P)), _STAT_LEADS),
    Family("r-plain", "positive", (HEAD_R, EQ, SIGN, R_VALUE), "pearson", False,
           (("statistic", r"=\s*(-?0?\.\d+)"),), _STAT_LEADS),
    Family("z-apa", "positive", (HEAD_Z, EQ, SIGN, VALUE) + P_PART, "z-test", True,
           (("statistic", _STAT), ("p_value", _P)), _STAT_LEADS),
    Family("chi-apa", "positive",
           (HEAD_CHI, LPAREN, DF, COMMA, SPACE, lit("N", "N"), EQ, DF, RPAREN, EQ, VALUE) + P_PART,
           "chi-square", True,
           (("df", r"\((\d+)"), ("statistic", r"\)\s*=\s*(\d+(?:\.\d+)?)"), ("p_value", _P)),
           _STAT_LEADS),
)

NEGATIVE = (
    Family("table", "negative",
           ((V("Table", _const("Table")), V("[Tt]able", _pick("Table", "table"), _const("table"))),
            SPACE_OPT, REF_NUMBER), carriers=_REF_LEADS),
    Family("figure", "negative",
           ((V("Figure", _const("Figure")),
             V("[Ff]igure", _pick("Figure", "figure"), _const("figure")),
             V(r"[Ff]ig(ure|\.)", _pick("Figure", "Fig.", "fig."), _const("Fig."))),
            SPACE_OPT, REF_NUMBER), carriers=_REF_LEADS),
    Family("section", "negative",
           ((V("Section", _const("Section")),
             V("[Ss]ection", _pick("Section", "section"), _const("section"))),
            lit(" ", " "),
            (V(r"\d+", _digits(1, 2)),
             V(r"\d+(\.\d+)?", _join(_digits(1, 2), _pick("", ".1", ".2")), _const("3.2")))),
           carriers=_REF_LEADS),
    Family("citation", "negative",
           ((V("[A-Z][a-z]{2,}", _pick(*NAMES)),
             V("[A-Z][a-zA-Z]{2,}", _pick(*NAMES, "McDonald"), _const("McDonald"))),
            lit(r" et al\.", " et al."),
            (V(",", _const(",")), V(",?", _pick(",", ""), _const(""))),
            lit(" ", " "),
            (V(r"(19|20)\d{2}", _join(_pick("19", "20"), _digits(2, 2))),
             V(r"\d{4}", _digits(4, 4), _join(_const("18"), _digits(2, 2))))),
           carriers=("This agrees with {}.", "The task followed {}.")),
    Family("unit", "negative",
           ((V(r"\d+", _digits(1, 3)),
             V(r"\d+(\.\d+)?", _join(_digits(1, 3), _pick("", ".5")), _const("2.5"))),
            SPACE_OPT,
            (V("[µmnk]s", _pick("ms", "µs", "ns", "ks")),
             V("[µmnk]?s", _pick("ms", "µs", "s"), _const("s")))),
           carriers=("Each stimulus was shown for {}.", "The interval lasted {} on average.")),
)

FAMILIES = POSITIVE + NEGATIVE

# Digit-bearing sentences that no rule matches.
FILLER = (
    "We recruited {} participants in total.",
    "The survey had {} items.",
    "Data collection ran for {} weeks.",
    "Participants earned {} euros.",
    "The panel included {} raters.",
    "Each block had {} trials.",
    "A total of {} responses were excluded.",
    "The questionnaire took about {} minutes.",
)


class RuleSpec:
    """A generated rule and the template it came from."""

    __slots__ = ("id", "family", "levels", "pattern")

    def __init__(self, rule_id, family, levels):
        self.id = rule_id
        self.family = family
        self.levels = levels
        self.pattern = family.pattern(levels)

    def to_obj(self):
        fam = self.family
        return {
            "id": self.id,
            "pattern": self.pattern,
            "polarity": fam.polarity,
            "statistic_type": fam.statistic_type,
            "apa": fam.apa,
            "subrules": [{"name": n, "pattern": p} for n, p in fam.subrules],
        }


def _stratified(rng, items, n):
    """`n` items in seeded order, each of `items` used n // len(items) or one
    more times, so that the mix, and with it the cost, varies little between
    seeds."""
    out = [items[i % len(items)] for i in range(n)]
    rng.shuffle(out)
    return out


def _split(n, parts):
    """n as `parts` near-equal whole numbers, larger first."""
    return [n // parts + (i < n % parts) for i in range(parts)]


def rule_set(rng, per_polarity):
    """`per_polarity` rules of each polarity with ids shuffled across
    polarities.  Families are stratified, and so is each slot's width within
    a family: every width of a slot is used equally often, in seeded order."""
    ids = list(range(2 * per_polarity))
    rng.shuffle(ids)
    specs = []
    for families in (POSITIVE, NEGATIVE):
        for fam, k in zip(families, _split(per_polarity, len(families))):
            widths = [_stratified(rng, range(len(slot)), k) for slot in fam.slots]
            for levels in zip(*widths):
                specs.append(RuleSpec(ids.pop(), fam, levels))
    specs.sort(key=lambda s: s.id)
    return specs


def expected_relation(sup, cand, rng):
    """Whether L(cand) ⊆ L(sup), from the construction alone: True, False
    with a host-confirmed witness, or None when the construction cannot tell
    (different families, or a witness the host engine does not confirm)."""
    if sup.family is not cand.family:
        return None, None
    w = sup.family.witness(sup.levels, cand.levels, rng)
    if w is None:
        return True, None
    if re.fullmatch(cand.pattern, w) and not re.fullmatch(sup.pattern, w):
        return False, w
    return None, None


# ---------------------------------------------------------------------------
# Inclusion queries
# ---------------------------------------------------------------------------

_DIGITS = "0123456789"
_LOWEST_BOUND = 20


def _run(pattern, chars, lo, hi=None):
    """A bounded-repetition language: `lo` to `hi` characters (unbounded when
    hi is None) drawn from `chars`.  Membership is decided from this model,
    never with the host engine, which backtracks exponentially on nested
    repetitions such as (a{1,14}){1,14}."""
    return {"pattern": pattern, "chars": chars, "lo": lo, "hi": hi}


def _nested(k):
    j = max(2, math.isqrt(k))  # (a{1,j}){1,j} matches 1 to j*j letters
    return _run("(a{1,%d}){1,%d}" % (j, j), "a", 1, j * j)


REPEAT_KINDS = (
    # name, (superset, candidate) as a function of a bound k <= MAX_REPEAT
    ("digits-upper", lambda k: (_run(r"\d+", _DIGITS, 1), _run(r"\d{1,%d}" % k, _DIGITS, 1, k))),
    ("digits-upper-rev", lambda k: (_run(r"\d{1,%d}" % k, _DIGITS, 1, k), _run(r"\d+", _DIGITS, 1))),
    ("digits-window", lambda k: (_run(r"\d{1,%d}" % k, _DIGITS, 1, k),
                                 _run(r"\d{%d,%d}" % (k // 2, k), _DIGITS, k // 2, k))),
    ("nested", lambda k: (_run("a+", "a", 1), _nested(k))),
    ("nested-rev", lambda k: (_nested(k), _run("a+", "a", 1))),
    ("nested-flat", lambda k: (_run("a{1,%d}" % _nested(k)["hi"], "a", 1, _nested(k)["hi"]),
                               _nested(k))),
)


def _run_inclusion(sup, cand):
    """(included, shortest witness) for two repetition languages."""
    if not set(cand["chars"]) <= set(sup["chars"]):
        return False, cand["chars"][0] * cand["lo"]
    if cand["lo"] < sup["lo"]:
        return False, cand["chars"][0] * cand["lo"]
    if sup["hi"] is not None and (cand["hi"] is None or cand["hi"] > sup["hi"]):
        return False, cand["chars"][0] * (sup["hi"] + 1)
    return True, None


def matches(query, side, text):
    """Whether `text` is in the language of the query's `side` ("superset"
    or "candidate"), decided independently of the program under test."""
    runs = query.get("runs")
    if runs is None:
        return re.fullmatch(query[side], text) is not None
    run = runs[0] if side == "superset" else runs[1]
    return (all(c in run["chars"] for c in text) and run["lo"] <= len(text)
            and (run["hi"] is None or len(text) <= run["hi"]))


def check_batch(rng, size, repeat_share, max_repeat):
    """`size` independent queries with their expected verdict and, when
    negative, a distinguishing string.

    A fixed share are bounded-repetition pairs.  For each kind their bounds
    form a fixed ladder from _LOWEST_BOUND up to max_repeat, so that the tail of the latency
    distribution and the peak memory have the same shape for every seed; the
    seed places them in the batch.  The rest are APA-style pairs whose
    superset is a statistic rule, with its family and both sides' slot
    widths stratified: nine in ten within one family, half of those included
    by construction, and one in ten against a rule of another family.
    """
    n_repeat = round(size * repeat_share)
    queries = []
    per_kind = -(-n_repeat // len(REPEAT_KINDS)) if n_repeat else 0
    for name, make in REPEAT_KINDS:
        for i in range(per_kind):
            step = (i + 1) / per_kind * (max_repeat - _LOWEST_BOUND)
            sup, cand = make(_LOWEST_BOUND + round(step))
            included, witness = _run_inclusion(sup, cand)
            queries.append({"kind": name, "superset": sup["pattern"],
                            "candidate": cand["pattern"], "included": included,
                            "witness": witness, "runs": [sup, cand]})
    queries = queries[:n_repeat]
    families = _stratified(rng, POSITIVE, size - len(queries))
    draws = {fam.name: _widths(rng, fam, families.count(fam)) for fam in POSITIVE}
    for j, fam in enumerate(families):
        kind = "cross" if j % 10 == 9 else ("included", "excluded")[j % 2]
        q = _apa_query(rng, fam, kind, *draws[fam.name].pop())
        while q is None:
            q = _apa_query(rng, fam, kind, fam.random_levels(rng), fam.random_levels(rng),
                           rng.choice(_wide_slots(fam)))
        queries.append(q)
    rng.shuffle(queries)
    for q in queries:
        w = q["witness"]
        if w is not None and not (matches(q, "candidate", w) and not matches(q, "superset", w)):
            raise AssertionError(f"generator produced a wrong witness for {q}")
    return queries


def _wide_slots(fam):
    return [i for i, slot in enumerate(fam.slots) if len(slot) > 1]


def _widths(rng, fam, k):
    """`k` draws of (superset widths, candidate widths, slot to widen), each
    column stratified over its range."""
    def column(n):
        return _stratified(rng, range(n), k)
    sup = zip(*(column(len(slot)) for slot in fam.slots))
    cand = zip(*(column(len(slot)) for slot in fam.slots))
    return list(zip(sup, cand, _stratified(rng, _wide_slots(fam), k)))


def _apa_query(rng, fam, kind, sup_levels, cand_levels, slot):
    """A query whose superset is `fam` at about `sup_levels`, or None when
    the draw gives no answer the construction can vouch for.  An included
    candidate is `cand_levels` capped at the superset's; an excluded one is
    wider than the superset at `slot`."""
    if kind == "cross":
        other = rng.choice([f for f in FAMILIES if f is not fam])
        sup = RuleSpec(0, fam, sup_levels)
        cand = RuleSpec(1, other, other.random_levels(rng))
        w = cand.family.sample(cand.levels, rng).replace(NBSP, " ")
        if re.fullmatch(sup.pattern, w):
            return None
        return {"kind": "apa-cross", "superset": sup.pattern,
                "candidate": cand.pattern, "included": False, "witness": w}
    if kind == "included":
        cand_levels = tuple(min(c, s) for c, s in zip(cand_levels, sup_levels))
    else:
        top = len(fam.slots[slot]) - 1
        narrow = min(sup_levels[slot], top - 1)
        sup_levels = sup_levels[:slot] + (narrow,) + sup_levels[slot + 1:]
        cand_levels = (cand_levels[:slot] + (max(cand_levels[slot], narrow + 1),)
                       + cand_levels[slot + 1:])
    sup = RuleSpec(0, fam, sup_levels)
    cand = RuleSpec(1, fam, cand_levels)
    included, w = expected_relation(sup, cand, rng)
    if included is None:
        return None
    return {"kind": f"apa-{kind}", "superset": sup.pattern, "candidate": cand.pattern,
            "included": included, "witness": w}


# ---------------------------------------------------------------------------
# Corpus
# ---------------------------------------------------------------------------

def corpus(rng, specs, n_sentences, per_doc=10):
    """Documents of `per_doc` sentences: half drawn from positive rules, a
    fifth from negative rules, the rest filler.  Returns the documents and,
    in document order, each sentence's expected (outcome, statistic type)
    under the full rule set."""
    positive = [s for s in specs if s.family.polarity == "positive"]
    negative = [s for s in specs if s.family.polarity == "negative"]
    texts, labels = [], []
    for u in _stratified(rng, range(10), n_sentences):
        if u < 5:
            spec = rng.choice(positive)
            fam = spec.family
            texts.append(rng.choice(fam.carriers).format(fam.sample(spec.levels, rng)))
            labels.append(("statistic", fam.statistic_type))
        elif u < 7:
            spec = rng.choice(negative)
            fam = spec.family
            texts.append(rng.choice(fam.carriers).format(fam.sample(spec.levels, rng)))
            labels.append(("rejected", None))
        else:
            texts.append(rng.choice(FILLER).format(rng.randint(2, 400)))
            labels.append(("unmatched", None))
    docs = [
        {"doc_id": f"paper{d:05d}", "text": " ".join(texts[i:i + per_doc])}
        for d, i in enumerate(range(0, len(texts), per_doc))
    ]
    return docs, labels


def write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, ensure_ascii=False, sort_keys=True) + "\n")
