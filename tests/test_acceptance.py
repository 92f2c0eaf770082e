"""Acceptance gate: one test per criterion.  A PASS/FAIL line per criterion
is printed in the terminal summary (see conftest.py)."""

import itertools
import json
import random
import time
from pathlib import Path

import pytest

import extract_fixture as efx
import ruleset_fixture as rfx
from rexincl import automata as am
from rexincl import oracle as oc
from rexincl.extractor import bench, run_corpus
from rexincl.frontend import parse, parse_formal, parse_postfix, shunting_yard_trace, to_postfix
from rexincl.reducer import compute_inclusions, reduce

FIXTURES = Path(__file__).parent / "fixtures"

# Hand-derived shunting-yard table for (b|a)&(a|b)*:
# (regarded, operator stack, output stack) per step.
EXPECTED_TRACE = [
    ("-", "-", "-"),
    ("(", "-", "-"),
    ("b", "(", "-"),
    ("|", "(", "b"),
    ("a", "(|", "b"),
    (")", "(|", "ba"),
    (")", "(", "ba|"),
    ("&", "-", "ba|"),
    ("(", "&", "ba|"),
    ("a", "&(", "ba|"),
    ("|", "&(", "ba|a"),
    ("b", "&(|", "ba|a"),
    (")", "&(|", "ba|ab"),
    (")", "&(", "ba|ab|"),
    ("*", "&", "ba|ab|"),
    ("-", "&*", "ba|ab|"),
    ("-", "&", "ba|ab|*"),
    ("-", "-", "ba|ab|*&"),
]


def mutual_inclusion(a: am.CompiledPattern, b: am.CompiledPattern) -> bool:
    return (am.decide_inclusion(a, b).included
            and am.decide_inclusion(b, a).included)


@pytest.mark.criterion(1, "inclusion walkthrough")
def test_criterion_1_walkthrough():
    t0 = time.perf_counter()
    verdict = am.check_inclusion("[a-b](a|b)*", "ab")
    assert verdict.included and verdict.witness is None
    derived = am.compile_postfix(to_postfix(parse_formal("(b|a)&(a|b)*")))
    reference = am.compile_postfix(parse_postfix("ba|ab|*&"))
    assert mutual_inclusion(derived, reference)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.criterion(2, "conversion trace table")
def test_criterion_2_trace_table():
    postfix, trace = shunting_yard_trace(parse_formal("(b|a)&(a|b)*"))
    got = [(r.regarded, r.op_stack, r.output_stack) for r in trace]
    assert got == EXPECTED_TRACE
    assert str(postfix) == "ba|ab|*&"


@pytest.mark.criterion(3, "13-state construction")
def test_criterion_3_nfa_size():
    assert am.thompson(parse_postfix("ba|ab|*&")).n_states == 13


@pytest.mark.criterion(4, "differential correctness, 1000 pairs")
def test_criterion_4_differential():
    with open(FIXTURES / "random_patterns.json") as fh:
        cfg = json.load(fh)
    rng = random.Random(cfg["seed"])
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(cfg["acceptance_pairs"]):
        left = oc.random_ast(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        right = oc.random_ast(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        sup = am.compile_pattern(oc.render_pattern(left))
        cand = am.compile_pattern(oc.render_pattern(right))
        opt = am.decide_inclusion(sup, cand)
        ref = am.decide_inclusion(sup, cand, use_reference=True)
        if opt.included != ref.included:
            disagreements += 1
            continue
        if opt.included:
            if not oc.verify_inclusion(right, left, cfg["alphabet"], 6):
                disagreements += 1
        else:
            # The witness must be in the candidate's language and outside the
            # superset's; this holds at any length, unlike the bounded oracle.
            if not oc.ast_match(right, opt.witness) or oc.ast_match(left, opt.witness):
                disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60.0, f"took {elapsed:.1f}s"


@pytest.mark.criterion(5, "complement laws, 200 patterns")
def test_criterion_5_complement_laws():
    rng = random.Random(987123)
    sigma = am.partition_classes([frozenset("a"), frozenset("b"), frozenset("c")])
    strings = ["".join(c) for k in range(7)
               for c in itertools.product("abc", repeat=k)]
    violations = 0
    for _ in range(200):
        ast = oc.random_ast(rng, 4, "abc")
        nfa = am.thompson(to_postfix(parse(oc.render_pattern(ast))))
        dfa = am.complete(am.powerset(nfa, sigma), sigma)
        comp = am.complement(dfa)
        back = am.complement(comp)
        for s in strings:
            accepted = dfa.accepts(s)
            if comp.accepts(s) == accepted:  # XOR must hold
                violations += 1
            if back.accepts(s) != accepted:  # involution must hold
                violations += 1
    assert violations == 0


@pytest.mark.criterion(6, "reduction soundness fixture")
def test_criterion_6_reduction_fixture():
    rules = rfx.build_rules()
    report = compute_inclusions(rules)
    assert report.removed == rfx.EXPECTED_REMOVED
    assert len(report.removed) == 18
    strict_pairs = sum(
        1 for a, inc in report.includes.items()
        for b in inc if a not in report.includes[b]
    )
    assert strict_pairs == rfx.STRICT_INCLUSION_COUNT
    survivors = reduce(report, rules)
    survivor_report = compute_inclusions(survivors)
    assert all(not inc for inc in survivor_report.includes.values())
    # Full and reduced sets must classify an in-language corpus identically,
    # and dropping 18 of 50 rules must not slow classification down.
    corpus = rfx.build_corpus()
    result = bench(corpus, rules, survivors, repeats=3)
    assert result.reduced_mean <= result.full_mean * 1.10


@pytest.mark.criterion(7, "figure-reference rule pair")
def test_criterion_7_figure_pair():
    general = r"[fF]igure?\s\d+(\s?\.\s?\d+)*"
    specific = r"figure \d{1,2}"
    assert am.check_inclusion(general, specific).included
    assert not am.check_inclusion(specific, general).included


@pytest.mark.criterion(8, "labeled extraction corpus")
def test_criterion_8_extraction_fixture():
    report, results = run_corpus(efx.build_corpus(), efx.RULES)
    assert len(results) == 30
    for res, (text, outcome, stype) in zip(results, efx.LABELED):
        assert (res.sentence.text, res.outcome, res.statistic_type) == (text, outcome, stype)
    assert report.apa_share_with_anova_no_r == pytest.approx(efx.APA_SHARE_WITH)
    assert report.apa_share_without_anova_no_r == pytest.approx(efx.APA_SHARE_WITHOUT)


@pytest.mark.criterion(9, "approximate-rule safety")
def test_criterion_9_approximate_safety():
    from rexincl.frontend import RawPattern
    from rexincl.reducer import Rule

    rules = [
        Rule(id=0, pattern=RawPattern("cat[12]"), polarity="negative"),
        Rule(id=1, pattern=RawPattern("^cat1$"), polarity="negative"),
    ]
    default = compute_inclusions(rules)
    assert default.needs_review == {1}
    assert default.removed == set()
    assert (0, 1) in default.flagged
    strict = compute_inclusions(rules, strict=True)
    assert strict.removed == set()
    assert strict.needs_review == set()
    assert strict.includes == {0: [], 1: []}
