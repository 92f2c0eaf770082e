import json
import random
from pathlib import Path

import pytest

import extract_fixture as efx
import ruleset_fixture as fx
from bench_rules import bench_rule_set, load_bench_gen
from rexincl import automata as am
from rexincl import oracle as oc
from rexincl import reducer as rd
from rexincl.errors import DuplicateId, FormatError
from rexincl.extractor import Document, bench, load_corpus
from rexincl.frontend import RawPattern
from rexincl.reducer import (
    InclusionReport,
    Rule,
    analyze_patterns,
    compute_inclusions,
    load_rules,
    reduce,
    save_rules,
)

FIXTURES = Path(__file__).parent / "fixtures"

# Two rules of the one language {a}; rule 1's b lies behind an empty class.
DEAD_LABEL = [Rule(id=0, pattern=RawPattern("a"), polarity="negative"),
              Rule(id=1, pattern=RawPattern(r"a|[^\x00-\U0010ffff]b"), polarity="negative")]


def neg(rule_id, pattern):
    return Rule(id=rule_id, pattern=RawPattern(pattern), polarity="negative")


def pos(rule_id, pattern):
    return Rule(id=rule_id, pattern=RawPattern(pattern), polarity="positive")


def per_pair_reference(rules):
    """Every rule mapped to the rules of its polarity that it includes, each
    pair decided on its own by the reference procedure."""
    compiled = {r.id: am.compile_pattern(r.pattern) for r in rules}
    return {
        sup.id: [cand.id for cand in rules
                 if cand.id != sup.id and cand.polarity == sup.polarity
                 and am.inclusion_unoptimized(*am.completed_dfas(
                     [compiled[sup.id], compiled[cand.id]])).included]
        for sup in rules
    }


def nested_group(rng, size):
    """Random expressions over abc grown into chains (x ⊆ x|y ⊆ (x|y)|z ⊆
    ((x|y)|z)*), diamonds (x under x|y and z|x, both under (x|y)|z) and
    equal-language duplicates (x, x|x, x then ε, x|∅y), in shuffled order.
    The labels of y behind the empty class ∅ match nothing."""
    texts = []
    while len(texts) < size:
        x, y, z = (oc.random_pattern(rng, 3, "abc") for _ in range(3))
        shape = rng.choice(["chain", "diamond", "duplicate"])
        if shape == "chain":
            texts += [x, f"({x}|{y})", f"(({x}|{y})|{z})", f"(({x}|{y})|{z})*"]
        elif shape == "diamond":
            texts += [x, f"({x}|{y})", f"({z}|{x})", f"(({x}|{y})|{z})"]
        else:
            texts += [x, f"({x}|{x})", f"({x})()", rf"({x}|[^\x00-\U0010ffff]({y}))"]
    rng.shuffle(texts)
    return [neg(i, text) for i, text in enumerate(texts[:size])]


class TestRule:
    def test_invariants(self):
        with pytest.raises(ValueError):
            Rule(id=-1, pattern=RawPattern("a"), polarity="negative")
        with pytest.raises(ValueError):
            Rule(id=0, pattern=RawPattern("a"), polarity="maybe")
        with pytest.raises(ValueError):
            Rule(id=0, pattern=RawPattern("a"), polarity="negative",
                 subrules=(("x", RawPattern("b")),))


class TestLoadSave:
    def test_roundtrip(self, tmp_path):
        rules = [
            Rule(id=3, pattern=RawPattern(r"t\(\d+\)"), polarity="positive",
                 statistic_type="t-test", apa=True,
                 subrules=(("df", RawPattern(r"\((\d+)\)")),)),
            neg(1, "Table"),
        ]
        path = tmp_path / "rules.jsonl"
        save_rules(rules, path)
        loaded = load_rules(path)
        assert [r.id for r in loaded] == [1, 3]  # sorted by id
        assert loaded[1].subrules[0][0] == "df"
        assert loaded[1].pattern.text == r"t\(\d+\)"

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"id": 0, "pattern": "a", "polarity": "negative"}\n{oops\n')
        with pytest.raises(FormatError) as exc:
            load_rules(path)
        assert exc.value.line == 2

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('{"id": 0, "polarity": "negative"}\n')
        with pytest.raises(FormatError) as exc:
            load_rules(path)
        assert exc.value.line == 1
        assert str(exc.value) == "line 1: missing field 'pattern'"

    @pytest.mark.parametrize("load, line, field", [
        (load_rules, {"id": 1, "pattern": "a", "polarity": "positive", "subrules": [{"name": "x"}]},
         "pattern"),
        (load_corpus, {"text": "a 1."}, "doc_id"),
    ], ids=["subrule_pattern", "corpus_doc_id"])
    def test_missing_field_is_named(self, tmp_path, load, line, field):
        path = tmp_path / "in.jsonl"
        path.write_text(f"\n{json.dumps(line)}\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == 2
        assert str(exc.value) == f"line 2: missing field '{field}'"

    @pytest.mark.parametrize("subrules", ["ab", "", {"x": 1}, [5], [{"name": "x", "pattern": "a"}, "b"]],
                             ids=["string", "empty_string", "object", "list_of_ints",
                                  "one_not_an_object"])
    def test_subrules_not_a_list_of_objects_reports_line(self, tmp_path, subrules):
        path = tmp_path / "rules.jsonl"
        good = {"id": 0, "pattern": "a", "polarity": "positive"}
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'id': 1, 'subrules': subrules})}\n")
        with pytest.raises(FormatError) as exc:
            load_rules(path)
        assert exc.value.line == 2
        assert str(exc.value) == ("line 2: subrules must be a list of objects "
                                  "with a name and a pattern")

    @pytest.mark.parametrize("line", ["[1]", "5", '"x"', "null"])
    @pytest.mark.parametrize("load", [load_rules, load_corpus], ids=["rules", "corpus"])
    def test_line_not_an_object_reports_line(self, tmp_path, load, line):
        path = tmp_path / "in.jsonl"
        path.write_text(f"\n{line}\n")
        with pytest.raises(FormatError) as exc:
            load(path)
        assert exc.value.line == 2

    @pytest.mark.parametrize("field, value", [("apa", "no"), ("statistic_type", 5), ("id", 3.9),
                                              ("id", True), ("id", "3")])
    def test_metadata_of_wrong_type_reports_line(self, tmp_path, field, value):
        path = tmp_path / "rules.jsonl"
        good = {"id": 0, "pattern": "a", "polarity": "positive", "statistic_type": "s", "apa": True}
        path.write_text(f"{json.dumps(good)}\n{json.dumps({**good, 'id': 1, field: value})}\n")
        with pytest.raises(FormatError) as exc:
            load_rules(path)
        assert exc.value.line == 2
        assert field in str(exc.value)

    def test_subrule_name_not_a_string_reports_line(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(json.dumps(
            {"id": 0, "pattern": r"a(\d)", "polarity": "positive",
             "subrules": [{"name": 5, "pattern": r"(\d)"}, {"name": "x", "pattern": "a"}]}) + "\n")
        with pytest.raises(FormatError) as exc:
            load_rules(path)
        assert exc.value.line == 1
        assert "subrule name must be a str" in str(exc.value)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text(
            '{"id": 7, "pattern": "a", "polarity": "negative"}\n'
            '{"id": 7, "pattern": "b", "polarity": "negative"}\n'
        )
        with pytest.raises(DuplicateId):
            load_rules(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        path.write_text('\n{"id": 0, "pattern": "a", "polarity": "negative"}\n\n')
        assert len(load_rules(path)) == 1


class TestComputeInclusions:
    def test_figure_pair(self):
        # The general pattern strictly includes the specific one.
        rules = [neg(0, "ab"), neg(1, "[a-b](a|b)*")]
        report = compute_inclusions(rules)
        assert report.includes[1] == [0]
        assert report.includes[0] == []
        assert report.removed == {0}
        assert report.survivors == {1}

    def test_polarity_separation(self):
        rules = [
            neg(0, "ab"),
            Rule(id=1, pattern=RawPattern("[a-b](a|b)*"), polarity="positive"),
        ]
        report = compute_inclusions(rules)
        assert report.removed == set()
        assert report.includes[1] == []

    def test_equivalence_keeps_lowest_id(self):
        rules = [neg(2, "aa|ab"), neg(5, "a[ab]")]
        report = compute_inclusions(rules)
        assert report.equivalence_classes == [[2, 5]]
        assert report.removed == {5}
        assert report.survivors == {2}

    def test_chain(self):
        # 0 < 1 < 2 strictly; both 0 and 1 are removable in one pass.
        rules = [neg(0, "ab"), neg(1, "a[ab]"), neg(2, "a[ab]c?")]
        report = compute_inclusions(rules)
        assert report.removed == {0, 1}
        assert report.included_by_count == {0: 2, 1: 1, 2: 0}

    def test_approximate_needs_review(self):
        # The anchored rule normalizes approximately, so its inclusion under
        # the clean general rule must not silently remove it.
        rules = [neg(0, "cat[12]"), neg(1, "^cat1$")]
        report = compute_inclusions(rules)
        assert report.needs_review == {1}
        assert report.removed == set()
        assert (0, 1) in report.flagged

    def test_strict_mode_drops_flagged(self):
        rules = [neg(0, "cat[12]"), neg(1, "^cat1$")]
        report = compute_inclusions(rules, strict=True)
        assert report.flagged == set()
        assert report.needs_review == set()
        assert report.removed == set()
        assert report.includes[0] == []

    def test_class_with_approximate_member_and_unsorted_ids(self):
        # 2, 4 and 7 are one language; ^(aa|ab) joins their class only
        # approximately, so it is never removed silently.
        rules = [neg(7, "a[ab]"), neg(2, "aa|ab"), neg(9, "^(aa|ab)"),
                 neg(4, "a(a|b)"), neg(5, "a")]
        report = compute_inclusions(rules)
        assert report.equivalence_classes == [[2, 4, 7, 9]]
        assert report.removed == {4, 7}
        assert report.needs_review == {9}
        assert report.flagged == {(9, 2), (9, 4), (9, 7), (2, 9), (4, 9), (7, 9)}
        strict = compute_inclusions(rules, strict=True)
        assert strict.equivalence_classes == [[2, 4, 7]]
        assert strict.removed == {4, 7}
        assert strict.needs_review == set()
        assert strict.flagged == set()

    def test_pattern_too_deep_skipped(self):
        rules = [neg(0, "(" * 3000 + "a" + ")" * 3000), neg(1, "a" * 5000), neg(2, "a")]
        report = compute_inclusions(rules)
        assert set(report.skipped) == {0, 1}
        assert "too long or too deeply nested" in report.skipped[0]

    def test_long_literal_rule_compared(self):
        # A concatenation of 1,000 symbols is within MAX_SYMBOLS, however
        # long its run of '&'.
        report = compute_inclusions([neg(0, "a" * 1000), neg(1, "a+")])
        assert report.skipped == {}
        assert report.includes == {0: [], 1: [0]} and report.removed == {0}

    def test_bound_above_two_hundred_compared(self):
        # \d{1,500} has 999 operands, within MAX_SYMBOLS, and re compiles it.
        report = compute_inclusions([neg(0, r"\d{1,500}"), neg(1, r"\d+")])
        assert report.skipped == {}
        assert report.includes == {0: [], 1: [0]} and report.removed == {0}

    def test_lookaround_body_left_to_re(self):
        # Rule 1's body is dropped unread, so it is compared as approximate;
        # re rejects the nested look-behind of rule 2.
        rules = [neg(0, "b"), neg(1, "(?=a{5000})b"), neg(2, "(?=(?<=a|bc))x")]
        report = compute_inclusions(rules)
        assert report.skipped == {2: "PatternSyntaxError: look-behind requires fixed-width pattern"}
        assert report.flagged == {(0, 1), (1, 0)}
        assert report.needs_review == {1}

    def test_ampersand_is_a_literal(self):
        # '&' is a literal character to the engine, so "See RD 5 here" is
        # rejected by rule 1 only; removing it would leave the sentence unmatched.
        rules = [neg(0, r"R&D \d+"), neg(1, r"RD \d+")]
        report = compute_inclusions(rules)
        assert report.includes == {0: [], 1: []}
        assert report.removed == set()

    def test_empty_class_rule_is_removed(self):
        # Every rule includes the empty language, so the rule is dead.
        rules = [neg(0, "a+"), neg(1, r"[^\x00-\U0010ffff]"), neg(2, "b")]
        report = compute_inclusions(rules)
        assert report.skipped == {}
        assert report.removed == {1}
        assert report.includes == {0: [1], 1: [], 2: [1]}

    def test_unsupported_rule_skipped(self):
        rules = [neg(0, "ab"), neg(1, r"(a)\1"), neg(2, "[a-b](a|b)*")]
        report = compute_inclusions(rules)
        assert 1 in report.skipped
        assert report.removed == {0}
        assert 1 in report.survivors  # never removed, only set aside

    def test_rule_with_host_rejected_subrule_skipped(self):
        # The extractor never runs rule 0, so it covers nothing: removing
        # rule 1 would leave "a1" unmatched.
        rules = [
            Rule(id=0, pattern=RawPattern(r"a\d+"), polarity="positive", statistic_type="t",
                 subrules=(("x", RawPattern("(")),)),
            Rule(id=1, pattern=RawPattern(r"a\d"), polarity="positive", statistic_type="t"),
        ]
        report = compute_inclusions(rules)
        assert report.removed == set()
        assert list(report.skipped) == [0]
        assert report.skipped[0].startswith("PatternSyntaxError: missing )")
        bench([Document("d", "We saw a1 here.")], rules, reduce(report, rules), repeats=1)

    def test_histogram_buckets(self):
        rules = [neg(5, "ab"), neg(205, "xy"), neg(230, "x[yz]"), neg(300, "a[ab]")]
        report = compute_inclusions(rules)
        assert report.removed == {5, 205}
        assert report.histogram_by_id_bucket == {0: 1, 200: 1}

    @pytest.mark.parametrize("rules", [efx.RULES, fx.build_rules(), DEAD_LABEL],
                             ids=["extract_fixture", "ruleset_fixture", "dead_label"])
    def test_matches_per_pair_reference(self, rules):
        # The shared per-group tables must give the relation that deciding
        # every pair on its own, with the reference procedure, gives.
        assert compute_inclusions(rules).includes == per_pair_reference(rules)

    @pytest.mark.parametrize("strict", [False, True], ids=["plain", "strict"])
    @pytest.mark.parametrize("name, build", [("extract", lambda: efx.RULES),
                                             ("ruleset", fx.build_rules),
                                             ("bench", lambda: bench_rule_set(1, 100))],
                             ids=["extract_fixture", "ruleset_fixture", "bench_rules"])
    def test_report_matches_golden(self, name, build, strict):
        # Reports written by an earlier reducer; any change to how pairs are
        # decided must leave them byte for byte the same.  The bench rule set
        # is reduce-apa's at seed 1, where a third of the rules repeat a text.
        golden = FIXTURES / f"report_{name}{'_strict' if strict else ''}.json"
        assert compute_inclusions(build(), strict=strict).to_json() + "\n" == golden.read_text()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_inferred_pairs_match_per_pair_reference(self, seed, monkeypatch):
        # Deeply nested groups, where many pairs are decided by transitivity
        # rather than searched, must still give the reference relation.
        rules = nested_group(random.Random(seed), 24)
        searches = []
        included = am._included
        monkeypatch.setattr(am, "_included", lambda *a: searches.append(a) or included(*a))
        report = compute_inclusions(rules)
        assert report.skipped == {}
        assert report.includes == per_pair_reference(rules)
        # A pattern's characters: the blocks on its DFA's live steps.
        dfas = am.completed_dfas([am.compile_pattern(r.pattern) for r in rules])
        chars = [{b for steps in d.live_steps for b, _ in steps} for d in dfas]
        gated = sum(1 for i, a in enumerate(chars) for j, b in enumerate(chars)
                    if i != j and b <= a)
        assert len(searches) < gated

    def test_each_inference_rule_fires(self, monkeypatch):
        # Pairs are taken superset by superset, in id order.  The Σ gate
        # leaves 9 of the 12 ordered pairs ("a" includes none of the others).
        rules = [neg(0, "a"), neg(1, "a*b*"), neg(2, "[ab]*"), neg(3, "ab")]
        dfas, searched = [], []
        lazy_dfas, included = am.lazy_dfas, am._included

        def recording_lazy_dfas(patterns):
            built = lazy_dfas(patterns)
            dfas[:] = built
            return built

        def recording_search(sup, cand):
            searched.append((next(i for i, d in enumerate(dfas) if d is sup),
                             next(i for i, d in enumerate(dfas) if d is cand)))
            return included(sup, cand)

        monkeypatch.setattr(am, "lazy_dfas", recording_lazy_dfas)
        monkeypatch.setattr(am, "_included", recording_search)
        report = compute_inclusions(rules)
        assert report.includes == per_pair_reference(rules)
        # Not searched: 2 ⊇ 3 from 2 ⊇ 1 ⊇ 3; 3 ⊉ 1 from 1 ⊇ 0 and 3 ⊉ 0;
        # 3 ⊉ 2 from 1 ⊇ 3 and 1 ⊉ 2.
        assert searched == [(1, 0), (1, 2), (1, 3), (2, 0), (2, 1), (3, 0)]

    def test_decisions_never_read_the_dense_view(self, monkeypatch):
        # Reductions and checks walk the sparse rows; only display and the
        # reference procedures build the dense table.
        def no_table(dfa):
            raise AssertionError("the dense table was read")

        monkeypatch.setattr(am.Dfa, "table", property(no_table))
        golden = (FIXTURES / "report_bench.json").read_text()
        assert compute_inclusions(bench_rule_set(1, 100)).to_json() + "\n" == golden
        gen = load_bench_gen()
        for q in gen.check_batch(random.Random(1), 240, 0.1, 200):
            verdict = am.check_inclusion(q["superset"], q["candidate"])
            assert verdict.included == q["included"], q
            w = verdict.witness
            assert w is None or gen.matches(q, "candidate", w) and not gen.matches(q, "superset", w)

    @pytest.mark.parametrize("seed, searches", [(1, 680), (2, 684), (3, 719)])
    def test_decision_walk_count_is_pinned(self, seed, searches, monkeypatch):
        # A weaker Σ gate or weaker inference leaves every report the same and
        # only searches more pairs: dropping the gate gives 6,266 at seed 1.
        calls = []
        included = am._included
        monkeypatch.setattr(am, "_included", lambda *a: calls.append(1) or included(*a))
        compute_inclusions(bench_rule_set(seed, 100))
        assert len(calls) == searches

    def test_searches_spell_no_witness(self, monkeypatch):
        # The reducer needs only whether a counterexample exists.
        def no_witness(*args):
            raise AssertionError("the reducer spelled a witness")

        monkeypatch.setattr(am, "_witness_from", no_witness)
        rules = [neg(0, "a"), neg(1, "a*b*"), neg(2, "[ab]*"), neg(3, "ab")]
        assert compute_inclusions(rules).includes == {0: [], 1: [0, 3], 2: [0, 1, 3], 3: []}

    def test_unicode_word_class_keeps_the_wider_rule(self):
        # `re`'s \w holds 'é', so "Café 1" is rejected by rule 1 alone: rule
        # 0 is strictly inside rule 1, not equivalent to it.
        rules = [neg(0, "[a-zA-Z0-9_]+ 1"), neg(1, r"\w+ 1")]
        report = compute_inclusions(rules)
        assert report.removed == {0}
        assert report.equivalence_classes == []
        corpus = [Document("d0", "Café 1 was.")]
        bench(corpus, rules, reduce(report, rules), repeats=1)  # no OutcomeMismatch

    def test_to_json_is_valid_and_sorted(self):
        rules = [neg(0, "ab"), neg(1, "[a-b](a|b)*")]
        doc = json.loads(compute_inclusions(rules).to_json())
        assert doc["removed"] == [0]
        assert doc["survivors"] == [1]


class TestRepeatedTexts:
    # Texts repeated within a polarity (0, 2; 1, 10; 3, 5), across both (ab),
    # an approximate one (6, 7) and an unsupported one in both groups (8, 9).
    RULES = [neg(0, "ab"), neg(1, "a[ab]"), neg(2, "ab"), pos(3, "ab"), pos(4, "a[ab]c?"),
             pos(5, "ab"), neg(6, "^ab$"), neg(7, "^ab$"), neg(8, r"(a)\1"), pos(9, r"(a)\1"),
             neg(10, "a[ab]")]

    def test_matches_per_pair_reference(self):
        report = compute_inclusions(self.RULES)
        compared = [r for r in self.RULES if r.id not in (8, 9)]
        assert report.includes == {**per_pair_reference(compared), 8: [], 9: []}
        assert report.equivalence_classes == [[0, 2, 6, 7], [1, 10], [3, 5]]
        assert report.removed == {0, 2, 3, 5, 10}
        assert report.needs_review == {6, 7}
        assert report.flagged == {(0, 6), (0, 7), (1, 6), (1, 7), (2, 6), (2, 7), (6, 0), (6, 2),
                                  (6, 7), (7, 0), (7, 2), (7, 6), (10, 6), (10, 7)}

    def test_unsupported_text_skips_every_rule_alike(self):
        report = compute_inclusions(self.RULES)
        assert report.skipped == {8: "UnsupportedFeature: backreferences are not regular",
                                  9: "UnsupportedFeature: backreferences are not regular"}
        assert {8, 9} <= report.survivors

    def test_strict(self):
        report = compute_inclusions(self.RULES, strict=True)
        compared = [r for r in self.RULES if r.id not in (6, 7, 8, 9)]
        assert report.includes == {**per_pair_reference(compared), 6: [], 7: [], 8: [], 9: []}
        assert report.equivalence_classes == [[0, 2], [1, 10], [3, 5]]
        assert report.removed == {0, 2, 3, 5, 10}
        assert report.flagged == report.needs_review == set()

    def test_each_text_compiled_once(self, monkeypatch):
        texts = []
        compile_pattern = am.compile_pattern
        monkeypatch.setattr(am, "compile_pattern",
                            lambda raw: texts.append(raw.text) or compile_pattern(raw))
        compute_inclusions(self.RULES)
        assert sorted(texts) == sorted({r.pattern.text for r in self.RULES})

    def test_each_subrule_text_compiled_once(self, monkeypatch):
        texts = []
        host_compile = rd.host_compile
        monkeypatch.setattr(rd, "host_compile",
                            lambda raw: texts.append(raw.text) or host_compile(raw))
        rules = bench_rule_set(1, 20)
        compute_inclusions(rules)
        subrule_texts = [p.text for r in rules for _, p in r.subrules]
        assert len(subrule_texts) > len(set(subrule_texts))
        assert sorted(texts) == sorted(set(subrule_texts))

    def test_same_text_pairs_are_not_searched(self, monkeypatch):
        # Each search is told back to the texts of its two DFAs.
        texts, searched = {}, []
        lazy_dfas, included = am.lazy_dfas, am._included

        def recording_lazy_dfas(patterns):
            built = lazy_dfas(patterns)
            texts.update((id(d), p.pattern) for p, d in zip(patterns, built))
            return built

        def recording_search(sup, cand):
            searched.append((texts[id(sup)], texts[id(cand)]))
            return included(sup, cand)

        monkeypatch.setattr(am, "lazy_dfas", recording_lazy_dfas)
        monkeypatch.setattr(am, "_included", recording_search)
        compute_inclusions(self.RULES)
        assert searched
        assert all(sup != cand for sup, cand in searched)


class TestReduce:
    def test_survivors_in_id_order(self):
        rules = fx.build_rules()
        report = compute_inclusions(rules)
        survivors = reduce(report, rules)
        ids = [r.id for r in survivors]
        assert ids == sorted(ids)
        assert set(ids) == set(range(50)) - fx.EXPECTED_REMOVED

    def test_fixture_counts(self):
        report = compute_inclusions(fx.build_rules())
        assert report.removed == fx.EXPECTED_REMOVED
        strict_pairs = sum(
            1 for a, inc in report.includes.items()
            for b in inc if a not in report.includes[b]
        )
        assert strict_pairs == fx.STRICT_INCLUSION_COUNT
        assert [sorted(p) for p in fx.DUPLICATE_PAIRS] == report.equivalence_classes

    def test_idempotent(self):
        rules = fx.build_rules()
        once = reduce(compute_inclusions(rules), rules)
        twice = reduce(compute_inclusions(once), once)
        assert [r.id for r in twice] == [r.id for r in once]

    def test_soundness_on_fixture(self):
        # Every removed rule's language is covered by a surviving rule.
        rules = {r.id: r for r in fx.build_rules()}
        report = compute_inclusions(list(rules.values()))
        for gone in report.removed:
            assert any(
                am.check_inclusion(rules[s].pattern.text, rules[gone].pattern.text).included
                for s in report.survivors
            ), gone


class TestAnalyzePatterns:
    def test_optional_decimal(self):
        counts = analyze_patterns([neg(0, r"r\s?=\s?\d(\.\d+)?")])
        assert counts["optional-decimal"] == 1
        assert counts["optional-spacing"] == 1

    def test_case_pair(self):
        assert analyze_patterns([neg(0, r"[mM]ean")])["case-pair"] == 1
        assert analyze_patterns([neg(0, r"[ab]cd")])["case-pair"] == 0

    def test_counts_once_per_rule(self):
        rules = [neg(0, r"\d(\.\d+)? and \d(\.\d+)?"), neg(1, "plain")]
        assert analyze_patterns(rules)["optional-decimal"] == 1
