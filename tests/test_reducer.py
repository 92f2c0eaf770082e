import json

import pytest

import extract_fixture as efx
import ruleset_fixture as fx
from rexincl import automata as am
from rexincl.errors import DuplicateId, FormatError
from rexincl.frontend import RawPattern
from rexincl.reducer import (
    InclusionReport,
    Rule,
    analyze_patterns,
    compute_inclusions,
    load_rules,
    reduce,
    rule_tags,
    save_rules,
)


def neg(rule_id, pattern):
    return Rule(id=rule_id, pattern=RawPattern(pattern), polarity="negative")


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

    def test_ampersand_is_a_literal(self):
        # '&' is a literal character to the engine, so "See RD 5 here" is
        # rejected by rule 1 only; removing it would leave the sentence unmatched.
        rules = [neg(0, r"R&D \d+"), neg(1, r"RD \d+")]
        report = compute_inclusions(rules)
        assert report.includes == {0: [], 1: []}
        assert report.removed == set()

    def test_unsupported_rule_skipped(self):
        rules = [neg(0, "ab"), neg(1, r"(a)\1"), neg(2, "[a-b](a|b)*")]
        report = compute_inclusions(rules)
        assert 1 in report.skipped
        assert report.removed == {0}
        assert 1 in report.survivors  # never removed, only set aside

    def test_histogram_buckets(self):
        rules = [neg(5, "ab"), neg(205, "xy"), neg(230, "x[yz]"), neg(300, "a[ab]")]
        report = compute_inclusions(rules)
        assert report.removed == {5, 205}
        assert report.histogram_by_id_bucket == {0: 1, 200: 1}

    @pytest.mark.parametrize("rules", [efx.RULES, fx.build_rules()],
                             ids=["extract_fixture", "ruleset_fixture"])
    def test_matches_per_pair_reference(self, rules):
        # The shared per-group tables must give the relation that deciding
        # every pair on its own, with the reference procedure, gives.
        compiled = {r.id: am.compile_pattern(r.pattern) for r in rules}
        expected = {
            sup.id: [cand.id for cand in rules
                     if cand.id != sup.id and cand.polarity == sup.polarity
                     and am.decide_inclusion(compiled[sup.id], compiled[cand.id],
                                             use_reference=True).included]
            for sup in rules
        }
        assert compute_inclusions(rules).includes == expected

    def test_to_json_is_valid_and_sorted(self):
        rules = [neg(0, "ab"), neg(1, "[a-b](a|b)*")]
        doc = json.loads(compute_inclusions(rules).to_json())
        assert doc["removed"] == [0]
        assert doc["survivors"] == [1]


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
        rule = neg(0, r"r\s?=\s?\d(\.\d+)?")
        assert "optional-decimal" in rule_tags(rule)
        assert "optional-spacing" in rule_tags(rule)

    def test_case_pair(self):
        assert "case-pair" in rule_tags(neg(0, r"[mM]ean"))
        assert "case-pair" not in rule_tags(neg(0, r"[ab]cd"))

    def test_counts_once_per_rule(self):
        rules = [neg(0, r"\d(\.\d+)? and \d(\.\d+)?"), neg(1, "plain")]
        assert analyze_patterns(rules)["optional-decimal"] == 1
