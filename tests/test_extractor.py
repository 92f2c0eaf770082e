import copy
import dataclasses
import json
import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extract_fixture as fx
from bench_rules import bench_rule_set, load_bench_gen
from rexincl.errors import FormatError, OutcomeMismatch
from rexincl.extractor import (
    REJECTED,
    STATISTIC,
    UNMATCHED,
    CompiledRuleSet,
    Document,
    ExtractionResult,
    Sentence,
    bench,
    classify,
    load_corpus,
    run_corpus,
    sample,
    split_sentences,
    write_results,
)
from rexincl.frontend import RawPattern
from rexincl.reducer import Rule


def sent(text):
    return Sentence(doc_id="d", index=0, text=text)


class TestSplitSentences:
    def test_digit_free_tail_dropped(self):
        out = split_sentences(Document("d", "We saw 5 cats. The dogs left."))
        assert [s.text for s in out] == ["We saw 5 cats."]

    def test_all_digit_free(self):
        assert split_sentences(Document("d", "No numbers here. At all.")) == []

    def test_decimal_point_not_a_boundary(self):
        out = split_sentences(Document("d", "p < 0.05. Results follow."))
        assert [s.text for s in out] == ["p < 0.05."]

    def test_line_breaks_flattened(self):
        out = split_sentences(Document("d", "We saw 5\ncats. Then 3 dogs."))
        assert [s.text for s in out] == ["We saw 5 cats.", "Then 3 dogs."]

    def test_lowercase_continuation_not_split(self):
        out = split_sentences(Document("d", "approx. 12 items were used."))
        assert [s.text for s in out] == ["approx. 12 items were used."]

    def test_indices_sequential(self):
        out = split_sentences(Document("d", "Run 1 done. Run 2 done. Run 3 done."))
        assert [s.index for s in out] == [0, 1, 2]

    @pytest.mark.parametrize("text, expected", [
        ("We saw 5 cats.\r\nThen 3 dogs.", ["We saw 5 cats.", "Then 3 dogs."]),
        ("We saw 5 cats.\tThen 3 dogs.", ["We saw 5 cats.", "Then 3 dogs."]),
        ("We saw 5 cats.  Then 3 dogs.", ["We saw 5 cats.  Then 3 dogs."]),
        ("We saw 5 cats. then 3 dogs.", ["We saw 5 cats. then 3 dogs."]),
        ("We saw 5 cats. Élan, 3 dogs.", ["We saw 5 cats. Élan, 3 dogs."]),
        (" \t\r\n \n", []),
        ("\n\t We saw 5 cats.  \r\n", ["We saw 5 cats."]),
        (". We saw 5 cats.", ["We saw 5 cats."]),
        ("approx. 12 items.", ["approx. 12 items."]),
    ])
    def test_split_rule(self, text, expected):
        assert [s.text for s in split_sentences(Document("d", text))] == expected

    @settings(max_examples=500, deadline=None)
    @given(st.text(alphabet="aBÉZ1. \t\r\n\x85\xa0\u3000", max_size=16))
    def test_matches_the_reference_loop(self, text):
        assert split_sentences(Document("d", text)) == _reference_split("d", text)


def _reference_split(doc_id, text):
    r"""The splitter as a `finditer` loop over `\.\s?[A-Z]`, cutting after the
    period and before the capital: the reference for `split_sentences`."""
    text = re.sub(r"\s*\n\s*", " ", text).strip()
    pieces = []
    start = 0
    for m in re.finditer(r"\.\s?[A-Z]", text):
        pieces.append(text[start:m.start() + 1])  # period ends the sentence
        start = m.end() - 1  # the capital letter starts the next one
    pieces.append(text[start:])
    sentences = []
    for piece in pieces:
        piece = piece.strip()
        if piece and re.search(r"\d", piece):
            sentences.append(Sentence(doc_id=doc_id, index=len(sentences), text=piece))
    return sentences


class TestClassify:
    def test_apa_t_test_with_values(self):
        res = classify(sent("t(12) = 2.31, p < .05"), CompiledRuleSet(fx.RULES))
        assert res.outcome == STATISTIC
        assert res.statistic_type == "t-test"
        assert res.apa is True
        assert res.values == {"df": "12", "statistic": "2.31", "p_value": ".05"}

    def test_table_reference_rejected(self):
        res = classify(sent("as shown in Table 1"), CompiledRuleSet(fx.RULES))
        assert res.outcome == REJECTED
        assert res.matched_rule_id == 10

    def test_empty_rule_set_unmatched(self):
        res = classify(sent("We recruited 15 participants in 2019"), CompiledRuleSet([]))
        assert res.outcome == UNMATCHED
        assert res.matched_rule_id is None

    def test_positive_beats_matching_negative(self):
        text = sent("Table 5 gives t(12) = 2.31, p < .05")
        negatives = [r for r in fx.RULES if r.polarity == "negative"]
        assert classify(text, CompiledRuleSet(negatives)).outcome == REJECTED
        assert classify(text, CompiledRuleSet(fx.RULES)).outcome == STATISTIC

    def test_first_match_wins_by_id(self):
        rules = [
            Rule(id=0, pattern=RawPattern(r"\d+"), polarity="positive",
                 statistic_type="other", apa=False),
            Rule(id=1, pattern=RawPattern(r"t-value of \d+"), polarity="positive",
                 statistic_type="t-test", apa=False),
        ]
        res = classify(sent("a t-value of 3"), CompiledRuleSet(rules))
        assert res.matched_rule_id == 0

    def test_subrule_capture_limited_to_span(self):
        # The p-value outside the main match must not be captured.
        rules = [
            Rule(id=0, pattern=RawPattern(r"t\(\d+\)"), polarity="positive",
                 statistic_type="t-test", apa=False,
                 subrules=(("p_value", RawPattern(r"p\s?[<>=]\s?(\.\d+)")),)),
        ]
        res = classify(sent("t(12) was found, p < .05"), CompiledRuleSet(rules))
        assert res.outcome == STATISTIC
        assert res.values == {}

    def test_host_rejected_subrule_skips_rule(self):
        rules = [Rule(id=0, pattern=RawPattern(r"a\d"), polarity="positive",
                      subrules=(("n", RawPattern("a{99999999999999999999}")),))]
        assert classify(sent("a1"), CompiledRuleSet(rules)).outcome == UNMATCHED

    def test_host_invalid_rule_skipped(self):
        rules = [Rule(id=0, pattern=RawPattern(r"(?P<x"), polarity="negative")]
        res = classify(sent("anything 1"), CompiledRuleSet(rules))
        assert res.outcome == UNMATCHED

    def test_too_deeply_nested_rule_skipped(self, caplog):
        # re.compile recurses once per level and runs out of stack.
        deep = Rule(id=0, pattern=RawPattern("(" * 1000 + "a" + ")" * 1000), polarity="negative")
        compiled = CompiledRuleSet([deep, Rule(id=1, pattern=RawPattern("b"), polarity="negative")])
        assert [rule.id for rule, _, _ in compiled.negative] == [1]
        assert "skipping rule 0: pattern too long or too deeply nested" in caplog.text


def classify_every_rule(sentence, compiled):
    """`classify` without the literal skip: every rule is searched in the
    fixed order, positives first, until one matches."""
    for rule, rx, subs in compiled.positive + compiled.negative:
        m = rx.search(sentence.text)
        if m is None:
            continue
        if rule.polarity == "negative":
            return ExtractionResult(sentence, REJECTED, matched_rule_id=rule.id)
        values = {}
        for name, sub_rx in subs:
            sm = sub_rx.search(m.group(0))
            if sm is not None:
                values[name] = sm.group(1) if sm.groups() else sm.group(0)
        return ExtractionResult(sentence, STATISTIC, rule.id,
                                rule.statistic_type or "other", bool(rule.apa), values)
    return ExtractionResult(sentence, UNMATCHED)


# Rules whose literal ends at a flag, a lookaround or an anchor, or that have
# none because their whole pattern is case-insensitive.
FLAGGED_RULES = [
    Rule(id=0, pattern=RawPattern(r"(?i)t\(\d+\)"), polarity="positive",
         statistic_type="t", subrules=(("df", RawPattern(r"(?i)T\((\d+)")),)),
    Rule(id=1, pattern=RawPattern(r"(?i:CHI)-square of \d+"), polarity="positive",
         statistic_type="chi"),
    Rule(id=2, pattern=RawPattern(r"r(?= =) = \.\d+"), polarity="positive",
         statistic_type="r"),
    Rule(id=3, pattern=RawPattern(r"(?<=, )p < \.\d+"), polarity="positive",
         statistic_type="p"),
    Rule(id=4, pattern=RawPattern(r"^N = \d+"), polarity="positive", statistic_type="n"),
    Rule(id=5, pattern=RawPattern(r"(?i)table \d"), polarity="negative"),
    Rule(id=6, pattern=RawPattern(r"\d+ trials\.$"), polarity="negative"),
    Rule(id=7, pattern=RawPattern(r"(?i:fig)ure \d"), polarity="negative"),
]
FLAGGED_TEXTS = [
    "We saw T(12) here.", "We saw t(3) here.", "CHI-square of 4 held.",
    "chi-square of 4 held.", "Chi-Square of 4 held.", "Then r = .42 held.",
    "Then r=.42 held.", "Then, p < .05 held.", "Then p < .05 held.", "N = 40 took part.",
    "So N = 40 took part.", "TABLE 3 lists it.", "See Table 3.", "We ran 60 trials.",
    "We ran 60 trials. Then 2.", "FIGure 2 plots it.", "Figure 2 plots it.",
    "FIGURE 2 plots it.", "Nothing but 7 here.",
]


class TestLiteralSkip:
    """`classify` skips a rule whose literal the sentence lacks; the results
    must be those of searching every rule."""

    @staticmethod
    def assert_same(rules, sentences):
        compiled = CompiledRuleSet(rules)
        for sentence in sentences:
            assert (classify(sentence, compiled).to_obj()
                    == classify_every_rule(sentence, compiled).to_obj()), sentence.text

    def test_fixture_rules(self):
        sentences = [s for doc in fx.build_corpus() for s in split_sentences(doc)]
        self.assert_same(fx.RULES, sentences)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_bench_rule_sets(self, seed):
        gen = load_bench_gen()
        specs = gen.rule_set(random.Random(f"{seed}-rules"), 100)
        docs, _ = gen.corpus(random.Random(f"{seed}-corpus"), specs, 2000)
        sentences = [s for doc in docs
                     for s in split_sentences(Document(doc["doc_id"], doc["text"]))]
        self.assert_same(bench_rule_set(seed, 100), sentences)

    def test_flagged_anchored_and_lookaround_rules(self):
        self.assert_same(FLAGGED_RULES, [sent(text) for text in FLAGGED_TEXTS])

    def test_case_insensitive_rule_is_never_skipped(self):
        compiled = CompiledRuleSet(FLAGGED_RULES)
        literals = [literal for literal, *_ in compiled.order]
        assert literals == ["", "-square of ", " = .", "p < .", "N = ", "", " trials.", "ure "]
        res = classify(sent("We saw T(12) here."), compiled)
        assert (res.matched_rule_id, res.values) == (0, {"df": "12"})


class TestRunCorpus:
    def test_single_apa_sentence(self):
        corpus = [Document("d", "The test gave t(12) = 2.31, p < .05.")]
        report, results = run_corpus(corpus, fx.RULES)
        assert report.by_type == {"t-test": {"apa": 1, "non_apa": 0}}
        assert report.apa_share_with_anova_no_r == 100.0

    def test_labeled_fixture_agrees(self):
        report, results = run_corpus(fx.build_corpus(), fx.RULES)
        assert len(results) == len(fx.LABELED)
        for res, (text, outcome, stype) in zip(results, fx.LABELED):
            assert res.sentence.text == text
            assert res.outcome == outcome, text
            assert res.statistic_type == stype, text
        assert report.total_statistics == fx.EXPECTED_COUNTS[STATISTIC]
        assert report.rejected == fx.EXPECTED_COUNTS[REJECTED]
        assert report.unmatched == fx.EXPECTED_COUNTS[UNMATCHED]

    def test_apa_shares(self):
        report, _ = run_corpus(fx.build_corpus(), fx.RULES)
        assert report.apa_share_with_anova_no_r == pytest.approx(fx.APA_SHARE_WITH)
        assert report.apa_share_without_anova_no_r == pytest.approx(fx.APA_SHARE_WITHOUT)

    def test_counts_partition_sentences(self):
        report, results = run_corpus(fx.build_corpus(), fx.RULES)
        assert (report.total_statistics + report.rejected + report.unmatched
                == report.total_sentences == len(results))

    @staticmethod
    def _bench_corpus():
        gen = load_bench_gen()
        specs = gen.rule_set(random.Random("1-rules"), 60)
        docs, _ = gen.corpus(random.Random("1-corpus"), specs, 2000)
        return [Document(d["doc_id"], d["text"]) for d in docs], bench_rule_set(1, 60)

    @pytest.mark.parametrize("inputs", [
        lambda: ([Document("a", "We saw t(12) = 2.31, p < .05 here. Then t(12) = 4.5, p < .01."),
                  Document("b", "Again t(12) = 2.31, p < .05 held.")], fx.RULES),
        _bench_corpus,
    ], ids=["inline", "bench"])
    def test_equal_values_are_one_object(self, inputs):
        # The list keeps one string per distinct captured value; each result
        # is still the one `classify` gives alone.
        corpus, rules = inputs()
        _, results = run_corpus(corpus, rules)
        values = [v for res in results for v in res.values.values()]
        assert len(values) > len(set(values)) > 1
        assert len({id(v) for v in values}) == len(set(values))
        fresh = CompiledRuleSet(rules)
        for res in results:
            assert res.to_obj() == classify(res.sentence, fresh).to_obj()


class TestRecords:
    # One Sentence and one ExtractionResult are kept per sentence of a
    # corpus, so they have slots; they behave as the frozen records they were.
    RESULT = ExtractionResult(sentence=Sentence("d", 3, "t(12) = 2.31."), outcome=STATISTIC,
                              matched_rule_id=7, statistic_type="t-test", apa=True,
                              values={"df": "12", "statistic": "2.31"})

    def test_no_instance_dict(self):
        for record in (self.RESULT, self.RESULT.sentence):
            assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("field", ["outcome", "sentence", "values"])
    def test_result_is_frozen(self, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(self.RESULT, field, None)

    def test_sentence_is_frozen_and_hashes_by_value(self):
        a, b = Sentence("d", 0, "x 1."), Sentence("d", 0, "x 1.")
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.text = "y"
        assert a == b and a is not b and hash(a) == hash(b)
        assert len({a, b, Sentence("d", 1, "x 1.")}) == 2

    def test_fields_and_defaults(self):
        assert [f.name for f in dataclasses.fields(Sentence)] == ["doc_id", "index", "text"]
        assert [f.name for f in dataclasses.fields(ExtractionResult)] == [
            "sentence", "outcome", "matched_rule_id", "statistic_type", "apa", "values"]
        a, b = ExtractionResult(sent("x 1."), UNMATCHED), ExtractionResult(sent("x 1."), UNMATCHED)
        assert (a.matched_rule_id, a.statistic_type, a.apa, a.values) == (None, None, None, {})
        assert a.values is not b.values

    @pytest.mark.parametrize("copied", [lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy,
                                        dataclasses.replace], ids=["pickle", "deepcopy", "replace"])
    def test_result_round_trips(self, copied):
        got = copied(self.RESULT)
        assert got == self.RESULT and got.to_obj() == self.RESULT.to_obj()
        assert got.to_obj() == {"doc_id": "d", "sentence_index": 3, "sentence": "t(12) = 2.31.",
                                "outcome": STATISTIC, "matched_rule_id": 7,
                                "statistic_type": "t-test", "apa": True,
                                "values": {"df": "12", "statistic": "2.31"}}


class TestSample:
    def test_caps_per_type(self):
        _, results = run_corpus(fx.build_corpus(), fx.RULES)
        picked = sample(results, 2, seed=11)
        by_type = {}
        for res in picked:
            by_type[res.statistic_type] = by_type.get(res.statistic_type, 0) + 1
        assert by_type == {"t-test": 2, "pearson": 2, "anova-no-r": 2}

    def test_takes_all_when_fewer(self):
        _, results = run_corpus(fx.build_corpus(), fx.RULES)
        picked = sample(results, 200, seed=11)
        assert len(picked) == fx.EXPECTED_COUNTS[STATISTIC]

    def test_deterministic(self):
        _, results = run_corpus(fx.build_corpus(), fx.RULES)
        a = sample(results, 2, seed=5)
        b = sample(results, 2, seed=5)
        assert [r.sentence for r in a] == [r.sentence for r in b]

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample([], 0, seed=1)

    @pytest.mark.parametrize("n", [1, 7, 100, 400])
    def test_picks_what_sampling_each_pool_picks(self, n):
        # `sample` draws positions, rng.sample(range(count), n); drawing from
        # each type's list of results, rng.sample(pool, n), picks the same.
        corpus, rules = TestRunCorpus._bench_corpus()
        _, results = run_corpus(corpus, rules)
        for seed in range(5):
            pools = {}
            for res in results:
                if res.outcome == STATISTIC:
                    pools.setdefault(res.statistic_type, []).append(res)
            rng = random.Random(seed)
            expected = [res for stype in sorted(pools) for res in (
                pools[stype] if len(pools[stype]) <= n else rng.sample(pools[stype], n))]
            assert sample(results, n, seed) == expected


class TestBench:
    def test_identical_sets(self):
        corpus = fx.build_corpus()
        report = bench(corpus, fx.RULES, fx.RULES, repeats=2)
        assert report.repeats == 2
        assert report.sentences == len(fx.LABELED)
        assert report.full_mean > 0 and report.reduced_mean > 0

    def test_mismatch_detected(self):
        corpus = [Document("d", "The test gave t(12) = 2.31, p < .05.")]
        with pytest.raises(OutcomeMismatch):
            bench(corpus, fx.RULES, [], repeats=1)

    def test_dropping_redundant_negative_is_fine(self):
        extra = fx.RULES + [
            Rule(id=12, pattern=RawPattern(r"[Tt]able \d"), polarity="negative"),
        ]
        report = bench(fx.build_corpus(), extra, fx.RULES, repeats=1)
        assert report.sentences == len(fx.LABELED)


class TestCorpusIo:
    def test_txt_directory(self, tmp_path):
        (tmp_path / "b.txt").write_text("Beta has 2 parts.")
        (tmp_path / "a.txt").write_text("Alpha has 1 part.")
        docs = load_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["a", "b"]

    def test_jsonl_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "x", "text": "Only 1 line."}\n\n')
        docs = load_corpus(path)
        assert docs == [Document(doc_id="x", text="Only 1 line.")]

    def test_text_not_a_string_reports_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "x", "text": "Only 1 line."}\n{"doc_id": "d", "text": 5}\n')
        with pytest.raises(FormatError) as exc:
            load_corpus(path)
        assert exc.value.line == 2
        assert "document text must be a str" in str(exc.value)

    def test_byte_order_mark_dropped_from_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(b'\xef\xbb\xbf{"doc_id": "x", "text": "Only 1 line."}\n')
        assert load_corpus(path) == [Document(doc_id="x", text="Only 1 line.")]

    def test_byte_order_mark_dropped_from_txt(self, tmp_path):
        (tmp_path / "a.txt").write_bytes("\ufeffAnova 1 shows.".encode("utf-8"))
        rules = [Rule(id=0, pattern=RawPattern(r"^Anova \d"), polarity="positive",
                      statistic_type="anova")]
        report, results = run_corpus(load_corpus(tmp_path), rules)
        assert [res.sentence.text for res in results] == ["Anova 1 shows."]
        assert report.total_statistics == 1

    def test_write_results_jsonl(self, tmp_path):
        _, results = run_corpus(fx.build_corpus(), fx.RULES)
        out = tmp_path / "results.jsonl"
        write_results(results, out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == len(results)
        assert lines[0]["outcome"] == STATISTIC
        assert lines[0]["values"]["df"] == "12"
