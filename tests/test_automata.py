import itertools
import json
import random
from pathlib import Path

import pytest

from rexincl import automata as am
from rexincl import oracle as oc
from rexincl.errors import AlphabetMismatch, IncompleteAutomaton
from rexincl.frontend import parse, parse_postfix, postfix_to_ast, to_postfix

FIXTURES = Path(__file__).parent / "fixtures"


def nfa_of(pattern):
    return am.thompson(to_postfix(parse(pattern)))


def ast_of(pattern):
    return postfix_to_ast(to_postfix(parse(pattern)))


def all_strings(alphabet, max_len):
    for k in range(max_len + 1):
        for combo in itertools.product(sorted(alphabet), repeat=k):
            yield "".join(combo)


class TestThompson:
    def test_worked_example_has_13_states(self):
        nfa = am.thompson(parse_postfix("ba|ab|*&"))
        assert nfa.n_states == 13

    def test_single_symbol(self):
        nfa = am.thompson(parse_postfix("a"))
        assert nfa.n_states == 2
        assert len(nfa.transitions) == 1

    def test_concat_language(self):
        nfa = am.thompson(parse_postfix("ab&"))
        # Oracle-derived: of all strings length <= 3 over {a,b}, only "ab".
        accepted = {s for s in all_strings("ab", 3) if nfa.accepts(s)}
        assert accepted == {"ab"}

    def test_fragment_sizes(self):
        assert am.thompson(parse_postfix("ab|")).n_states == 2 + 2 + 2
        assert am.thompson(parse_postfix("a*")).n_states == 2 + 2
        assert am.thompson(parse_postfix("ab&")).n_states == 2 + 2 - 1


class TestPowerset:
    def test_agrees_with_nfa_simulation(self):
        nfa = nfa_of("a")
        dfa = am.powerset(nfa)
        for s in all_strings("ab", 5):
            assert dfa.accepts(s) == nfa.accepts(s)

    def test_epsilon_pattern(self):
        dfa = am.powerset(nfa_of("()"))
        assert dfa.n_states == 1
        assert dfa.start in dfa.accepting

    def test_nonempty_string_language_shape(self):
        # Start state, two symbol successors, then self-loops on {a,b}.
        dfa = am.powerset(am.thompson(parse_postfix("ba|ab|*&")))
        assert dfa.start not in dfa.accepting
        for s in all_strings("ab", 4):
            assert dfa.accepts(s) == (len(s) >= 1)

    def test_deterministic(self):
        dfa = am.powerset(nfa_of("(ab|b)*a"))
        seen = set()
        for key in dfa.transitions:
            assert key not in seen
            seen.add(key)


class TestComplete:
    def test_adds_sink(self):
        sigma = am.partition_classes([frozenset("a"), frozenset("b")])
        dfa = am.complete(am.powerset(nfa_of("ab"), sigma), sigma)
        assert dfa.complete and dfa.sink is not None
        assert dfa.sink not in dfa.accepting

    def test_idempotent(self):
        sigma = am.partition_classes([frozenset("a"), frozenset("b")])
        once = am.complete(am.powerset(nfa_of("ab"), sigma), sigma)
        twice = am.complete(once, sigma)
        assert twice.n_states == once.n_states

    def test_language_unchanged(self):
        sigma = am.partition_classes([frozenset("a"), frozenset("b"), frozenset("c")])
        plain = am.powerset(nfa_of("a"), sigma)
        full = am.complete(plain, sigma)
        # Oracle-derived: enumerate strings length <= 2 over {a,b,c}.
        for s in all_strings("abc", 2):
            assert full.accepts(s) == (s == "a")

    def test_alphabet_mismatch(self):
        dfa = am.powerset(nfa_of("ab"))
        with pytest.raises(AlphabetMismatch):
            am.complete(dfa, am.partition_classes([frozenset("a")]))


class TestComplement:
    def test_requires_complete(self):
        with pytest.raises(IncompleteAutomaton):
            am.complement(am.powerset(nfa_of("ab")))

    def test_complement_of_nonempty_language(self):
        nfa = nfa_of("[a-b](a|b)*")
        sigma = am.partition_classes(nfa.classes)
        dfa = am.complete(am.powerset(nfa, sigma), sigma)
        comp = am.complement(dfa)
        for s in all_strings("ab", 5):
            assert comp.accepts(s) == (s == "")

    def test_involution(self):
        sigma = am.partition_classes([frozenset("a"), frozenset("b")])
        dfa = am.complete(am.powerset(nfa_of("(ab|b)*"), sigma), sigma)
        back = am.complement(am.complement(dfa))
        for s in all_strings("ab", 6):
            assert back.accepts(s) == dfa.accepts(s)

    def test_sink_only_dfa(self):
        sigma = am.partition_classes([frozenset("a"), frozenset("b")])
        # ab completed has a sink; complement of the all-rejecting part:
        dfa = am.complete(am.powerset(nfa_of("ab"), sigma), sigma)
        comp = am.complement(dfa)
        # Oracle-derived: complement accepts everything except "ab".
        for s in all_strings("ab", 4):
            assert comp.accepts(s) == (s != "ab")


class TestInclusion:
    def test_specific_in_general_walkthrough(self):
        verdict = am.check_inclusion("[a-b](a|b)*", "ab")
        assert verdict.included and verdict.witness is None

    def test_reflexivity(self):
        for pattern in ["ab", "[a-b](a|b)*", r"\d{1,2}", "a(b|c)*"]:
            assert am.check_inclusion(pattern, pattern).included

    def test_witness_verified(self):
        verdict = am.check_inclusion("ab", "ab|c")
        assert not verdict.included
        assert verdict.witness == "c"
        assert oc.ast_match(ast_of("ab|c"), verdict.witness)
        assert not oc.ast_match(ast_of("ab"), verdict.witness)

    def test_sigma_gate_short_circuit(self):
        verdict = am.check_inclusion("[a-b](a|b)*", "ac")
        assert not verdict.included
        # The witness must still be machine-verifiable.
        assert oc.ast_match(ast_of("ac"), verdict.witness)
        assert not oc.ast_match(ast_of("[a-b](a|b)*"), verdict.witness)

    def test_alphabet_subset(self):
        assert am.alphabet_subset(nfa_of("ab"), nfa_of("[a-b](a|b)*"))
        assert not am.alphabet_subset(nfa_of("ac"), nfa_of("[a-b](a|b)*"))
        assert am.alphabet_subset(nfa_of(r"\d"), nfa_of(r"\w"))

    def test_epsilon_cases(self):
        assert am.check_inclusion("a*", "()").included
        verdict = am.check_inclusion("a", "a?")
        assert not verdict.included
        assert verdict.witness == ""  # candidate accepts ε, superset does not

    def test_hex_escape_is_its_character(self):
        verdict = am.check_inclusion(r"x\d+", r"\x41")
        assert not verdict.included
        assert verdict.witness == "A"

    def test_unoptimized_matches_on_examples(self):
        pairs = [("[a-b](a|b)*", "ab"), ("ab", "ab|c"), ("a*", "()"),
                 ("a?", "a"), ("a", "a?")]
        for sup, cand in pairs:
            a = am.check_inclusion(sup, cand)
            b = am.check_inclusion(sup, cand, use_reference=True)
            assert a.included == b.included

    def test_transitivity_on_random_triples(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            asts = [oc.random_ast(rng, 3, "ab") for _ in range(3)]
            pats = [oc.render_pattern(a) for a in asts]
            try:
                ab = am.check_inclusion(pats[0], pats[1]).included
                bc = am.check_inclusion(pats[1], pats[2]).included
            except Exception:
                continue
            if ab and bc:
                assert am.check_inclusion(pats[0], pats[2]).included, pats
            checked += 1


class TestPartition:
    def test_disjoint_cover(self):
        classes = [frozenset("abc"), frozenset("bcd"), frozenset("a")]
        blocks = am.partition_classes(classes)
        union = set()
        for b in blocks:
            assert not union & b
            union |= b
        assert union == set("abcd")
        for cls in classes:
            assert cls == frozenset().union(*(b for b in blocks if b <= cls))

    def test_representation_equivalence(self):
        # Three spellings of the same three-letter language.
        spellings = ["[abc]{3}", "(a|b|c){3}", "[abc][abc][abc]"]
        for sup, cand in itertools.permutations(spellings, 2):
            assert am.check_inclusion(sup, cand).included


def load_fuzz_config():
    with open(FIXTURES / "random_patterns.json") as fh:
        return json.load(fh)


def test_differential_fuzz_seeded():
    """inclusion() vs inclusion_unoptimized() vs bounded oracle on random
    pattern pairs; the seed and construct weights live in the fixture."""
    cfg = load_fuzz_config()
    rng = random.Random(cfg["seed"])
    for _ in range(cfg["smoke_pairs"]):
        left = oc.random_ast(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        right = oc.random_ast(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        sup = am.compile_pattern(oc.render_pattern(left))
        cand = am.compile_pattern(oc.render_pattern(right))
        opt = am.decide_inclusion(sup, cand)
        ref = am.decide_inclusion(sup, cand, use_reference=True)
        assert opt.included == ref.included
        assert opt.witness == ref.witness  # both shortest, found in one order
        if opt.included:
            assert oc.verify_inclusion(right, left, cfg["alphabet"], 6)
        else:
            assert oc.ast_match(right, opt.witness)
            assert not oc.ast_match(left, opt.witness)


def test_pipeline_agrees_with_oracle_matcher():
    """parse→postfix→thompson→powerset→complete acceptance equals the
    brute-force AST matcher on every short string."""
    patterns = ["[a-b](a|b)*", "a{1,3}b", "(ab|b)*", "a?b+c", "[abc]{2}",
                r"\d", "a(|b)c"]
    for pattern in patterns:
        ast = ast_of(pattern)
        nfa = nfa_of(pattern)
        sigma = am.partition_classes(nfa.classes)
        dfa = am.complete(am.powerset(nfa, sigma), sigma) if sigma else am.powerset(nfa, sigma)
        alphabet = sorted(nfa.chars())[:4] if len(nfa.chars()) > 4 else sorted(nfa.chars())
        for s in all_strings(alphabet, 5):
            assert dfa.accepts(s) == oc.ast_match(ast, s), (pattern, s)
