"""Host-judged enumeration tests.  These must hold before any automata-path
result is trusted."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from rexincl.errors import BoundExceeded
from rexincl.oracle import enumerate_language, probe_alphabet, random_pattern, verify_inclusion

FIXTURES = Path(__file__).parent / "fixtures"


class TestAstMatch:
    """Membership of single strings, judged by the host on the pattern text."""

    def test_class_then_star(self):
        accepted = enumerate_language("[a-b](a|b)*", "abc", 3)
        assert {"baa", "a"} <= accepted
        assert "" not in accepted and "abc" not in accepted

    def test_epsilon_in_star(self):
        assert "" in enumerate_language("x*", "x", 0)
        assert "" in enumerate_language("(abc)*", "abc", 0)

    def test_plain_concat(self):
        assert enumerate_language("ab", "ab", 2) == {"ab"}

    def test_nested(self):
        accepted = enumerate_language("(a|)b*", "ab", 3)
        assert {"", "abb", "bb"} <= accepted
        assert "ba" not in accepted


class TestEnumerateLanguage:
    def test_literal(self):
        # Exhaustive over the 15 strings of length <= 3 on {a,b}.
        assert enumerate_language("ab", "ab", 3) == {"ab"}

    def test_star(self):
        assert enumerate_language("a*", "a", 3) == {"", "a", "aa", "aaa"}

    def test_class_star(self):
        assert enumerate_language("[a-b](a|b)*", "ab", 2) == {"a", "b", "aa", "ab", "ba", "bb"}

    def test_monotone_in_max_len(self):
        prev = frozenset()
        for k in range(6):
            cur = enumerate_language("(a|bb)*", "ab", k)
            assert prev <= cur
            prev = cur

    def test_guards(self):
        # 10**8 strings of length 8 alone; refused before any is built.
        with pytest.raises(BoundExceeded, match="exceeds 1000000$"):
            enumerate_language("a", "abcdefghij", 8)
        with pytest.raises(BoundExceeded):
            enumerate_language("a", "ab", 9)
        with pytest.raises(BoundExceeded):
            enumerate_language("a", "ab", -1)

    def test_case_is_the_hosts(self):
        assert enumerate_language("(?i)k", probe_alphabet("(?i)k"), 1) == {"k", "K", "K"}
        assert enumerate_language("(?-i:a)", "aA", 1) == {"a"}


class TestVerifyInclusion:
    def test_specific_general_pair(self):
        assert verify_inclusion("ab", "[a-b](a|b)*", "ab", 6)

    def test_reflexive(self):
        assert verify_inclusion("a(b|c)*", "a(b|c)*", "abc", 5)

    def test_counterexample(self):
        assert not verify_inclusion("ab|c", "ab", "abc", 2)


@pytest.mark.parametrize("patterns, alphabet", [
    (("ab", "[a-b](a|b)*"), "\n ABab"),
    (("(?s).", r"[^\n]"), "\x00\n "),
    (("k", "s"), "\n KSksſK"),
    (("()",), "\n "),
    ((r"(?=a)\w", "b"), "\n 0ABab"),
], ids=["blocks", "one_block", "fold_partners", "no_symbols", "lookaround_body"])
def test_probe_alphabet(patterns, alphabet):
    """One character per block of the partition, its case partners, '\\n'
    and a space; a lookaround body's classes take part in the partition."""
    assert probe_alphabet(*patterns) == alphabet


def test_random_pattern_texts_are_stable():
    """The seeded fixture's pattern texts, pinned: criterion 4 and the
    differential fuzz run the same pairs from run to run."""
    with open(FIXTURES / "random_patterns.json") as fh:
        cfg = json.load(fh)
    rng = random.Random(cfg["seed"])
    texts = [random_pattern(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
             for _ in range(2 * cfg["acceptance_pairs"])]
    assert texts[9:11] == ["[a-c](([a-c]|cb))", "((a(a*)|((c|c)|c)))b"]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "15a50f82625dae14e153c58b5b7ee5953e449be89a5a6f3884a4d829fca90678")
