"""Brute-force matcher and enumeration tests.  These must hold before any
automata-path result is trusted."""

import pytest

from rexincl.errors import BoundExceeded
from rexincl.frontend import Alt, Concat, Eps, Star, Sym, charset_of, parse, postfix_to_ast, to_postfix
from rexincl.oracle import ast_match, enumerate_language, verify_inclusion


def ast_of(pattern):
    return postfix_to_ast(to_postfix(parse(pattern)))


class TestAstMatch:
    def test_class_then_star(self):
        ast = ast_of("[a-b](a|b)*")
        assert ast_match(ast, "baa")
        assert ast_match(ast, "a")
        assert not ast_match(ast, "")
        assert not ast_match(ast, "abc")

    def test_epsilon_in_star(self):
        assert ast_match(Star(Sym(charset_of("x"))), "")
        assert ast_match(ast_of("(abc)*"), "")

    def test_plain_concat(self):
        ast = ast_of("ab")
        assert ast_match(ast, "ab")
        assert not ast_match(ast, "ba")

    def test_nested(self):
        ast = Concat(Alt(Sym(charset_of("a")), Eps()), Star(Sym(charset_of("b"))))
        assert ast_match(ast, "")
        assert ast_match(ast, "abb")
        assert ast_match(ast, "bb")
        assert not ast_match(ast, "ba")


class TestEnumerateLanguage:
    def test_literal(self):
        # Exhaustive over the 15 strings of length <= 3 on {a,b}.
        sample = enumerate_language(ast_of("ab"), "ab", 3)
        assert sample.accepted == {"ab"}

    def test_star(self):
        sample = enumerate_language(ast_of("a*"), "a", 3)
        assert sample.accepted == {"", "a", "aa", "aaa"}

    def test_class_star(self):
        sample = enumerate_language(ast_of("[a-b](a|b)*"), "ab", 2)
        assert sample.accepted == {"a", "b", "aa", "ab", "ba", "bb"}

    def test_monotone_in_max_len(self):
        ast = ast_of("(a|bb)*")
        prev = frozenset()
        for k in range(6):
            cur = enumerate_language(ast, "ab", k).accepted
            assert prev <= cur
            prev = cur

    def test_guards(self):
        with pytest.raises(BoundExceeded):
            enumerate_language(ast_of("a"), "abcde", 3)
        with pytest.raises(BoundExceeded):
            enumerate_language(ast_of("a"), "ab", 9)
        with pytest.raises(BoundExceeded):
            enumerate_language(ast_of("a"), "ab", -1)


class TestVerifyInclusion:
    def test_specific_general_pair(self):
        assert verify_inclusion(ast_of("ab"), ast_of("[a-b](a|b)*"), "ab", 6)

    def test_reflexive(self):
        ast = ast_of("a(b|c)*")
        assert verify_inclusion(ast, ast, "abc", 5)

    def test_counterexample(self):
        assert not verify_inclusion(ast_of("ab|c"), ast_of("ab"), "abc", 2)
