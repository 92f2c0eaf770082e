import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rexincl.errors import MalformedExpression, PatternSyntaxError, UnsupportedFeature
from rexincl.frontend import (
    DIGIT,
    SPACE,
    WORD,
    TokenKind,
    parse,
    parse_formal,
    parse_postfix,
    postfix_to_ast,
    shunting_yard_trace,
    to_postfix,
)
from rexincl.oracle import ast_match, enumerate_language


def postfix_of(pattern):
    return str(to_postfix(parse(pattern)))


def lang(pattern, alphabet, max_len):
    ast = postfix_to_ast(to_postfix(parse(pattern)))
    return enumerate_language(ast, alphabet, max_len).accepted


class TestParse:
    def test_implicit_concat(self):
        assert str(parse("ab")) == "a&b"

    def test_bounded_repetition_language(self):
        # a{2,4} must expand to something equivalent to aa|aaa|aaaa.
        assert lang("a{2,4}", "a", 5) == {"aa", "aaa", "aaaa"}

    def test_digit_metachar(self):
        expr = parse(r"\d")
        assert len(expr.tokens) == 1
        assert expr.tokens[0].kind is TokenKind.SYMBOL
        assert expr.tokens[0].chars == DIGIT

    def test_word_space_classes(self):
        assert parse(r"\w").tokens[0].chars == WORD
        assert parse(r"\s").tokens[0].chars == SPACE

    def test_anchors_stripped(self):
        expr = parse("^abc$")
        assert str(expr) == "a&b&c"
        assert expr.approximate
        assert tuple(expr.stripped_features) == ("anchor", "anchor")

    def test_lookahead_stripped(self):
        expr = parse(r"a(?=b)c")
        assert str(expr) == "a&c"
        assert "lookaround" in expr.stripped_features

    def test_inline_flag_stripped(self):
        expr = parse(r"(?i)abc")
        assert expr.approximate
        assert "flag" in expr.stripped_features

    def test_named_group_is_plain_group(self):
        expr = parse(r"(?P<df>\d+)")
        assert not expr.approximate

    def test_backreference_rejected(self):
        with pytest.raises(UnsupportedFeature):
            parse(r"(a)\1")
        with pytest.raises(UnsupportedFeature):
            parse(r"(?P<x>a)(?P=x)")

    def test_syntax_errors(self):
        for bad in ["a{3,1}", "(ab", "ab)", "[ab", "*a", "a|*"]:
            with pytest.raises(PatternSyntaxError):
                parse(bad)

    def test_deterministic(self):
        assert parse(r"[ab]c{1,2}\d").tokens == parse(r"[ab]c{1,2}\d").tokens

    def test_plus_and_question(self):
        assert lang("ab+", "ab", 4) == {"ab", "abb", "abbb"}
        assert lang("ab?", "ab", 2) == {"a", "ab"}

    def test_unbounded_lower_bound(self):
        assert lang("a{2,}", "a", 4) == {"aa", "aaa", "aaaa"}

    def test_lazy_normalized_to_greedy(self):
        assert lang("ab*?", "ab", 3) == lang("ab*", "ab", 3)

    def test_negated_class(self):
        chars = parse("[^a]").tokens[0].chars
        assert "a" not in chars and "b" in chars and " " in chars

    def test_epsilon_literal_and_empty_group(self):
        assert lang("()", "a", 2) == {""}
        assert lang("a(|b)", "ab", 3) == {"a", "ab"}

    def test_explicit_concat_operator(self):
        ast = postfix_to_ast(to_postfix(parse_formal("a&b")))
        assert enumerate_language(ast, "ab", 3).accepted == {"ab"}


class TestParseFormal:
    def test_tokens_as_written(self):
        assert str(parse_formal("(b|a)&(a|b)*")) == "(b|a)&(a|b)*"
        assert str(parse_formal("ε|a")) == "ε|a"

    def test_malformed(self):
        for bad in ["", "ab", "()", "a&", "(a", "a)", "*a", "a|*", "a(b)"]:
            with pytest.raises(PatternSyntaxError):
                parse_formal(bad)


class TestToPostfix:
    def test_worked_example(self):
        assert str(to_postfix(parse_formal("(b|a)&(a|b)*"))) == "ba|ab|*&"

    def test_alternation(self):
        assert str(to_postfix(parse_formal("a|b"))) == "ab|"

    def test_single_symbol(self):
        assert postfix_of("a") == "a"

    def test_no_parens_in_output(self):
        prog = to_postfix(parse("((a|b)c)*d"))
        kinds = {t.kind for t in prog.tokens}
        assert TokenKind.LPAREN not in kinds and TokenKind.RPAREN not in kinds

    def test_symbol_multiset_preserved(self):
        expr = parse("(ab|ba)c*")
        prog = to_postfix(expr)
        before = sorted(t.chars for t in expr.tokens if t.kind is TokenKind.SYMBOL)
        after = sorted(t.chars for t in prog.tokens if t.kind is TokenKind.SYMBOL)
        assert before == after

    def test_trace_shape(self):
        _, trace = shunting_yard_trace(parse("a"))
        assert [r.regarded for r in trace] == ["-", "a", "-"]
        assert trace[-1].output_stack == "a"


class TestPostfixToAst:
    def test_simple(self):
        ast = postfix_to_ast(parse_postfix("ab&"))
        assert ast_match(ast, "ab") and not ast_match(ast, "a")

    def test_worked_postfix(self):
        ast = postfix_to_ast(parse_postfix("ba|ab|*&"))
        sample = enumerate_language(ast, "ab", 3)
        assert "" not in sample.accepted
        assert {"a", "b", "ab", "ba", "abb"} <= sample.accepted

    def test_malformed(self):
        with pytest.raises(MalformedExpression):
            parse_postfix("ab")  # two values left
        with pytest.raises(MalformedExpression):
            parse_postfix("&")  # underflow
        with pytest.raises(MalformedExpression):
            parse_postfix("*")


SUPPORTED = st.sampled_from([
    "ab", "a|b", "a*b", "(a|b)*", "a{2,3}", "[ab]c", "a?b+", "(ab|b)*a",
    "[a-b](a|b)*", "a(|b)c", "((a))", "a{1,}b?", "a&b", r"\x61b", "(?x) a b",
])


@settings(max_examples=40, deadline=None)
@given(SUPPORTED)
def test_roundtrip_language_preserved(pattern):
    """postfix_to_ast(to_postfix(parse(p))) accepts exactly what a naive
    reading of p accepts, checked by exhaustive enumeration."""
    ast = postfix_to_ast(to_postfix(parse(pattern)))
    host = re.compile(pattern)
    for s in enumerate_language(ast, "ab", 5).accepted:
        assert host.fullmatch(s) is not None, (pattern, s)
    sample = enumerate_language(ast, "ab", 5).accepted
    import itertools
    for k in range(6):
        for combo in itertools.product("ab", repeat=k):
            s = "".join(combo)
            assert (host.fullmatch(s) is not None) == (s in sample), (pattern, s)


@pytest.mark.filterwarnings("ignore::FutureWarning", "ignore::DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab(|)[^]{,}*+?\\.:-=!<>P#imx01dqεw&$", max_size=10))
@example("(?<n>a)")
@example(r"\q")
@example("a(?i)b")
def test_parse_accepts_only_what_re_compiles(pattern):
    """Rules are read by the host parser: whatever `parse` accepts, the
    engine that runs the rules accepts too."""
    try:
        parse(pattern)
    except (PatternSyntaxError, UnsupportedFeature):
        return
    re.compile(pattern)
