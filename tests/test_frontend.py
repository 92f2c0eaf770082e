import random
import re
import time
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rexincl import frontend
from rexincl.automata import Positions, compile_pattern, completed_dfas, positions, thompson
from rexincl.errors import MalformedExpression, PatternSyntaxError, UnsupportedFeature
from rexincl.frontend import (
    MAX_CODE,
    MAX_SYMBOLS,
    TokenKind,
    charset,
    charset_contains,
    charset_of,
    format_charset,
    parse,
    parse_formal,
    parse_postfix,
    shunting_yard_trace,
    to_postfix,
)
from rexincl.oracle import random_pattern, strings


def postfix_of(pattern):
    return str(to_postfix(parse(pattern)))


def accepted(prog, alphabet, max_len):
    """The strings of `strings(alphabet, max_len)` that the postfix
    program's Thompson NFA accepts."""
    nfa = thompson(prog)
    return {s for s in strings(alphabet, max_len) if nfa.accepts(s)}


def lang(pattern, alphabet, max_len):
    """The frontend's lowering of `pattern`, as an automaton sees it; the
    tests compare it with hand-written sets."""
    return accepted(to_postfix(parse(pattern)), alphabet, max_len)


# ASCII and non-ASCII letters, digits, spaces and controls.
MIXED = "a1 _\t\nAé٣\u00a0ª²\u2028-\x00\ud800\U0001d7ce"


def members(pattern, sample=MIXED):
    """The characters of `sample` in the character set of `pattern`, a
    pattern of one symbol."""
    chars = parse(pattern).tokens[0].chars
    return [c for c in sample if charset_contains(chars, c)]


def engine_members(pattern, sample=MIXED):
    return [c for c in sample if re.fullmatch(pattern, c)]


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
        assert members(r"\d") == engine_members(r"\d") == ["1", "٣", "\U0001d7ce"]

    def test_word_space_classes(self):
        assert members(r"\w") == engine_members(r"\w")
        assert members(r"\s") == engine_members(r"\s")

    def test_anchors_stripped(self):
        expr = parse("^abc$")
        assert str(expr) == "a&b&c"
        assert expr.approximate
        assert tuple(expr.stripped_features) == ("anchor", "anchor")

    def test_lookahead_stripped(self):
        expr = parse(r"a(?=b)c")
        assert str(expr) == "a&c"
        assert "lookaround" in expr.stripped_features

    def test_lookaround_body_is_not_read(self):
        # The body is dropped unread: neither its size nor what it holds counts.
        expr = parse("(?=a{5000})b")
        assert expr.tokens == parse("b").tokens
        assert expr.stripped_features == ("lookaround",)
        expr = parse(r"(a)(?=\1)b")
        assert str(expr) == "a&b" and expr.approximate
        assert parse("(?=^a)b").stripped_features == ("lookaround",)

    def test_symbol_classes(self):
        # Every class, however deep: outside any body, and under a lookaround,
        # a look-behind, an atomic group, a star and a conditional.  A
        # backreference and a repeat of any count name their classes too.
        found = frontend.symbol_classes(
            r"(z)x(?!(?<=c)[d-f]|(?>g)|(?:h)*(?(1)i|j))k(?=(?=\d)l)")
        assert sorted(found) == sorted([*map(charset_of, "zxcghijkl"), charset_of("def"),
                                        parse(r"\d").tokens[0].chars])
        assert sorted(frontend.symbol_classes(r"(a)\1b{0}")) == [charset_of("a"), charset_of("b")]

    @pytest.mark.parametrize("pattern", ["(?=(?<=a|bc))x", "(?<=a|bc)x"])
    def test_look_behind_width_is_judged_by_re(self, pattern):
        with pytest.raises(PatternSyntaxError, match="look-behind requires fixed-width pattern"):
            parse(pattern)
        with pytest.raises(PatternSyntaxError, match="look-behind requires fixed-width pattern"):
            frontend.symbol_classes(pattern)

    def test_inline_flag_stripped(self):
        expr = parse(r"(?i)abc")
        assert expr.approximate
        assert "flag" in expr.stripped_features

    @pytest.mark.parametrize("verbose, plain", [("(?x)a b", "ab"), ("(?x:a b)c", "abc"),
                                                ("(?x)a(?-x: )b", "a b")])
    def test_verbose_flag_is_exact(self, verbose, plain):
        # VERBOSE only changes how re reads the text into its tree.
        expr = parse(verbose)
        assert not expr.approximate
        assert expr.tokens == parse(plain).tokens

    @pytest.mark.parametrize("pattern", ["(?i)a", "(?s).", r"(?a)\d", "(?m)a", "(?i:a)b",
                                         "(?x)(?i)a b", "(?i)a(?-i:b)"])
    def test_other_flags_stay_approximate(self, pattern):
        assert parse(pattern).stripped_features == ("flag",)

    @pytest.mark.parametrize("removed, plain", [("(?-i:a)", "a"), ("(?-s:.)", "."),
                                                ("a(?-m:b)", "ab")])
    def test_removed_flag_is_exact(self, removed, plain):
        # A group may remove only i, m, s and x; without them re's tree reads
        # as the frontend lowers it.
        expr = parse(removed)
        assert not expr.approximate
        assert expr.tokens == parse(plain).tokens

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

    def test_optional_is_the_bounded_repeat_of_one(self):
        assert parse("a{0,1}").tokens == parse("a?").tokens

    def test_bounded_repetition_nests_optionals(self):
        assert str(parse("a{1,3}")) == "a&(a&(a|ε)|ε)"
        assert str(parse("a{2}")) == "a&a"
        assert str(parse("a{0,0}b")) == "b"
        assert str(parse("(a|b){1,3}")) == "[ab]&([ab]&([ab]|ε)|ε)"
        assert str(parse("(ab){0,2}")) == "a&b&(a&b|ε)|ε"
        # The innermost X stands under '|' bare; the others are parenthesized.
        assert str(parse("(?:a|b|){0,3}c")) == "((a|b|ε)&((a|b|ε)&(a|b|ε|ε)|ε)|ε)&c"
        assert str(parse("(?:){2,4}")) == "ε|ε|ε"
        assert str(parse("(?:)*")) == "ε*"
        assert str(parse("a()b")) == "a&b"

    def test_unbounded_lower_bound(self):
        assert lang("a{2,}", "a", 4) == {"aa", "aaa", "aaaa"}

    def test_lazy_normalized_to_greedy(self):
        assert lang("ab*?", "ab", 3) == lang("ab*", "ab", 3)

    def test_negated_class(self):
        assert members("[^a]") == engine_members("[^a]") == list(MIXED.replace("a", ""))

    def test_full_range_is_one_interval(self):
        # Structural, so no per-character work can hide behind a fast machine.
        assert parse(r"[\u0000-\U0010ffff]").tokens[0].chars == ((0, MAX_CODE),)
        assert parse(r"[\s\S]").tokens[0].chars == ((0, MAX_CODE),)

    def test_unprintable_characters_display_as_re_escapes(self):
        assert str(parse(r"a\x00[\ud800]\U000e0001")) == r"a&\x00&\ud800&\U000e0001"
        assert str(parse("[\t\n\r\f\v]&[ -~]é")) == r"[\t-\r]&[&]&[ -~]&é"

    @pytest.mark.parametrize("special", "[]\\^-")
    def test_class_display_reads_back_in_re(self, special):
        # Members that re reads as class syntax: ']' closes, '\\' escapes,
        # a leading '^' negates, '-' spans a range and '[' may open a nested
        # set in a future re, which warns of it now.
        code = ord(special)
        classes = [charset_of(special + "a"), charset_of("^!" + special),
                   charset_of(special + "-"), charset([(ord("!"), code)]),
                   charset([(code, ord("z"))]), charset([(code, code + 1), (ord("a"), ord("a"))])]
        sample = "]\\^-[a!z AZ_`" + chr(code + 1)
        for chars in classes:
            shown = format_charset(chars)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                re.compile(shown)
            for c in sample:
                assert (re.fullmatch(shown, c) is not None) == charset_contains(chars, c), (shown, c)

    def test_escaped_class_members_display(self):
        assert str(parse(r"[\]\-]")) == r"[\-\]]"
        assert str(parse(r"[\^a]")) == r"[\^a]"

    @pytest.mark.parametrize("pattern, shown", [
        (r"\d", r"\d"), (r"[^\d]", r"\D"), (r"\w", r"\w"), (r"[^\w]", r"\W"),
        (r"\s", r"\s"), (r"\S", r"\S"), (".", "."), (r"[^\n]", "."),
        (r"[^\x00-\U0010ffff]", r"[^\x00-\U0010ffff]"), (r"\.", "[.]"), (r"\^", r"[\^]"),
        (r"\$", "[$]"), (r"\+", "[+]"), (r"\\", r"[\\]"), (r"\[", r"[\[]"),
    ])
    def test_display_reads_back_in_re(self, pattern, shown):
        # A set re names is shown by its name, and a single character that re
        # reads as syntax in brackets; each display is re text for the set.
        chars = parse(pattern).tokens[0].chars
        assert format_charset(chars) == shown
        assert parse(shown).tokens[0].chars == chars
        sample = MIXED + ".^$+\\[\u0660"
        assert engine_members(shown, sample) == members(pattern, sample)

    def test_named_display_is_short(self):
        # The interval spelling of \w runs to kilobytes.
        assert str(parse(r"\w+\s?\D")) == r"\w&\w*&(\s|ε)&\D"

    def test_empty_class_is_the_empty_language(self):
        # re accepts a class that matches nothing; it is a symbol with no
        # characters, so neither it nor a string through it matches.
        assert parse(r"[^\x00-\U0010ffff]").tokens[0].chars == ()
        assert parse(r"[^\s\S]").tokens[0].chars == ()
        assert lang(r"a[^\s\S]|b", "ab", 3) == {"b"}
        assert lang(r"[^\s\S]*", "ab", 2) == {""}

    def test_epsilon_literal_and_empty_group(self):
        assert lang("()", "a", 2) == {""}
        assert lang("a(|b)", "ab", 3) == {"a", "ab"}

    def test_explicit_concat_operator(self):
        assert accepted(to_postfix(parse_formal("a&b")), "ab", 3) == {"ab"}


class TestSizeBound:
    @pytest.mark.parametrize("n", [1000, MAX_SYMBOLS - 1, MAX_SYMBOLS])
    def test_long_literal_parses(self, n):
        assert len(parse("a" * n).tokens) == 2 * n - 1

    def test_longer_literal_refused(self):
        with pytest.raises(PatternSyntaxError, match="^pattern too long or too deeply nested: "
                                                     "4001 symbols after expansion exceed 4000$"):
            parse("a" * (MAX_SYMBOLS + 1))

    def test_bound_does_not_depend_on_the_stack(self):
        def deep(k):
            return deep(k - 1) if k else parse(r"\d{1,200}")

        assert deep(400).tokens == parse(r"\d{1,200}").tokens

    @pytest.mark.parametrize("pattern, size", [("((a|b){0,100}){0,100}", 20100),
                                               ("((a|b){0,200}){0,200}", 80200),
                                               ("a{4294967294}", 4294967294),
                                               ("a{4294967294,}", 4294967295),
                                               ("(?:){4294967294}", 4294967294),
                                               ("(?:){0,4294967294}", 8589934588)])
    def test_nested_repeat_refused_before_it_is_built(self, pattern, size):
        # 100 optionals of (a|b){0,100}, 200 operands each, and an ε apiece.
        # re accepts bounds up to 4294967294; a repeat is counted, ε as one
        # operand, before any list of its copies is asked for.
        start = time.perf_counter()
        with pytest.raises(PatternSyntaxError, match=f"nested: {size} symbols after expansion"):
            parse(pattern)
        assert time.perf_counter() - start < 0.1


    def test_repeat_is_bounded_like_the_literal(self):
        # One bound for every pattern: a{4000} is the 4,000 operands of its
        # spelled-out literal, and \d{1,500}, at 999, is within it too.
        assert parse("a{4000}").tokens == parse("a" * MAX_SYMBOLS).tokens
        assert sum(tok.kind is TokenKind.SYMBOL for tok in parse(r"\d{1,500}").tokens) == 500
        with pytest.raises(PatternSyntaxError) as literal:
            parse("a" * (MAX_SYMBOLS + 1))
        with pytest.raises(PatternSyntaxError) as repeat:
            parse("a{4001}")
        assert str(repeat.value) == str(literal.value)


# Bodies of nested repeats, each with the words it matches: a string of
# words is split into them one way only, so re decides it without blowing up.
FUSION_BODIES = {"a": ("a",), "[ab]": ("a", "b"), "(?:ab|c)": ("ab", "c"), "(?:a?b)": ("b", "ab")}


def repeat_quantifier(rng):
    """A quantifier with bounds from 0 to 6, unbounded or not, lazy a fifth
    of the time."""
    m = rng.randint(0, 6)
    q = rng.choice([f"{{{m},{rng.randint(m, 6)}}}", f"{{{m}}}", f"{{{m},}}", "*", "+", "?"])
    return q + "?" if rng.random() < 0.2 else q


def nested_repeat(rng):
    """(Y{a,b}){c,d}, its inner repeat seen through a capturing, a plain or
    a doubled group, and the body's words."""
    body = rng.choice(list(FUSION_BODIES))
    inner = body + repeat_quantifier(rng)
    group = rng.choice(["({})", "(?:{})", "((?:{}))", "(({}))"])
    return group.format(inner) + repeat_quantifier(rng), FUSION_BODIES[body]


class TestRepeatFusion:
    def test_nested_repeats_match_as_re_matches(self):
        # Strings of 0 to 40 body words, which cross every count a bound up to
        # 6 * 6 allows, and short strings over the bodies' letters.
        rng = random.Random(33)
        for _ in range(300):
            pattern, words = nested_repeat(rng)
            dfa = completed_dfas([compile_pattern(pattern)])[0]
            texts = ["".join(rng.choice(words) for _ in range(t)) for t in range(41)]
            texts += ["".join(rng.choice("abc") for _ in range(rng.randint(1, 6))) for _ in range(10)]
            for text in texts:
                assert dfa.accepts(text) == (re.fullmatch(pattern, text) is not None), (pattern, text)

    @pytest.mark.parametrize("nested, flat", [("(a{1,40}){1,40}", "a{1,1600}"),
                                              ("(?:(a{1,3}){2}){1,2}", "a{2,12}"),
                                              ("((?:ab|c){1,}){2,3}", "(?:ab|c){2,}"),
                                              ("([ab]{1,2})*?", "[ab]*"),
                                              ("(a+){0}", "a{0}")])
    def test_gapless_nest_is_one_repeat(self, nested, flat):
        # (Y{a,b}){c,d} is built as Y{c·a, d·b}: the automaton is the flat one.
        assert compile_pattern(nested).positions == compile_pattern(flat).positions

    @pytest.mark.parametrize("nested, fused", [("(a{2}){1,2}", "a{2,4}"), ("(a?){3}", "a{0,3}"),
                                               ("(a{2,3}){0,2}", "a{0,6}"),
                                               ("(a{1,2}b{0}){2}", "a{2,4}")])
    def test_a_gap_or_a_longer_body_is_not_fused(self, nested, fused):
        # {2, 4} leaves out 3; (a?){3} may be empty; {0} ∪ {2..6} needs a = 1;
        # and a body of more than one item is not a repeat, although b{0}
        # leaves the language that of a{2,4}.
        assert compile_pattern(nested).positions != compile_pattern(fused).positions

    def test_flagged_group_is_not_unwrapped(self):
        # (?i:…) adds a flag: the group is lowered as it is, and stays approximate.
        compiled = compile_pattern("(?i:a{1,2}){2}")
        assert compiled.stripped_features == ("flag",)
        assert compiled.positions != compile_pattern("a{2,4}").positions
        assert compile_pattern("(?i:a{2}){3}").approximate

    @pytest.mark.parametrize("pattern", ["(a{1,40}){1,40}", "(?:(a{1,3}){2}){1,2}",
                                         "x((?:ab|c){1,}){2,3}y", "([ab]{1,2})*?", "(a+){0}",
                                         "((a?b){1,3}){2,}", "(a{2}){1,2}"])
    def test_positions_are_the_fold_of_the_tokens(self, pattern):
        # The tokens `parse` gives are fused too: their postfix fold is the
        # automaton of the one walk.
        labels, follow, final, _ = frontend.parse_positions(pattern)
        assert positions(to_postfix(parse(pattern))) == Positions(labels, follow, final)


class TestRequiredLiteral:
    @pytest.mark.parametrize("pattern, literal", [
        ("(?i)ab", ""), ("(?i:ab)cd", "cd"), ("ab|ac", "a"), ("(?x) a b c", "abc"),
        ("a{2}b", "b"), (r"a\bb", "a"), ("(?:ab)c", "abc"), ("[a]b", "ab"),
        ("(?i)k", ""), (r"\d+", ""),
    ])
    def test_pinned(self, pattern, literal):
        assert frontend.required_literal(pattern) == literal

    def test_host_rejected_pattern(self):
        with pytest.raises(PatternSyntaxError):
            frontend.required_literal("(?P<x")

    # Flag, group, anchor and lookaround cases beside the random draws.
    EDGE_CASES = ["(?i:ab)cd", "a(?=b)bc", "(ab)c", "(?-i:a)b", "(?x)a b", "ab|ac",
                  r"a\bb", "^ab", "ab$", "(?s)a.b", "a{2}b", "(?:ab)+c", "a(?!b)",
                  "(?<=a)bK", "[a]b", "k(?i:K)", "(?a)Kb", "a|b", "(?m)^K$"]

    def test_every_match_contains_the_literal(self):
        rng = random.Random(29)
        patterns = list(self.EDGE_CASES)
        for _ in range(300):
            pattern = random_pattern(rng, 4, "abK")
            patterns += [pattern, rng.choice(["(?i)", "(?x)", "(?s)"]) + pattern]
        texts = ["".join(rng.choices("abkK\u212a ", k=rng.randint(0, 8)))
                 for _ in range(300)]
        for pattern in patterns:
            literal, rx = frontend.required_literal(pattern), re.compile(pattern)
            for text in texts:
                assert literal in text or rx.search(text) is None, (pattern, text)


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

    def test_trace_renders_each_token_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(frontend, "format_charset",
                            lambda chars: calls.append(chars) or format_charset(chars))
        expr = parse("a" * (frontend.TRACE_MAX_TOKENS // 2))  # the longest traced literal
        shunting_yard_trace(expr)
        assert 0 < len(calls) <= len(expr.tokens)

    @pytest.mark.parametrize("n", [frontend.TRACE_MAX_TOKENS, frontend.TRACE_MAX_TOKENS + 1])
    def test_trace_bound_counts_postfix_tokens(self, n):
        # A program of at most TRACE_MAX_TOKENS tokens is traced, and the
        # parentheses of the infix tokens do not count: '(a...a)*' with k
        # symbols is 2k tokens, '(b|cd)a...a' 2k + 5.
        pattern = "(" + "a" * (n // 2) + ")*" if n % 2 == 0 else "(b|cd)" + "a" * ((n - 5) // 2)
        expr = parse(pattern)
        assert any(tok.kind is TokenKind.LPAREN for tok in expr.tokens)
        prog, trace = shunting_yard_trace(expr)
        assert len(prog.tokens) == n
        assert prog == to_postfix(parse(pattern))
        assert (trace is not None) == (n <= frontend.TRACE_MAX_TOKENS)

    def test_trace_reasons(self):
        # An operator that pops one of equal or higher precedence, or meets an
        # opening parenthesis, is "op."; one pushed over a lower one says so.
        _, trace = shunting_yard_trace(parse_formal("a|b|c&d&(e|f)"))
        assert [(r.regarded, r.reason) for r in trace if r.regarded in "&|"] == [
            ("|", "op."), ("|", "op."), ("&", "op., & > |"), ("&", "op."), ("|", "op.")]


class TestPostfixToAst:
    """Postfix programs read by `parse_postfix`, and the well-formedness
    check it makes."""

    def test_simple(self):
        assert accepted(parse_postfix("ab&"), "ab", 3) == {"ab"}

    def test_worked_postfix(self):
        sample = accepted(parse_postfix("ba|ab|*&"), "ab", 3)
        assert "" not in sample
        assert {"a", "b", "ab", "ba", "abb"} <= sample

    @pytest.mark.parametrize("text, message", [
        ("ab", "postfix program leaves 2 values"),
        ("&", "binary operator underflow"),
        ("*", "star without operand"),
        ("(a", "parenthesis in postfix program"),
        ("a)", "parenthesis in postfix program"),
        ("", "postfix program leaves 0 values"),
    ], ids=["two_values", "underflow", "bare_star", "open_paren", "close_paren", "empty"])
    def test_malformed(self, text, message):
        with pytest.raises(MalformedExpression) as exc:
            parse_postfix(text)
        assert str(exc.value) == message


SUPPORTED = st.sampled_from([
    "ab", "a|b", "a*b", "(a|b)*", "a{2,3}", "[ab]c", "a?b+", "(ab|b)*a",
    "[a-b](a|b)*", "a(|b)c", "((a))", "a{1,}b?", "a&b", r"\x61b", "(?x) a b",
    r"\w+", r"\d?\W", r"[^a]b*", r".\D", r"é|\s", r"[\w-]{2}",
    "a{1,3}", "(ab){0,3}", "(a{1,2}){2,3}", "[ab]{3,}", "(a|é){0,2}b",
])


@settings(max_examples=80, deadline=None)
@given(SUPPORTED, st.sampled_from(["ab", "aé٣\u00a0"]))
def test_roundtrip_language_preserved(pattern, alphabet):
    """The compiled DFA of a pattern accepts exactly what the host engine
    fully matches, checked by exhaustive enumeration over ASCII and non-ASCII
    strings."""
    dfa = completed_dfas([compile_pattern(pattern)])[0]
    n = 5 if alphabet == "ab" else 4
    for s in strings(alphabet, n):
        assert dfa.accepts(s) == (re.fullmatch(pattern, s) is not None), (pattern, s)


@pytest.mark.parametrize("pattern", [r"\d", r"\D", r"\w", r"\W", r"\s", r"\S", ".", "[^a]"])
def test_class_agrees_with_engine_on_every_code_point(pattern):
    """Each stretch of code points inside the class is matched character by
    character by the engine, and no character of a gap is."""
    chars = parse(pattern).tokens[0].chars
    every = re.compile(f"(?:{pattern})*")
    edges = [0] + [x for lo, hi in chars for x in (lo, hi + 1)] + [MAX_CODE + 1]
    for k, (lo, end) in enumerate(zip(edges, edges[1:])):
        inside = k % 2 == 1
        for base in range(lo, end, 1 << 16):
            text = "".join(map(chr, range(base, min(end, base + (1 << 16)))))
            if inside:
                assert every.fullmatch(text), (pattern, hex(base))
            else:
                assert re.search(pattern, text) is None, (pattern, hex(base))


@pytest.mark.filterwarnings("ignore::FutureWarning", "ignore::DeprecationWarning")
@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab(|)[^]{,}*+?\\.:-=!<>P#imx01dqεw&$", max_size=10))
@example("(?<n>a)")
@example(r"\q")
@example("a(?i)b")
@example("(?=(?<=a|bc))x")
@example("(?=a{5000})b")
def test_parse_accepts_only_what_re_compiles(pattern):
    """Rules are read by the host parser: whatever `parse` accepts, the
    engine that runs the rules accepts too."""
    try:
        parse(pattern)
    except (PatternSyntaxError, UnsupportedFeature):
        return
    re.compile(pattern)
