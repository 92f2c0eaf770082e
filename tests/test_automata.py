import itertools
import json
import random
import re
import time
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench_rules import bench_rule_set, load_bench_gen
from rexincl import automata as am
from rexincl import frontend
from rexincl import oracle as oc
from rexincl.errors import AlphabetMismatch, MalformedExpression
from rexincl.frontend import (
    PostfixProgram,
    RawPattern,
    charset_min,
    charset_of,
    charset_size,
    charset_subset,
    charset_union,
    parse,
    parse_formal,
    parse_postfix,
    partition,
    to_postfix,
)
from rexincl.reducer import Rule, compute_inclusions

FIXTURES = Path(__file__).parent / "fixtures"


def nfa_of(pattern):
    return am.thompson(to_postfix(parse(pattern)))


def sets(*texts):
    return [charset_of(t) for t in texts]


def reference(sup, cand):
    """The unoptimized procedure on the pair's comparable DFAs."""
    return am.inclusion_unoptimized(*am.completed_dfas([sup, cand]))


def all_strings(alphabet, max_len):
    for k in range(max_len + 1):
        for combo in itertools.product(sorted(alphabet), repeat=k):
            yield "".join(combo)


class TestThompson:
    def test_worked_example_has_13_states(self):
        nfa = am.thompson(parse_postfix("ba|ab|*&"))
        assert nfa.n_states == 13

    @pytest.mark.parametrize("tokens", [
        parse_formal("a|b").tokens,  # infix: the operator underflows
        parse_formal("(a)").tokens,  # a parenthesis
        parse_postfix("ab&").tokens[:2],  # two values left
        parse_postfix("a*").tokens[::-1],  # a star without operand
    ], ids=["underflow", "parenthesis", "two_values", "bare_star"])
    def test_malformed_program(self, tokens):
        # `to_postfix` leaves arity to this stack evaluation, and the
        # position automaton's refuses the program with the same message.
        prog = PostfixProgram(tokens=tuple(tokens))
        with pytest.raises(MalformedExpression) as thompson_error:
            am.thompson(prog)
        with pytest.raises(MalformedExpression, match=re.escape(str(thompson_error.value))):
            am.positions(prog)

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

    def test_bounded_repetition_is_linear(self):
        # n copies of X, each with a constant overhead of states.
        assert nfa_of(r"\d{1,200}").n_states <= 1000
        assert nfa_of("(a{1,20}){1,20}").n_states <= 2000


class TestPowerset:
    def test_agrees_with_nfa_simulation(self):
        nfas = [nfa_of(p) for p in EDGE_PATTERNS]
        nfas.append(am.thompson(to_postfix(parse_formal("(b|a)&(a|b)*"))))
        for nfa in nfas:
            dfa = am.powerset(nfa)
            for s in all_strings("ab", 5):
                assert dfa.accepts(s) == nfa.accepts(s), (str(nfa.program), s)

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

    def test_alphabet_must_refine_labels(self):
        nfa = nfa_of("[ab]c")
        dfa = am.powerset(nfa, am.partition_classes(sets("a", "b", "c")))
        assert [dfa.accepts(s) for s in ("ac", "bc", "ab", "c")] == [True, True, False, False]
        for blocks in (sets("ab"),  # misses c
                       sets("abc"),  # a block straddles [ab] and c
                       sets("a", "bc"),  # b and c share a block
                       sets("ab", "bc")):  # not disjoint
            with pytest.raises(AlphabetMismatch):
                am.powerset(nfa, tuple(blocks))


def reference_determinize(nfa, alphabet):
    """Set-based subset construction: (table, accepting set).  Each target
    set's ε-closure is searched from its members; DFA states are numbered
    breadth-first, a row's new states in block order.  The empty set is a
    state like any other, so every row has an entry for every block."""
    blocks, columns = partition([*alphabet, *nfa.classes])
    assert blocks == tuple(alphabet)
    label_blocks = dict(zip(map(id, nfa.classes), columns[len(blocks):]))
    eps = {q: set() for q in range(nfa.n_states)}
    step = {q: [] for q in range(nfa.n_states)}
    for src, label, dst in nfa.transitions:
        if label is am.EPS_LABEL:
            eps[src].add(dst)
        else:
            step[src].extend((i, dst) for i in label_blocks[id(label)])

    def closure(states):
        out, todo = set(states), list(states)
        while todo:
            for r in eps[todo.pop()] - out:
                out.add(r)
                todo.append(r)
        return frozenset(out)

    order = [closure({nfa.start})]
    ids = {order[0]: 0}
    table = []
    for current in order:
        by_block = {}
        for q in current:
            for i, dst in step[q]:
                by_block.setdefault(i, set()).add(dst)
        row = []
        for i in range(len(alphabet)):
            nxt = closure(by_block.get(i, ()))
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        table.append(tuple(row))
    return tuple(table), frozenset(k for k, s in enumerate(order) if nfa.accept in s)


def pattern_groups():
    """Groups of patterns that share a partition: the bench rule sets by
    polarity, the bench's repetition ladder and oracle patterns by pair, and
    ε-cycle patterns alone."""
    gen = load_bench_gen()
    for seed in (1, 2):
        specs = [s.to_obj() for s in gen.rule_set(random.Random(f"{seed}-rules"), 30)]
        for polarity in ("positive", "negative"):
            yield [s["pattern"] for s in specs if s["polarity"] == polarity]
    for q in gen.check_batch(random.Random(1), 240, 0.1, 200):
        if not q["kind"].startswith("apa"):
            yield [q["superset"], q["candidate"]]
    rng = random.Random(11)
    for _ in range(150):
        yield [oc.random_pattern(rng, 4, "abc") for _ in range(2)]
    for pattern in ("(a*)*b", "((a|)*)*", "(a?|b*)*c", "((((a*)*)*)*)*", "(a*b*|c)*",
                    "((a*)?){0,30}", "(((a?)*b?){0,5})*"):
        yield [pattern]


def test_determinize_matches_set_based_reference():
    groups = 0
    for patterns in pattern_groups():
        nfas = [nfa_of(p) for p in patterns]
        sigma = am.partition_classes([c for nfa in nfas for c in nfa.classes])
        for pattern, nfa in zip(patterns, nfas):
            dfa = am.powerset(nfa, sigma)
            assert (dfa.table, dfa.accepting) == reference_determinize(nfa, sigma), pattern
        groups += 1
    assert groups > 180


def reference_position_determinize(pos, alphabet):
    """Subset construction over explicit sets of positions: (table,
    accepting set).  The successor of a set S on a block is every position
    that follows a member of S and whose label holds the block.  States are
    numbered breadth-first, a row's new states in block order, and the empty
    set is a state like any other."""
    blocks, columns = partition([*alphabet, *pos.labels])
    assert blocks == tuple(alphabet)
    holds = [None, *(set(col) for col in columns[len(blocks):])]  # per position

    def members(mask):
        return {p for p in range(mask.bit_length()) if mask >> p & 1}

    follow = [members(mask) for mask in pos.follow]
    order = [frozenset({0})]
    ids = {order[0]: 0}
    table = []
    for current in order:
        after = set().union(*(follow[p] for p in current))
        row = []
        for i in range(len(alphabet)):
            nxt = frozenset(p for p in after if i in holds[p])
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row.append(ids[nxt])
        table.append(tuple(row))
    final = members(pos.final)
    return tuple(table), frozenset(k for k, s in enumerate(order) if s & final)


# Patterns whose DFA states hold many positions, so that a state's byte
# unions cross the boundaries between positions 7 and 8 and 15 and 16.
DENSE_PATTERNS = [*(f"(a?){{{n}}}" for n in (6, 7, 8, 9, 15, 16, 17, 40)),
                  *(f"(a{{1,{k}}}){{1,{k}}}" for k in (3, 5, 9)),
                  *(f"(a|b)*a(a|b){{{n}}}" for n in (5, 7, 8)), "(a?b?){20}"]


def test_position_determinize_matches_set_based_reference():
    groups = 0
    for patterns in [*pattern_groups(), *([p] for p in DENSE_PATTERNS)]:
        compiled = [am.compile_pattern(p) for p in patterns]
        for pattern, c, dfa in zip(patterns, compiled, am.completed_dfas(compiled)):
            assert (dfa.table, dfa.accepting) == reference_position_determinize(
                c.positions, dfa.alphabet), pattern
        groups += 1
    assert groups > 180


STAR_HEAVY = {"symbol": 0.3, "concat": 0.2, "alt": 0.15, "star": 0.3, "epsilon": 0.05}


def test_powerset_of_thompson_matches_positions():
    # `powerset` determinizes the position automaton of the NFA's program;
    # the ε-closure subset construction over the Thompson NFA itself judges
    # it, state for state.
    progs = [to_postfix(parse(p)) for p in [*EDGE_PATTERNS, "(a|)*", "(()*)*", "(a{1,4}){0,4}"]]
    progs.append(to_postfix(parse_formal("(b|a)&(a|b)*")))
    rng = random.Random(23)
    progs += [to_postfix(parse(oc.random_pattern(rng, 6, "ab", STAR_HEAVY))) for _ in range(300)]
    for prog in progs:
        nfa = am.thompson(prog)
        sigma = am.partition_classes(nfa.classes)
        dfa = am.powerset(nfa, sigma)
        assert (dfa.table, dfa.accepting) == reference_determinize(nfa, sigma), str(prog)


def test_decisions_build_no_thompson_nfa(monkeypatch):
    # Decisions compile in one walk from re's parse tree to positions: no
    # infix tokens, no shunting-yard, no postfix fold, no Thompson NFA.
    def refuse(*args):
        raise AssertionError("the decision path built tokens or a Thompson NFA")

    monkeypatch.setattr(am, "thompson", refuse)
    monkeypatch.setattr(am, "positions", refuse)
    monkeypatch.setattr(frontend, "parse", refuse)
    monkeypatch.setattr(frontend, "to_postfix", refuse)
    assert am.check_inclusion("(a|b)*", "a(b|)*").included
    assert am.check_inclusion("a{1,3}", "a*").witness == ""
    rules = [Rule(id=i, pattern=RawPattern(p), polarity="negative")
             for i, p in enumerate(["a+", "a{2}", "b|a", r"\d*"])]
    assert compute_inclusions(rules).removed == {1}


def outcome(build, text):
    """What `build(text)` gives, or the class and message it is refused with."""
    try:
        return build(text)
    except Exception as exc:  # the refusal itself is compared
        return type(exc), str(exc)


def walked(text):
    compiled = am.compile_pattern(text)
    return compiled.positions, compiled.stripped_features


def folded(text):
    expr = parse(text)
    return am.positions(to_postfix(expr)), expr.stripped_features


def assert_walk_is_the_fold(texts):
    # The walk's position automaton is the fold of the postfix program,
    # labels being the very objects of the tokens, and it is refused where
    # the token route is, with the same class and message.
    for text in texts:
        got, expected = outcome(walked, text), outcome(folded, text)
        assert got == expected, text
        if isinstance(got[0], am.Positions):
            assert all(a is b for a, b in zip(got[0].labels, expected[0].labels)), text


# Atoms for repeat draws: ε bodies, anchors and lookarounds among them.
REPEAT_ATOMS = ["a", "b", "[ab]", r"\d", "()", "(?:)", "(a|)", "^", "$", r"\b", "(?=a)",
                "(?<!b)", "(?:^|a)"]
REPEAT_QUANTIFIERS = ["?", "*", "+", "{0}", "{1}", "{2}", "{0,1}", "{0,3}", "{1,3}",
                      "{2,4}", "{0,}", "{1,}", "{3,}", "{2,3}?"]


def repeat_pattern(rng, depth):
    """A random pattern built mostly of repeats, nested up to `depth`."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(REPEAT_ATOMS)
    roll = rng.random()
    if roll < 0.5:
        return f"(?:{repeat_pattern(rng, depth - 1)}){rng.choice(REPEAT_QUANTIFIERS)}"
    parts = [repeat_pattern(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return "".join(parts) if roll < 0.8 else "(?:" + "|".join(parts) + ")"


def test_walk_matches_the_postfix_fold_on_bench_inputs():
    gen = load_bench_gen()
    texts = [*EDGE_PATTERNS]
    for seed in (1, 2, 3, 777):
        texts += [rule.pattern.text for rule in bench_rule_set(seed, 100)]
    for seed in (1, 2, 3):
        for q in gen.check_batch(random.Random(f"{seed}-checks"), 240, 0.1, 200):
            texts += [q["superset"], q["candidate"]]
    assert len(set(texts)) > 900
    assert_walk_is_the_fold(dict.fromkeys(texts))


def test_walk_matches_the_postfix_fold_on_random_patterns():
    rng = random.Random(26)
    texts = [oc.random_pattern(rng, 5, "abc") for _ in range(3000)]
    texts += [repeat_pattern(rng, 4) for _ in range(2000)]
    assert_walk_is_the_fold(texts)


@pytest.mark.parametrize("text", ["a{4000}", "a{4001}", "(ab){2000}", "(ab){2001}",
                                  "((a|b){0,100}){0,100}", "a{4294967294}",
                                  "(?:){0,4294967294}", r"(a)\1", "(?>a)", "a++", "(",
                                  "(?<=a|bc)x", "(?=(?<=a|bc))x",
                                  pytest.param("(" * 1000 + "a" + ")" * 1000, id="deep")])
def test_walk_refuses_as_the_tokens_do(text):
    assert_walk_is_the_fold([text])


def test_chain_of_optionals_is_decided_in_bounded_time():
    # Each DFA state of the chain holds up to 1,999 positions; a row ORs one
    # memoized union per byte of the state, not one follow set per member.
    start = time.perf_counter()
    assert am.check_inclusion("a*", "(a?){1999}").included
    assert time.perf_counter() - start < 0.25


def test_chain_of_optionals_compiles_in_linear_time():
    # Right-to-left concatenation links each last position once; the fold of
    # the postfix program ORs every earlier optional's last positions again.
    start = time.perf_counter()
    compiled = [am.compile_pattern(t) for t in ("(a?){1999}", "(a?b?){999}", "a?" * 1999)]
    assert time.perf_counter() - start < 0.2
    assert compiled[0].positions.follow[1] == sum(1 << p for p in range(2, 2000))
    assert compiled[2].positions == compiled[0].positions


def test_powerset_is_complete_with_the_empty_set_as_sink():
    # Over the bench rule groups' partitions, every row has an entry for
    # every block.  No label of these patterns is empty, so every nonempty
    # set of positions can reach a final one, and the one dead state is the
    # empty set: non-accepting and absorbing, and there whenever the pattern
    # misses a block.
    gen = load_bench_gen()
    for seed in (1, 2):
        specs = [s.to_obj() for s in gen.rule_set(random.Random(f"{seed}-rules"), 30)]
        for polarity in ("positive", "negative"):
            nfas = [nfa_of(s["pattern"]) for s in specs if s["polarity"] == polarity]
            sigma = am.partition_classes([c for nfa in nfas for c in nfa.classes])
            for nfa in nfas:
                dfa = am.powerset(nfa, sigma)
                assert all(len(row) == len(sigma) and set(row) <= set(range(dfa.n_states))
                           for row in dfa.table)
                dead = [q for q in range(dfa.n_states) if not dfa.live[q]]
                misses = any(not charset_subset(block, nfa.chars()) for block in sigma)
                assert len(dead) == misses
                for q in dead:
                    assert q not in dfa.accepting and set(dfa.table[q]) == {q}


# A superset without a sink, a label behind an empty class, a pattern whose
# start is dead although it is not the sink, and the empty string.
EDGE_PATTERNS = [r"[\x00-\U0010ffff]*", r"a|[^\x00-\U0010ffff]b", r"[^\x00-\U0010ffff]", "()", "a"]


def test_full_range_star_has_no_sink():
    compiled = am.compile_pattern(EDGE_PATTERNS[0])
    dfa = am.completed_dfas([compiled])[0]
    assert dfa.sink is None
    assert (dfa.table, dfa.accepting) == reference_position_determinize(compiled.positions,
                                                                         dfa.alphabet)


def test_dead_start_is_not_the_sink():
    dfa = am.completed_dfas([am.compile_pattern(p) for p in EDGE_PATTERNS])[2]
    assert dfa.live[dfa.start] is False and dfa.start != dfa.sink
    assert dfa.live_steps == ((), ())


def test_liveness_read_off_the_positions_matches_the_sweep():
    # `_determinize` seeds `live` from the useful positions, also for a
    # pattern with an empty label; every complement still takes the reverse
    # sweep.
    seeded = empty_labels = 0
    for patterns in [*pattern_groups(), EDGE_PATTERNS]:
        compiled = [am.compile_pattern(p) for p in patterns]
        for c, dfa in zip(compiled, am.completed_dfas(compiled)):
            empty_label = any(charset_size(label) == 0 for label in c.positions.labels)
            assert "live" in vars(dfa), c.pattern
            seeded += 1
            empty_labels += empty_label
            live = am.Dfa.live.func(dfa)
            steps = tuple(tuple((i, dst) for i, dst in row.items() if live[dst])
                          for row in dfa.rows)
            blocks = {i for row in steps for i, _ in row}
            assert (dfa.live, dfa.live_steps) == (live, steps), c.pattern
            assert dfa.char_blocks == sum(1 << i for i in blocks), c.pattern
            assert "live" not in vars(am.complement(dfa))
    assert seeded > 450 and empty_labels == 2


def test_constructor_checks_sink_rules():
    # Over blocks a, b: a row that misses a block needs a sink, and the sink
    # leads only to itself.
    sigma = am.partition_classes(sets("a", "b"))
    with pytest.raises(ValueError, match="no sink"):
        am.Dfa(start=0, accepting=frozenset({1}), rows=({0: 1}, {0: 1, 1: 1}), sink=None, alphabet=sigma)
    with pytest.raises(ValueError, match="sink's row"):
        am.Dfa(start=0, accepting=frozenset({1}), rows=({0: 1}, {0: 1}), sink=1, alphabet=sigma)
    dfa = am.Dfa(start=0, accepting=frozenset({1}), rows=({0: 1, 1: 0}, {0: 1, 1: 1}),
                 sink=None, alphabet=sigma)
    assert am.complement(dfa).sink is None


def test_decision_walk_matches_reference():
    # Every ordered pair of each group, over the group's partition: the walk,
    # which stops where the superset falls into its sink, gives the verdict
    # of the explicit product, on the built DFAs and on the lazy ones, whose
    # rows are shared by all the group's walks as the reducer shares them.
    # The explicit product of two bench rules costs about 8 ms, so a bench
    # rule group gives its first 8 patterns.
    pairs = 0
    for patterns in [*pattern_groups(), EDGE_PATTERNS]:
        compiled = [am.compile_pattern(p) for p in patterns[:8]]
        dfas, lazy = am.completed_dfas(compiled), am.lazy_dfas(compiled)
        for (sup, cand), (lazy_sup, lazy_cand) in zip(itertools.product(dfas, repeat=2),
                                                      itertools.product(lazy, repeat=2)):
            expected = am.inclusion_unoptimized(sup, cand).included
            assert am._included(sup, cand) == expected, patterns
            assert am._included(lazy_sup, lazy_cand) == expected, patterns
            pairs += 1
    assert pairs > 900


def test_complemented_sides_match_reference():
    # The superset of a check may itself be a complement, whose sink rejects,
    # and so may the candidate, whose steps into its accepting sink are live.
    dfas = am.completed_dfas([am.compile_pattern(p) for p in [*EDGE_PATTERNS, "ab", "a*b*"]])
    for sup, cand in itertools.product(dfas, repeat=2):
        for s, c in ((am.complement(sup), cand), (sup, am.complement(cand)),
                     (am.complement(sup), am.complement(cand))):
            assert am.inclusion(am.complement(s), c) == am.inclusion_unoptimized(s, c)


# Labels behind an empty class: a dead branch, a star of nothing, a dead
# tail, and a live pattern around a dead loop.
EMPTY_CLASS = r"[^\x00-\U0010ffff]"
EMPTY_LABEL_PATTERNS = [p.replace("∅", EMPTY_CLASS) for p in ("a|∅b", "∅*", "a∅", "(a∅|b)*c", "∅b|a*")]


def with_empty_label(rng):
    """Two random patterns over ab joined around the empty class: dead and
    live branches, loops and tails."""
    shape = rng.choice(["(?:{a})|{e}(?:{b})", "(?:{a}{e}|{b})*", "(?:{a})*{e}?(?:{b})",
                        "{e}*(?:{a})", "(?:{a}|{e})(?:{b})", "(?:{a})(?:{b}{e})*"])
    a, b = (oc.random_pattern(rng, 3, "ab", STAR_HEAVY) for _ in range(2))
    return shape.format(a=a, b=b, e=EMPTY_CLASS)


def eager_verdict(sup, cand):
    """The verdict and witness of the built DFAs: both determinized in full
    over the pair's partition, the superset complemented."""
    sup_dfa, cand_dfa = am.completed_dfas([sup, cand])
    return am.inclusion(am.complement(sup_dfa), cand_dfa)


def test_lazy_decision_matches_the_built_dfas():
    # The walk over rows built on demand gives the verdict and the shortest
    # witness of the walk over the determinized DFAs, on the bench's checks,
    # on the edge patterns and on patterns with empty labels; on the small
    # ones the explicit product judges both.
    gen = load_bench_gen()
    pairs = [(q["superset"], q["candidate"]) for seed in (1, 2, 3)
             for q in gen.check_batch(random.Random(f"{seed}-checks"), 240, 0.1, 200)]
    small = [*EDGE_PATTERNS, *EMPTY_LABEL_PATTERNS, "ab", "a*b*", "b"]
    judged = list(itertools.product(small, repeat=2))
    rng = random.Random(33)
    judged += [(with_empty_label(rng), with_empty_label(rng)) for _ in range(300)]
    for sup, cand in pairs + judged:
        compiled = am.compile_pattern(sup), am.compile_pattern(cand)
        lazy = am.decide_inclusion(*compiled)
        assert lazy == eager_verdict(*compiled), (sup, cand)
        if (sup, cand) in judged:
            assert lazy == reference(*compiled), (sup, cand)
    assert len(pairs) == 720


def test_sigma_gate_from_positions_matches_the_built_dfas():
    # `chars`, read off the useful positions, is `Dfa.char_blocks`: on the
    # bench rule groups at 100 rules per polarity, and on every group of
    # `pattern_groups` with the edge and empty-label patterns.
    rng = random.Random(34)
    groups = [*pattern_groups(), EDGE_PATTERNS, EMPTY_LABEL_PATTERNS,
              *([with_empty_label(rng) for _ in range(4)] for _ in range(50))]
    for polarity in ("positive", "negative"):
        groups.append([r.pattern.text for r in bench_rule_set(1, 100) if r.polarity == polarity])
    for patterns in groups:
        compiled = [am.compile_pattern(p) for p in patterns]
        for lazy, dfa in zip(am.lazy_dfas(compiled), am.completed_dfas(compiled)):
            assert lazy.chars == dfa.char_blocks, patterns


@pytest.mark.parametrize("n", [12, 40])
def test_a_short_witness_builds_a_handful_of_rows(n):
    # The superset's DFA has over 2^n states; the walk finds the witness 'b'
    # after one row on each side.  Rows are counted, not timed.
    sup, cand = am.lazy_dfas([am.compile_pattern(f"(a|b)*a(a|b){{{n}}}"), am.compile_pattern("b")])
    assert am.walk_inclusion(sup, cand).witness == "b"
    built = [sum(row is not None for row in side.rows[1:]) for side in (sup, cand)]
    assert built == [1, 1]
    assert len(sup.sets) + len(cand.sets) < 10


class TestComplete:
    def test_idempotent(self):
        sigma = am.partition_classes(sets("a", "b"))
        once = am.complete(am.powerset(nfa_of("ab"), sigma), sigma)
        twice = am.complete(once, sigma)
        assert twice.n_states == once.n_states

    def test_language_unchanged(self):
        sigma = am.partition_classes(sets("a", "b", "c"))
        plain = am.powerset(nfa_of("a"), sigma)
        full = am.complete(plain, sigma)
        # Oracle-derived: enumerate strings length <= 2 over {a,b,c}.
        for s in all_strings("abc", 2):
            assert full.accepts(s) == (s == "a")

    def test_alphabet_mismatch(self):
        dfa = am.powerset(nfa_of("ab"))
        with pytest.raises(AlphabetMismatch):
            am.complete(dfa, am.partition_classes(sets("a")))


class TestComplement:
    def test_complement_of_nonempty_language(self):
        nfa = nfa_of("[a-b](a|b)*")
        sigma = am.partition_classes(nfa.classes)
        dfa = am.complete(am.powerset(nfa, sigma), sigma)
        comp = am.complement(dfa)
        for s in all_strings("ab", 5):
            assert comp.accepts(s) == (s == "")

    def test_involution(self):
        sigma = am.partition_classes(sets("a", "b"))
        dfa = am.complete(am.powerset(nfa_of("(ab|b)*"), sigma), sigma)
        back = am.complement(am.complement(dfa))
        for s in all_strings("ab", 6):
            assert back.accepts(s) == dfa.accepts(s)

    def test_sink_only_dfa(self):
        sigma = am.partition_classes(sets("a", "b"))
        # ab completed has a sink; complement of the all-rejecting part:
        dfa = am.complete(am.powerset(nfa_of("ab"), sigma), sigma)
        comp = am.complement(dfa)
        # Oracle-derived: complement accepts everything except "ab".
        for s in all_strings("ab", 4):
            assert comp.accepts(s) == (s != "ab")


class TestLiveStates:
    # Over blocks a, b: 0 -a-> 1 -a-> 2 (accepting); 0 -b-> 3, a state that
    # only reaches the sink 4.
    SIGMA = am.partition_classes(sets("a", "b"))
    DFA = am.Dfa(start=0, accepting=frozenset({2}), rows=({0: 1, 1: 3}, {0: 2}, {}, {}, {}),
                 sink=4, alphabet=SIGMA)

    def test_live_marks_accepting_state_and_its_ancestors(self):
        assert self.DFA.live == (True, True, True, False, False)
        assert self.DFA.live_steps == (((0, 1),), ((0, 2),), (), (), ())

    def test_dead_start_is_included(self):
        dead = replace(self.DFA, start=3)
        sup = am.complement(am.complete(am.powerset(nfa_of("b"), self.SIGMA), self.SIGMA))
        assert am.inclusion(sup, dead).included

    def test_same_witness_as_reference(self):
        for pattern in ("b", "a", "ab", "(a|b)*"):
            sup = am.complete(am.powerset(nfa_of(pattern), self.SIGMA), self.SIGMA)
            assert am.inclusion(am.complement(sup), self.DFA) == am.inclusion_unoptimized(sup, self.DFA)


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
        assert re.fullmatch("ab|c", verdict.witness)
        assert not re.fullmatch("ab", verdict.witness)

    def test_sigma_gate_short_circuit(self):
        verdict = am.check_inclusion("[a-b](a|b)*", "ac")
        assert not verdict.included
        # The witness must still be machine-verifiable.
        assert re.fullmatch("ac", verdict.witness)
        assert not re.fullmatch("[a-b](a|b)*", verdict.witness)

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
            b = reference(am.compile_pattern(sup), am.compile_pattern(cand))
            assert a.included == b.included

    def test_transitivity_on_random_triples(self):
        rng = random.Random(7)
        checked = 0
        while checked < 25:
            pats = [oc.random_pattern(rng, 3, "ab") for _ in range(3)]
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
        classes = sets("abc", "bcd", "a")
        blocks = am.partition_classes(classes)
        union = charset_union(blocks)
        assert sum(map(charset_size, blocks)) == charset_size(union)  # disjoint
        assert union == charset_of("abcd")
        for cls in classes:
            assert cls == charset_union(b for b in blocks if charset_subset(b, cls))
        assert blocks == tuple(sets("a", "bc", "d"))  # ordered by lowest code point

    def test_block_of_several_stretches(self):
        # Code points are grouped by the classes that hold them, not by
        # adjacency: '_', 'a' and 'z' are one block, the rest of \w another.
        word = parse(r"\w").tokens[0].chars
        rest, both = am.partition_classes([word, charset_of("_az")])
        assert both == charset_of("_az")
        assert charset_min(rest) == "0"
        assert charset_union([rest, both]) == word

    def test_representation_equivalence(self):
        # Three spellings of the same three-letter language.
        spellings = ["[abc]{3}", "(a|b|c){3}", "[abc][abc][abc]"]
        for sup, cand in itertools.permutations(spellings, 2):
            assert am.check_inclusion(sup, cand).included


def load_fuzz_config():
    with open(FIXTURES / "random_patterns.json") as fh:
        return json.load(fh)


def test_differential_fuzz_seeded():
    """inclusion() vs inclusion_unoptimized() vs the host-judged bounded
    oracle on random pattern pairs; the seed and construct weights live in
    the fixture."""
    cfg = load_fuzz_config()
    rng = random.Random(cfg["seed"])
    for _ in range(cfg["smoke_pairs"]):
        left = oc.random_pattern(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        right = oc.random_pattern(rng, cfg["max_depth"], cfg["alphabet"], cfg["weights"])
        sup = am.compile_pattern(left)
        cand = am.compile_pattern(right)
        opt = am.decide_inclusion(sup, cand)
        ref = reference(sup, cand)
        assert opt.included == ref.included
        assert opt.witness == ref.witness  # both shortest, found in one order
        if opt.included:
            assert oc.verify_inclusion(right, left, cfg["alphabet"], 6)
        else:
            assert re.fullmatch(right, opt.witness)
            assert not re.fullmatch(left, opt.witness)


# A wider exact grammar: named classes, a negated set, optionals, pluses and
# bounded repeats on top of the fixture's symbols, ε, concatenation,
# alternation and star.  The alphabet's digit, space, uppercase and non-ASCII
# letters are what the classes tell apart.
WIDE_ATOMS = ["a", "1", "Z", "é", "[a1]", "()", r"\d", r"\w", r"\s", "[^a]"]
WIDE_SUFFIXES = ["", "", "", "*", "?", "+", "{2}", "{0,2}", "{1,3}"]
WIDE_ALPHABET = "a1 Zé"


def wide_pattern(rng, depth):
    if depth <= 0 or rng.random() < 0.3:
        piece = rng.choice(WIDE_ATOMS)
    else:
        joint = rng.choice(["", "|"])
        piece = f"({wide_pattern(rng, depth - 1)}{joint}{wide_pattern(rng, depth - 1)})"
    return piece + rng.choice(WIDE_SUFFIXES)


def test_differential_wide_grammar_against_the_host():
    """`check_inclusion`'s verdict and witness agree with the host's full
    matches of every string of up to 4 characters: an inclusion has no
    counterexample among them, and an exclusion's witness separates the pair
    and is no longer than the shortest counterexample found."""
    rng = random.Random(2024)
    excluded = 0
    for _ in range(300):
        sup, cand = wide_pattern(rng, 2), wide_pattern(rng, 2)
        verdict = am.check_inclusion(sup, cand)
        counter = (oc.enumerate_language(cand, WIDE_ALPHABET, 4)
                   - oc.enumerate_language(sup, WIDE_ALPHABET, 4))
        if verdict.included:
            assert not counter, (sup, cand, min(counter, key=len))
        else:
            excluded += 1
            w = verdict.witness
            assert re.fullmatch(cand, w) and not re.fullmatch(sup, w), (sup, cand, w)
            assert not counter or len(w) <= min(map(len, counter)), (sup, cand, w)
    assert 30 < excluded < 285  # both verdicts are exercised


def test_pipeline_agrees_with_oracle_matcher():
    """parse→postfix→thompson→powerset→complete acceptance equals the host
    engine's full match on every short string over the pattern's probe
    alphabet."""
    patterns = ["[a-b](a|b)*", "a{1,3}b", "(ab|b)*", "a?b+c", "[abc]{2}",
                r"\d", "a(|b)c"]
    for pattern in patterns:
        nfa = nfa_of(pattern)
        sigma = am.partition_classes(nfa.classes)
        dfa = am.complete(am.powerset(nfa, sigma), sigma) if sigma else am.powerset(nfa, sigma)
        for s in all_strings(oc.probe_alphabet(pattern), 4):
            assert dfa.accepts(s) == (re.fullmatch(pattern, s) is not None), (pattern, s)


# Rule pieces whose meaning differs between ASCII and Unicode, and strings
# over characters that tell the readings apart.
UNICODE_ATOMS = ["a", "1", "é", "٣", " ", "\u00a0", r"\w", r"\d", r"\s", ".",
                 r"\W", r"\D", r"\S", "[^a]", "[^é1]"]
UNICODE_SAMPLE = [
    "".join(chars) for k in range(4) for chars in itertools.product("a1é٣ \u00a0\n_", repeat=k)
]
unicode_patterns = st.recursive(
    st.sampled_from(UNICODE_ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda p: f"(?:{p[0]}|{p[1]})"),
        inner.map(lambda p: f"(?:{p})*"),
        inner.map(lambda p: f"(?:{p})?"),
    ),
    max_leaves=5,
)


@settings(max_examples=150, deadline=None)
@given(unicode_patterns, unicode_patterns)
def test_verdicts_hold_in_the_engine_on_unicode(sup, cand):
    """An inclusion holds on every sampled string under re.fullmatch; an
    exclusion's witness separates the pair under re.fullmatch."""
    verdict = am.check_inclusion(sup, cand)
    if verdict.included:
        for s in UNICODE_SAMPLE:
            assert not re.fullmatch(cand, s) or re.fullmatch(sup, s), (sup, cand, s)
    else:
        w = verdict.witness
        assert re.fullmatch(cand, w) and not re.fullmatch(sup, w), (sup, cand, w)
