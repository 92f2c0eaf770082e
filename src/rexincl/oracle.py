"""Brute-force ground truth: direct AST matching and bounded-length language
enumeration.  Deliberately independent of the automata path — no NFAs or
DFAs are involved — so it can serve as the differential-test partner."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import frontend
from .errors import BoundExceeded
from .frontend import Alt, Concat, Eps, RegexAst, Star, Sym

MAX_ALPHABET = 4
MAX_LEN = 8


@dataclass(frozen=True)
class LanguageSample:
    alphabet: tuple
    max_len: int
    accepted: frozenset


def ast_match(ast: RegexAst, s: str) -> bool:
    """True iff s is in the language of the tree.

    Recursive set-of-end-positions matching: match(node, i) is the set of j
    such that node matches s[i:j].  Exponential in principle, fine at desk
    scale, and entirely automata-free.  It recurses once per level of the
    tree, so a tree too deep for the stack raises BoundExceeded.
    """
    memo = {}

    def positions(node, i):
        key = (id(node), i)
        if key in memo:
            return memo[key]
        if isinstance(node, Sym):
            hit = i < len(s) and frontend.charset_contains(node.chars, s[i])
            result = frozenset({i + 1}) if hit else frozenset()
        elif isinstance(node, Eps):
            result = frozenset({i})
        elif isinstance(node, Concat):
            result = frozenset(
                k for j in positions(node.left, i) for k in positions(node.right, j)
            )
        elif isinstance(node, Alt):
            result = positions(node.left, i) | positions(node.right, i)
        elif isinstance(node, Star):
            seen = {i}
            frontier = {i}
            while frontier:
                nxt = set()
                for j in frontier:
                    for k in positions(node.inner, j):
                        if k not in seen:
                            seen.add(k)
                            nxt.add(k)
                frontier = nxt
            result = frozenset(seen)
        else:
            raise TypeError(f"unknown node {node!r}")
        memo[key] = result
        return result

    try:
        return len(s) in positions(ast, 0)
    except RecursionError:
        raise BoundExceeded("expression too deeply nested to match") from None


def alphabet_of(*asts: RegexAst) -> str:
    """Every character the expressions can match, in code-point order.  More
    than MAX_ALPHABET of them raise BoundExceeded before any is listed."""
    chars = frontend.charset_union(frontend.ast_chars(ast) for ast in asts)
    size = frontend.charset_size(chars)
    if size > MAX_ALPHABET:
        raise BoundExceeded(f"alphabet size {size} exceeds {MAX_ALPHABET}")
    return frontend.charset_chars(chars)


def enumerate_language(ast: RegexAst, alphabet, max_len: int) -> LanguageSample:
    """Exhaustively collect every accepted string up to max_len."""
    alphabet = tuple(sorted(alphabet))
    if len(alphabet) > MAX_ALPHABET:
        raise BoundExceeded(f"alphabet size {len(alphabet)} exceeds {MAX_ALPHABET}")
    if not 0 <= max_len <= MAX_LEN:
        raise BoundExceeded(f"max_len {max_len} is outside 0..{MAX_LEN}")
    accepted = set()
    for length in range(max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            s = "".join(combo)
            if ast_match(ast, s):
                accepted.add(s)
    return LanguageSample(alphabet=alphabet, max_len=max_len, accepted=frozenset(accepted))


def verify_inclusion(sub: RegexAst, sup: RegexAst, alphabet, max_len: int) -> bool:
    """Bounded-length inclusion check by enumeration.  A necessary condition
    only: agreement up to max_len is evidence, not proof."""
    sub_lang = enumerate_language(sub, alphabet, max_len)
    sup_lang = enumerate_language(sup, alphabet, max_len)
    return sub_lang.accepted <= sup_lang.accepted


# ---------------------------------------------------------------------------
# Random pattern generation for differential tests
# ---------------------------------------------------------------------------

# Construct weights for the random generator; mirrored in the test fixture
# so CI runs are reproducible and auditable.
DEFAULT_WEIGHTS = {
    "symbol": 0.35,
    "concat": 0.25,
    "alt": 0.20,
    "star": 0.12,
    "epsilon": 0.08,
}


def random_ast(rng: random.Random, max_depth: int = 4, alphabet: str = "abc",
               weights: dict | None = None) -> RegexAst:
    weights = weights or DEFAULT_WEIGHTS
    if max_depth <= 0:
        if rng.random() < 0.15:
            return Eps()
        return Sym(frontend.charset_of(rng.choice(alphabet)))
    kinds, probs = zip(*weights.items())
    kind = rng.choices(kinds, probs)[0]
    if kind == "symbol":
        # Occasionally a multi-character class to exercise partitions.
        if rng.random() < 0.25 and len(alphabet) > 1:
            size = rng.randint(2, len(alphabet))
            return Sym(frontend.charset_of(rng.sample(alphabet, size)))
        return Sym(frontend.charset_of(rng.choice(alphabet)))
    if kind == "epsilon":
        return Eps()
    if kind == "star":
        return Star(random_ast(rng, max_depth - 1, alphabet, weights))
    left = random_ast(rng, max_depth - 1, alphabet, weights)
    right = random_ast(rng, max_depth - 1, alphabet, weights)
    return Concat(left, right) if kind == "concat" else Alt(left, right)


def render_pattern(ast: RegexAst) -> str:
    """Render an AST back into practical-dialect text (for pipeline tests)."""
    if isinstance(ast, Sym):
        return frontend.format_charset(ast.chars)
    if isinstance(ast, Eps):
        return "()"
    if isinstance(ast, Concat):
        return _wrap(ast.left) + _wrap(ast.right)
    if isinstance(ast, Alt):
        return "(" + render_pattern(ast.left) + "|" + render_pattern(ast.right) + ")"
    if isinstance(ast, Star):
        return _wrap(ast.inner) + "*"
    raise TypeError(f"unknown node {ast!r}")


def _wrap(node):
    if isinstance(node, (Alt, Concat, Star)):
        return "(" + render_pattern(node) + ")"
    return render_pattern(node)
