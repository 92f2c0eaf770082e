"""Frontend: rule patterns lowered to the five formal constructs, as infix
tokens or straight to their position automaton, and shunting-yard
conversion to postfix.

Rules are Python regular expressions, read with the host `re` engine's own
parser, so a rule means here what it means to the engine that runs it.  One
walk over the parse tree lowers it to five constructs: symbols (carried as
character *sets* of code-point intervals, not expanded to alternations), the
empty string, concatenation ('&'), alternation ('|') and the Kleene star.
The walk has two targets.  `parse_positions` builds the position automaton,
which decisions read; `parse` builds infix tokens, which serve display, the
formal notation and the reference that the position target is tested
against.  Features that cannot be represented exactly (anchors, lookarounds,
inline flags other than VERBOSE) are stripped and recorded so downstream
consumers can flag results as approximate.  A lookaround's body is not read:
`re.compile` alone judges look-behind widths.  Backreferences and other
non-regular constructs are rejected, and so is a pattern of more than
MAX_SYMBOLS operands once its repetitions are expanded.

`parse_formal` reads the paper's formal notation instead: one character per
symbol, explicit '&', '|' and '*', parentheses and 'ε'.  `required_literal`
reads the same tree for a string that every match of a rule contains, which
lets extraction skip a rule on a sentence without it.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import groupby

from .errors import MalformedExpression, PatternSyntaxError, UnsupportedFeature

try:
    from re import _parser as _sre  # Python 3.11+
except ImportError:  # Python 3.10
    import sre_parse as _sre

EPSILON_CHAR = "ε"  # the empty string in the formal notation

# The most operands (symbols and ε, which the shunting-yard reads as Σ) a
# pattern may have once expanded; it bounds everything built from a pattern.
MAX_SYMBOLS = 4000


# ---------------------------------------------------------------------------
# Character sets
# ---------------------------------------------------------------------------
#
# A character set is a sorted tuple of disjoint, non-adjacent (lo, hi)
# code-point intervals over the universe 0..MAX_CODE, so '.' and every
# negation are complements over all of Unicode, as in `re`, and the work on a
# set grows with its intervals, not its characters.  Every operation on the
# format is in this section; other modules never look inside a set.

MAX_CODE = 0x10FFFF
_NATIVE_UTF32 = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"

# sre's categories, as the classes whose characters are read off `re` itself.
_CATEGORIES = {
    _sre.CATEGORY_DIGIT: r"\d", _sre.CATEGORY_NOT_DIGIT: r"\D",
    _sre.CATEGORY_WORD: r"\w", _sre.CATEGORY_NOT_WORD: r"\W",
    _sre.CATEGORY_SPACE: r"\s", _sre.CATEGORY_NOT_SPACE: r"\S",
}


def charset(ranges) -> tuple:
    """The character set of (lo, hi) code-point ranges given in any order,
    overlapping or not."""
    out = []
    for lo, hi in sorted(ranges):
        if out and lo <= out[-1][1] + 1:
            if hi > out[-1][1]:
                out[-1] = (out[-1][0], hi)
        else:
            out.append((lo, hi))
    return tuple(out)


def charset_of(chars) -> tuple:
    """The character set of the characters of a string."""
    return charset((ord(c), ord(c)) for c in chars)


def charset_union(sets) -> tuple:
    return charset(interval for cs in sets for interval in cs)


def charset_complement(cs) -> tuple:
    out = []
    nxt = 0  # the lowest code point not yet placed in or out of a gap
    for lo, hi in cs:
        if lo > nxt:
            out.append((nxt, lo - 1))
        nxt = hi + 1
    if nxt <= MAX_CODE:
        out.append((nxt, MAX_CODE))
    return tuple(out)


def charset_contains(cs, c) -> bool:
    code = ord(c)
    i = bisect_right(cs, (code, MAX_CODE + 1)) - 1
    return i >= 0 and cs[i][1] >= code


def charset_subset(a, b) -> bool:
    """Whether every character of `a` is in `b`."""
    return charset_union([a, b]) == b


def charset_size(cs) -> int:
    return sum(hi - lo + 1 for lo, hi in cs)


def charset_min(cs) -> str:
    """The set's lowest character."""
    return chr(cs[0][0])


def format_charset(chars) -> str:
    """Spell a character set as `re` reads it back.  A set `re` has a name
    for is spelled by it: '\\d', '\\W', '.', and the empty set as
    '[^\\x00-\\U0010ffff]'.  Any other set is spelled as ranges, e.g.
    '[0-9a-b]'.  A single character is spelled bare unless it is a formal
    operator or `re` syntax: '[&]', '[.]'.  Inside brackets, the members that
    `re` reads as class syntax are escaped: '[\\-\\]]'."""
    if not chars:
        return r"[^\x00-\U0010ffff]"
    if len(chars) == 1 and chars[0][0] == chars[0][1]:
        c = chr(chars[0][0])
        if c not in _RE_SYNTAX and c not in _FORMAL_TOKENS:
            return _show_char(chars[0][0])
    if len(chars) > 1:  # every named set has two intervals or more
        name = _class_names().get(chars)
        if name:
            return name
    parts = []
    for lo, hi in chars:
        if lo == hi:
            parts.append(_show_member(lo))
        elif hi == lo + 1:
            parts.append(_show_member(lo) + _show_member(hi))
        else:
            parts.append(f"{_show_member(lo)}-{_show_member(hi)}")
    return "[" + "".join(parts) + "]"


# What `re` reads as syntax outside a class; a single character among these,
# or a formal operator, is spelled in brackets.
_RE_SYNTAX = ".^$*+?{}[]\\|()"

_ESCAPES = {"\t": "\\t", "\n": "\\n", "\r": "\\r", "\f": "\\f", "\v": "\\v"}


def _show_char(code):
    """A code point as printed: itself when printable, otherwise the escape
    `re` reads back as it ('\\x00', '\\ud800', '\\U000e0001')."""
    c = chr(code)
    return _ESCAPES.get(c) or (c if c.isprintable() else ascii(c)[1:-1])


def _show_member(code):
    """`_show_char` for a member of a bracketed class: '[', ']', '\\', '^'
    and '-' get a backslash."""
    c = chr(code)
    return "\\" + c if c in "[]\\^-" else _show_char(code)


@lru_cache(maxsize=None)
def _category(pattern) -> tuple:
    """The code points the host engine's class `pattern` matches.  Read once
    per process, a chunk of code points at a time, so that no string of the
    whole universe is ever built."""
    runs = re.compile(f"{pattern}+")
    ranges = []
    for base in range(0, MAX_CODE + 1, 1 << 14):
        codes = array("I", range(base, min(base + (1 << 14), MAX_CODE + 1)))
        chunk = codes.tobytes().decode(_NATIVE_UTF32, "surrogatepass")
        ranges.extend((base + m.start(), base + m.end() - 1) for m in runs.finditer(chunk))
    return charset(ranges)


@lru_cache(maxsize=None)
def _class_names() -> dict:
    """The sets `re` has a name for, mapped to the name: '.' and the
    classes read off the host engine, with their negations."""
    names = {charset_complement(((10, 10),)): "."}  # all but '\n'
    for name in (r"\d", r"\w", r"\s"):
        chars = _category(name)
        names[chars] = name
        names[charset_complement(chars)] = name.upper()
    return names


def partition(classes) -> tuple:
    """Refine character sets into the disjoint blocks covering their union,
    ordered by lowest code point, and list for each class the indices of
    the blocks it is the union of.  One sweep over the interval endpoints
    groups the stretches of code points by the classes that contain them
    (one bit per class)."""
    classes = list(classes)
    toggles = {}
    for bit, cls in enumerate(classes):
        flag = 1 << bit
        for lo, hi in cls:
            toggles[lo] = toggles.get(lo, 0) ^ flag
            toggles[hi + 1] = toggles.get(hi + 1, 0) ^ flag
    points = sorted(toggles)
    blocks = {}  # the classes containing a stretch -> the stretches
    inside = 0
    for lo, nxt in zip(points, points[1:]):
        inside ^= toggles[lo]
        if inside:
            blocks.setdefault(inside, []).append((lo, nxt - 1))
    columns = [[] for _ in classes]
    for i, inside in enumerate(blocks):
        while inside:
            low = inside & -inside
            columns[low.bit_length() - 1].append(i)
            inside ^= low
    return tuple(tuple(block) for block in blocks.values()), columns


def members(mask):
    """The indices of the bits set in `mask`, lowest first: the positions of
    a set of positions."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def partition_classes(classes) -> tuple:
    """The blocks of `partition`: every class is a union of them."""
    return partition(classes)[0]


class TokenKind(Enum):
    SYMBOL = "symbol"
    EPSILON = "epsilon"
    CONCAT = "concat"
    ALT = "alt"
    STAR = "star"
    LPAREN = "lparen"
    RPAREN = "rparen"


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    chars: tuple | None = None  # a character set, for a symbol

    def __post_init__(self):
        if self.kind is TokenKind.SYMBOL and self.chars is None:
            raise ValueError("symbol token needs a character set")

    def __str__(self):
        return token_str(self)


TOK_EPSILON = Token(TokenKind.EPSILON)
TOK_CONCAT = Token(TokenKind.CONCAT)
TOK_ALT = Token(TokenKind.ALT)
TOK_STAR = Token(TokenKind.STAR)
TOK_LPAREN = Token(TokenKind.LPAREN)
TOK_RPAREN = Token(TokenKind.RPAREN)

# The formal notation, one character per token; any other character is a
# one-character symbol.
_FORMAL_TOKENS = {"&": TOK_CONCAT, "|": TOK_ALT, "*": TOK_STAR, "(": TOK_LPAREN,
                  ")": TOK_RPAREN, EPSILON_CHAR: TOK_EPSILON}
_FORMAL_CHARS = {tok.kind: c for c, tok in _FORMAL_TOKENS.items()}


def _formal_tokens(text) -> list[Token]:
    return [_FORMAL_TOKENS.get(c) or Token(TokenKind.SYMBOL, charset_of(c)) for c in text]


def token_str(tok: Token) -> str:
    if tok.kind is TokenKind.SYMBOL:
        return format_charset(tok.chars)
    return _FORMAL_CHARS[tok.kind]


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawPattern:
    text: str

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"pattern must be a string, not {type(self.text).__name__}")
        if not self.text:
            raise ValueError("pattern text must be non-empty")


@dataclass(frozen=True)
class NormalizedExpr:
    tokens: tuple[Token, ...]
    stripped_features: tuple[str, ...] = ()

    @property
    def approximate(self):
        return bool(self.stripped_features)

    def __str__(self):
        return "".join(token_str(t) for t in self.tokens)


@dataclass(frozen=True)
class PostfixProgram:
    """Tokens in postfix order, each operator after its operands.  `check`
    holds the one arity rule, which `parse_postfix`, `automata.thompson` and
    `automata.positions` apply before they read the tokens."""

    tokens: tuple[Token, ...]

    def check(self):
        """The program, once a stack evaluation of it is found to meet no
        parenthesis, an operand for every star, two for every binary
        operator, and one value at the end; else MalformedExpression."""
        symbol, epsilon, star = TokenKind.SYMBOL, TokenKind.EPSILON, TokenKind.STAR
        concat, alt = TokenKind.CONCAT, TokenKind.ALT
        values = 0  # the operands an evaluation would hold on its stack
        for tok in self.tokens:
            kind = tok.kind
            if kind is symbol or kind is epsilon:
                values += 1
            elif kind is star:
                if not values:
                    raise MalformedExpression("star without operand")
            elif kind is concat or kind is alt:
                if values < 2:
                    raise MalformedExpression("binary operator underflow")
                values -= 1
            else:
                raise MalformedExpression("parenthesis in postfix program")
        if values != 1:
            raise MalformedExpression(f"postfix program leaves {values} values")
        return self

    def __str__(self):
        return "".join(token_str(t) for t in self.tokens)


# ---------------------------------------------------------------------------
# Lowering the host engine's parse tree
# ---------------------------------------------------------------------------
#
# One walk over the parse tree dispatches on re's ops: it strips and refuses
# features and bounds the pattern's size, and a target builds what each
# subtree lowers to.  `_Tokens` builds the infix tokens that `parse` returns,
# `_PositionForm` the position automaton that `parse_positions` returns.  A
# piece is a tuple whose first entry is its size, the operands (symbol and ε
# tokens) its infix tokens hold, and whose rest is the target's.  None is ε,
# which drops out of a concatenation, so that a stripped feature leaves no
# trace.

_TOO_DEEP = "pattern too long or too deeply nested"
_PREC_ALT, _PREC_CONCAT, _PREC_STAR, _PREC_ATOM = 1, 2, 3, 4
# Flags that leave the tree's meaning as it is: Unicode is the default for str
# patterns, and VERBOSE changes only how re reads the text into the tree.
_EXACT_FLAGS = _sre.SRE_FLAG_UNICODE | _sre.SRE_FLAG_VERBOSE


def _host(read, text):
    """`read(text)` for a re reader, `re.compile` or its parser; every way
    re rejects a pattern raises PatternSyntaxError."""
    try:
        return read(text)
    except RecursionError:
        raise PatternSyntaxError(_TOO_DEEP) from None
    except (re.error, ValueError, OverflowError) as exc:
        raise PatternSyntaxError(str(exc)) from None


def host_compile(raw: RawPattern):
    """The pattern compiled by re; one that re rejects raises PatternSyntaxError."""
    return _host(re.compile, raw.text)


def _bounded(size):
    """`size`, the operands of a piece about to be built, if within bound."""
    if size > MAX_SYMBOLS:
        raise PatternSyntaxError(
            f"{_TOO_DEEP}: {size} symbols after expansion exceed {MAX_SYMBOLS}")
    return size


def _walk(text, target):
    """The piece `target` lowers the pattern to, or None for ε, and the
    features stripped from it.  Refused are: a pattern `re` rejects, the
    empty pattern, one of more than MAX_SYMBOLS operands after expansion and
    one nested too deeply for the stack, each with PatternSyntaxError;
    backreferences, atomic groups, possessive repeats and the other
    non-regular constructs, with UnsupportedFeature.  A lookaround's body is
    not read, but a pattern with one is also compiled by `re`, the only judge
    of look-behind widths."""
    if not text:
        raise PatternSyntaxError("empty pattern")
    stripped = []
    try:  # parsing and lowering recurse once per level of re's nesting
        tree = _host(_sre.parse, text)
        if tree.state.flags & ~_EXACT_FLAGS:
            stripped.append("flag")
        piece = _lower(tree, stripped, target)
    except RecursionError:
        raise PatternSyntaxError(_TOO_DEEP) from None
    if "lookaround" in stripped:  # re's compiler alone decides look-behind widths
        _host(re.compile, text)
    return piece, tuple(stripped)


def _lower(items, stripped, target):
    """The concatenated pieces of a sequence of sre parse-tree items, refused
    as soon as it grows too large.  A loop, as a comprehension would cost a
    frame a level."""
    pieces, size = [], 0
    for op, av in items.data:  # a SubPattern's items, read without its __getitem__
        piece = _lower_item(op, av, stripped, target)
        if piece is not None:
            size = _bounded(size + piece[0])
            pieces.append(piece)
    if len(pieces) < 2:
        return pieces[0] if pieces else None
    return target.concat(pieces, size)


def _lower_item(op, av, stripped, target):
    """The piece of one parse-tree item; a repeat is lowered by
    `_lower_repeat`, which fuses the repeats nested directly in it."""
    if op in _SYMBOL_OPS:
        return target.symbol(_symbol_class(op, av))
    if op is _sre.BRANCH:
        return _alt([_lower(branch, stripped, target) for branch in av[1]], target)
    if op is _sre.SUBPATTERN:
        # A group may remove only i, m, s and x, and the tree reads as lowered without them.
        _, add_flags, _, body = av
        if add_flags & ~_EXACT_FLAGS:
            stripped.append("flag")
        return _lower(body, stripped, target)
    if op in _REPEAT_OPS:  # a lazy repeat reads as greedy
        m, n, body = av
        n = None if n == _sre.MAXREPEAT else n
        if len(body.data) == 1:
            body_op, body_av = body.data[0]
            if body_op in _SYMBOL_OPS:  # X{m,n} of one symbol, built directly
                return _repeat(target.symbol(_symbol_class(body_op, body_av)), m, n, target)
            if body_op in _NESTING_OPS:  # may hold a repeat to fuse
                return _lower_repeat(av, stripped, target)
        return _repeat(_lower(body, stripped, target), m, n, target)
    if op is _sre.AT:
        stripped.append("anchor")
        return None
    if op in (_sre.ASSERT, _sre.ASSERT_NOT):  # dropped unread; `_walk` has re judge it
        stripped.append("lookaround")
        return None
    if op in (_sre.GROUPREF, _sre.GROUPREF_EXISTS):
        raise UnsupportedFeature("backreferences are not regular")
    raise UnsupportedFeature(f"{str(op).lower().replace('_', ' ')} is not supported")


_SYMBOL_OPS = (_sre.IN, _sre.LITERAL, _sre.NOT_LITERAL, _sre.ANY)  # one character each
_REPEAT_OPS = (_sre.MAX_REPEAT, _sre.MIN_REPEAT)
_NESTING_OPS = (*_REPEAT_OPS, _sre.SUBPATTERN)  # the items a nested repeat is seen through


def _symbol_class(op, av) -> tuple:
    """The character set of a parse-tree item whose op is in _SYMBOL_OPS."""
    return _char_class(tuple(av) if op is _sre.IN else ((op, av),))


@lru_cache(maxsize=4096)
def _char_class(items) -> tuple:
    """The character set of a tuple of sre set items; a leading NEGATE
    complements it.  Memoized, so that a class repeated across rules is one
    object and per-label work downstream is done once."""
    ranges = []
    for op, av in items:
        if op is _sre.LITERAL:
            ranges.append((av, av))
        elif op is _sre.RANGE:
            ranges.append(av)
        elif op is _sre.NOT_LITERAL:
            ranges.extend(charset_complement(((av, av),)))
        elif op is _sre.ANY:
            ranges.extend(charset_complement(((10, 10),)))  # all but '\n'
        elif op is _sre.CATEGORY:
            ranges.extend(_category(_CATEGORIES[av]))
    chars = charset(ranges)
    if items and items[0][0] is _sre.NEGATE:
        chars = charset_complement(chars)
    return chars  # empty for a class like [^\x00-\U0010ffff], which matches nothing


def _alt(pieces, target):
    """Alternated pieces, ε counted as one operand; a lone piece stands for
    itself."""
    if len(pieces) < 2:
        return pieces[0]
    return target.alt(pieces, _bounded(sum(piece[0] if piece else 1 for piece in pieces)))


def _repeat(piece, m, n, target):
    """X{m,n}, or X{m,} when n is None: m copies of X followed by n-m
    optional copies, or by X*.  The whole repeat is counted, ε as one
    operand, before any of it is built.  ε repeated is ε* or ε|…|ε."""
    if piece is None:
        _expanded(1, m, n)
        return target.repeat(None, m, n, 1) if n is None else _alt([None] * (n - m + 1), target)
    return target.repeat(piece, m, n, _expanded(piece[0], m, n))


def _lower_repeat(av, stripped, target):
    """A repeat item, (Y{a,b}){c,d} lowered as Y{c·a, d·b} when that is the
    same language.  It is, since (Y{a,b})^k is Y{k·a, k·b}, when the
    ranges for successive k leave no gap between them: a ≥ 1, and c = d or
    (k+1)·a ≤ k·b + 1 at k = max(c, 1), and c = 0 only with a = 1.  The
    inner repeat is the whole body, seen through groups that add and remove
    no flag, and a fused repeat fuses on with the repeat around it.  Each
    level is still counted and refused as the nested expansion would be, so
    the size a fused piece carries is the nested one.  A body that lowers to
    ε is not fused, nor is an inner repeat that may be empty, as in
    (a?){n}."""
    counts = []  # the (m, n) of each nested repeat, outermost first
    while av is not None:
        m, n, body = av
        counts.append((m, None if n == _sre.MAXREPEAT else n))
        av = _inner_repeat(body)
    piece = _lower(body, stripped, target)
    lo, hi = counts.pop()
    size = None  # piece{lo,hi}'s nested size, once a level is fused into it
    while counts:
        c, d = counts.pop()
        if piece is not None and _gapless(lo, hi, c, d):
            inner = size if size is not None else _expanded(piece[0], lo, hi)
            size = _expanded(inner, c, d)
            if d == 0:  # c = 0 too: Y{0}
                hi = 0
            elif hi is not None and d is not None:
                hi *= d
            else:  # unbounded
                hi = None
            lo *= c
            continue
        piece = _repeat(piece, lo, hi, target) if size is None else target.repeat(piece, lo, hi, size)
        lo, hi, size = c, d, None
    return _repeat(piece, lo, hi, target) if size is None else target.repeat(piece, lo, hi, size)


def _inner_repeat(items):
    """(m, n, body) of the repeat that a sequence of parse-tree items is,
    seen through groups that add and remove no flag, or None."""
    while len(items.data) == 1:
        op, av = items.data[0]
        if op in _REPEAT_OPS:
            return av
        if op is not _sre.SUBPATTERN or av[1] or av[2]:
            return None
        items = av[3]
    return None


def _gapless(a, b, c, d):
    """Whether (Y{a,b}){c,d} is fused into Y{c·a, d·b}, b or d None for no
    upper bound: whether the ranges k·a to k·b, for k from c to d, join
    into one, under the conditions `_lower_repeat` names."""
    if a < 1 or c == 0 and a != 1:
        return False
    k = max(c, 1)
    return c == d or b is None or (k + 1) * a <= k * b + 1


def _expanded(size, m, n):
    """The operands of X{m,n} for an X of `size` operands, refused past
    MAX_SYMBOLS, as `_repeat` counts them."""
    return _bounded(size * m + (size if n is None else (size + 1) * (n - m)))


class _Tokens:
    """The infix-token target.  A piece is (size, tokens, precedence of its
    loosest top-level operator), and is parenthesized where it is the operand
    of an operator that binds tighter than it."""

    @staticmethod
    def symbol(chars):
        return 1, [Token(TokenKind.SYMBOL, chars)], _PREC_ATOM

    @staticmethod
    def concat(pieces, size):
        return size, _joined(pieces, TOK_CONCAT, _PREC_CONCAT), _PREC_CONCAT

    @staticmethod
    def alt(pieces, size):
        return size, _joined(pieces, TOK_ALT, _PREC_ALT), _PREC_ALT

    @staticmethod
    def repeat(piece, m, n, size):
        """m copies of X followed by n-m nested optionals,
        X&(X&(X|ε)|ε)|ε when n-m = 3, so that the tokens grow linearly in
        n; or by X*.  X is ε only in X{m,}."""
        # `rest` is sized 0: only the whole, which it is part of, is counted.
        if n is None:
            rest = (0, _operand(piece, _PREC_STAR) + [TOK_STAR], _PREC_STAR)
        elif n > m:  # the innermost X stands under '|', which binds loosest of all
            k = n - m
            head = _operand(piece, _PREC_CONCAT) + [TOK_CONCAT, TOK_LPAREN]
            rest = (0, head * (k - 1) + piece[1] + [TOK_ALT, TOK_EPSILON]
                    + [TOK_RPAREN, TOK_ALT, TOK_EPSILON] * (k - 1), _PREC_ALT)
        else:
            rest = None
        parts = [piece] * m if piece else []
        if rest:
            parts.append(rest)
        if len(parts) < 2:
            return (size, *parts[0][1:]) if parts else None
        return size, _joined(parts, TOK_CONCAT, _PREC_CONCAT), _PREC_CONCAT


def _operand(piece, need):
    """A piece's tokens as the operand of an operator of precedence `need`:
    in parentheses when the piece binds looser."""
    if piece is None:
        return [TOK_EPSILON]
    _, tokens, prec = piece
    return [TOK_LPAREN, *tokens, TOK_RPAREN] if prec < need else tokens


def _joined(pieces, op, prec):
    """The tokens of pieces joined by the operator token `op` of precedence `prec`."""
    tokens = []
    for piece in pieces:
        if tokens:
            tokens.append(op)
        tokens += _operand(piece, prec)
    return tokens


class _PositionForm:
    """The position-automaton target.  Symbols are numbered from 1 in the
    order they are met, which is the order of the postfix program: position
    p reads `labels[p - 1]`, and `follow[p]` is the set of the positions
    that may come right after it, an int with bit q for position q;
    `follow[0]` is left for the first positions of the whole.  A piece is
    (size, first, last, nullable): the sets of the positions it may start
    and end with, and whether it matches the empty string.  Its positions
    are the ones numbered from the lowest in its first set on, as every
    operand's first positions hold its lowest one."""

    def __init__(self):
        self.labels = []
        self.follow = [0]

    def symbol(self, chars):
        self.labels.append(chars)
        self.follow.append(0)
        p = 1 << len(self.labels)
        return 1, p, p, False

    def concat(self, pieces, size):
        """Linked right to left: an operand's last positions are followed
        by the first positions of the operands after it, up to the first
        that cannot match the empty string.  So each last position is
        linked once, however many operands match the empty string."""
        follow = self.follow
        after, last, nullable = 0, 0, True
        for _, first_k, last_k, nullable_k in reversed(pieces):
            if after:
                for p in members(last_k):
                    follow[p] |= after
            if nullable:
                last |= last_k
            after = after | first_k if nullable_k else first_k
            nullable = nullable and nullable_k
        return size, after, last, nullable

    @staticmethod
    def alt(pieces, size):
        first = last = 0
        nullable = False
        for piece in pieces:
            if piece is None:
                nullable = True
            else:
                first |= piece[1]
                last |= piece[2]
                nullable = nullable or piece[3]
        return size, first, last, nullable

    def repeat(self, piece, m, n, size):
        r"""The body X, lowered once, is copied by shifting its labels and
        follow sets, and the copies are linked as the tokens' expansion is:
        like a concatenation, except that the last positions of every copy
        past the m-th end the whole, and the (m+1)-th copy of X{m,} loops.
        X{0} drops X's positions.  An X of one position that does not match
        the empty string, such as `\d` in `\d{1,200}`, makes a chain, built
        in closed form: each position is followed by the next, the last
        loops in X{m,}, and the chain may end from its max(m, 1)-th
        position on."""
        if piece is None:  # ε*
            return size, 0, 0, True
        _, first, last, nullable = piece
        copies = m + 1 if n is None else n
        if not first:  # no positions: X matches the empty string only
            return (size, 0, 0, True) if copies else None
        labels, follow = self.labels, self.follow
        if copies == 1:  # X?, X* or X itself
            if n is None:
                for p in members(last):
                    follow[p] |= first
            return size, first, last, nullable or m == 0
        lo = (first & -first).bit_length() - 1
        if not copies:
            del labels[lo - 1:], follow[lo:]
            return None
        width = len(labels) - lo + 1
        if width == 1 and not nullable:  # a chain
            end = lo + copies - 1
            labels += labels[-1:] * (copies - 1)
            follow[lo:] = [2 << p for p in range(lo, end)]
            follow.append(1 << end if n is None else 0)
            return size, first, (1 << end + 1) - (1 << lo + max(m, 1) - 1), m == 0
        body = follow[lo:]
        labels += labels[lo - 1:] * (copies - 1)
        follow += [f << k * width for k in range(1, copies) for f in body]
        ends = list(members(last))
        if n is None:  # the last copy, X*, loops
            shift = m * width
            loop = first << shift
            for p in ends:
                follow[p + shift] |= loop
        after, ending, open_end = 0, 0, True
        for k in range(copies - 1, -1, -1):
            shift = k * width
            if after:
                for p in ends:
                    follow[p + shift] |= after
            if open_end:
                ending |= last << shift
            open_end = open_end and (k >= m or nullable)
            after = after | first << shift if nullable else first << shift
        return size, after, ending, nullable or m == 0


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse(raw: RawPattern | str) -> NormalizedExpr:
    """Expand a rule pattern into the five formal constructs.

    The pattern is read by the host `re` parser.  Returns an infix token
    stream with explicit '&' concatenation and all metacharacters, classes
    and repetitions expanded.  Strippable features are removed and recorded.
    The tokens serve display, the formal notation and the reference
    pipeline; decisions read `parse_positions`.  Refusals are `_walk`'s.
    """
    text = raw.text if isinstance(raw, RawPattern) else raw
    piece, stripped = _walk(text, _Tokens)
    return NormalizedExpr(tuple(piece[1]) if piece else (TOK_EPSILON,), stripped)


def parse_positions(raw: RawPattern | str) -> tuple:
    """The position automaton of a rule pattern, built in the one walk of
    re's parse tree that `parse` makes, without tokens: (labels, follow,
    final, stripped features) as `automata.Positions` holds the first three.
    It is the automaton `automata.positions` builds from
    `to_postfix(parse(raw))`, labels being the same objects, and it is
    refused exactly when `parse` refuses the pattern."""
    text = raw.text if isinstance(raw, RawPattern) else raw
    target = _PositionForm()
    piece, stripped = _walk(text, target)
    _, first, last, nullable = piece if piece else (1, 0, 0, True)
    target.follow[0] = first
    return tuple(target.labels), tuple(target.follow), last | int(nullable), stripped


def symbol_classes(text: str) -> list[tuple]:
    """The character sets of every symbol in re's parse tree of a pattern,
    found by an iterative walk: those in lookaround bodies, which `parse`
    leaves unread, and in constructs it refuses, such as backreferenced or
    atomic groups, included.  They only choose which characters
    `oracle.probe_alphabet` tries.  A pattern re rejects, at parse or at
    compile (the only judge of look-behind widths), raises
    PatternSyntaxError."""
    _host(re.compile, text)
    classes = []
    todo = [_host(_sre.parse, text)]
    while todo:
        for op, av in todo.pop().data:
            if op in _SYMBOL_OPS:
                classes.append(_symbol_class(op, av))
                continue
            # A subtree is av itself, an entry of av, or a branch in a list there.
            for part in av if isinstance(av, (tuple, list)) else (av,):
                for sub in part if isinstance(part, list) else (part,):
                    if isinstance(sub, _sre.SubPattern):
                        todo.append(sub)
    return classes


def required_literal(text: str) -> str:
    """A string that every match of the pattern contains: the longest run of
    consecutive LITERAL items at the top level of re's parse tree, the first
    of equal length, or "" when there is none.  Top-level items are
    concatenated, so any match holds such a run as a substring.  Any other
    item ends a run: a class, a repeat, an anchor, a lookaround, a capturing
    group or one with scoped flags.  re itself inlines a plain `(?:…)` group,
    reads `[a]` as `a` and factors `ab|ac` into `a[bc]`.  Global
    IGNORECASE or LOCALE gives "", as a literal then matches more than
    itself.  A pattern re rejects raises PatternSyntaxError."""
    tree = _host(_sre.parse, text)
    if tree.state.flags & (_sre.SRE_FLAG_IGNORECASE | _sre.SRE_FLAG_LOCALE):
        return ""
    runs = ("".join(chr(av) for _, av in items)
            for literal, items in groupby(tree.data, lambda item: item[0] is _sre.LITERAL)
            if literal)
    return max(runs, key=len, default="")


def parse_formal(text: str) -> NormalizedExpr:
    """Read the paper's formal notation, e.g. '(b|a)&(a|b)*': one character
    per symbol, explicit '&', '|' and '*', parentheses and 'ε'.  The tokens
    are kept as written, so the shunting-yard trace is the paper's."""
    tokens = _formal_tokens(text)
    depth = 0
    operand = False  # whether the tokens so far end in a complete operand
    for tok in tokens:
        closes = tok.kind in (TokenKind.STAR, TokenKind.CONCAT, TokenKind.ALT, TokenKind.RPAREN)
        if closes != operand:
            raise PatternSyntaxError(f"unexpected {token_str(tok)!r} in formal expression")
        depth += (tok.kind is TokenKind.LPAREN) - (tok.kind is TokenKind.RPAREN)
        if depth < 0:
            raise PatternSyntaxError("unbalanced parenthesis")
        operand = tok.kind not in (TokenKind.CONCAT, TokenKind.ALT, TokenKind.LPAREN)
    if not operand or depth:
        raise PatternSyntaxError("incomplete formal expression")
    return NormalizedExpr(tuple(tokens))


# The token kinds, bound once so that the per-token loops compare them by
# identity without looking them up or hashing them.
_SYMBOL, _EPSILON, _STAR = TokenKind.SYMBOL, TokenKind.EPSILON, TokenKind.STAR
_CONCAT, _LPAREN, _RPAREN = TokenKind.CONCAT, TokenKind.LPAREN, TokenKind.RPAREN


@dataclass(frozen=True)
class TraceRow:
    """One row of the shunting-yard trace: state after the previous action,
    plus the token regarded next and the rule applied to reach the next row."""

    remaining: str
    regarded: str
    op_stack: str
    output_stack: str
    reason: str


def _sya(tokens, trace: list[TraceRow] | None = None):
    # The operator stack holds (precedence, token) pairs, with * > & > |.  An
    # opening parenthesis has precedence 0, so no operator pops past it.
    ops: list[tuple[int, Token]] = []
    out: list[Token] = []
    unread = 0  # tokens[unread:] are still to be regarded
    tracing = trace is not None

    def row(regarded, reason):
        """Append a trace row.  `regarded` is a token or None; `reason` may
        name it as {t} and the top operator as {top}.  Called only when a
        trace was asked for."""
        t = shown[id(regarded)] if regarded is not None else "-"
        top = shown[id(ops[-1][1])] if ops else ""
        trace.append(TraceRow(
            remaining="".join([shown[id(x)] for x in tokens[unread:]]) or "-",
            regarded=t,
            op_stack="".join([shown[id(x)] for _, x in ops]) or "-",
            output_stack="".join([shown[id(x)] for x in out]) or "-",
            reason=reason.format(t=t, top=top),
        ))

    if tracing:
        shown = {id(tok): token_str(tok) for tok in tokens}  # each token rendered once
        row(None, "-")
    for tok in tokens:
        unread += 1
        kind = tok.kind
        if kind is _SYMBOL or kind is _EPSILON:
            if tracing:
                row(tok, "{t} ∈ Σ")
            out.append(tok)
        elif kind is _LPAREN:
            if tracing:
                row(tok, "Opening (")
            ops.append((0, tok))
        elif kind is _RPAREN:
            while ops and ops[-1][0]:
                if tracing:
                    row(tok, "Closing )")
                out.append(ops.pop()[1])
            if not ops:
                raise MalformedExpression("unbalanced parenthesis in token stream")
            if tracing:
                row(tok, "Closing )")
            ops.pop()
        else:
            prec = 3 if kind is _STAR else 2 if kind is _CONCAT else 1
            if tracing:  # one row, before any pop
                row(tok, "op., {t} > {top}" if ops and 0 < ops[-1][0] < prec else "op.")
            while ops and ops[-1][0] >= prec:
                out.append(ops.pop()[1])
            ops.append((prec, tok))
    while ops:
        if not ops[-1][0]:
            raise MalformedExpression("unbalanced parenthesis in token stream")
        if tracing:
            row(None, "Pop op.")
        out.append(ops.pop()[1])
    if tracing:
        row(None, "-")
    return out


def to_postfix(expr: NormalizedExpr) -> PostfixProgram:
    """Shunting-yard conversion with precedence * > & > |.  `parse` and
    `parse_formal` give well-formed infix, so the program passes
    `PostfixProgram.check`, which its evaluators call."""
    return PostfixProgram(tokens=tuple(_sya(expr.tokens)))


# The longest postfix program whose shunting-yard trace is built.  Each row
# restates every unread token and both stacks, so the table grows with the
# square of the program's length.
TRACE_MAX_TOKENS = 256


def shunting_yard_trace(expr: NormalizedExpr) -> tuple[PostfixProgram, list[TraceRow] | None]:
    """Like to_postfix, but also returns the per-step trace table, or None
    when the program has more than TRACE_MAX_TOKENS tokens.  The program
    holds every token but the parentheses."""
    parens = sum(tok.kind is _LPAREN or tok.kind is _RPAREN for tok in expr.tokens)
    trace = [] if len(expr.tokens) - parens <= TRACE_MAX_TOKENS else None
    return PostfixProgram(tokens=tuple(_sya(expr.tokens, trace))), trace


def parse_postfix(text: str) -> PostfixProgram:
    """Parse a compact postfix string like 'ba|ab|*&' (one char per token);
    an ill-formed program raises MalformedExpression."""
    return PostfixProgram(tokens=tuple(_formal_tokens(text))).check()
