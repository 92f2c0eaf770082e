"""Frontend: normalization to the five formal constructs and shunting-yard
conversion to postfix.

Rules are Python regular expressions, and `parse` reads them with the host
`re` engine's own parser, so a rule means here what it means to the engine
that runs it.  The parse tree is lowered straight to the infix tokens of five
constructs: symbols (carried as character *sets* of code-point intervals,
not expanded to alternations), the empty string, concatenation ('&'),
alternation ('|') and the Kleene star.  Features that cannot be represented
exactly (anchors, lookarounds, inline flags other than VERBOSE) are stripped
and recorded so downstream consumers can flag results as approximate.  A
lookaround's body is not read: `re.compile` alone judges look-behind widths.
Backreferences and other non-regular constructs are rejected, and so is a
pattern of more than MAX_SYMBOLS operands once its repetitions are expanded.

`parse_formal` reads the paper's formal notation instead: one character per
symbol, explicit '&', '|' and '*', parentheses and 'ε'.
"""

from __future__ import annotations

import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

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
    tokens: tuple[Token, ...]

    def __str__(self):
        return "".join(token_str(t) for t in self.tokens)


# ---------------------------------------------------------------------------
# Lowering the host engine's parse tree
# ---------------------------------------------------------------------------
#
# The parse tree is lowered straight to infix tokens, one piece per subtree.
# None is ε, which drops out of a concatenation, so that a stripped feature
# leaves no trace in the tokens.  A piece is parenthesized where it is the
# operand of an operator that binds tighter than it.

_TOO_DEEP = "pattern too long or too deeply nested"
_PREC_ALT, _PREC_CONCAT, _PREC_STAR, _PREC_ATOM = 1, 2, 3, 4
# Flags that leave the tree's meaning as it is: Unicode is the default for str
# patterns, and VERBOSE changes only how re reads the text into the tree.
_EXACT_FLAGS = _sre.SRE_FLAG_UNICODE | _sre.SRE_FLAG_VERBOSE


class _Piece(NamedTuple):
    tokens: list
    prec: int  # of its loosest top-level operator
    size: int  # operands: symbol and ε tokens


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


def _operand(piece, need):
    """A piece's tokens as the operand of an operator of precedence `need`:
    in parentheses when the piece binds looser."""
    if piece is None:
        return [TOK_EPSILON]
    return [TOK_LPAREN, *piece.tokens, TOK_RPAREN] if piece.prec < need else piece.tokens


def _join(pieces, op):
    """Pieces joined by `op`, TOK_CONCAT or TOK_ALT; ε drops out of a
    concatenation, and a lone piece stands for itself."""
    prec = _PREC_CONCAT if op is TOK_CONCAT else _PREC_ALT
    if op is TOK_CONCAT:
        pieces = [piece for piece in pieces if piece is not None]
    if len(pieces) < 2:
        return pieces[0] if pieces else None
    size = _bounded(sum(piece.size if piece else 1 for piece in pieces))
    tokens = []
    for piece in pieces:
        if tokens:
            tokens.append(op)
        tokens += _operand(piece, prec)
    return _Piece(tokens, prec, size)


def _lower(items, stripped: list[str]) -> _Piece | None:
    """The piece of a sequence of sre parse-tree items, refused as soon as it
    grows too large.  A loop, as a comprehension would cost a frame a level."""
    pieces, size = [], 0
    for op, av in items:
        piece = _lower_item(op, av, stripped)
        if piece is not None:
            size = _bounded(size + piece.size)
            pieces.append(piece)
    return _join(pieces, TOK_CONCAT)


def _lower_item(op, av, stripped) -> _Piece | None:
    if op in _SYMBOL_OPS:
        return _Piece([Token(TokenKind.SYMBOL, _symbol_class(op, av))], _PREC_ATOM, 1)
    if op is _sre.BRANCH:
        return _join([_lower(branch, stripped) for branch in av[1]], TOK_ALT)
    if op is _sre.SUBPATTERN:
        # A group may remove only i, m, s and x, and the tree reads as lowered without them.
        _, add_flags, _, body = av
        if add_flags & ~_EXACT_FLAGS:
            stripped.append("flag")
        return _lower(body, stripped)
    if op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):  # a lazy repeat reads as greedy
        m, n, body = av
        n = None if n == _sre.MAXREPEAT else n
        return _repeat(_lower(body, stripped), m, n)
    if op is _sre.AT:
        stripped.append("anchor")
        return None
    if op in (_sre.ASSERT, _sre.ASSERT_NOT):  # dropped unread; `parse` has re judge it
        stripped.append("lookaround")
        return None
    if op in (_sre.GROUPREF, _sre.GROUPREF_EXISTS):
        raise UnsupportedFeature("backreferences are not regular")
    raise UnsupportedFeature(f"{str(op).lower().replace('_', ' ')} is not supported")


_SYMBOL_OPS = (_sre.IN, _sre.LITERAL, _sre.NOT_LITERAL, _sre.ANY)  # one character each


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


def _repeat(piece, m, n):
    """X{m,n} as m copies of X followed by n-m nested optionals,
    X&(X&(X|ε)|ε)|ε when n-m = 3, so that its size is linear in n; X{m,} as
    m copies of X followed by X*.  The whole repeat is counted, ε as one
    operand, before any of it is built."""
    size = piece.size if piece else 1
    _bounded(size * m + (size if n is None else (size + 1) * (n - m)))
    rest = None
    if n is None:
        rest = _Piece(_operand(piece, _PREC_STAR) + [TOK_STAR], _PREC_STAR, size)
    elif piece is None:  # ε|ε|…|ε, with n-m alternations
        rest = _join([None] * (n - m + 1), TOK_ALT)
    elif n > m:  # the innermost X stands under '|', which binds loosest of all
        k = n - m
        head = _operand(piece, _PREC_CONCAT) + [TOK_CONCAT, TOK_LPAREN]
        rest = _Piece(head * (k - 1) + piece.tokens + [TOK_ALT, TOK_EPSILON]
                      + [TOK_RPAREN, TOK_ALT, TOK_EPSILON] * (k - 1), _PREC_ALT, (size + 1) * k)
    return _join([piece] * m + [rest], TOK_CONCAT)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse(raw: RawPattern | str) -> NormalizedExpr:
    """Expand a rule pattern into the five formal constructs.

    The pattern is read by the host `re` parser.  Returns an infix token
    stream with explicit '&' concatenation and all metacharacters, classes
    and repetitions expanded.  Strippable features are removed and recorded;
    a lookaround's body is not read, but a pattern with one is also compiled
    by `re`, the only judge of look-behind widths.  Refused are: a pattern
    `re` rejects, the empty pattern, one of more than MAX_SYMBOLS operands
    after expansion and one nested too deeply for the stack, each with
    PatternSyntaxError; backreferences, atomic groups, possessive repeats
    and the other non-regular constructs, with UnsupportedFeature.
    """
    text = raw.text if isinstance(raw, RawPattern) else raw
    if not text:
        raise PatternSyntaxError("empty pattern")
    stripped = []
    try:  # parsing and lowering recurse once per level of re's nesting
        tree = _host(_sre.parse, text)
        if tree.state.flags & ~_EXACT_FLAGS:
            stripped.append("flag")
        piece = _lower(tree, stripped)
    except RecursionError:
        raise PatternSyntaxError(_TOO_DEEP) from None
    if "lookaround" in stripped:  # re's compiler alone decides look-behind widths
        _host(re.compile, text)
    return NormalizedExpr(tuple(piece.tokens) if piece else (TOK_EPSILON,), tuple(stripped))


def lookaround_classes(text: str) -> list[tuple]:
    """The character sets named inside the lookaround bodies of a pattern,
    which `parse` leaves unread, found by an iterative walk of re's parse
    tree.  They only choose which characters `oracle.probe_alphabet` tries."""
    classes = []
    todo = [(_host(_sre.parse, text), False)]  # (items, whether inside a lookaround)
    while todo:
        items, inside = todo.pop()
        for op, av in items:
            if op in _SYMBOL_OPS:
                if inside:
                    classes.append(_symbol_class(op, av))
                continue
            nested = inside or op in (_sre.ASSERT, _sre.ASSERT_NOT)
            # A subtree is av itself, an entry of av, or a branch in a list there.
            for part in av if isinstance(av, (tuple, list)) else (av,):
                for sub in part if isinstance(part, list) else (part,):
                    if isinstance(sub, _sre.SubPattern):
                        todo.append((sub, nested))
    return classes


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
    `parse_formal` give well-formed infix, so the program is well formed;
    only `parse_postfix`, which reads outside text, checks it."""
    return PostfixProgram(tokens=tuple(_sya(expr.tokens)))


def shunting_yard_trace(expr: NormalizedExpr) -> tuple[PostfixProgram, list[TraceRow]]:
    """Like to_postfix, but also returns the per-step trace table."""
    trace: list[TraceRow] = []
    return PostfixProgram(tokens=tuple(_sya(expr.tokens, trace))), trace


def parse_postfix(text: str) -> PostfixProgram:
    """Parse a compact postfix string like 'ba|ab|*&' (one char per token);
    an ill-formed program raises MalformedExpression."""
    prog = PostfixProgram(tokens=tuple(_formal_tokens(text)))
    values = 0  # the operands an evaluation would hold on its stack
    for tok in prog.tokens:
        kind = tok.kind
        if kind is _LPAREN or kind is _RPAREN:
            raise MalformedExpression("parenthesis in postfix program")
        if kind is _STAR:
            if not values:
                raise MalformedExpression("star without operand")
        elif kind is _CONCAT or kind is TokenKind.ALT:
            if values < 2:
                raise MalformedExpression("binary operator underflow")
            values -= 1
        else:
            values += 1
    if values != 1:
        raise MalformedExpression(f"postfix program leaves {values} values")
    return prog
