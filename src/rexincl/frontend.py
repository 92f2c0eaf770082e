"""Frontend: normalization to the five formal constructs and shunting-yard
conversion to postfix.

Rules are Python regular expressions, and `parse` reads them with the host
`re` engine's own parser, so a rule means here what it means to the engine
that runs it.  The parse tree is lowered onto five constructs: symbols
(carried as character *sets*, not expanded to alternations), the empty
string, concatenation ('&'), alternation ('|') and the Kleene star.  Features
that cannot be represented exactly (anchors, lookarounds, inline flags) are
stripped and recorded so downstream consumers can flag results as
approximate.  Backreferences and other non-regular constructs are rejected.

`parse_formal` reads the paper's formal notation instead: one character per
symbol, explicit '&', '|' and '*', parentheses and 'ε'.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import Enum
from functools import reduce

from .errors import MalformedExpression, PatternSyntaxError, UnsupportedFeature

try:
    from re import _parser as _sre  # Python 3.11+
except ImportError:  # Python 3.10
    import sre_parse as _sre

# Character model: ASCII only.  The universe is printable ASCII plus the
# common whitespace controls, so negated classes and '.' have a well-defined
# complement.
UNIVERSE = frozenset(chr(c) for c in range(32, 127)) | frozenset("\t\n\r\f\v")
DIGIT = frozenset(string.digits)
WORD = frozenset(string.ascii_letters + string.digits + "_")
SPACE = frozenset(" \t\r\n\f\v")
DOT = UNIVERSE - {"\n"}

EPSILON_CHAR = "ε"  # the empty string in the formal notation

# Expanding X{m,n} into an alternation of powers is quadratic in n; refuse
# bounds that would produce absurd token counts.
MAX_REPEAT = 200

_CATEGORIES = {
    _sre.CATEGORY_DIGIT: DIGIT,
    _sre.CATEGORY_NOT_DIGIT: UNIVERSE - DIGIT,
    _sre.CATEGORY_WORD: WORD,
    _sre.CATEGORY_NOT_WORD: UNIVERSE - WORD,
    _sre.CATEGORY_SPACE: SPACE,
    _sre.CATEGORY_NOT_SPACE: UNIVERSE - SPACE,
}


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
    chars: frozenset | None = None

    def __post_init__(self):
        if self.kind is TokenKind.SYMBOL and not self.chars:
            raise ValueError("symbol token needs a non-empty character set")

    def __str__(self):
        return token_str(self)


def _tok(kind):
    return Token(kind)


TOK_EPSILON = _tok(TokenKind.EPSILON)
TOK_CONCAT = _tok(TokenKind.CONCAT)
TOK_ALT = _tok(TokenKind.ALT)
TOK_STAR = _tok(TokenKind.STAR)
TOK_LPAREN = _tok(TokenKind.LPAREN)
TOK_RPAREN = _tok(TokenKind.RPAREN)

# The formal notation, one character per token; any other character is a
# one-character symbol.
_FORMAL_TOKENS = {"&": TOK_CONCAT, "|": TOK_ALT, "*": TOK_STAR, "(": TOK_LPAREN,
                  ")": TOK_RPAREN, EPSILON_CHAR: TOK_EPSILON}
_FORMAL_CHARS = {tok.kind: c for c, tok in _FORMAL_TOKENS.items()}


def _formal_tokens(text) -> list[Token]:
    return [_FORMAL_TOKENS.get(c) or Token(TokenKind.SYMBOL, frozenset(c)) for c in text]


def format_charset(chars) -> str:
    """Spell a character set as sorted ranges, e.g. '[0-9a-b]'.  A single
    character is spelled bare unless it is a formal operator: '[&]'."""
    codes = sorted(ord(c) for c in chars)
    if len(codes) == 1 and chr(codes[0]) not in _FORMAL_TOKENS:
        return chr(codes[0])
    ranges = []
    lo = hi = codes[0]
    for c in codes[1:]:
        if c == hi + 1:
            hi = c
        else:
            ranges.append((lo, hi))
            lo = hi = c
    ranges.append((lo, hi))
    parts = []
    for lo, hi in ranges:
        if lo == hi:
            parts.append(_show_char(chr(lo)))
        elif hi == lo + 1:
            parts.append(_show_char(chr(lo)) + _show_char(chr(hi)))
        else:
            parts.append(f"{_show_char(chr(lo))}-{_show_char(chr(hi))}")
    return "[" + "".join(parts) + "]"


def _show_char(c):
    special = {"\t": "\\t", "\n": "\\n", "\r": "\\r", "\f": "\\f", "\v": "\\v"}
    return special.get(c, c)


def token_str(tok: Token) -> str:
    if tok.kind is TokenKind.SYMBOL:
        return format_charset(tok.chars)
    return _FORMAL_CHARS[tok.kind]


# ---------------------------------------------------------------------------
# Formal AST
# ---------------------------------------------------------------------------

class RegexAst:
    pass


@dataclass(frozen=True)
class Sym(RegexAst):
    chars: frozenset


@dataclass(frozen=True)
class Eps(RegexAst):
    pass


@dataclass(frozen=True)
class Concat(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True)
class Alt(RegexAst):
    left: RegexAst
    right: RegexAst


@dataclass(frozen=True)
class Star(RegexAst):
    inner: RegexAst


EPS = Eps()


def ast_charsets(ast: RegexAst) -> set[frozenset]:
    """All character classes appearing in the tree."""
    out = set()
    stack = [ast]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.chars)
        elif isinstance(node, Concat) or isinstance(node, Alt):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Star):
            stack.append(node.inner)
    return out


def ast_chars(ast: RegexAst) -> frozenset:
    """Union of every character the expression can match."""
    result = set()
    for cs in ast_charsets(ast):
        result |= cs
    return frozenset(result)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RawPattern:
    text: str
    source_id: int | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise ValueError(f"pattern must be a string, not {type(self.text).__name__}")
        if not self.text:
            raise ValueError("pattern text must be non-empty")


@dataclass(frozen=True)
class NormalizedExpr:
    tokens: tuple[Token, ...]
    approximate: bool
    stripped_features: tuple[str, ...]

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

def _host_parse(text):
    try:
        return _sre.parse(text)
    except (re.error, ValueError, OverflowError) as exc:  # each is how re rejects a pattern
        raise PatternSyntaxError(str(exc)) from None


def _lower(items, stripped: list[str]) -> RegexAst:
    """The formal AST of a sequence of sre parse-tree items."""
    ast = EPS
    for op, av in items:
        ast = _concat(ast, _lower_item(op, av, stripped))
    return ast


def _lower_item(op, av, stripped) -> RegexAst:
    if op is _sre.IN:
        return Sym(_char_class(av))
    if op in (_sre.LITERAL, _sre.NOT_LITERAL, _sre.ANY):
        return Sym(_char_class([(op, av)]))
    if op is _sre.BRANCH:
        return reduce(Alt, [_lower(branch, stripped) for branch in av[1]])
    if op is _sre.SUBPATTERN:
        _, add_flags, del_flags, body = av
        if add_flags or del_flags:
            stripped.append("flag")
        return _lower(body, stripped)
    if op in (_sre.MAX_REPEAT, _sre.MIN_REPEAT):  # a lazy repeat reads as greedy
        m, n, body = av
        n = None if n == _sre.MAXREPEAT else n
        if max(m, n or 0) > MAX_REPEAT:
            raise PatternSyntaxError(f"repetition bound {max(m, n or 0)} exceeds {MAX_REPEAT}")
        inner = _lower(body, stripped)
        return Alt(inner, EPS) if (m, n) == (0, 1) else _repeat(inner, m, n)
    if op is _sre.AT:
        stripped.append("anchor")
        return EPS
    if op in (_sre.ASSERT, _sre.ASSERT_NOT):
        direction, body = av
        lo, hi = body.getwidth()
        if direction < 0 and lo != hi:  # re rejects this when compiling
            raise PatternSyntaxError("look-behind requires fixed-width pattern")
        _lower(body, stripped)  # checked like the rest, then dropped
        stripped.append("lookaround")
        return EPS
    if op in (_sre.GROUPREF, _sre.GROUPREF_EXISTS):
        raise UnsupportedFeature("backreferences are not regular")
    raise UnsupportedFeature(f"{str(op).lower().replace('_', ' ')} is not supported")


def _char_class(items) -> frozenset:
    """The characters of sre set items; a leading NEGATE complements them."""
    chars = set()
    for op, av in items:
        if op is _sre.LITERAL:
            chars.add(chr(av))
        elif op is _sre.NOT_LITERAL:
            chars |= UNIVERSE - {chr(av)}
        elif op is _sre.ANY:
            chars |= DOT
        elif op is _sre.RANGE:
            chars.update(map(chr, range(av[0], av[1] + 1)))
        elif op is _sre.CATEGORY:
            chars |= _CATEGORIES[av]
    if items and items[0][0] is _sre.NEGATE:
        chars = UNIVERSE - chars
    if not chars:
        raise PatternSyntaxError("empty character class")
    return frozenset(chars)


def _repeat(ast, m, n):
    def power(k):
        out = EPS
        for _ in range(k):
            out = _concat(out, ast)
        return out

    if n is None:
        return _concat(power(m), Star(ast))
    choices = [power(k) for k in range(m, n + 1)]
    if not choices:
        return EPS
    out = choices[0]
    for c in choices[1:]:
        out = Alt(out, c)
    return out


def _concat(a, b):
    # Concatenation with ε is the identity; collapsing keeps stripped
    # features invisible in the token stream.
    if isinstance(a, Eps):
        return b
    if isinstance(b, Eps):
        return a
    return Concat(a, b)


# ---------------------------------------------------------------------------
# Infix emission
# ---------------------------------------------------------------------------

_PREC_ALT, _PREC_CONCAT, _PREC_STAR, _PREC_ATOM = 1, 2, 3, 4


def _node_prec(node):
    if isinstance(node, Alt):
        return _PREC_ALT
    if isinstance(node, Concat):
        return _PREC_CONCAT
    if isinstance(node, Star):
        return _PREC_STAR
    return _PREC_ATOM


def _emit_infix(node, need) -> list[Token]:
    toks = _emit_raw(node)
    if _node_prec(node) < need:
        return [TOK_LPAREN] + toks + [TOK_RPAREN]
    return toks


def _emit_raw(node) -> list[Token]:
    if isinstance(node, Sym):
        return [Token(TokenKind.SYMBOL, node.chars)]
    if isinstance(node, Eps):
        return [TOK_EPSILON]
    if isinstance(node, Concat):
        return _emit_infix(node.left, _PREC_CONCAT) + [TOK_CONCAT] + _emit_infix(node.right, _PREC_CONCAT)
    if isinstance(node, Alt):
        return _emit_infix(node.left, _PREC_ALT) + [TOK_ALT] + _emit_infix(node.right, _PREC_ALT)
    if isinstance(node, Star):
        return _emit_infix(node.inner, _PREC_STAR) + [TOK_STAR]
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def parse(raw: RawPattern | str) -> NormalizedExpr:
    """Expand a rule pattern into the five formal constructs.

    The pattern is read by the host `re` parser, so it is accepted or
    rejected exactly as `re.compile` would.  Returns an infix token stream
    with explicit '&' concatenation and all metacharacters, classes and
    repetitions expanded.  Strippable features are removed and recorded;
    backreferences raise UnsupportedFeature.
    """
    text = raw.text if isinstance(raw, RawPattern) else raw
    if not text:
        raise PatternSyntaxError("empty pattern")
    stripped = []
    try:  # parsing, lowering and emitting recurse once per nesting level and atom
        tree = _host_parse(text)
        if tree.state.flags & ~_sre.SRE_FLAG_UNICODE:
            stripped.append("flag")
        tokens = tuple(_emit_raw(_lower(tree, stripped)))
    except RecursionError:
        raise PatternSyntaxError("pattern too long or too deeply nested") from None
    return NormalizedExpr(
        tokens=tokens,
        approximate=bool(stripped),
        stripped_features=tuple(stripped),
    )


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
    return NormalizedExpr(tokens=tuple(tokens), approximate=False, stripped_features=())


_PRECEDENCE = {TokenKind.STAR: 3, TokenKind.CONCAT: 2, TokenKind.ALT: 1}


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
    ops: list[Token] = []
    out: list[Token] = []
    unread = 0  # tokens[unread:] are still to be regarded

    def row(regarded, reason):
        """Append a trace row when a trace was asked for.  `regarded` is a
        token or None; `reason` may name it as {t} and the top operator as
        {top}.  Nothing is formatted otherwise."""
        if trace is None:
            return
        t = token_str(regarded) if regarded is not None else "-"
        top = token_str(ops[-1]) if ops else ""
        trace.append(TraceRow(
            remaining="".join(token_str(x) for x in tokens[unread:]) or "-",
            regarded=t,
            op_stack="".join(token_str(x) for x in ops) or "-",
            output_stack="".join(token_str(x) for x in out) or "-",
            reason=reason.format(t=t, top=top),
        ))

    row(None, "-")
    for tok in tokens:
        unread += 1
        kind = tok.kind
        if kind in (TokenKind.SYMBOL, TokenKind.EPSILON):
            row(tok, "{t} ∈ Σ")
            out.append(tok)
        elif kind is TokenKind.LPAREN:
            row(tok, "Opening (")
            ops.append(tok)
        elif kind is TokenKind.RPAREN:
            while ops and ops[-1].kind is not TokenKind.LPAREN:
                row(tok, "Closing )")
                out.append(ops.pop())
            if not ops:
                raise MalformedExpression("unbalanced parenthesis in token stream")
            row(tok, "Closing )")
            ops.pop()
        else:
            prec = _PRECEDENCE[kind]
            popped = False
            while (ops and ops[-1].kind is not TokenKind.LPAREN
                   and _PRECEDENCE[ops[-1].kind] >= prec):
                if not popped:
                    row(tok, "op.")
                    popped = True
                out.append(ops.pop())
            if not popped:
                if ops and ops[-1].kind is not TokenKind.LPAREN:
                    row(tok, "op., {t} > {top}")
                else:
                    row(tok, "op.")
            ops.append(tok)
    while ops:
        if ops[-1].kind is TokenKind.LPAREN:
            raise MalformedExpression("unbalanced parenthesis in token stream")
        row(None, "Pop op.")
        out.append(ops.pop())
    row(None, "-")
    return out


def _check_arity(tokens):
    depth = 0
    for tok in tokens:
        if tok.kind in (TokenKind.SYMBOL, TokenKind.EPSILON):
            depth += 1
        elif tok.kind is TokenKind.STAR:
            if depth < 1:
                raise MalformedExpression("star without operand")
        elif tok.kind in (TokenKind.CONCAT, TokenKind.ALT):
            if depth < 2:
                raise MalformedExpression("binary operator underflow")
            depth -= 1
        else:
            raise MalformedExpression("parenthesis in postfix program")
    if depth != 1:
        raise MalformedExpression(f"postfix program leaves {depth} values")


def to_postfix(expr: NormalizedExpr) -> PostfixProgram:
    """Shunting-yard conversion with precedence * > & > |."""
    out = _sya(expr.tokens)
    _check_arity(out)
    return PostfixProgram(tokens=tuple(out))


def shunting_yard_trace(expr: NormalizedExpr) -> tuple[PostfixProgram, list[TraceRow]]:
    """Like to_postfix, but also returns the per-step trace table."""
    trace: list[TraceRow] = []
    out = _sya(expr.tokens, trace)
    _check_arity(out)
    return PostfixProgram(tokens=tuple(out)), trace


def postfix_to_ast(prog: PostfixProgram) -> RegexAst:
    """Evaluate a postfix program into a formal AST."""
    stack: list[RegexAst] = []
    for tok in prog.tokens:
        if tok.kind is TokenKind.SYMBOL:
            stack.append(Sym(tok.chars))
        elif tok.kind is TokenKind.EPSILON:
            stack.append(EPS)
        elif tok.kind is TokenKind.STAR:
            if not stack:
                raise MalformedExpression("star without operand")
            stack.append(Star(stack.pop()))
        elif tok.kind in (TokenKind.CONCAT, TokenKind.ALT):
            if len(stack) < 2:
                raise MalformedExpression("binary operator underflow")
            right, left = stack.pop(), stack.pop()
            stack.append(Concat(left, right) if tok.kind is TokenKind.CONCAT else Alt(left, right))
        else:
            raise MalformedExpression("parenthesis in postfix program")
    if len(stack) != 1:
        raise MalformedExpression(f"postfix program leaves {len(stack)} values")
    return stack[0]


def parse_postfix(text: str) -> PostfixProgram:
    """Parse a compact postfix string like 'ba|ab|*&' (one char per token)."""
    tokens = _formal_tokens(text)
    _check_arity(tokens)
    return PostfixProgram(tokens=tuple(tokens))
