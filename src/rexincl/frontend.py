"""Practical-regex frontend: normalization to the five formal constructs and
shunting-yard conversion to postfix.

The supported dialect is a subset of Python regular expressions.  Everything
is lowered onto five constructs: symbols (carried as character *sets*, not
expanded to alternations), the empty string, concatenation ('&'), alternation
('|') and the Kleene star.  Features that cannot be represented exactly
(anchors, lookarounds, inline flags) are stripped and recorded so downstream
consumers can flag results as approximate.  Backreferences are rejected.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from enum import Enum

from .errors import MalformedExpression, PatternSyntaxError, UnsupportedFeature

# Character model: ASCII only.  The universe is printable ASCII plus the
# common whitespace controls, so negated classes and '.' have a well-defined
# complement.
UNIVERSE = frozenset(chr(c) for c in range(32, 127)) | frozenset("\t\n\r\f\v")
DIGIT = frozenset(string.digits)
WORD = frozenset(string.ascii_letters + string.digits + "_")
SPACE = frozenset(" \t\r\n\f\v")
DOT = UNIVERSE - {"\n"}

EPSILON_CHAR = "ε"  # 'ε', accepted in patterns as the empty string

# Expanding X{m,n} into an alternation of powers is quadratic in n; refuse
# bounds that would produce absurd token counts.
MAX_REPEAT = 200


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


def format_charset(chars) -> str:
    """Spell a character set as sorted ranges, e.g. '[0-9a-b]'."""
    codes = sorted(ord(c) for c in chars)
    if len(codes) == 1:
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
    return {
        TokenKind.EPSILON: EPSILON_CHAR,
        TokenKind.CONCAT: "&",
        TokenKind.ALT: "|",
        TokenKind.STAR: "*",
        TokenKind.LPAREN: "(",
        TokenKind.RPAREN: ")",
    }[tok.kind]


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
# Practical-dialect parser
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser producing a formal AST directly.

    Bounded repetitions, '+', '?' and character classes are expanded during
    parsing, so the output tree only contains the five formal constructs.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.stripped: list[str] = []

    # -- character stream helpers

    def peek(self):
        return self.text[self.pos] if self.pos < len(self.text) else None

    def next(self):
        c = self.peek()
        if c is None:
            raise PatternSyntaxError("unexpected end of pattern")
        self.pos += 1
        return c

    def eat(self, c):
        if self.peek() == c:
            self.pos += 1
            return True
        return False

    # -- grammar

    def parse(self) -> RegexAst:
        ast = self.alternation()
        if self.peek() == ")":
            raise PatternSyntaxError("unbalanced parenthesis")
        if self.peek() is not None:
            raise PatternSyntaxError(f"unexpected character {self.peek()!r}")
        return ast

    def alternation(self) -> RegexAst:
        branches = [self.concatenation()]
        while self.eat("|"):
            branches.append(self.concatenation())
        ast = branches[0]
        for b in branches[1:]:
            ast = Alt(ast, b)
        return ast

    def concatenation(self) -> RegexAst:
        parts = []
        while True:
            c = self.peek()
            if c is None or c in "|)":
                break
            if c == "&":
                # Explicit concatenation operator of the formal dialect;
                # language-neutral when used between terms.
                self.next()
                continue
            parts.append(self.repetition())
        ast = EPS
        for p in parts:
            ast = _concat(ast, p)
        return ast

    def repetition(self) -> RegexAst:
        ast = self.atom()
        while True:
            c = self.peek()
            if c == "*":
                self.next()
                ast = Star(ast)
            elif c == "+":
                self.next()
                ast = _concat(ast, Star(ast))
            elif c == "?":
                self.next()
                ast = Alt(ast, EPS)
            elif c == "{":
                bounds = self._try_bounds()
                if bounds is None:
                    break
                ast = self._repeat(ast, *bounds)
            else:
                break
            # A lazy-quantifier marker normalizes to the greedy form.
            if self.peek() == "?" and c in "*+?}" + "{":
                self.next()
        return ast

    def _try_bounds(self):
        """Parse '{m,n}', '{m,}', '{,n}' or '{m}'; None if not bound syntax."""
        start = self.pos
        assert self.next() == "{"
        body = ""
        while self.peek() is not None and self.peek() != "}":
            body += self.next()
        if self.peek() is None or not _is_bounds(body):
            self.pos = start  # literal '{', Python-compatible
            return None
        self.next()  # '}'
        if "," in body:
            lo, hi = body.split(",", 1)
            m = int(lo) if lo else 0
            n = int(hi) if hi else None
        else:
            m = n = int(body)
        if n is not None and m > n:
            raise PatternSyntaxError(f"invalid repetition bounds {{{body}}}")
        if max(m, n or 0) > MAX_REPEAT:
            raise PatternSyntaxError(f"repetition bound too large: {{{body}}}")
        return m, n

    def _repeat(self, ast, m, n):
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

    def atom(self) -> RegexAst:
        c = self.next()
        if c == "(":
            return self.group()
        if c == "[":
            return Sym(self.char_class())
        if c == "\\":
            return self.escape()
        if c == ".":
            return Sym(DOT)
        if c in "^$":
            self.stripped.append("anchor")
            return EPS
        if c == EPSILON_CHAR:
            return EPS
        if c in "*+?":
            raise PatternSyntaxError(f"dangling quantifier {c!r}")
        if c in "|)":
            raise PatternSyntaxError(f"unexpected {c!r}")  # unreachable via grammar
        return Sym(frozenset(c))

    def group(self) -> RegexAst:
        if self.eat("?"):
            return self.extension_group()
        body = self.alternation()
        if not self.eat(")"):
            raise PatternSyntaxError("unbalanced parenthesis")
        return body

    def extension_group(self) -> RegexAst:
        c = self.next()
        if c == ":":
            body = self.alternation()
        elif c == "P":
            if self.eat("="):
                raise UnsupportedFeature("backreferences are not regular")
            if not self.eat("<"):
                raise PatternSyntaxError("malformed (?P...) group")
            self._group_name()
            body = self.alternation()
        elif c == "<" and self.peek() in "=!":
            self.next()
            self.alternation()  # lookbehind: parsed, then dropped
            self.stripped.append("lookaround")
            body = EPS
        elif c == "<":
            self._group_name(first=c)
            body = self.alternation()
        elif c in "=!":
            self.alternation()  # lookahead: parsed, then dropped
            self.stripped.append("lookaround")
            body = EPS
        elif c == "#":
            while self.peek() not in (")", None):
                self.next()
            body = EPS
        elif c in "aiLmsux-":
            flags = c
            while self.peek() is not None and self.peek() in "aiLmsux-":
                flags += self.next()
            self.stripped.append("flag")
            body = self.alternation() if self.eat(":") else EPS
        else:
            raise PatternSyntaxError(f"unsupported group (?{c}...)")
        if not self.eat(")"):
            raise PatternSyntaxError("unbalanced parenthesis")
        return body

    def _group_name(self, first=""):
        name = ""
        while self.peek() is not None and self.peek() != ">":
            name += self.next()
        if not self.eat(">") or not name:
            raise PatternSyntaxError("malformed group name")

    def escape(self) -> RegexAst:
        c = self.next()
        if c.isdigit():
            raise UnsupportedFeature("backreferences are not regular")
        if c in "bB":
            # Word boundaries are zero-width; treated like anchors.
            self.stripped.append("anchor")
            return EPS
        if c in "AZ":
            self.stripped.append("anchor")
            return EPS
        cls = _escape_class(c)
        if cls is not None:
            return Sym(cls)
        return Sym(frozenset(_escape_literal(c)))

    def char_class(self) -> frozenset:
        negated = self.eat("^")
        items: set[str] = set()
        first = True
        while True:
            c = self.peek()
            if c is None:
                raise PatternSyntaxError("unbalanced bracket in character class")
            if c == "]" and not first:
                self.next()
                break
            first = False
            self.next()
            if c == "\\":
                e = self.next()
                cls = _escape_class(e)
                if cls is not None:
                    items |= cls
                    continue
                lo = _escape_literal(e)
            else:
                lo = c
            if self.peek() == "-" and self.pos + 1 < len(self.text) and self.text[self.pos + 1] != "]":
                self.next()
                hi = self.next()
                if hi == "\\":
                    hi = _escape_literal(self.next())
                if ord(lo) > ord(hi):
                    raise PatternSyntaxError(f"invalid range {lo}-{hi} in character class")
                items |= {chr(k) for k in range(ord(lo), ord(hi) + 1)}
            else:
                items.add(lo)
        if negated:
            items = set(UNIVERSE) - items
        if not items:
            raise PatternSyntaxError("empty character class")
        return frozenset(items)


def _is_bounds(body):
    if not body:
        return False
    parts = body.split(",")
    if len(parts) > 2:
        return False
    if all(p == "" for p in parts):
        return False
    return all(p == "" or p.isdigit() for p in parts)


def _escape_class(c):
    return {
        "d": DIGIT,
        "D": UNIVERSE - DIGIT,
        "w": WORD,
        "W": UNIVERSE - WORD,
        "s": SPACE,
        "S": UNIVERSE - SPACE,
    }.get(c)


def _escape_literal(c):
    return {"t": "\t", "n": "\n", "r": "\r", "f": "\f", "v": "\v", "0": "\0"}.get(c, c)


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
    """Expand a practical pattern into the five formal constructs.

    Returns an infix token stream with explicit '&' concatenation and all
    metacharacters, classes and repetitions expanded.  Strippable features
    are removed and recorded; backreferences raise UnsupportedFeature.
    """
    text = raw.text if isinstance(raw, RawPattern) else raw
    if not text:
        raise PatternSyntaxError("empty pattern")
    parser = _Parser(text)
    try:  # the parser and the emitter recurse once per nesting level and atom
        ast = parser.parse()
        tokens = tuple(_emit_raw(ast))
    except RecursionError:
        raise PatternSyntaxError("pattern too long or too deeply nested") from None
    stripped = tuple(parser.stripped)
    return NormalizedExpr(
        tokens=tokens,
        approximate=bool(stripped),
        stripped_features=stripped,
    )


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
    tokens = []
    for c in text:
        if c == "&":
            tokens.append(TOK_CONCAT)
        elif c == "|":
            tokens.append(TOK_ALT)
        elif c == "*":
            tokens.append(TOK_STAR)
        elif c == EPSILON_CHAR:
            tokens.append(TOK_EPSILON)
        elif c in "()":
            raise MalformedExpression("parenthesis in postfix program")
        else:
            tokens.append(Token(TokenKind.SYMBOL, frozenset(c)))
    _check_arity(tokens)
    return PostfixProgram(tokens=tuple(tokens))
