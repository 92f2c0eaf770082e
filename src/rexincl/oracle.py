"""Ground truth from the host engine: bounded-length language enumeration
judged by `re.fullmatch` on the pattern text.  The rules run in `re`, so `re`
is the judge; no NFA, DFA or lowering of the frontend decides membership, so
the oracle can serve as the differential-test partner of the automata path.
The frontend only picks which characters `oracle-verify` tries."""

from __future__ import annotations

import itertools
import random
import re

from . import frontend
from .errors import BoundExceeded

MAX_STRINGS = 1_000_000  # the most strings one enumeration may try
MAX_SECONDS = 10  # the longest one `oracle-verify` enumeration may run
MAX_LEN = 8

# The characters `re` folds together with a letter under IGNORECASE besides
# its other case: KELVIN SIGN with k and K, LATIN SMALL LETTER LONG S with s and S.
_FOLD_PARTNERS = {"k": "\u212a", "K": "\u212a", "s": "\u017f", "S": "\u017f"}
# Characters tried whatever the patterns: the one `.` leaves out, and one that
# no word class holds.
_FIXED_PROBES = "\n "


def probe_alphabet(*patterns: str) -> str:
    """The characters to enumerate a pair over, in code-point order: the
    lowest character of each block of the patterns' partition, each one's
    case partners, '\\n' and a space.  The classes are read off re's parse
    tree, so every pattern that re accepts has an alphabet, one that the
    frontend refuses to lower included."""
    classes = [chars for pattern in patterns for chars in frontend.symbol_classes(pattern)]
    chars = set(_FIXED_PROBES)
    for block in frontend.partition_classes(classes):
        c = frontend.charset_min(block)
        chars.add(c)
        if len(c.swapcase()) == 1:
            chars.add(c.swapcase())
        chars.update(_FOLD_PARTNERS.get(c, ""))
    return "".join(sorted(chars))


def strings(alphabet, max_len: int):
    """Every string over `alphabet` of at most `max_len` characters, shortest
    first.  They are counted, and refused with BoundExceeded past
    MAX_STRINGS, before any is built."""
    alphabet = sorted(set(alphabet))
    if not 0 <= max_len <= MAX_LEN:
        raise BoundExceeded(f"max_len {max_len} is outside 0..{MAX_LEN}")
    count = sum(len(alphabet) ** k for k in range(max_len + 1))
    if count > MAX_STRINGS:
        raise BoundExceeded(f"enumerating {count} strings of up to {max_len} of "
                            f"{len(alphabet)} characters exceeds {MAX_STRINGS}")
    return ("".join(combo) for k in range(max_len + 1)
            for combo in itertools.product(alphabet, repeat=k))


def enumerate_language(pattern: str, alphabet, max_len: int) -> frozenset:
    """The strings of `strings(alphabet, max_len)` that the host engine
    fully matches.  No time bound applies: the host may backtrack for long
    on a nested repeat.  Only `oracle-verify` runs under MAX_SECONDS."""
    host = re.compile(pattern)
    return frozenset(s for s in strings(alphabet, max_len) if host.fullmatch(s))


def verify_inclusion(sub: str, sup: str, alphabet, max_len: int) -> bool:
    """Bounded-length inclusion check by enumeration: whether no string of
    `strings(alphabet, max_len)` is matched by `sub` and not by `sup`.  A
    necessary condition only: agreement up to max_len is evidence, not proof.
    No time bound applies here either; `oracle-verify` runs its call under
    MAX_SECONDS."""
    sub_host, sup_host = re.compile(sub), re.compile(sup)
    return not any(sub_host.fullmatch(s) and not sup_host.fullmatch(s)
                   for s in strings(alphabet, max_len))


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


def random_pattern(rng: random.Random, max_depth: int = 4, alphabet: str = "abc",
                   weights: dict | None = None) -> str:
    """The text of a random expression over symbols, ε '()', concatenation,
    alternation and star, at most `max_depth` operators deep."""
    return _random_piece(rng, max_depth, alphabet, weights or DEFAULT_WEIGHTS)[0]


def _random_piece(rng, max_depth, alphabet, weights):
    """A random expression's text, and whether it is compound: an operand of
    concatenation or star that is itself one of the three is parenthesized."""
    if max_depth <= 0:
        if rng.random() < 0.15:
            return "()", False
        return _symbol(rng.choice(alphabet)), False
    kinds, probs = zip(*weights.items())
    kind = rng.choices(kinds, probs)[0]
    if kind == "symbol":
        # Occasionally a multi-character class to exercise partitions.
        if rng.random() < 0.25 and len(alphabet) > 1:
            size = rng.randint(2, len(alphabet))
            return _symbol(rng.sample(alphabet, size)), False
        return _symbol(rng.choice(alphabet)), False
    if kind == "epsilon":
        return "()", False
    if kind == "star":
        return _operand(_random_piece(rng, max_depth - 1, alphabet, weights)) + "*", True
    left = _random_piece(rng, max_depth - 1, alphabet, weights)
    right = _random_piece(rng, max_depth - 1, alphabet, weights)
    if kind == "concat":
        return _operand(left) + _operand(right), True
    return f"({left[0]}|{right[0]})", True


def _symbol(chars):
    return frontend.format_charset(frontend.charset_of(chars))


def _operand(piece):
    text, compound = piece
    return f"({text})" if compound else text
