"""Automata layer: position automata, DFAs built a row at a time, and the
product-walk inclusion decision procedure.

A pattern is compiled to its position (Glushkov) automaton: one state per
symbol and no ε edges.  `compile_pattern` takes it from `frontend`'s one walk
of re's parse tree; `positions` folds a postfix program into the same
automaton, for the formal notation, Thompson NFAs and the tests' reference.
A `LazyDfa` holds a pattern's subset construction over sets of positions,
and builds a row the first time a walk reaches its state; decisions walk
those rows, and `_determinize` forces all of them into a complete `Dfa` for
display and the reference procedures.  Thompson NFAs are built only for
display (`explain`) and for the benchmark's stage-by-stage replay;
`powerset` determinizes the position automaton of the program an NFA was
built from.

Transitions are labeled with character *sets*.  Before two automata are
compared, the classes of both are refined into a partition of disjoint
blocks, and DFAs are built over those blocks, so a transition on '\\w' and a
transition on '\\d' line up on the shared block of the digits.  Character
sets are `frontend`'s code-point interval sets, and only `frontend` looks
inside them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from . import frontend
from .errors import AlphabetMismatch, MalformedExpression
from .frontend import (
    PostfixProgram,
    RawPattern,
    TokenKind,
    members,
    partition_classes,
)

EPS_LABEL = None  # transition label for ε edges


@dataclass(frozen=True)
class Nfa:
    """Thompson NFA: one start state, one accept state, dense int ids.  It is
    built, by `thompson` only, for display and for the benchmark's replay;
    decisions are made on the `Positions` of its `program`."""

    n_states: int
    start: int
    accept: int
    transitions: tuple  # (src, label, dst); label is a character set or EPS_LABEL
    program: PostfixProgram  # the program the NFA was built from

    @cached_property
    def classes(self) -> tuple:
        """The distinct labels, told apart by identity so that no label is
        hashed; `frontend.parse` gives a repeated class as one object.
        Built once per NFA."""
        labels = {id(label): label for _, label, _ in self.transitions if label is not EPS_LABEL}
        return tuple(labels.values())

    def chars(self):
        """The character set of every character the NFA can match."""
        return frontend.charset_union(self.classes)

    def accepts(self, s: str) -> bool:
        """Direct NFA simulation over sets of states, each closed under ε
        edges by a plain search; used for cross-checks, not production."""
        eps = [[] for _ in range(self.n_states)]
        step = [[] for _ in range(self.n_states)]
        for src, label, dst in self.transitions:
            if label is EPS_LABEL:
                eps[src].append(dst)
            else:
                step[src].append((label, dst))

        def closure(states):
            out, todo = set(states), list(states)
            while todo:
                for r in eps[todo.pop()]:
                    if r not in out:
                        out.add(r)
                        todo.append(r)
            return out

        current = closure({self.start})
        for c in s:
            current = closure({dst for q in current for label, dst in step[q]
                               if frontend.charset_contains(label, c)})
            if not current:
                return False
        return self.accept in current


@dataclass(frozen=True)
class Positions:
    """Position automaton: state 0 is the start and states 1..m are the
    positions, one per symbol, with no ε edges.  Every transition into
    position p reads `labels[p - 1]`, a character set shared with the
    symbol's token.  Sets of positions are ints with bit p for position p:
    `follow[p]` holds the positions that may come right after p, and
    `follow[0]` the first ones; `final` holds the positions a match may end
    at, and bit 0 when the empty string matches."""

    labels: tuple
    follow: tuple
    final: int

    @cached_property
    def readers(self) -> dict:
        """id(label) -> (label, the set of positions that read it), labels
        in the order of their first position.  A run of positions that read
        one label, as a repeat of a class gives, is added at once."""
        readers = {}
        labels = self.labels
        first = 1  # the first position of the run that ends before p
        for p, label in enumerate((*labels, None), 1):  # None ends the last run
            if p > first and label is not labels[first - 1]:
                run = labels[first - 1]
                _, mask = readers.get(id(run), (run, 0))
                readers[id(run)] = run, mask | (1 << p) - (1 << first)
                first = p
        return readers

    @cached_property
    def classes(self) -> tuple:
        """The distinct labels, told apart by identity, as `Nfa.classes`."""
        return tuple(label for label, _ in self.readers.values())


@dataclass(frozen=True)
class Dfa:
    """Complete DFA over a partition alphabet, with sparse rows:
    `rows[q]` maps block index i to the successor of state q on block
    `alphabet[i]`, in block order, for every successor that is not the sink.
    Every block missing from a row leads to `sink`, a non-accepting state
    (the empty set of positions) whose own row is empty; `sink` is None when
    no row misses a block.  `table` is the dense view, for display and
    reference procedures.  The rows are dicts, so a Dfa is not hashable;
    they are shared with its complement and must not be changed."""

    start: int
    accepting: frozenset
    rows: tuple  # one dict per state: block index -> successor other than the sink
    sink: int | None
    alphabet: tuple  # disjoint blocks, sorted by lowest code point

    def __post_init__(self):
        if self.sink is None:
            if any(len(row) < len(self.alphabet) for row in self.rows):
                raise ValueError("a row misses a block, but the DFA has no sink")
        elif self.rows[self.sink]:
            raise ValueError("the sink's row is not empty")

    @property
    def n_states(self) -> int:
        return len(self.rows)

    @cached_property
    def table(self) -> tuple:
        """`table[q][i]` is the successor of state q on block `alphabet[i]`,
        the sink included: one tuple of ints per state."""
        blocks, sink = range(len(self.alphabet)), self.sink
        return tuple(tuple(row.get(i, sink) for i in blocks) for row in self.rows)

    @cached_property
    def live(self) -> tuple:
        """`live[q]` is true when some string leads from state q to an
        accepting state.  A reverse reachability sweep over the sparse rows
        from the accepting states, run once per DFA; when the sink accepts,
        as in a complement, every state whose row misses a block reaches it.
        `_determinize` seeds the value from the useful positions, and
        `replace`, as in `complement`, does not carry a seeded value."""
        rows = self.rows
        preds = [[] for _ in rows]
        for q, row in enumerate(rows):
            for dst in row.values():
                preds[dst].append(q)
        live = set(self.accepting)
        if self.sink in live:
            n_blocks = len(self.alphabet)
            live.update(q for q, row in enumerate(rows) if len(row) < n_blocks)
        todo = list(live)
        for q in todo:  # grows while it is walked
            for p in preds[q]:
                if p not in live:
                    live.add(p)
                    todo.append(p)
        return tuple(q in live for q in range(self.n_states))

    @cached_property
    def live_steps(self) -> tuple:
        """`live_steps[q]` holds (block index, successor) for every live
        successor of state q, in block order; empty when q is dead.  When
        the only dead state is the sink, which no row names, these are the
        rows' items."""
        live, sink = self.live, self.sink
        if sink is not None and live[sink]:  # a complement: steps into the sink count
            return tuple(tuple((i, dst) for i, dst in enumerate(row) if live[dst])
                         for row in self.table)
        if live.count(False) == (sink is not None):  # no dead state but the sink
            return tuple(tuple(row.items()) for row in self.rows)
        return tuple(tuple((i, dst) for i, dst in row.items() if live[dst])
                     for row in self.rows)

    @cached_property
    def char_blocks(self) -> int:
        """Bit i is set when block `alphabet[i]` is on a step between live
        states; as every state is reachable, these are the accepted blocks."""
        return sum(1 << i for i in {i for steps in self.live_steps for i, _ in steps})

    def accepts(self, s: str) -> bool:
        column = {c: next((i for i, block in enumerate(self.alphabet)
                           if frontend.charset_contains(block, c)), None) for c in set(s)}
        state = self.start
        for c in s:
            i = column[c]
            if i is None:
                return False
            state = self.table[state][i]
        return state in self.accepting


@dataclass(frozen=True)
class InclusionVerdict:
    witness: str | None = None  # a string the candidate matches and the superset does not

    @property
    def included(self):
        return self.witness is None


# ---------------------------------------------------------------------------
# Alphabet partitioning
# ---------------------------------------------------------------------------

def pair_alphabet(a: Nfa, b: Nfa) -> tuple:
    """Partition alphabet of a compared pair of expressions."""
    return partition_classes(list(a.classes) + list(b.classes))


# ---------------------------------------------------------------------------
# Thompson construction
# ---------------------------------------------------------------------------

def thompson(prog: PostfixProgram) -> Nfa:
    """Stack evaluation of a postfix program into the four basic fragments.

    Concatenation merges the first fragment's accept state with the second
    fragment's start state; alternation and star add two fresh states each.
    A merge is recorded once and applied when the states are renumbered, and
    each fragment's transition list is extended in place, so the
    construction is linear in the program's length.
    """
    symbol, epsilon, star = TokenKind.SYMBOL, TokenKind.EPSILON, TokenKind.STAR
    concat, alt = TokenKind.CONCAT, TokenKind.ALT
    n = 0  # states allocated so far; a fragment's new states are n and n + 1
    merged = {}  # a right fragment's start -> the left fragment's accept
    # fragment: (start, accept, transitions list)
    stack = []
    for tok in prog.tokens:
        kind = tok.kind
        if kind is symbol or kind is epsilon:
            s, e = n, n + 1
            n += 2
            label = tok.chars if kind is symbol else EPS_LABEL
            stack.append((s, e, [(s, label, e)]))
        elif kind is star:
            if not stack:
                raise MalformedExpression("star without operand")
            s1, e1, t1 = stack.pop()
            s, e = n, n + 1
            n += 2
            t1 += [(s, EPS_LABEL, s1), (s, EPS_LABEL, e),
                   (e1, EPS_LABEL, s1), (e1, EPS_LABEL, e)]
            stack.append((s, e, t1))
        elif kind is concat:
            if len(stack) < 2:
                raise MalformedExpression("binary operator underflow")
            s2, e2, t2 = stack.pop()
            s1, e1, t1 = stack.pop()
            # Merge e1 with s2 (Thompson concatenation without an ε edge).
            # Only a start that stops being one is merged, never an accept,
            # so neither is merged already.
            merged[s2] = e1
            t1 += t2
            stack.append((s1, e2, t1))
        elif kind is alt:
            if len(stack) < 2:
                raise MalformedExpression("binary operator underflow")
            s2, e2, t2 = stack.pop()
            s1, e1, t1 = stack.pop()
            s, e = n, n + 1
            n += 2
            t1 += t2
            t1 += [(s, EPS_LABEL, s1), (s, EPS_LABEL, s2),
                   (e1, EPS_LABEL, e), (e2, EPS_LABEL, e)]
            stack.append((s, e, t1))
        else:
            raise MalformedExpression("parenthesis in postfix program")
    if len(stack) != 1:
        raise MalformedExpression(f"postfix program leaves {len(stack)} values")
    start, accept, transitions = stack[0]

    # Apply the merges and renumber to dense ids in first-use order: the
    # start first, then the transitions' ends as they come, then the accept.
    # The whole NFA's start and accept are never merged away.  `number(q,
    # len(ids))` gives q its id, a new one when q has none yet.
    where = merged.get
    ids = {start: 0}
    number = ids.setdefault
    renum = tuple((number(where(a, a), len(ids)), label, number(where(b, b), len(ids)))
                  for a, label, b in transitions)
    accept = number(accept, len(ids))
    return Nfa(n_states=len(ids), start=0, accept=accept, transitions=renum, program=prog)


# ---------------------------------------------------------------------------
# Position automaton
# ---------------------------------------------------------------------------

def positions(prog: PostfixProgram) -> Positions:
    """Stack evaluation of a postfix program into its position automaton.

    Each operand is summed up by its first positions, its last positions and
    whether it matches the empty string.  Concatenation lets every last
    position of its left operand be followed by the first positions of its
    right one, and star lets its operand's last positions be followed by
    the operand's first ones; alternation only unites.  A malformed program
    is refused as `thompson` refuses it.
    """
    symbol, epsilon, star = TokenKind.SYMBOL, TokenKind.EPSILON, TokenKind.STAR
    concat, alt = TokenKind.CONCAT, TokenKind.ALT
    labels = []
    follow = [0]  # follow[0], the first positions, is set at the end
    stack = []  # per operand: (first positions, last positions, matches ε)
    for tok in prog.tokens:
        kind = tok.kind
        if kind is symbol:
            labels.append(tok.chars)
            follow.append(0)
            p = 1 << len(labels)
            stack.append((p, p, False))
        elif kind is epsilon:
            stack.append((0, 0, True))
        elif kind is star:
            if not stack:
                raise MalformedExpression("star without operand")
            first, last, _ = stack.pop()
            for p in members(last):
                follow[p] |= first
            stack.append((first, last, True))
        elif kind is concat or kind is alt:
            if len(stack) < 2:
                raise MalformedExpression("binary operator underflow")
            first2, last2, empty2 = stack.pop()
            first1, last1, empty1 = stack.pop()
            if kind is alt:
                stack.append((first1 | first2, last1 | last2, empty1 or empty2))
                continue
            if first2:
                for p in members(last1):
                    follow[p] |= first2
            stack.append((first1 | first2 if empty1 else first1,
                          last1 | last2 if empty2 else last2, empty1 and empty2))
        else:
            raise MalformedExpression("parenthesis in postfix program")
    if len(stack) != 1:
        raise MalformedExpression(f"postfix program leaves {len(stack)} values")
    first, last, empty = stack[0]
    follow[0] = first
    return Positions(labels=tuple(labels), follow=tuple(follow), final=last | int(empty))


# ---------------------------------------------------------------------------
# Powerset construction
# ---------------------------------------------------------------------------

def powerset(nfa: Nfa, alphabet: tuple | None = None) -> Dfa:
    """Determinize the position automaton of the program the NFA was built
    from, reachable states only: the DFA that production walks for it.

    `alphabet` must be a partition refining the NFA's classes, as
    `partition_classes` returns it; by default the NFA's own partition
    alphabet is used.  The alphabet refines the classes exactly when
    partitioning it together with them gives it back unchanged.
    """
    pos = positions(nfa.program)
    labels = pos.classes
    given = () if alphabet is None else tuple(alphabet)
    blocks, columns = frontend.partition([*given, *labels])
    if alphabet is not None and blocks != given:
        raise AlphabetMismatch("alphabet does not refine NFA classes")
    return _determinize(LazyDfa(pos, blocks, dict(zip(map(id, labels), columns[len(given):]))))


class LazyDfa:
    """A pattern's DFA over a partition alphabet, built a row at a time: the
    row kernel that every decision walks.

    A state is a set of positions, numbered as it is found: 0 is the empty
    set, the sink, and 1 the start {0}.  `rows[q]` maps block index i to the
    successor of state q on block `alphabet[i]`, in block order, for every
    successor that is not the sink, as `Dfa.rows` does; `live_steps[q]`
    holds the items of that row whose successor is live, and is empty when
    q is dead.  Both are None until `expand(q)` builds them, which a walk
    calls the first time it reaches q, so it pays only for the rows it
    reaches.  `accepting` grows as states are found.

    Liveness comes from the useful positions: those reachable from the
    start, and co-reachable to a final position, through positions whose
    label is not empty.  A state is live when it holds a co-reachable
    position, and `chars`, the blocks of the useful positions' labels, is
    what `Dfa.char_blocks` reads off a built DFA.  When no label is empty,
    every position is useful, and every state but the sink is live.

    Its memos belong to one call: a check's pair, or a reduction's polarity
    group, over that call's partition.
    """

    sink = 0
    start = 1

    def __init__(self, pos: Positions, alphabet: tuple, columns: dict):
        """`columns` maps id(label) to the blocks each label is made of."""
        self.alphabet = alphabet
        self.follow = pos.follow
        self.final = pos.final
        self.sets = [0, 1]  # state -> its set of positions
        self.ids = {0: 0, 1: 1}
        self.accepting = {1} if pos.final & 1 else set()
        self.rows = [{}, None]
        self.live_steps = [(), None]
        self.labels, self.columns = pos.labels, columns
        by_block = {}  # block index -> the positions whose label holds it
        nonempty = 0  # the positions whose label is not empty
        for key, (_, mask) in pos.readers.items():
            if columns[key]:
                nonempty |= mask
                for i in columns[key]:
                    by_block[i] = by_block.get(i, 0) | mask
        self.reads = sorted(by_block.items())
        self.unions = {}  # k << 8 | byte value -> union of the follow sets of its members
        everything = (1 << len(self.follow)) - 1
        # Without an empty label every position is useful, and every state
        # but the sink is live, so no row's steps need filtering.
        self.all_live = nonempty == everything - 1
        if self.all_live:
            self.useful, self.coreach = nonempty, everything
        else:
            self.useful, self.coreach = _useful(self.follow, self.final, nonempty)

    @cached_property
    def chars(self) -> int:
        """Bit i is set when block `alphabet[i]` is read by a useful
        position: the blocks of the accepted words, the Σ gate's side."""
        useful = self.useful
        return sum(1 << i for i, mask in self.reads if mask & useful)

    def live(self, q) -> bool:
        return bool(self.sets[q] & self.coreach)

    def _found(self, s) -> int:
        """Number `s`, a nonempty set of positions met for the first time."""
        q = self.ids[s] = len(self.sets)
        self.sets.append(s)
        self.rows.append(None)
        self.live_steps.append(None)
        if s & self.final:
            self.accepting.add(q)
        return q

    def expand(self, q):
        """Build the row and the live steps of state q.

        Its reach, the positions that may follow a member, is one follow set
        for a single member; a larger state ORs, for each nonzero byte of
        its bits, the union of the follow sets of that byte's members, which
        is built from at most 8 follow sets the first time that byte value
        turns up at that place (the "Four Russians" trick of Arlazarov,
        Dinic, Kronrod and Faradzev), so a dense state costs one OR per
        byte, not one per member.  The reach is split by one reader mask per
        block, and a reach of one member leads on each block of its label to
        itself.  Every block missing from the row leads to the sink, and new
        states are numbered in block order.
        """
        sets, follow = self.sets, self.follow
        current = sets[q]
        if current.bit_count() == 1:
            reach = follow[current.bit_length() - 1]
        else:
            reach = 0
            unions = self.unions
            for k, byte in enumerate(current.to_bytes((current.bit_length() + 7) // 8, "little")):
                if byte:
                    key = k << 8 | byte
                    union = unions.get(key)
                    if union is None:
                        union = 0
                        for b in members(byte):
                            union |= follow[k << 3 | b]
                        unions[key] = union
                    reach |= union
        ids = self.ids
        followers = reach.bit_count()
        if followers < 2:  # each block of the one follower's label leads to it
            blocks = self.columns[id(self.labels[reach.bit_length() - 2])] if reach else ()
            row = dict.fromkeys(blocks, ids.get(reach) or self._found(reach)) if blocks else {}
        else:
            row = {}
            for i, mask in self.reads:
                nxt = reach & mask
                if nxt:
                    row[i] = ids.get(nxt) or self._found(nxt)
        self.rows[q] = row
        co = self.coreach
        if self.all_live:
            self.live_steps[q] = tuple(row.items())
        elif current & co:
            self.live_steps[q] = tuple((i, dst) for i, dst in row.items() if sets[dst] & co)
        else:
            self.live_steps[q] = ()


def _useful(follow, final, nonempty):
    """The useful positions of a position automaton, and its co-reachable
    ones: those from which a final position can be reached through
    positions in `nonempty`, whose labels are not empty, position 0 among
    them when the language is not empty.  The co-reachable set is a
    fixpoint of passes from the last position down, each of which follows
    every edge to a later position; the reachable set grows breadth-first
    from the start."""
    co = final
    grown = True
    while grown:
        grown = False
        for p in range(len(follow) - 1, -1, -1):
            if not co >> p & 1 and follow[p] & nonempty & co:
                co |= 1 << p
                grown = True
    reached, frontier = 0, 1
    while frontier:
        nxt = 0
        for p in members(frontier):
            nxt |= follow[p]
        frontier = nxt & nonempty & ~reached
        reached |= frontier
    return reached & co, co


def lazy_dfas(patterns) -> list[LazyDfa]:
    """The lazy DFAs of compiled patterns, in order, over one partition of
    all their classes, so that any two of them can be walked together: the
    pair for a single check, the polarity group for a reduction.
    Partitioning the labels gives each label's blocks too."""
    labels = list({id(c): c for p in patterns for c in p.positions.classes}.values())
    sigma, columns = frontend.partition(labels)
    columns = dict(zip(map(id, labels), columns))
    return [LazyDfa(p.positions, sigma, columns) for p in patterns]


def _determinize(lazy: LazyDfa) -> Dfa:
    """The complete DFA of a lazy one: its rows forced breadth-first from
    the start, through the one row function that the decision walks read.

    States are numbered breadth-first, a row's new states in block order,
    and the sink, the empty set, where the dense table would first meet it:
    at the first block missed by a row.  `live` is recorded from the useful
    positions, so no reverse sweep runs for it.
    """
    n_blocks = len(lazy.alphabet)
    lazy_rows = lazy.rows
    ids = {lazy.start: 0}
    order = [lazy.start]  # Dfa state -> lazy state
    rows = []
    sink = None
    for q in order:  # grows while it is walked
        if lazy_rows[q] is None:
            lazy.expand(q)
        row = {}
        for i, dst in lazy_rows[q].items():
            if sink is None and i != len(row):  # block len(row) is the first missed
                sink = len(order)
                order.append(lazy.sink)
            if dst not in ids:
                ids[dst] = len(order)
                order.append(dst)
            row[i] = ids[dst]
        if sink is None and len(row) < n_blocks:  # the first missed block is past the last entry
            sink = len(order)
            order.append(lazy.sink)
        rows.append(row)
    dfa = Dfa(
        start=0,
        accepting=frozenset(k for k, q in enumerate(order) if q in lazy.accepting),
        rows=tuple(rows),
        sink=sink,
        alphabet=lazy.alphabet,
    )
    dfa.__dict__["live"] = tuple(lazy.live(q) for q in order)  # seeds the cached property
    return dfa


def complete(dfa: Dfa, sigma: tuple) -> Dfa:
    """`dfa`, which the determinizer already built complete, once it is
    checked to be over `sigma`, a partition as `partition_classes` returns
    it."""
    if dfa.alphabet != tuple(sigma):
        raise AlphabetMismatch("DFA is not over the completion alphabet")
    return dfa


def complement(dfa: Dfa) -> Dfa:
    """Swap accepting and non-accepting states.  The complement shares the
    DFA's rows and sink, so a determinized DFA's complement accepts in its
    sink and stays there."""
    accepting = frozenset(range(dfa.n_states)) - dfa.accepting
    return replace(dfa, accepting=accepting)


# ---------------------------------------------------------------------------
# Inclusion
# ---------------------------------------------------------------------------

def _require_comparable(a: Dfa, b: Dfa):
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch("DFAs are not over the same partition alphabet")


def _witness_from(path, alphabet):
    """The word of a path of block indices, one representative character
    (the lowest code point) per block."""
    return "".join(frontend.charset_min(alphabet[i]) for i in path)


def inclusion(superset_complement: Dfa, candidate: Dfa) -> InclusionVerdict:
    """The verdict and shortest witness of `walk_inclusion`, for a superset
    given by its complement DFA, which is complemented back.  It finds pairs
    in the same order as `inclusion_unoptimized`, so the path to the first
    doubly-accepting pair replays into the same shortest witness: one
    representative character (lowest code point) per block."""
    _require_comparable(superset_complement, candidate)
    return walk_inclusion(complement(superset_complement), candidate)


def walk_inclusion(superset, candidate) -> InclusionVerdict:
    """Is L(candidate) ⊆ L(superset)?  One breadth-first walk of `_search`
    over the product gives the verdict, and for a negative one the shortest
    witness.  The sides are `LazyDfa`s over one partition, or `Dfa`s."""
    path = _search(superset, candidate, shortest=True)
    if path is None:
        return InclusionVerdict()
    return InclusionVerdict(witness=_witness_from(path, candidate.alphabet))


def _included(superset, candidate) -> bool:
    """The verdict alone: `_search` stopped at the first step on which the
    superset falls into a sink that rejects, since the candidate's
    successor is live and a counterexample is then certain."""
    return _search(superset, candidate, shortest=False) is None


def _search(superset, candidate, shortest):
    """The product walk: breadth-first over the pairs (p, q) of a superset
    state and a candidate state reached through the candidate's live steps,
    until a pair on which the candidate accepts and the superset does not.
    It gives None when there is none, so the candidate is included, and
    otherwise, when `shortest`, the block indices of the path to the first
    such pair: the shortest counterexample, the same one that
    `inclusion_unoptimized` finds.  Without `shortest` it gives an empty
    list, and keeps no path.

    Either side is a `LazyDfa` or a `Dfa`: each has `start`, `accepting`,
    `rows` and `live_steps`, and a lazy one's entries are None until the
    walk first reaches the state and expands it.  A block missing from p's
    row leads the superset into its sink.  When the sink accepts, as in a
    complement, nothing beyond it is a counterexample, and the step is
    skipped.  When it rejects, the pair is entered like any other, unless
    `shortest` is false: then the walk stops, as a counterexample is
    certain.  Pairs whose candidate state is dead are never entered: no goal
    lies beyond them, and every predecessor of a live state is live, so each
    remaining pair is still first found through the same parent, in the
    same order, and the witness does not change.  A pair's parent and block
    are kept in lists beside the queue, not as a map to new tuples, which
    would leave an object per pair for the garbage collector to track.
    """
    sup_rows, sup_acc, sink = superset.rows, superset.accepting, superset.sink
    sink_rejects = sink is not None and sink not in sup_acc
    cand_steps, cand_acc = candidate.live_steps, candidate.accepting
    start = (superset.start, candidate.start)
    if start[1] in cand_acc and start[0] not in sup_acc:
        return []
    seen = {start}
    queue = [start]
    if shortest:
        parents, blocks = [None], [None]  # per queued pair: its parent, the block to it
    for pair in queue:  # grows while it is walked
        p, q = pair
        sup_row = sup_rows[p]
        if sup_row is None:
            superset.expand(p)
            sup_row = sup_rows[p]
        steps = cand_steps[q]
        if steps is None:
            candidate.expand(q)
            steps = cand_steps[q]
        for i, dst in steps:
            nxt = sup_row.get(i)
            if nxt is None:
                if not sink_rejects:
                    continue
                if not shortest:
                    return []
                nxt = sink
            found = (nxt, dst)
            if found not in seen:
                if dst in cand_acc and nxt not in sup_acc:
                    if not shortest:
                        return []
                    index = {queued: k for k, queued in enumerate(queue)}
                    path = [i]
                    while pair is not start:
                        k = index[pair]
                        path.append(blocks[k])
                        pair = parents[k]
                    return path[::-1]
                seen.add(found)
                queue.append(found)
                if shortest:
                    parents.append(pair)
                    blocks.append(i)
    return None


def inclusion_unoptimized(a1: Dfa, a2: Dfa) -> InclusionVerdict:
    """Reference procedure: complement a1, build the explicit product
    automaton over the full state cross product, and search for a path from
    the start pair to an accepting pair (breadth-first)."""
    _require_comparable(a1, a2)
    comp = complement(a1)
    alphabet = comp.alphabet
    product_states = [(p, q) for p in range(comp.n_states) for q in range(a2.n_states)]
    product_trans = {
        ((p, q), i): (comp.table[p][i], a2.table[q][i])
        for p, q in product_states
        for i in range(len(alphabet))
    }
    goal = {(p, q) for p, q in product_states
            if p in comp.accepting and q in a2.accepting}
    start = (comp.start, a2.start)
    pred = {start: None}
    queue = [start]
    i = 0
    while i < len(queue):
        pair = queue[i]
        i += 1
        if pair in goal:
            path = []
            while pred[pair] is not None:
                pair, block = pred[pair]
                path.append(block)
            return InclusionVerdict(witness=_witness_from(path[::-1], alphabet))
        for block in range(len(alphabet)):
            nxt = product_trans[(pair, block)]
            if nxt not in pred:
                pred[nxt] = (pair, block)
                queue.append(nxt)
    return InclusionVerdict()


def alphabet_subset(candidate: Nfa, superset: Nfa) -> bool:
    """Σ precondition: every character the candidate can match must be
    matchable by the superset."""
    return frontend.charset_subset(candidate.chars(), superset.chars())


# ---------------------------------------------------------------------------
# Pattern-level pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompiledPattern:
    """A pattern's position automaton, built once in one walk of re's parse
    tree, and the features stripped on the way; `lazy_dfas` makes its DFA
    over the partition of the patterns passed with it: the pair for a single
    check, the polarity group for a reduction."""

    pattern: str
    positions: Positions
    stripped_features: tuple = ()

    @property
    def approximate(self):
        return bool(self.stripped_features)


def compile_pattern(pattern: str | RawPattern) -> CompiledPattern:
    text = pattern.text if isinstance(pattern, RawPattern) else pattern
    labels, follow, final, stripped = frontend.parse_positions(text)
    return CompiledPattern(pattern=text, positions=Positions(labels, follow, final),
                           stripped_features=stripped)


def compile_postfix(prog: PostfixProgram) -> CompiledPattern:
    return CompiledPattern(pattern=str(prog), positions=positions(prog))


def completed_dfas(patterns) -> list[Dfa]:
    """Complete DFAs of compiled patterns, in order, over one partition of
    all their classes: each `lazy_dfas` entry with every row forced.  The
    decisions walk the lazy ones; display and the reference procedures
    read these."""
    return [_determinize(lazy) for lazy in lazy_dfas(patterns)]


def decide_inclusion(superset: CompiledPattern, candidate: CompiledPattern) -> InclusionVerdict:
    """Full decision: the pair's `lazy_dfas` and one product walk over
    them, which builds only the rows it reaches, so a short witness is found
    without determinizing either side.  A candidate character the superset
    cannot match lands in a block on which the superset goes to its sink,
    which rejects, so no separate Σ gate is needed for the verdict or the
    witness."""
    return walk_inclusion(*lazy_dfas([superset, candidate]))


def check_inclusion(superset: str, candidate: str) -> InclusionVerdict:
    """Convenience wrapper over raw pattern strings: is L(candidate) ⊆
    L(superset)?  `decide_inclusion` on their compiled patterns."""
    return decide_inclusion(compile_pattern(superset), compile_pattern(candidate))


# ---------------------------------------------------------------------------
# GraphViz dumps
# ---------------------------------------------------------------------------

def _dot_string(text):
    """`text` as a DOT quoted string that Graphviz shows as `text`: '"' and
    '\\' get a backslash, so that a display like '\\n' or '\\N' is not read
    as a Graphviz escape."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def nfa_to_dot(nfa: Nfa, name="nfa") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=none label=""];']
    for q in range(nfa.n_states):
        shape = "doublecircle" if q == nfa.accept else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {nfa.start};")
    for src, label, dst in nfa.transitions:
        text = "eps" if label is EPS_LABEL else frontend.format_charset(label)
        lines.append(f"  {src} -> {dst} [label={_dot_string(text)}];")
    lines.append("}")
    return "\n".join(lines)


def dfa_to_dot(dfa: Dfa, name="dfa") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", '  hidden [shape=none label=""];']
    for q in range(dfa.n_states):
        shape = "doublecircle" if q in dfa.accepting else "circle"
        lines.append(f"  {q} [shape={shape}];")
    lines.append(f"  hidden -> {dfa.start};")
    for src, row in enumerate(dfa.table):
        for block, dst in zip(dfa.alphabet, row):
            lines.append(f"  {src} -> {dst} [label={_dot_string(frontend.format_charset(block))}];")
    lines.append("}")
    return "\n".join(lines)
