"""Automata layer: position automata, powerset DFAs, complement, and the
product-traversal inclusion decision procedure.

A pattern is compiled to its position (Glushkov) automaton: one state per
symbol of the postfix program and no ε edges.  The one determinizer works
over sets of positions.  Thompson NFAs are kept for display (`explain`) and
for the benchmark's stage-by-stage replay; `powerset` converts one to
position form before determinizing it.

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
    NormalizedExpr,
    PostfixProgram,
    RawPattern,
    TokenKind,
    partition_classes,
)

EPS_LABEL = None  # transition label for ε edges


@dataclass(frozen=True)
class Nfa:
    """Thompson NFA: one start state, one accept state, dense int ids.  It is
    built for display and for the benchmark's replay; decisions are made on
    `Positions`."""

    n_states: int
    start: int
    accept: int
    transitions: tuple  # (src, label, dst); label is a character set or EPS_LABEL

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
        """Direct NFA simulation over closure masks; used for cross-checks,
        not production."""
        closures = _eps_closures(self)
        step = [[] for _ in range(self.n_states)]
        for src, label, dst in self.transitions:
            if label is not EPS_LABEL:
                step[src].append((label, closures[dst]))
        current = closures[self.start]
        for c in s:
            nxt = 0
            for q in _members(current):
                for label, target in step[q]:
                    if frontend.charset_contains(label, c):
                        nxt |= target
            current = nxt
            if not current:
                return False
        return bool(current >> self.accept & 1)


def _eps_closures(nfa: Nfa) -> list[int]:
    """The ε-closure of every NFA state, as an int with bit r set for each
    state r in it.

    States on one ε-cycle (a star over a nullable body) share a closure, so
    closures are computed per strongly connected component of the ε edges,
    found by Tarjan's algorithm.  It finishes a component only after every
    component the component reaches, so a closure is its component's states
    ORed with the finished closures of their successors: one OR per ε edge.
    """
    n = nfa.n_states
    eps = [[] for _ in range(n)]
    for src, label, dst in nfa.transitions:
        if label is EPS_LABEL:
            eps[src].append(dst)
    # A state without ε edges is its own closure; every other state gets its
    # closure when its component is finished.
    closures = [0 if out else 1 << q for q, out in enumerate(eps)]
    depth = [-1] * n  # a state's position on `unfinished` when discovered
    low = [0] * n  # the lowest such position reachable through unfinished states
    unfinished = []  # discovered states whose component is not finished
    for root in range(n):
        if closures[root] or depth[root] >= 0:
            continue
        depth[root] = low[root] = 0
        unfinished.append(root)
        path = [(root, iter(eps[root]))]  # the depth-first path
        while path:
            q, successors = path[-1]
            for r in successors:
                if closures[r]:
                    continue
                if depth[r] < 0:
                    depth[r] = low[r] = len(unfinished)
                    unfinished.append(r)
                    path.append((r, iter(eps[r])))
                    break
                low[q] = min(low[q], depth[r])
            else:
                path.pop()
                d = depth[q]
                if low[q] < d:
                    p = path[-1][0]
                    low[p] = min(low[p], low[q])
                    continue
                # q roots a component, which reaches only finished ones.
                component = unfinished[d:]
                del unfinished[d:]
                mask = 0
                for r in component:
                    mask |= 1 << r
                    for t in eps[r]:
                        mask |= closures[t]  # 0 for the component's own states
                for r in component:
                    closures[r] = mask
    return closures


def _members(mask):
    """The state ids whose bits are set in `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    def classes(self) -> tuple:
        """The distinct labels, told apart by identity, as `Nfa.classes`."""
        return tuple({id(label): label for label in self.labels}.values())


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
        as in a complement, every state whose row misses a block reaches it."""
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
        successor of state q, in block order; empty when q is dead."""
        live, sink = self.live, self.sink
        if sink is not None and live[sink]:  # a complement: steps into the sink count
            return tuple(tuple((i, dst) for i, dst in enumerate(row) if live[dst])
                         for row in self.table)
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
    return Nfa(n_states=len(ids), start=0, accept=accept, transitions=renum)


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
            for p in _members(last):
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
                for p in _members(last1):
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


def _positions_of(nfa: Nfa) -> Positions:
    """The position automaton of an NFA: each symbol transition is a
    position, followed by the symbol transitions that leave the ε-closure of
    its target, and final when that closure holds the accept state.  On a
    Thompson NFA it determinizes state for state as `positions` does."""
    closures = _eps_closures(nfa)
    edges = [(src, label, dst) for src, label, dst in nfa.transitions if label is not EPS_LABEL]
    leaving = [0] * nfa.n_states  # per state, the positions of its symbol transitions
    for p, (src, _, _) in enumerate(edges, 1):
        leaving[src] |= 1 << p

    def after(closure):
        out = 0
        for q in _members(closure):
            out |= leaving[q]
        return out

    reached = [closures[nfa.start], *(closures[dst] for _, _, dst in edges)]
    return Positions(labels=tuple(label for _, label, _ in edges),
                     follow=tuple(map(after, reached)),
                     final=sum(1 << p for p, closure in enumerate(reached)
                               if closure >> nfa.accept & 1))


# ---------------------------------------------------------------------------
# Powerset construction
# ---------------------------------------------------------------------------

def powerset(nfa: Nfa, alphabet: tuple | None = None) -> Dfa:
    """Determinize an NFA through its position automaton, reachable states
    only.

    `alphabet` must be a partition refining the NFA's classes, as
    `partition_classes` returns it; by default the NFA's own partition
    alphabet is used.  The alphabet refines the classes exactly when
    partitioning it together with them gives it back unchanged.
    """
    labels = nfa.classes
    given = () if alphabet is None else tuple(alphabet)
    blocks, columns = frontend.partition([*given, *labels])
    if alphabet is not None and blocks != given:
        raise AlphabetMismatch("alphabet does not refine NFA classes")
    return _determinize(_positions_of(nfa), blocks,
                        dict(zip(map(id, labels), columns[len(given):])))


def _determinize(pos: Positions, alphabet: tuple, columns: dict) -> Dfa:
    """The subset construction over sets of positions, given id(label) ->
    the blocks each label is made of.

    A DFA state is a set of positions, and the start state is {0}.  A row
    ORs the follow sets of the state's members, and gives each block the
    positions of that union whose label holds the block, so only the blocks
    of labels some follower reads get an entry.  It ANDs the union with each
    label's positions, or, when the union has fewer members than the
    pattern has labels, walks the members' own blocks.  Every other block
    leads to the empty set, the sink, which is numbered like any other set
    where the dense table would first meet it: states are numbered
    breadth-first, and a row's new states in block order.
    """
    follow = pos.follow
    blocks_of = [(), *(columns[id(label)] for label in pos.labels)]  # per position
    readers = {}  # id(label) -> the positions that read it
    for p, label in enumerate(pos.labels, 1):
        readers[id(label)] = readers.get(id(label), 0) | 1 << p
    reads = [(mask, columns[key]) for key, mask in readers.items() if columns[key]]

    n_blocks = len(alphabet)
    ids = {1: 0}
    order = [1]
    rows = []
    sink = None
    for current in order:  # grows while it is walked
        reach = 0  # the positions that may follow the state's members
        for p in _members(current):
            reach |= follow[p]
        targets = {}  # block index -> a nonempty set of positions
        if reach.bit_count() < len(reads):
            for p in _members(reach):
                for i in blocks_of[p]:
                    targets[i] = targets.get(i, 0) | 1 << p
        else:
            for mask, blocks in reads:
                nxt = reach & mask
                if nxt:
                    for i in blocks:
                        targets[i] = targets.get(i, 0) | nxt
        row = {}
        for i in sorted(targets):
            if sink is None and i != len(row):  # block len(row) is the first missed
                sink = len(order)
                order.append(0)
            nxt = targets[i]
            if nxt not in ids:
                ids[nxt] = len(order)
                order.append(nxt)
            row[i] = ids[nxt]
        if sink is None and len(row) < n_blocks:  # the first missed block is past the last entry
            sink = len(order)
            order.append(0)
        rows.append(row)
    final = pos.final
    return Dfa(
        start=0,
        accepting=frozenset(i for i, s in enumerate(order) if s & final),
        rows=tuple(rows),
        sink=sink,
        alphabet=alphabet,
    )


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


def _witness_from(pred, pair, alphabet):
    labels = []
    while pred[pair] is not None:
        pair, i = pred[pair]
        labels.append(frontend.charset_min(alphabet[i]))
    return "".join(reversed(labels))


def inclusion(superset_complement: Dfa, candidate: Dfa) -> InclusionVerdict:
    """The verdict of `_included`, and for a negative one the witness that
    `_counterexample` spells.

    `superset_complement` must already be the complement of the superset DFA.
    The witness search runs only once the verdict is known to be negative.
    It finds pairs in the same order as `inclusion_unoptimized`, so the path
    to the first doubly-accepting pair replays into the same shortest
    witness: one representative character (lowest code point) per block.
    """
    if _included(superset_complement, candidate):
        return InclusionVerdict()
    pred, pair = _counterexample(superset_complement, candidate)
    return InclusionVerdict(witness=_witness_from(pred, pair, candidate.alphabet))


def _included(superset_complement: Dfa, candidate: Dfa) -> bool:
    """Whether the candidate is included: a walk over the product pairs
    (p, q) reached through the candidate's live steps, which stops at the
    first pair accepting in both automata.

    A step on a block missing from p's row leads the superset complement
    into its sink.  When the sink accepts, as in every complement of a
    determinized DFA, it accepts every continuation, and the candidate's
    successor is live, so a counterexample is certain at that step.
    """
    _require_comparable(superset_complement, candidate)
    sup_rows, sup_acc = superset_complement.rows, superset_complement.accepting
    sink_accepts = superset_complement.sink in sup_acc
    cand_steps, cand_acc = candidate.live_steps, candidate.accepting
    start = (superset_complement.start, candidate.start)
    if start[0] in sup_acc and start[1] in cand_acc:
        return False
    seen = {start}
    todo = [start]
    for p, q in todo:  # grows while it is walked
        sup_row = sup_rows[p]
        for i, dst in cand_steps[q]:
            nxt = sup_row.get(i)
            if nxt is None:
                if sink_accepts:
                    return False
                continue  # the superset complement's sink rejects every continuation
            pair = (nxt, dst)
            if pair not in seen:
                if nxt in sup_acc and dst in cand_acc:
                    return False
                seen.add(pair)
                todo.append(pair)
    return True


def _counterexample(superset_complement: Dfa, candidate: Dfa):
    """The witness search of `inclusion`: breadth-first over the product
    pairs, it gives the map from each pair found to (its parent, block
    index) and the first doubly-accepting pair, or None when the candidate
    is included.

    Pairs whose candidate state is dead are never entered: no
    doubly-accepting pair lies beyond them.  Every predecessor of a live
    state is live, so each remaining pair is still first found through the
    same parent, in the same order, and the witness does not change.
    """
    _require_comparable(superset_complement, candidate)
    sup_rows, sup_sink = superset_complement.rows, superset_complement.sink
    sup_acc = superset_complement.accepting
    cand_steps, cand_acc = candidate.live_steps, candidate.accepting
    start = (superset_complement.start, candidate.start)
    pred = {start: None}
    if start[0] in sup_acc and start[1] in cand_acc:
        return pred, start
    queue = [start]
    for pair in queue:  # grows while it is walked
        p, q = pair
        sup_row = sup_rows[p]
        for i, dst in cand_steps[q]:
            nxt = (sup_row.get(i, sup_sink), dst)
            if nxt not in pred:
                pred[nxt] = (pair, i)
                if nxt[0] in sup_acc and nxt[1] in cand_acc:
                    return pred, nxt
                queue.append(nxt)
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
            return InclusionVerdict(witness=_witness_from(pred, pair, alphabet))
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
    """A pattern carried through parse → postfix → position automaton once;
    `completed_dfas` builds DFAs over the partition of the patterns passed
    with it: the pair for a single check, the polarity group for a reduction."""

    pattern: str
    expr: NormalizedExpr
    postfix: PostfixProgram
    positions: Positions

    @property
    def approximate(self):
        return self.expr.approximate


def compile_pattern(pattern: str | RawPattern) -> CompiledPattern:
    text = pattern.text if isinstance(pattern, RawPattern) else pattern
    expr = frontend.parse(text)
    postfix = frontend.to_postfix(expr)
    return CompiledPattern(pattern=text, expr=expr, postfix=postfix,
                           positions=positions(postfix))


def compile_postfix(prog: PostfixProgram) -> CompiledPattern:
    return CompiledPattern(pattern=str(prog), expr=NormalizedExpr(prog.tokens), postfix=prog,
                           positions=positions(prog))


def completed_dfas(patterns) -> list[Dfa]:
    """Complete DFAs of compiled patterns, in order, over one partition of
    all their classes, so that any two of them can be compared: the pair
    for a single check, the polarity group for a reduction.  Partitioning
    the labels gives each label's blocks too, so no DFA partitions again."""
    labels = list({id(c): c for p in patterns for c in p.positions.classes}.values())
    sigma, columns = frontend.partition(labels)
    columns = dict(zip(map(id, labels), columns))
    return [_determinize(p.positions, sigma, columns) for p in patterns]


def decide_inclusion(superset: CompiledPattern, candidate: CompiledPattern) -> InclusionVerdict:
    """Full decision: the pair's `completed_dfas`, complement, product
    traversal.  A candidate character the superset cannot match lands in a
    block on which the superset's DFA goes to its sink, which its complement
    accepts, so no separate Σ gate is needed for the verdict or the witness."""
    sup_dfa, cand_dfa = completed_dfas([superset, candidate])
    return inclusion(complement(sup_dfa), cand_dfa)


def check_inclusion(superset: str, candidate: str) -> InclusionVerdict:
    """Convenience wrapper over raw pattern strings: is L(candidate) ⊆
    L(superset)?"""
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
