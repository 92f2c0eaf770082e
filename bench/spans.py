"""Tracing for the benchmark's --trace 1 run.

The package has no instrumentation of its own, so the traced run replays each
public operation stage by stage through the public functions, with a span
around every call.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import json
from time import perf_counter

from rexincl import automata, extractor, frontend
from rexincl.errors import PatternSyntaxError, UnsupportedFeature


class Tracer:
    """Spans (name, start, end, index of the enclosing span or -1), counters,
    and the negative verdicts seen, with the length of the reference
    procedure's shortest witness."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.counts = {}
        self.witnesses = []  # (witness, query, reference length)
        self.reference_s = 0.0  # time spent outside the replay, on references

    def call(self, name, fn, *args):
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._open.pop()
            self.spans[index] = (name, start, perf_counter(),
                                 self._open[-1] if self._open else -1)

    def add(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self):
        """Total self time per span name: duration minus enclosed spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")


def _compile(tracer, text):
    """automata.compile_pattern, stage by stage."""
    expr = tracer.call("frontend.parse_s", frontend.parse, text)
    postfix = tracer.call("frontend.postfix_s", frontend.to_postfix, expr)
    nfa = tracer.call("automata.thompson_s", automata.thompson, postfix)
    tracer.add("frontend.tokens", len(expr.tokens))
    tracer.add("automata.nfa_states", nfa.n_states)
    return nfa


def _decide(tracer, sup_nfa, cand_nfa, query):
    """automata.decide_inclusion after its Σ gate, stage by stage."""
    sigma = tracer.call("automata.partition_s", automata.pair_alphabet, sup_nfa, cand_nfa)
    sup = tracer.call("automata.powerset_s", automata.powerset, sup_nfa, sigma)
    cand = tracer.call("automata.powerset_s", automata.powerset, cand_nfa, sigma)
    sup_c = tracer.call("automata.complete_s", automata.complete, sup, sigma)
    cand_c = tracer.call("automata.complete_s", automata.complete, cand, sigma)
    sup_comp = tracer.call("automata.complete_s", automata.complement, sup_c)
    verdict = tracer.call("automata.product_s", automata.inclusion, sup_comp, cand_c)
    tracer.add("automata.blocks", len(sigma))
    tracer.add("automata.dfa_states", sup.n_states + cand.n_states)
    tracer.add("automata.product_bound", sup_c.n_states * cand_c.n_states)
    if not verdict.included:
        start = perf_counter()
        reference = automata.inclusion_unoptimized(sup_c, cand_c)
        tracer.reference_s += perf_counter() - start
        tracer.witnesses.append((verdict.witness, query, len(reference.witness)))
    return verdict.included


def replay_reduce(tracer, rules):
    """reducer.compute_inclusions' pairwise loop (jobs=1): compile every rule
    once, then for each ordered pair of one polarity the Σ gate and, when it
    passes, the decision.  Returns the includes relation as the report
    holds it: every rule id mapped to the sorted ids it includes."""
    nfas = {}
    for rule in rules:
        try:
            nfas[rule.id] = _compile(tracer, rule.pattern.text)
        except (PatternSyntaxError, UnsupportedFeature):
            pass
    groups = {}
    for rule in rules:
        groups.setdefault(rule.polarity, []).append(rule)
    includes = {rule.id: [] for rule in rules}
    for _, group in sorted(groups.items()):
        for sup in group:
            if sup.id not in nfas:
                continue
            for cand in group:
                if cand.id == sup.id or cand.id not in nfas:
                    continue
                tracer.add("reducer.pairs", 1)
                if not tracer.call("automata.gate_s", automata.alphabet_subset,
                                   nfas[cand.id], nfas[sup.id]):
                    continue
                tracer.add("reducer.pairs_decided", 1)
                query = {"superset": sup.pattern.text, "candidate": cand.pattern.text}
                if tracer.call("reducer.pair", _decide, tracer, nfas[sup.id],
                               nfas[cand.id], query):
                    includes[sup.id].append(cand.id)
    return {i: sorted(v) for i, v in includes.items()}


def _check(tracer, query):
    sup = _compile(tracer, query["superset"])
    cand = _compile(tracer, query["candidate"])
    if not tracer.call("automata.gate_s", automata.alphabet_subset, cand, sup):
        return False  # decide_inclusion answers from the Σ gate alone
    return _decide(tracer, sup, cand, query)


def replay_check(tracer, queries):
    """automata.check_inclusion for every query; returns the verdicts."""
    return [tracer.call("check.query", _check, tracer, q) for q in queries]


def replay_extract(tracer, corpus, rules):
    """extractor.run_corpus: split, classify, aggregate.  Also counts the
    rx.search calls each sentence costs: the matched rule's position in
    matching order, or every rule when none matches."""
    compiled = extractor.CompiledRuleSet(rules)
    order = compiled.positive + compiled.negative
    position = {rule.id: i + 1 for i, (rule, _, _) in enumerate(order)}
    results = []
    searches = 0
    for doc in corpus:
        for sentence in tracer.call("extractor.split_s", extractor.split_sentences, doc):
            result = tracer.call("extractor.classify_s", extractor.classify, sentence, compiled)
            searches += position.get(result.matched_rule_id, len(order))
            results.append(result)
    tracer.call("extractor.aggregate_s", extractor.aggregate, results)
    tracer.add("extractor.sentences", len(results))
    tracer.add("extractor.searches", searches)
    return results
