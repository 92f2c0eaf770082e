"""Benchmark for rexincl: rule-set reduction, one-off inclusion checks and
statistics extraction, measured end to end through the package's public
functions, with a separate traced run for per-layer numbers.

    python3 bench/run.py --workload reduce-apa --seed 1 --seconds 30 --trace 0

Run it from the repository root.  Inputs are generated from --seed by
bench/gen.py; the package only ever sees the generated files.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the machine, the inputs and
the details of every check.  See bench/README.md for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

# The package's MAX_REPEAT when this benchmark was written; kept fixed here
# so that a change to the package's limit does not change the inputs.
MAX_BOUND = 200
# Set-up is repeated as a phase of its own, interleaved with the others, for
# this share of --seconds and at least this many times.
SETUP_SHARE = 0.05
SETUP_REPEATS = 7


@dataclass(frozen=True)
class Workload:
    why: str
    rules_per_polarity: int
    checks: int  # queries in one pass over the check batch
    repeat_share: float  # share of bounded-repetition queries in the batch
    sentences: int
    # Share of --seconds given to each phase: reduce, check, extract.
    shares: tuple


# Every workload runs the same three phases, because every end-to-end metric
# is reported for every workload; the inputs decide which phase dominates.
WORKLOADS = {
    "reduce-apa": Workload(
        why="O(n^2) pairwise decisions over an APA-style rule set; powerset and "
            "product traversal dominate, so per-rule reuse and pair filters show here",
        rules_per_polarity=100, checks=400, repeat_share=0.0, sentences=2000,
        shares=(0.6, 0.15, 0.2)),
    "check-repeat": Workload(
        why="independent one-off checks, a tenth with bounded repetition up to "
            "MAX_REPEAT; compile dominates and no pair repeats, so pairwise caching "
            "cannot help",
        rules_per_polarity=60, checks=240, repeat_share=0.1, sentences=2000,
        shares=(0.15, 0.7, 0.15)),
    "extract-corpus": Workload(
        why="20k sentences classified with the full and the reduced rule set in the "
            "host re engine; automata changes should not move extract_*",
        rules_per_polarity=60, checks=400, repeat_share=0.0, sentences=20000,
        shares=(0.15, 0.1, 0.75)),
}


def import_package():
    """Import rexincl from the src/ directory next to this benchmark, never
    from an installed copy."""
    src = HERE.parent / "src"
    if not (src / "rexincl" / "__init__.py").is_file():
        raise ImportError(f"no rexincl package under {src}")
    sys.path.insert(0, str(src))
    from rexincl import automata, extractor, reducer
    return automata, extractor, reducer


class Inputs:
    """What one set-up produced: the generated specs, kept for checking, and
    the inputs as the package loaded them back from disk."""

    def __init__(self, wl, seed, workdir, reducer, extractor):
        self.specs = gen.rule_set(random.Random(f"{seed}-rules"), wl.rules_per_polarity)
        queries = gen.check_batch(random.Random(f"{seed}-checks"), wl.checks,
                                  wl.repeat_share, MAX_BOUND)
        docs, self.labels = gen.corpus(random.Random(f"{seed}-corpus"), self.specs,
                                       wl.sentences)
        workdir.mkdir(parents=True, exist_ok=True)
        gen.write_jsonl(workdir / "rules.jsonl", (s.to_obj() for s in self.specs))
        gen.write_jsonl(workdir / "checks.jsonl", queries)
        gen.write_jsonl(workdir / "corpus.jsonl", docs)
        self.rules = reducer.load_rules(workdir / "rules.jsonl")
        self.corpus = extractor.load_corpus(workdir / "corpus.jsonl")
        with open(workdir / "checks.jsonl", encoding="utf-8") as fh:
            self.queries = [json.loads(line) for line in fh]


class Tally:
    """Operations attempted and failed, with the first failures' notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, problem=None):
        """Count one checked operation; `problem` says why it failed, if it did."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(problem)


# ---------------------------------------------------------------------------
# Checks made independently of the package
# ---------------------------------------------------------------------------

def relation_problems(report, specs, seed):
    """Disagreements between a reduce report and what the construction
    knows: same-family pairs whose inclusion is certain, or refuted by a
    host-confirmed string; and claimed inclusions refuted by a sample."""
    rng = random.Random(f"{seed}-verify")
    by_id = {s.id: s for s in specs}
    problems = []
    known = 0
    for sup in specs:
        includes = set(report.includes.get(sup.id, ()))
        for cand in specs:
            if cand is sup or cand.family.polarity != sup.family.polarity:
                continue
            expected, witness = gen.expected_relation(sup, cand, rng)
            if expected is None:
                continue
            known += 1
            if (cand.id in includes) != expected:
                problems.append(f"rule {cand.id} {'not ' if expected else ''}expected "
                                f"inside rule {sup.id} (witness {witness!r})")
        for cand_id in includes:
            cand = by_id[cand_id]
            for _ in range(2):
                text = cand.family.sample(cand.levels, rng)
                if not re.fullmatch(sup.pattern, text):
                    problems.append(f"rule {sup.id} claimed to include rule {cand_id}, "
                                    f"but misses {text!r}")
                    break
    return problems, known


def check_answer(query, verdict):
    """None when the verdict is right, otherwise what is wrong with it."""
    if verdict.included != query["included"]:
        return f"{query['kind']}: included={verdict.included}, expected {query['included']}"
    if not verdict.included:
        w = verdict.witness
        if w is None or not gen.matches(query, "candidate", w) or gen.matches(query, "superset", w):
            return f"{query['kind']}: bad witness {w!r}"
    return None


def outcome(result):
    return result.outcome, result.statistic_type


# ---------------------------------------------------------------------------
# Timed run (--trace 0)
# ---------------------------------------------------------------------------

class Phase:
    """One kind of timed work, done a step at a time."""

    def __init__(self, share, min_steps, step, block=1):
        self.share = share
        self.min_steps = min_steps
        self.step = step
        self.block = block  # the phase stops only after whole blocks of steps
        self.steps = 0
        self.used = 0.0

    def done(self, seconds):
        """At a block boundary, past the minimum, and within half a block of
        the phase's share of `seconds`."""
        if self.steps < self.min_steps or self.steps % self.block:
            return False
        per_block = self.used / (self.steps // self.block)
        return self.used + per_block / 2 >= self.share * seconds


def interleave(phases, seconds):
    """Run the phases' steps interleaved, always advancing the phase furthest
    behind its share of `seconds`, so that every phase samples the machine
    over the whole run rather than over one stretch of it."""
    while True:
        pending = [p for p in phases if not p.done(seconds)]
        if not pending:
            return
        phase = min(pending, key=lambda p: p.used / p.share)
        t0 = time.perf_counter()
        phase.step(phase.steps)
        phase.used += time.perf_counter() - t0
        phase.steps += 1


def timed_run(wl, inputs, setup, setup_times, seconds, seed, pkg, tally, details):
    automata, extractor, reducer = pkg

    # Set-up again, its result discarded, to sample set-up time over the run.
    def setup_step(i):
        t0 = time.perf_counter()
        setup()
        setup_times.append(time.perf_counter() - t0)

    # Reduce: the same rule set, repeatedly; every report must be identical.
    reduce_times, first = [], {}

    def reduce_step(i):
        t0 = time.perf_counter()
        try:
            report = reducer.compute_inclusions(inputs.rules, jobs=1)
        except Exception as exc:  # a failed operation is counted, not raised
            tally.op(f"compute_inclusions: {type(exc).__name__}: {exc}")
            return
        reduce_times.append(time.perf_counter() - t0)
        text = report.to_json()
        if not first:
            first.update(report=report, text=text,
                         reduced=reducer.reduce(report, inputs.rules))
            problems, known = relation_problems(report, inputs.specs, seed)
            details["reduce"] = {"known_pairs": known, "problems": problems[:10],
                                 "removed": len(report.removed),
                                 "survivors": len(report.survivors)}
            tally.op(problems[0] if problems else None)
        else:
            tally.op(None if text == first["text"] else f"reduce report {i} differs from the first")

    # Check: one query per step, each compiled fresh as `rexincl check` does;
    # only whole passes over the batch, so that every query weighs the same.
    latencies = []

    def check_step(i):
        q = inputs.queries[i % len(inputs.queries)]
        t0 = time.perf_counter()
        try:
            verdict = automata.check_inclusion(q["superset"], q["candidate"])
        except Exception as exc:  # a failed query is counted, not raised
            latencies.append(time.perf_counter() - t0)
            tally.op(f"{q['kind']}: {type(exc).__name__}: {exc}")
            return
        latencies.append(time.perf_counter() - t0)
        tally.op(check_answer(q, verdict))

    # Extract: the full and the reduced rule set, alternating which goes first.
    rates = {"full": [], "reduced": []}
    diffs = {"outcome": 0, "label": 0, "apa": 0, "values": 0}

    def extract_step(i):
        if not first:
            tally.op("no reduced rule set to extract with")
            return
        results = {}
        for name in (("full", "reduced") if i % 2 == 0 else ("reduced", "full")):
            rules = inputs.rules if name == "full" else first["reduced"]
            t0 = time.perf_counter()
            try:
                _, res = extractor.run_corpus(inputs.corpus, rules)
            except Exception as exc:  # a failed operation is counted, not raised
                tally.op(f"run_corpus ({name}): {type(exc).__name__}: {exc}")
                return
            rates[name].append(len(res) / (time.perf_counter() - t0))
            results[name] = res
        full, red = results["full"], results["reduced"]
        if not len(full) == len(red) == len(inputs.labels):
            tally.op(f"sentence counts {len(full)} full, {len(red)} reduced, "
                            f"{len(inputs.labels)} generated")
            return
        for a, b, label in zip(full, red, inputs.labels):
            same, labelled = outcome(a) == outcome(b), outcome(a) == label
            tally.op(None if same and labelled else
                     f"{a.sentence.text!r}: full {outcome(a)}, reduced {outcome(b)}, "
                     f"expected {label}")
            if i == 0:
                diffs["outcome"] += not same
                diffs["label"] += not labelled
                diffs["apa"] += a.apa != b.apa
                diffs["values"] += a.values != b.values

    r_share, c_share, e_share = wl.shares
    interleave([Phase(SETUP_SHARE, SETUP_REPEATS - 1, setup_step),
                Phase(r_share, 3, reduce_step),
                Phase(c_share, len(inputs.queries), check_step, len(inputs.queries)),
                Phase(e_share, 3, extract_step)], seconds)

    p95 = _quantile(latencies, 0.95)
    details["setups"] = len(setup_times)
    details.setdefault("reduce", {})["calls"] = len(reduce_times)
    details["check"] = {"samples": len(latencies),
                        "beyond_p95": sum(1 for x in latencies if x > p95)}
    details["extract"] = {"sentences": len(inputs.labels), "full_rules": len(inputs.rules),
                          "reduced_rules": len(first.get("reduced", ())),
                          "passes": len(rates["full"]), "full_vs_reduced_differences": diffs}
    return {
        "reduce_s": (_quantile(reduce_times, 0.5), "s"),
        "check_p50_ms": (1000 * _quantile(latencies, 0.5), "ms"),
        "check_p95_ms": (1000 * p95, "ms"),
        "extract_full_sents_per_s": (_quantile(rates["full"], 0.5), "1/s"),
        "extract_reduced_sents_per_s": (_quantile(rates["reduced"], 0.5), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _quantile(values, q):
    """The q-quantile, interpolated between samples; NaN when every
    operation of the phase failed."""
    if len(values) < 2:
        return values[0] if values else float("nan")
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# ---------------------------------------------------------------------------
# Traced run (--trace 1)
# ---------------------------------------------------------------------------

def traced_run(inputs, workdir, label, pkg, tally, details):
    """One pass of each phase, untraced and then replayed through the public
    calls under spans.  The replay must reproduce the untraced answers."""
    import spans

    automata, extractor, reducer = pkg
    tracer = spans.Tracer()
    untraced = 0.0

    t0 = time.perf_counter()
    report = reducer.compute_inclusions(inputs.rules, jobs=1)
    untraced += time.perf_counter() - t0
    t0 = time.perf_counter()
    verdicts = [automata.check_inclusion(q["superset"], q["candidate"]).included
                for q in inputs.queries]
    untraced += time.perf_counter() - t0
    reduced = reducer.reduce(report, inputs.rules)
    rule_sets = (inputs.rules, reduced)
    t0 = time.perf_counter()
    plain = [extractor.run_corpus(inputs.corpus, rules)[1] for rules in rule_sets]
    untraced += time.perf_counter() - t0

    t0 = time.perf_counter()
    includes = spans.replay_reduce(tracer, inputs.rules)
    replayed = spans.replay_check(tracer, inputs.queries)
    traced = [spans.replay_extract(tracer, inputs.corpus, rules) for rules in rule_sets]
    overhead = time.perf_counter() - t0 - tracer.reference_s - untraced

    same = includes == report.includes
    tally.op(None if same else "replayed includes differ from compute_inclusions")
    details["replay_includes_equal"] = same
    for q, v, r in zip(inputs.queries, verdicts, replayed):
        tally.op(None if v == r == q["included"] else
                 f"{q['kind']}: replay {r}, untraced {v}, expected {q['included']}")
    for a_list, b_list in zip(plain, traced):
        same = [outcome(a) for a in a_list] == [outcome(b) for b in b_list]
        tally.op(None if same else "replayed extraction differs from run_corpus")
    # Every negative verdict of the replays carries a witness the host
    # engine must confirm; its length is compared with the breadth-first
    # reference's.
    excess = 0
    for w, query, reference_len in tracer.witnesses:
        ok = gen.matches(query, "candidate", w) and not gen.matches(query, "superset", w)
        tally.op(None if ok else
                 f"witness {w!r} does not separate {query['candidate']!r} from {query['superset']!r}")
        excess += len(w) - reference_len

    trace_dir = workdir.parent / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(trace_dir / f"{label}.jsonl")

    selftime = tracer.self_times()
    counts = tracer.counts
    metrics = {name: (selftime.get(name, 0.0), "s") for name in TIMED_LAYERS}
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNTED_LAYERS})
    pairs = counts.get("reducer.pairs", 0)
    metrics["reducer.gate_pass_ratio"] = (
        counts.get("reducer.pairs_decided", 0) / pairs if pairs else 0.0, "ratio")
    sentences = counts.get("extractor.sentences", 0)
    metrics["extractor.searches_per_sentence"] = (
        counts.get("extractor.searches", 0) / sentences if sentences else 0.0, "count")
    metrics["automata.witness_excess_chars"] = (excess, "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    details["negative_verdicts_traced"] = len(tracer.witnesses)
    return metrics


TIMED_LAYERS = (
    "frontend.parse_s", "frontend.postfix_s", "automata.thompson_s", "automata.gate_s",
    "automata.partition_s", "automata.powerset_s", "automata.complete_s",
    "automata.product_s", "extractor.split_s", "extractor.classify_s",
    "extractor.aggregate_s",
)
COUNTED_LAYERS = (
    "frontend.tokens", "automata.nfa_states", "automata.blocks", "automata.dfa_states",
    "automata.product_bound", "reducer.pairs", "reducer.pairs_decided",
    "extractor.sentences",
)


# ---------------------------------------------------------------------------

def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"cannot import rexincl from {HERE.parent / 'src'}: {exc}", file=sys.stderr)
        return 2
    _, extractor, reducer = pkg

    wl = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path.cwd() / ".bench_work" / f"{label}-{os.getpid()}"
    tally = Tally()
    details = {"workload": args.workload, "why": wl.why, "seed": args.seed,
               "trace": args.trace, "machine": machine()}
    metrics = {}
    try:
        def setup():
            return Inputs(wl, args.seed, workdir, reducer, extractor)

        t0 = time.perf_counter()
        inputs = setup()
        setup_times = [time.perf_counter() - t0]
        details["inputs"] = {
            "rules": len(inputs.rules), "queries": len(inputs.queries),
            "repetition_queries": sum(1 for q in inputs.queries if "runs" in q),
            "sentences": len(inputs.labels),
            "idioms": reducer.analyze_patterns(inputs.rules),
        }
        if args.trace:
            metrics = traced_run(inputs, workdir, label, pkg, tally, details)
        else:
            metrics = timed_run(wl, inputs, setup, setup_times, args.seconds, args.seed,
                                pkg, tally, details)
    except Exception as exc:  # the package failed outside a counted operation
        tally.op(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details["failures"] = tally.notes
    print(json.dumps(details, ensure_ascii=False, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
