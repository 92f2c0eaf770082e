"""Command-line entry point: check, explain, reduce, extract, bench,
oracle-verify.

Exit codes are a stable contract: 0 success/included, 1 clean negative
verdict, 2 usage or parse error, 3 internal invariant violation.  Data goes
to stdout (or --out files); logs go to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys

from . import automata, extractor, frontend, oracle, reducer
from .errors import BoundExceeded, RexinclError

log = logging.getLogger("rexincl")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _positive_int(text):
    """An argparse type: a whole number of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rexincl",
        description="Regular-expression inclusion, rule-set reduction, and "
                    "statistics extraction.",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether L(candidate) ⊆ L(superset)")
    p.add_argument("candidate", help="candidate (smaller) pattern")
    p.add_argument("superset", help="superset (larger) pattern")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("explain", help="show normalization, shunting-yard trace, and automata")
    p.add_argument("pattern")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("reduce", help="minimize a rule set via pairwise inclusion")
    p.add_argument("--rules", required=True)
    p.add_argument("--out", required=True, help="inclusion report (JSON)")
    p.add_argument("--survivors", help="write the reduced rule set (JSONL)")
    p.add_argument("--polarity", choices=["pos", "neg", "both"], default="both")
    p.add_argument("--strict", action="store_true",
                   help="leave approximate rules out of the comparison")

    p = sub.add_parser("extract", help="run the extraction pipeline over a corpus")
    p.add_argument("--rules", required=True)
    p.add_argument("--corpus", required=True, help="text directory or JSONL file")
    p.add_argument("--out", required=True, help="corpus report (JSON)")
    p.add_argument("--results", help="per-sentence results stream (JSONL)")
    p.add_argument("--sample", type=_positive_int)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("bench", help="time full vs reduced rule sets on a corpus")
    p.add_argument("--rules", required=True)
    p.add_argument("--reduced", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--repeats", type=_positive_int, default=5)
    p.add_argument("--out")

    p = sub.add_parser("oracle-verify", help="bounded-length inclusion check, judged by re on every string")
    p.add_argument("--left", required=True, help="candidate (smaller) pattern")
    p.add_argument("--right", required=True, help="superset (larger) pattern")
    p.add_argument("--max-len", type=int, default=6)

    return parser


def cmd_check(args) -> int:
    cand = automata.compile_pattern(args.candidate)
    sup = automata.compile_pattern(args.superset)
    sup_dfa, cand_dfa = automata.lazy_dfas([sup, cand])
    sigma_ok = not cand_dfa.chars & ~sup_dfa.chars  # the reducer's Σ gate
    verdict = automata.walk_inclusion(sup_dfa, cand_dfa)
    approximate = sup.approximate or cand.approximate
    # The display's tokens, which the decision does not build.
    cand_expr, sup_expr = frontend.parse(args.candidate), frontend.parse(args.superset)
    cand_postfix, sup_postfix = frontend.to_postfix(cand_expr), frontend.to_postfix(sup_expr)
    if args.json:
        print(json.dumps({
            "candidate": args.candidate,
            "superset": args.superset,
            "candidate_normalized": str(cand_expr),
            "superset_normalized": str(sup_expr),
            "candidate_postfix": str(cand_postfix),
            "superset_postfix": str(sup_postfix),
            "sigma_subset": sigma_ok,
            "included": verdict.included,
            "witness": verdict.witness,
            "flagged_approximate": approximate,
        }, sort_keys=True))
    else:
        print(f"candidate normalized: {cand_expr}")
        print(f"superset  normalized: {sup_expr}")
        print(f"candidate postfix: {cand_postfix}")
        print(f"superset  postfix: {sup_postfix}")
        print(f"Σ-gate: {'pass' if sigma_ok else 'fail'}")
        print(f"included: {verdict.included}")
        if verdict.witness is not None:
            print(f"witness: {verdict.witness!r}")
        if approximate:
            print("note: a side was normalized approximately; review manually")
    return EXIT_OK if verdict.included else EXIT_NEGATIVE


def cmd_explain(args) -> int:
    expr = frontend.parse(args.pattern)
    postfix, trace = frontend.shunting_yard_trace(expr)
    nfa = automata.thompson(postfix)
    dfa = automata.powerset(nfa)
    if args.json:
        print(json.dumps({
            "pattern": args.pattern,
            "normalized": str(expr),
            "approximate": expr.approximate,
            "stripped_features": list(expr.stripped_features),
            "postfix": str(postfix),
            "trace": None if trace is None else [vars(row) for row in trace],
            "nfa_states": nfa.n_states,
            "dfa_states": dfa.n_states,
        }, sort_keys=True))
        return EXIT_OK
    print(f"normalized: {expr}")
    if expr.approximate:
        print(f"approximate; stripped: {', '.join(expr.stripped_features)}")
    print("tokens:")
    for tok in expr.tokens:
        print(f"  {tok.kind.name} {frontend.token_str(tok)}")
    print()
    if trace is None:
        print(f"trace omitted: the postfix program has {len(postfix.tokens)} tokens, "
              f"more than {frontend.TRACE_MAX_TOKENS}")
    else:
        widths = (22, 10, 10, 12)
        print(f"{'Input':<{widths[0]}} {'Regarded':<{widths[1]}} "
              f"{'Op stack':<{widths[2]}} {'Output':<{widths[3]}} Reason")
        for row in trace:
            print(f"{row.remaining:<{widths[0]}} {row.regarded:<{widths[1]}} "
                  f"{row.op_stack:<{widths[2]}} {row.output_stack:<{widths[3]}} {row.reason}")
    print()
    print(f"postfix: {postfix}")
    print()
    print(automata.nfa_to_dot(nfa))
    print()
    print(automata.dfa_to_dot(dfa))
    return EXIT_OK


def cmd_reduce(args) -> int:
    rules = reducer.load_rules(args.rules)
    if args.polarity != "both":
        wanted = "positive" if args.polarity == "pos" else "negative"
        rules = [r for r in rules if r.polarity == wanted]
    report = reducer.compute_inclusions(rules, strict=args.strict)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if args.survivors:
        reducer.save_rules(reducer.reduce(report, rules), args.survivors)
    log.info("rules: %d, removed: %d, survivors: %d, needs review: %d",
             len(rules), len(report.removed), len(report.survivors),
             len(report.needs_review))
    print(json.dumps({
        "rules": len(rules),
        "removed": len(report.removed),
        "survivors": len(report.survivors),
        "needs_review": len(report.needs_review),
    }, sort_keys=True))
    return EXIT_OK


def cmd_extract(args) -> int:
    """Stream the corpus: one document and one result at a time, each
    result written to --results as it is made and tallied, none kept.
    --sample classifies the corpus a second time, keeping only the picks."""
    rules = extractor.CompiledRuleSet(reducer.load_rules(args.rules))

    def classified():
        return extractor.classify_corpus(extractor.read_corpus(args.corpus), rules,
                                         budget=extractor.MAX_SECONDS)

    if args.results:
        with open(args.results, "w", encoding="utf-8") as fh:
            report = extractor.aggregate(extractor.written(classified(), fh))
    else:
        report = extractor.aggregate(classified())
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report.to_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.sample:
        picks = extractor.sample_positions(report, args.sample, args.seed)
        for res in extractor.take(classified(), picks):
            print(json.dumps(res.to_obj(), sort_keys=True))
    else:
        print(json.dumps(report.to_obj(), sort_keys=True))
    return EXIT_OK


def cmd_bench(args) -> int:
    full = reducer.load_rules(args.rules)
    reduced = reducer.load_rules(args.reduced)
    corpus = extractor.load_corpus(args.corpus)
    report = extractor.bench(corpus, full, reduced, repeats=args.repeats)
    text = json.dumps(report.to_obj(), sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return EXIT_OK


def _oracle_expired(signum, frame):
    raise BoundExceeded(f"oracle-verify ran past its budget of {oracle.MAX_SECONDS} s; "
                        "lower --max-len")


def cmd_oracle_verify(args) -> int:
    """The host's bounded-length verdict.  The host backtracks, so the
    enumeration runs under a real-time timer of `oracle.MAX_SECONDS`, whose
    expiry raises BoundExceeded.  Signals reach only the main thread, so a
    call from another thread runs unbounded."""
    alphabet = oracle.probe_alphabet(args.left, args.right)
    with extractor.time_budget(oracle.MAX_SECONDS, _oracle_expired) as timed:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, oracle.MAX_SECONDS)
        ok = oracle.verify_inclusion(args.left, args.right, alphabet, args.max_len)
    print(json.dumps({
        "left": args.left,
        "right": args.right,
        "alphabet": alphabet,
        "max_len": args.max_len,
        "included_up_to_bound": ok,
    }, sort_keys=True))
    return EXIT_OK if ok else EXIT_NEGATIVE


_COMMANDS = {
    "check": cmd_check,
    "explain": cmd_explain,
    "reduce": cmd_reduce,
    "extract": cmd_extract,
    "bench": cmd_bench,
    "oracle-verify": cmd_oracle_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except (RexinclError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
