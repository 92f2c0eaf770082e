"""rexincl: regular-expression inclusion checking, rule-set reduction, and
rule-driven statistics extraction."""

from .automata import (
    CompiledPattern,
    Dfa,
    InclusionVerdict,
    Nfa,
    alphabet_subset,
    check_inclusion,
    compile_pattern,
    complement,
    complete,
    decide_inclusion,
    inclusion,
    inclusion_unoptimized,
    partition_classes,
    powerset,
    thompson,
)
from .extractor import (
    CorpusReport,
    Document,
    ExtractionResult,
    Sentence,
    bench,
    classify,
    run_corpus,
    sample,
    split_sentences,
)
from .frontend import (
    NormalizedExpr,
    PostfixProgram,
    RawPattern,
    Token,
    TokenKind,
    parse,
    parse_formal,
    parse_postfix,
    shunting_yard_trace,
    to_postfix,
)
from .oracle import enumerate_language, verify_inclusion
from .reducer import (
    InclusionReport,
    Rule,
    analyze_patterns,
    compute_inclusions,
    load_rules,
    reduce,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
