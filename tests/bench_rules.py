"""The benchmark's seeded generator, bench/gen.py, loaded by path, and its
rule sets read back the way the benchmark reads them."""

import importlib.util
import random
import tempfile
from pathlib import Path

from rexincl.reducer import load_rules


def load_bench_gen():
    """The benchmark's seeded rule and query generator, bench/gen.py."""
    spec = importlib.util.spec_from_file_location(
        "bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_rule_set(seed, per_polarity):
    """`gen.rule_set` for the seed, written through `to_obj` to JSON Lines
    and loaded back with `load_rules`."""
    gen = load_bench_gen()
    specs = gen.rule_set(random.Random(f"{seed}-rules"), per_polarity)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rules.jsonl"
        gen.write_jsonl(path, (s.to_obj() for s in specs))
        return load_rules(path)
