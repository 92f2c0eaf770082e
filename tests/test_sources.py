import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_compile_without_warnings():
    """Every module compiles with warnings as errors, so an invalid escape
    such as `\\d` in a non-raw string is caught before a Python release makes
    it a syntax error."""
    problems = []
    for path in sorted(p for top in ("src", "tests") for p in (ROOT / top).rglob("*.py")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                compile(path.read_text(encoding="utf-8"), str(path), "exec")
            except SyntaxError as exc:  # a warning raised as an error arrives as one
                problems.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not problems, "\n".join(problems)
