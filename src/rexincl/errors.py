"""Exception types shared across the package."""


class RexinclError(Exception):
    """Base class for all errors raised by this package."""


class PatternSyntaxError(RexinclError):
    """The pattern is not syntactically valid in the supported dialect."""


class UnsupportedFeature(RexinclError):
    """The pattern uses a feature that cannot be approximated: a backreference,
    an atomic group or a possessive repeat."""


class MalformedExpression(RexinclError):
    """A postfix program underflows or leaves more than one value on the stack."""


class AlphabetMismatch(RexinclError):
    """An automaton uses symbols outside the alphabet it is being compared over."""


class IncompleteAutomaton(RexinclError):
    """Complement requires a complete DFA."""


class FormatError(RexinclError):
    """A rule file line could not be parsed."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DuplicateId(RexinclError):
    """Two rules in the same file share an id."""


class BoundExceeded(RexinclError):
    """Oracle enumeration guards (alphabet size, max length) were violated."""


class OutcomeMismatch(RexinclError):
    """Full and reduced rule sets classified a sentence differently."""
