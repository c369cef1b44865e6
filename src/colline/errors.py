"""Exception hierarchy shared across the package."""

from __future__ import annotations


class CollineError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CollineError):
    """Two values with incompatible dimensions were combined."""


class DegenerateGeometry(CollineError):
    """A geometric object could not be built (zero direction, equal points, rank too low)."""


class PreconditionError(CollineError):
    """An operation was called outside its stated domain."""


class MapParseError(CollineError):
    """Syntax or semantic error in a map-definition source text.

    Positions are 1-based.  ``expected`` lists the token descriptions that
    would have been accepted at the error position.
    """

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        loc = f"{line}:{col}"
        if expected:
            message = f"{message} (expected {', '.join(expected)})"
        super().__init__(f"{loc}: {message}")


class MapEvalError(CollineError):
    """Evaluation of a map failed (division by zero names the output and input)."""

    def __init__(self, message: str, output_index: int | None = None, at=None):
        self.output_index = output_index
        self.at = at
        super().__init__(message)


class ConstructionError(CollineError):
    """A map handle was constructed with invalid data."""


class ViolationError(CollineError):
    """Exact certificate construction found the map violating a required fact.

    Carries the witness data needed to reproduce the failing fact.
    """

    def __init__(self, message: str, witness=None):
        self.witness = witness
        super().__init__(message)


class ProbeEvaluationError(CollineError):
    """A checker probe triggered an evaluation error; the probe is attached."""

    def __init__(self, check: str, inputs, cause: Exception):
        self.check = check
        self.inputs = inputs
        self.cause = cause
        super().__init__(f"{check}: evaluation failed on probe {inputs!r}: {cause}")
