"""Exception types shared across the engine.

Input handling distinguishes three failure kinds so the command line tool can
map them to exit codes: malformed expressions (ParseError), malformed JSON
documents (SchemaError), and well-formed documents describing objects that
break a structural invariant (InvariantError).  Everything else is an internal
contract violation or a resource cap (DegreeCapError on total degree,
SizeCapError on the work of a product) and raises one of the remaining
types.
"""


class EngineError(Exception):
    """Base class for all engine-specific errors."""


class ParseError(EngineError):
    """Raised on malformed expression text; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class SchemaError(EngineError):
    """Raised when a JSON input document does not match the expected schema."""


class InvariantError(EngineError):
    """Raised when a constructed object violates a declared invariant."""


class IndivisibleError(EngineError):
    """Exact polynomial division failed; carries the divisor and the nonzero
    remainder.

    Most failed divisions are attempts that ``RatFunc`` simplification
    catches and discards, so the message, which prints the divisor, is
    formatted only when it is asked for.
    """

    def __init__(self, divisor, remainder):
        super().__init__(divisor, remainder)
        self.divisor = divisor
        self.remainder = remainder

    def __str__(self) -> str:
        return f"leading term not divisible while dividing by {self.divisor}"


class DegreeCapError(EngineError):
    """A polynomial product exceeded the fixed total-degree cap poly.DEGREE_CAP."""


class SizeCapError(EngineError):
    """A polynomial product would visit more term pairs than the fixed cap
    poly.MAX_TERM_PAIRS."""


class NonConstantRatioError(EngineError):
    """A pullback ratio expected to be constant turned out not to be."""


class NotRootOfUnityError(EngineError):
    """A constant expected to be a root of unity is not one."""


class PreconditionError(EngineError):
    """An operation was invoked on inputs that fail its stated precondition."""
