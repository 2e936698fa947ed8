"""Exception types shared across the package."""


class DngeoError(Exception):
    """Base class for all package errors."""


class ChartMismatchError(DngeoError):
    """Two operands live on different charts."""


class ZeroDenominatorError(DngeoError):
    """A rational function was built with a zero denominator."""


class PointEvaluationError(DngeoError):
    """A denominator vanishes at the requested sample point."""


class ExprSyntaxError(DngeoError):
    """Expression text failed to parse.

    Carries a 0-based offset plus 1-based line/column for diagnostics.
    """

    def __init__(self, message, text, pos):
        self.pos = pos
        self.bare_message = message
        self.line = text.count("\n", 0, pos) + 1
        last_nl = text.rfind("\n", 0, pos)
        self.col = pos - last_nl
        super().__init__(f"{message} (line {self.line}, col {self.col})")


class UnknownVariableError(ExprSyntaxError):
    pass


class PreconditionError(DngeoError):
    """A check was invoked before its stated precondition held."""


class HierarchyKernelError(DngeoError):
    """The kernel condition for a hierarchy side fails."""

    def __init__(self, side):
        self.side = side
        super().__init__(f"hierarchy kernel condition fails for side {side}")


class AdmissibilityError(DngeoError):
    """Raised with message 'trace not admissible' when the first trace is not admissible."""
