"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """A graph or tree file could not be parsed.

    ``line`` carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class NotChordalError(ValueError):
    """An operation that requires a chordal graph received a non-chordal one.

    ``position`` is the 1-based position in the MCS ordering at which the
    perfect-elimination check failed; it acts as a small non-chordality
    certificate (the vertex at that position has two later neighbors that are
    not adjacent).
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class BudgetExceededError(RuntimeError):
    """An oracle computation was refused or cut short by its budget."""
