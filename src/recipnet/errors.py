"""Exception hierarchy shared across the package."""


class DomainError(ValueError):
    """An operation was called outside its domain (bad vertex, bad argument)."""


class MissingArcError(DomainError):
    """A required directed arc is not present in the graph."""


class DuplicateArcError(DomainError):
    """An ordered vertex pair has two arcs; ``row`` is the first repeat in input order."""

    def __init__(self, message: str, row: int) -> None:
        super().__init__(message)
        self.row = row


class UndefinedCorrelationError(DomainError):
    """Degree correlation is undefined: too few pairs, or zero variance in their degrees; ``pair_count`` pairs were counted.

    Raised as its own type so callers can tell a degenerate-but-valid input
    apart from an outright invalid one.
    """

    def __init__(self, message: str, pair_count: int) -> None:
        super().__init__(message)
        self.pair_count = pair_count


class IntegrityError(RuntimeError):
    """Two structures that must agree (e.g. degree sequences) do not."""


class FormatError(ValueError):
    """An input file does not follow the documented format."""


class DegenerateInputError(ValueError):
    """Input is degenerate for the requested analysis (escalated warning)."""
