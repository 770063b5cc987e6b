"""Exception types shared across the volfit pipeline."""


class VolfitError(Exception):
    """Base class for every error raised by volfit."""


class FormatError(VolfitError):
    """Input document is structurally unusable (empty, header-only, bad columns)."""


class OrderError(VolfitError):
    """Date column is not strictly increasing."""


class ParseError(VolfitError):
    """A cell could not be parsed.

    ``row`` is the 1-based count of non-blank CSV rows, the header being
    row 1.  Blank lines are not counted, so it is not the file line.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(VolfitError):
    """Configuration document violates a constraint."""


class InsufficientData(VolfitError):
    """Not enough usable observations for the requested operation."""


class WindowError(VolfitError):
    """Invalid moving-average window length or iteration count."""


class RankError(VolfitError):
    """Design matrix is rank deficient; names the dependent columns."""

    def __init__(self, message: str, columns: tuple[str, ...] = ()):
        super().__init__(message)
        self.columns = tuple(columns)


class DegreesOfFreedomError(VolfitError):
    """Operation requires more rows than model terms."""


class SplitError(VolfitError):
    """Train/test split point lies outside the usable range."""


class ExclusionError(VolfitError):
    """Outlier exclusion would leave no more rows than model terms."""
