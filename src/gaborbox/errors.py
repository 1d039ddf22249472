"""Shared error taxonomy.

Every deliberate failure in the package raises a subclass of GaborBoxError,
so callers (and the CLI) can distinguish engine-reported conditions from
genuine bugs.
"""


class GaborBoxError(Exception):
    """Base class for every error this package raises on purpose."""


class ContextMismatch(GaborBoxError):
    """Operands (or tokens) belong to different number contexts."""


class NonPositiveModulus(GaborBoxError):
    """floor/mod operation asked for a modulus that is not > 0."""


class PrecisionExhausted(GaborBoxError):
    """An enclosure was refined past its configured bit cap without deciding."""


class NonPositiveInput(GaborBoxError):
    """A triple component (or other required-positive input) is <= 0."""


class PeriodMismatch(GaborBoxError):
    """Set-algebra operands carry different periods."""


class RegionUnsupported(GaborBoxError):
    """The requested operation is not defined on this region of parameters."""


class IterationCapExceeded(GaborBoxError):
    """An iteration exceeded its proven bound; indicates an implementation bug."""


class EmptySet(GaborBoxError):
    """An operation that needs a nonempty invariant set received an empty one."""


class OracleInconsistency(GaborBoxError):
    """Two internal verification routes disagreed; indicates an implementation bug."""


class BadTruncation(GaborBoxError):
    """The numeric diagnostic was asked for a truncation window it cannot honor."""


class ExtraNotInstalled(GaborBoxError):
    """A call needs a package of an optional extra that is not installed."""


class UnsupportedRange(GaborBoxError):
    """A sweep range is empty, inverted, or otherwise outside what is supported."""


class OutputUnwritable(GaborBoxError):
    """An output file cannot be opened or written."""


class UsageError(GaborBoxError):
    """The command line does not match the CLI's grammar of subcommands and flags."""


class NumberSyntaxError(GaborBoxError):
    """An expression failed to parse; carries the 1-based offending column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column
