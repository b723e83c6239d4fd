"""Exception types shared across the package.

Everything data-shaped derives from ValueError so generic callers can catch
one base; numeric failures derive from RuntimeError and map to a distinct
CLI exit code.
"""


class BeamgridError(Exception):
    """Base class for package-specific failures."""


class GridParseError(BeamgridError, ValueError):
    """Malformed grid, path or JSON record file; message names the offset or key."""


class NoValidSiteError(BeamgridError, ValueError):
    """No rooftop-edge pixel available for transmitter placement."""


class EmptyTrainingSetError(BeamgridError, ValueError):
    """Training requested with zero valid pixels."""


class InsufficientDataError(BeamgridError, ValueError):
    """Fewer scenes than required to populate train/val/test splits."""


class NumericError(BeamgridError, RuntimeError):
    """Base for numeric failures (CLI exit code 4)."""


class UndefinedResultError(NumericError):
    """Requested statistic has an empty or all-zero denominator."""
