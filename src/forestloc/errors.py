"""Exception types shared across the toolkit."""


class ForestLocError(Exception):
    """Base class for all forestloc errors."""


class EmptyCloudError(ForestLocError, ValueError):
    """Raised when an operation requires a non-empty point cloud."""


class DegeneratePointSetError(ForestLocError, ValueError):
    """Raised when a landmark set cannot be triangulated (< 3 points or collinear)."""


class InsufficientMatchesError(ForestLocError, RuntimeError):
    """Raised when fewer star matches were accepted than the caller requires."""

    def __init__(self, message: str, match_count: int = 0):
        super().__init__(message)
        self.match_count = match_count


class NoOverlapError(ForestLocError, RuntimeError):
    """Raised when no local star has any feature-compatible candidate in the map."""


class InfeasibleForestError(ForestLocError, ValueError):
    """Raised when the requested stand density cannot be packed at the given spacing."""
