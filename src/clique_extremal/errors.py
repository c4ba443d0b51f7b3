"""Exception types shared across the package."""

__all__ = ["CliqueExtremalError", "GuardExceeded", "PreconditionViolation", "FormatError"]


class CliqueExtremalError(Exception):
    """Base class for library errors."""


class GuardExceeded(CliqueExtremalError):
    """The CLI refused an input beyond the size guard of an exhaustive search."""


class PreconditionViolation(CliqueExtremalError):
    """A constructive routine was called on inputs outside its guarantee."""


class FormatError(CliqueExtremalError):
    """Malformed graph or certificate input."""
