"""Exception types shared across the package."""

__all__ = ["InvariantViolation", "NotAChannelError", "NotAStateError"]


class NotAStateError(ValueError):
    """The lattice measure exceeds 1, so no density operator exists for it."""


class NotAChannelError(ValueError):
    """The transform/noise pair fails the exact channel-validity inequality."""


class InvariantViolation(RuntimeError):
    """An internal exact identity failed.

    Raised when two routes that must agree by construction disagree.
    Signals a logic bug rather than bad input.
    """
