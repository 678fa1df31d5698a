"""Exception types shared across the package.

Everything raised on purpose derives from FatouError so callers can catch
one base class at API boundaries.  Numerical failures (Newton divergence,
escaped orbits) carry enough context to diagnose which input was bad.
"""

from __future__ import annotations


class FatouError(Exception):
    """Base class for all errors raised by this package."""


class ChartMismatch(FatouError):
    """Operands live in different charts (origin vs infinity)."""


class NonvanishingConstant(FatouError):
    """A series that must fix the origin has a nonzero constant term."""


class NotTangentToIdentity(FatouError):
    """Linear part differs from the identity."""


class NotNormalized(FatouError):
    """Quadratic part is not in the expected normalized form."""


class NewtonDiverged(FatouError):
    """Newton iteration for a local inverse failed to converge.

    reason is the guard of `germs.newton` that stopped it, if any.
    """

    def __init__(self, msg: str, last_value: complex | None = None,
                 reason: str | None = None):
        super().__init__(msg)
        self.last_value = last_value
        self.reason = reason


class DegenerateQuadratic(FatouError):
    """Quadratic coefficient vanishes, so no quadratic normalization exists."""


class OrderTooLargeForJet(FatouError):
    """Requested flattening order exceeds what the stored jet supports."""


class WrongForm(FatouError):
    """Input map is not in the form that the routine requires."""


class NoValidRadius(FatouError):
    """No candidate radius satisfies the one-step invariance margin."""


class TooFewSamples(FatouError):
    """Not enough data points for a statistically meaningful fit."""


class ParseError(FatouError):
    """Map description text could not be parsed."""

    def __init__(self, msg: str, position: int | None = None):
        super().__init__(msg)
        self.position = position


class ChainDomainError(FatouError):
    """A point left the domain of validity of a conjugacy chain step."""


class NonFiniteValue(FatouError):
    """A computation produced inf or nan where a finite value was required."""
