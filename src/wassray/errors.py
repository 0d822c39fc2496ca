"""Exception types shared across the toolkit."""


class DimensionMismatchError(ValueError):
    """Operands live in ambient spaces of different dimension."""


class EmptyMeasureError(ValueError):
    """A discrete measure with no atoms (or only zero-mass atoms) was supplied."""


class InvalidExponentError(ValueError):
    """The transport order p is outside the supported range (1, 16]."""


class NonOptimalCouplingError(ValueError):
    """A coupling that must be optimal fails the optimality re-check."""


class MarginalMismatchError(ValueError):
    """Two measures that must agree as measures do not."""


class UnitSpeedError(ValueError):
    """An operation defined only for unit-speed rays got a ray of other speed."""


class CostOverflowError(ValueError):
    """A transport cost overflowed double precision (d**p or a plan's cost)."""


class MonotonicityError(RuntimeError):
    """A provably monotone quantity came out non-monotone: solver defect."""


class NotARayError(MonotonicityError, ValueError):
    """A certified exact result breaks a bound every ray obeys: the input is no ray.

    A ``MonotonicityError`` for callers that catch those, and a
    ``ValueError`` because the cause is the input, not the solver.
    """


class MeasureFileError(ValueError):
    """A measure or ray file failed to parse."""


class TransportSolveError(RuntimeError):
    """The transportation simplex hit its rounding safety net without a certified plan."""
