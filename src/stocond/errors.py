"""Exception types shared across the toolkit."""


class StocondError(Exception):
    """Base class for all toolkit errors."""


class NonFiniteValue(StocondError):
    """A user-supplied map returned NaN or infinity at a sampled point."""


class BlowUp(StocondError):
    """A simulated state exceeded the configured norm cap."""


class EmptySet(StocondError):
    """A set descriptor describes an empty set."""


class PointNotInSet(StocondError):
    """A cone operation was requested at a point outside the set."""


class UnboundedSupport(StocondError):
    """The support function of a polyhedron is unbounded in the given direction."""


class SolverFailure(StocondError):
    """An LP solve stopped without a verdict (iteration limit, numerical
    difficulties), so it proves neither emptiness nor unboundedness."""


class WitnessInvalid(StocondError):
    """An interiority witness fails strict feasibility."""


class SingularRegression(StocondError):
    """Regression normal equations are rank deficient beyond the ridge tolerance."""


class AdjointMismatch(StocondError):
    """An adjoint solution does not match the multiplier-induced terminal datum."""


class NotCritical(StocondError):
    """A direction violates the critical-cone precondition."""


class Infeasible(StocondError):
    """No multiplier in the searched family comes close to stationarity, or an
    oracle's own solve (a bracket, a transcription QP) finds no solution."""


class RiccatiBlowup(StocondError):
    """The Riccati backward integration left the configured norm cap."""


class TranscriptionMismatch(StocondError):
    """A simulated candidate does not reproduce its transcription oracle's states."""


class ConfigError(StocondError):
    """A scenario configuration is missing keys or references unknown names."""
