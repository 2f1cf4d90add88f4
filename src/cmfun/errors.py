"""Exception types shared across the package."""


class CmfunError(Exception):
    """Base of every cmfun error; each keeps its own builtin base too."""


class DomainError(CmfunError, ValueError):
    """Argument outside the domain of a function (x <= 0, Re z <= 0, ...)."""


class ConvergenceError(CmfunError, RuntimeError):
    """A quadrature or series evaluation did not reach the requested accuracy."""


class CapTooSmallError(ConvergenceError):
    """A truncation cap is too small for the requested tolerance."""


class InversionDisagreementError(ConvergenceError):
    """The two Laplace-inversion methods disagree beyond tolerance."""


class HypothesisViolationError(CmfunError, ValueError):
    """Numerically checked hypotheses of a construction do not hold."""
