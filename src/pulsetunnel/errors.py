"""Exception hierarchy shared by all solvers."""

# quadrature warnings are scipy's class, so filters written for scipy.integrate
# keep matching the contour engine
from scipy.integrate import IntegrationWarning  # noqa: F401


class PulseTunnelError(Exception):
    """Base class for every error raised by this package."""


class DomainError(PulseTunnelError, ValueError):
    """Inputs outside the physically meaningful domain (e.g. E >= V)."""


class SingularityError(PulseTunnelError):
    """Evaluation at (or pinched against) a singular point.

    Carries the offending location in the complex plane when known.
    """

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class RegimeError(PulseTunnelError):
    """The requested operation is outside its validity regime.

    The message names the module/branch that does cover the regime.
    """


class ConvergenceError(PulseTunnelError):
    """Iterative solver failed to converge; carries the last residual."""

    def __init__(self, message, residual=None, diagnostics=None):
        super().__init__(message)
        self.residual = residual
        self.diagnostics = diagnostics or {}
