"""Exception hierarchy shared by all solvers.  The package warns of nothing:
a quadrature path that misses its tolerance gives a ConvergenceError."""


class PulseTunnelError(Exception):
    """Base class for every error raised by this package.

    `diagnostics` is a dict of what the raiser knew.  A batched solver does
    not raise for one item: it returns one slot per item, holding the
    item's value or its error.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DomainError(PulseTunnelError, ValueError):
    """Inputs outside the physically meaningful domain (e.g. E >= V)."""


class SingularityError(PulseTunnelError):
    """Evaluation at (or pinched against) a singular point.

    Carries the offending location in the complex plane when known.
    """

    def __init__(self, message, location=None, diagnostics=None):
        super().__init__(message, diagnostics)
        self.location = location


class RegimeError(PulseTunnelError):
    """The requested operation is outside its validity regime.

    The message names the module/branch that does cover the regime.
    """


class ConvergenceError(PulseTunnelError):
    """Iterative solver failed to converge; carries the last residual."""

    def __init__(self, message, residual=None, diagnostics=None):
        super().__init__(message, diagnostics)
        self.residual = residual


def _one(slots):
    """The value in the one slot of a grid of one, or its error raised."""
    slot, = slots
    if isinstance(slot, PulseTunnelError):
        raise slot
    return slot
