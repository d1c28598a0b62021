"""Barrier and pulse definitions with analytic continuation to complex time.

Units: hbar = 1 throughout; mass, energies, times and fields are dimensionless
real scalars in a mutually consistent system.  Every other module consumes the
types defined here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularityError

__all__ = [
    "TriangularBarrier",
    "SechBarrier",
    "ZeroPulse",
    "LorentzPulse",
    "GaussianPulse",
    "static_wkb_exponent",
]


def _require_finite(obj, *names):
    """DomainError for NaN or infinite fields: NaN passes every < and <=."""
    bad = [f"{n}={getattr(obj, n)}" for n in names
           if not math.isfinite(getattr(obj, n))]
    if bad:
        raise DomainError(f"{type(obj).__name__} needs finite {', '.join(bad)}")


# --- Barriers -------------------------------------------------------------------

@dataclass(frozen=True)
class TriangularBarrier:
    """Triangular barrier V - field_static*|x| with a narrow-well bound state.

    Parameters
    ----------
    V : apex energy of the barrier.
    E_bound : energy of the metastable (delta-well) state, 0 < E_bound < V.
    field_static : static slope field of the barrier; >= 0 (0 = stable well,
        only meaningful for the quanta separation picture).
    m : particle mass, > 0.
    """

    V: float
    E_bound: float
    field_static: float
    m: float = 1.0

    def __post_init__(self):
        _require_finite(self, "V", "E_bound", "field_static", "m")
        if self.m <= 0:
            raise DomainError(f"mass must be positive, got {self.m}")
        if not (0 < self.E_bound < self.V):
            raise DomainError(
                f"need 0 < E_bound < V, got E_bound={self.E_bound}, V={self.V}"
            )
        if self.field_static < 0:
            raise DomainError("field_static must be >= 0")

    def p0(self, E: float | None = None) -> float:
        """Under-barrier momentum scale sqrt(2m(V-E))."""
        E = self.E_bound if E is None else E
        if E >= self.V:
            raise DomainError(f"E={E} is not below the barrier top V={self.V}")
        return math.sqrt(2.0 * self.m * (self.V - E))

    def tau00_at(self, E: float) -> float:
        """Static under-barrier traversal time sqrt(2m(V-E))/field_static."""
        if self.field_static == 0:
            raise DomainError("tau00 undefined for a stable well (field_static=0)")
        return self.p0(E) / self.field_static

    @property
    def tau00(self) -> float:
        return self.tau00_at(self.E_bound)

    @property
    def exit_point(self) -> float:
        """Static classical exit coordinate (V-E)/field_static."""
        if self.field_static == 0:
            raise DomainError("no exit point for a stable well")
        return (self.V - self.E_bound) / self.field_static


@dataclass(frozen=True)
class SechBarrier:
    """Analytic barrier V / cosh^2(x/a)."""

    V: float
    a: float
    m: float = 1.0

    def __post_init__(self):
        _require_finite(self, "V", "a", "m")
        if self.V <= 0 or self.a <= 0 or self.m <= 0:
            raise DomainError("SechBarrier requires V > 0, a > 0, m > 0")

    def omega(self, E: float) -> float:
        """Oscillation frequency sqrt(2E/(m a^2)) of the trajectory at energy E."""
        self._check_energy(E)
        return math.sqrt(2.0 * E / (self.m * self.a**2))

    def tau_s(self, E: float) -> float:
        """Imaginary part pi/(2*omega) of the trajectory branch point."""
        return math.pi / (2.0 * self.omega(E))

    def _check_energy(self, E: float):
        if not (0 < E < self.V):
            raise DomainError(f"need 0 < E < V={self.V}, got E={E}")


# --- Pulses ---------------------------------------------------------------------
#
# Every pulse evaluates at complex time, is even in t, and gives its first two
# derivatives and its antiderivatives in closed form.  A LorentzPulse's poles
# sit at +/- i*width; the other pulses are entire.

_POLE_GUARD = 1e-12


@dataclass(frozen=True)
class ZeroPulse:
    """No non-stationary field."""

    amplitude: float = 0.0

    def __call__(self, t):
        return np.zeros_like(np.asarray(t, dtype=complex))

    def derivatives(self, t):
        """(pulse, pulse', pulse'') at t: all zero."""
        zero = self(t)
        return zero, zero, zero

    def antiderivative(self, t) -> complex:
        return 0.0 + 0.0j

    def first_moment_antiderivative(self, t) -> complex:
        return 0.0 + 0.0j


def _lorentz_J(x, n: int):
    """J_n(x) = int_0^x (1-u^2)^(-n) du by the standard reduction formula."""
    J, q = np.arctanh(x), 1.0 - x * x
    for k in range(2, n + 1):
        J = x * q ** (1 - k) / (2 * (k - 1)) + (2 * k - 3) / (2 * (k - 1)) * J
    return J


@dataclass(frozen=True)
class LorentzPulse:
    """Soft pulse amplitude / (1 + t^2/width^2)^exponent.

    Poles of order `exponent` sit at t = +/- i*width.  Integer exponent >= 2
    only; the Hamilton-Jacobi branch analysis additionally assumes >= 3.
    """

    amplitude: float
    width: float
    exponent: int

    def __post_init__(self):
        _require_finite(self, "amplitude", "width")
        if self.amplitude < 0:
            raise DomainError("pulse amplitude must be >= 0")
        if self.width <= 0:
            raise DomainError("pulse width must be positive")
        if not isinstance(self.exponent, (int, np.integer)) or self.exponent < 2:
            raise DomainError(
                f"Lorentzian exponent must be an integer >= 2, got {self.exponent!r}"
            )

    def _denominator(self, t: np.ndarray) -> np.ndarray:
        """1 + t^2/width^2; raises SingularityError at the poles."""
        denom = 1.0 + (t / self.width) ** 2
        if np.any(np.abs(denom) < _POLE_GUARD):
            raise SingularityError(
                f"pulse evaluated at its pole t = +/- {self.width}i",
                location=1j * self.width,
            )
        return denom

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        out = self.amplitude / self._denominator(t) ** self.exponent
        return out if out.ndim else complex(out)

    def derivatives(self, t):
        """(pulse, pulse', pulse'') at t, in closed form."""
        t = np.asarray(t, dtype=complex)
        u = self._denominator(t)
        n, w2 = self.exponent, self.width**2
        f = self.amplitude / u**n
        # f' = -2n t f / (w^2 u),  f'' = -2n f (u - 2(n+1) t^2/w^2) / (w^2 u^2)
        f1 = -2.0 * n * t * f / (w2 * u)
        f2 = -2.0 * n * f * (u - 2.0 * (n + 1) * t * t / w2) / (w2 * u * u)
        return (f, f1, f2) if f.ndim else (complex(f), complex(f1), complex(f2))

    def integral_imag_axis(self, tau):
        """int_0^tau pulse(i*u) du for real tau (float or array), exact;
        diverges as tau -> width."""
        x = tau / self.width
        if np.count_nonzero(abs(x) >= 1.0):
            raise SingularityError(
                "imaginary-axis pulse integral crosses the pole at i*width",
                location=1j * self.width,
            )
        G = self.amplitude * self.width * _lorentz_J(x, self.exponent)
        return G if G.ndim else float(G)

    def antiderivative(self, t):
        """int_0^t pulse(s) ds, exact; single-valued in the t-plane cut along
        the imaginary axis beyond the poles at +/- i*width."""
        t = np.asarray(t, dtype=complex)
        out = (1j * self.amplitude * self.width
               * _lorentz_J(-1j * t / self.width, self.exponent))
        return out if out.ndim else complex(out)

    def first_moment_antiderivative(self, t):
        """int_0^t s*pulse(s) ds, exact elementary form."""
        n = self.exponent
        u = 1.0 + (np.asarray(t, dtype=complex) / self.width) ** 2
        # the callers hold the errstate for an overflowing width^2
        out = (self.amplitude * np.float64(self.width)**2 / (2.0 * (1 - n))
               * (u ** (1 - n) - 1.0))
        return out if out.ndim else complex(out)


@dataclass(frozen=True)
class GaussianPulse:
    """Entire pulse amplitude * exp(-rate^2 t^2)."""

    amplitude: float
    rate: float

    def __post_init__(self):
        _require_finite(self, "amplitude", "rate")
        if self.amplitude < 0:
            raise DomainError("pulse amplitude must be >= 0")
        if self.rate <= 0:
            raise DomainError("Gaussian rate must be positive")

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        # the callers hold the errstate for an overflowing rate^2
        out = self.amplitude * np.exp(-(np.float64(self.rate)**2) * t**2)
        return out if out.ndim else complex(out)

    def derivatives(self, t):
        """(pulse, pulse', pulse'') at t, in closed form."""
        t = np.asarray(t, dtype=complex)
        r2 = self.rate**2
        f = self.amplitude * np.exp(-r2 * t**2)
        f1 = -2.0 * r2 * t * f
        f2 = (4.0 * r2 * r2 * t * t - 2.0 * r2) * f
        return (f, f1, f2) if f.ndim else (complex(f), complex(f1), complex(f2))

    def integral_imag_axis(self, tau):
        """int_0^tau pulse(i*u) du = int_0^tau amp*exp(rate^2 u^2) du."""
        from scipy.special import erfi     # only Gaussian pulses load scipy
        scale = self.amplitude * math.sqrt(math.pi) / (2.0 * self.rate)
        G = scale * erfi(self.rate * tau)
        return G if G.ndim else float(G)

    def antiderivative(self, t):
        # erf(z) = 1 - exp(-z^2) * w(iz), entire in z
        from scipy.special import wofz
        z = self.rate * np.asarray(t, dtype=complex)
        erf = 1.0 - np.exp(-z * z) * wofz(1j * z)
        out = self.amplitude * math.sqrt(math.pi) / (2.0 * self.rate) * erf
        return out if out.ndim else complex(out)

    def first_moment_antiderivative(self, t):
        z2 = (self.rate * np.asarray(t, dtype=complex)) ** 2
        rise = 1.0 - np.exp(-z2)
        # an overflowing amplitude/(2 rate^2) times rise = 0 is a silent
        # nan, as in Python floats
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = self.amplitude / (2.0 * np.float64(self.rate)**2) * rise
        return out if out.ndim else complex(out)


def _int_square(pulse, t) -> complex:
    """int_0^t (pulse/amplitude)^2: a pulse of the same family (exponent
    doubled, or rate times sqrt 2), whose own antiderivative gives it."""
    if isinstance(pulse, LorentzPulse):
        return LorentzPulse(1.0, pulse.width, 2 * pulse.exponent).antiderivative(t)
    if isinstance(pulse, GaussianPulse):
        return GaussianPulse(1.0, math.sqrt(2.0) * pulse.rate).antiderivative(t)
    return 0.0j


# --- Static WKB exponent --------------------------------------------------------

def static_wkb_exponent(barrier, E: float) -> float:
    """Static tunneling exponent A0(E) = 2*sqrt(2m)*int sqrt(V(x) - E) dx.

    Closed forms: (4/3)(V - E)*tau00(E) for the triangular barrier and
    2*pi*a*sqrt(2m)*(sqrt(V) - sqrt(E)) for the sech^2 barrier.
    """
    if isinstance(barrier, TriangularBarrier):
        if E >= barrier.V:
            raise DomainError(f"E={E} >= V={barrier.V}: no under-barrier region")
        return (4.0 / 3.0) * (barrier.V - E) * barrier.tau00_at(E)
    if isinstance(barrier, SechBarrier):
        barrier._check_energy(E)
        return (2.0 * math.pi * barrier.a * math.sqrt(2.0 * barrier.m)
                * (math.sqrt(barrier.V) - math.sqrt(E)))
    raise TypeError(f"unsupported barrier type {type(barrier).__name__}")
