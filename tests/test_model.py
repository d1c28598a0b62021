"""Property tests and examples for the barrier/pulse model layer."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from pulsetunnel.errors import DomainError, SingularityError
from pulsetunnel.model import (
    GaussianPulse,
    LorentzPulse,
    SechBarrier,
    TriangularBarrier,
    ZeroPulse,
    static_wkb_exponent,
)

finite = dict(allow_nan=False, allow_infinity=False)


def _pulses():
    return st.one_of(
        st.builds(
            LorentzPulse,
            amplitude=st.floats(1e-6, 10.0, **finite),
            width=st.floats(0.1, 10.0, **finite),
            exponent=st.integers(2, 6),
        ),
        st.builds(
            GaussianPulse,
            amplitude=st.floats(1e-6, 10.0, **finite),
            rate=st.floats(0.1, 10.0, **finite),
        ),
        st.just(ZeroPulse()),
    )


# --- Pulse symmetry and analyticity ----------------------------------------------

@given(
    pulse=_pulses(),
    re=st.floats(-20.0, 20.0, **finite),
    im=st.floats(-0.5, 0.5, **finite),
)
def test_pulse_even_in_time(pulse, re, im):
    t = complex(re, im)
    if isinstance(pulse, LorentzPulse):
        # stay away from the poles at +/- i*width
        if min(abs(t - 1j * pulse.width), abs(t + 1j * pulse.width)) < 0.05:
            t = complex(re, 0.0)
    assert pulse(t) == pytest.approx(pulse(-t), rel=1e-12, abs=1e-300)


@given(
    pulse=_pulses(),
    cx=st.floats(-3.0, 3.0, **finite),
    cy=st.floats(-3.0, 3.0, **finite),
    r=st.floats(0.05, 0.3, **finite),
)
def test_pulse_analytic_cauchy(pulse, cx, cy, r):
    center = complex(cx, cy)
    if isinstance(pulse, LorentzPulse):
        clearance = min(
            abs(center - 1j * pulse.width), abs(center + 1j * pulse.width)
        )
        if clearance < r + 0.1:
            return  # circle would touch a pole: not in scope for this property
    phis = np.linspace(0.0, 2.0 * math.pi, 601)
    zs = center + r * np.exp(1j * phis)
    vals = pulse(zs) * 1j * r * np.exp(1j * phis)
    integral = np.trapezoid(vals, phis)
    scale = max(float(np.max(np.abs(vals))), 1.0)
    assert abs(integral) / scale < 1e-10


def test_lorentz_raises_at_pole():
    p = LorentzPulse(amplitude=1.0, width=2.0, exponent=3)
    with pytest.raises(SingularityError):
        p(2j)
    for t in (2j, -2j, np.array([0.5, -2j])):
        with pytest.raises(SingularityError):
            p.derivatives(t)


# --- Closed-form derivatives -----------------------------------------------------

def _differences(pulse, t, h):
    """Five-point central differences (f', f'') along the real direction."""
    fm2, fm1, f0, fp1, fp2 = (complex(pulse(t + k * h)) for k in (-2, -1, 0, 1, 2))
    d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    return f0, d1, d2


def _check_derivatives(pulse, t, length):
    """derivatives(t) against differences with steps well inside `length`,
    the distance over which the pulse changes; scalar and array forms agree."""
    f, f1, f2 = pulse.derivatives(t)
    f0, d1, d2 = _differences(pulse, t, 1e-3 * length)
    size = abs(f0) + 1e-300
    assert f == f0
    assert abs(f1 - d1) <= 1e-9 * (abs(f1) + size / length)
    assert abs(f2 - d2) <= 1e-7 * (abs(f2) + size / length**2)
    arrays = pulse.derivatives(np.array([t, -t]))
    for a, scalar in zip(arrays, (f, f1, f2), strict=True):
        assert a[0] == pytest.approx(scalar, rel=1e-13, abs=1e-300)
    for a, mirrored in zip(arrays, (f, -f1, f2), strict=True):
        assert a[1] == pytest.approx(mirrored, rel=1e-12, abs=1e-300)


@given(
    pulse=_pulses(),
    re=st.floats(-4.0, 4.0, **finite),
    im=st.floats(-0.9, 0.9, **finite),
)
def test_pulse_derivatives_match_differences(pulse, re, im):
    if isinstance(pulse, LorentzPulse):
        t = complex(re, im) * pulse.width
        length = min(pulse.width, abs(t - 1j * pulse.width),
                     abs(t + 1j * pulse.width))
    elif isinstance(pulse, GaussianPulse):
        t = complex(re, im) / pulse.rate
        length = 1.0 / (pulse.rate * max(1.0, abs(t) * pulse.rate))
    else:
        t, length = complex(re, im), 1.0
    _check_derivatives(pulse, t, length)


@pytest.mark.parametrize("exponent", [2, 3, 5])
@pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("direction", [-1j, 1.0, cmath.exp(0.25j * math.pi)])
def test_lorentz_derivatives_near_pole(exponent, gap, direction):
    p = LorentzPulse(amplitude=0.05, width=2.0, exponent=exponent)
    _check_derivatives(p, 2j + gap * p.width * direction, gap * p.width)


# --- Closed-form integrals -------------------------------------------------------

@given(
    amp=st.floats(1e-3, 2.0, **finite),
    width=st.floats(0.3, 5.0, **finite),
    n=st.integers(2, 5),
    a=st.floats(-4.0, 4.0, **finite),
    b=st.floats(-4.0, 4.0, **finite),
)
def test_lorentz_antiderivative_matches_quadrature(amp, width, n, a, b):
    p = LorentzPulse(amplitude=amp, width=width, exponent=n)
    exact = p.antiderivative(b) - p.antiderivative(a)
    num, _ = integrate.quad(lambda t: complex(p(t)).real, a, b,
                            epsabs=1e-13, epsrel=1e-12)
    assert exact.real == pytest.approx(num, rel=1e-9, abs=1e-12)
    assert abs(exact.imag) < 1e-12

    exact_m = p.first_moment_antiderivative(b) - p.first_moment_antiderivative(a)
    num_m, _ = integrate.quad(lambda t: t * complex(p(t)).real, a, b,
                              epsabs=1e-13, epsrel=1e-12)
    assert exact_m.real == pytest.approx(num_m, rel=1e-9, abs=1e-12)


@given(
    amp=st.floats(1e-3, 2.0, **finite),
    rate=st.floats(0.2, 3.0, **finite),
    b=st.floats(-3.0, 3.0, **finite),
)
def test_gaussian_antiderivative_matches_quadrature(amp, rate, b):
    p = GaussianPulse(amplitude=amp, rate=rate)
    exact = p.antiderivative(b)
    num, _ = integrate.quad(lambda t: complex(p(t)).real, 0.0, b,
                            epsabs=1e-13, epsrel=1e-12)
    assert exact.real == pytest.approx(num, rel=1e-9, abs=1e-12)


@given(
    amp=st.floats(1e-3, 2.0, **finite),
    width=st.floats(0.5, 5.0, **finite),
    n=st.integers(2, 5),
    frac=st.floats(0.01, 0.95, **finite),
)
def test_lorentz_imag_axis_integral(amp, width, n, frac):
    p = LorentzPulse(amplitude=amp, width=width, exponent=n)
    tau = frac * width
    num, _ = integrate.quad(lambda u: complex(p(1j * u)).real, 0.0, tau,
                            epsabs=1e-13, epsrel=1e-12)
    assert p.integral_imag_axis(tau) == pytest.approx(num, rel=1e-9, abs=1e-12)


# --- Static WKB exponent ---------------------------------------------------------

@given(
    V=st.floats(1.0, 50.0, **finite),
    e0=st.floats(0.1, 5.0, **finite),
    m=st.floats(0.2, 5.0, **finite),
    f1=st.floats(0.05, 0.9, **finite),
    df=st.floats(0.02, 0.5, **finite),
)
def test_static_exponent_decreasing_triangular(V, e0, m, f1, df):
    E1 = f1 * V
    E2 = min(E1 + df * V, 0.999 * V)
    if E2 <= E1:
        return
    b1 = TriangularBarrier(V=V, E_bound=E1, field_static=e0, m=m)
    b2 = TriangularBarrier(V=V, E_bound=E2, field_static=e0, m=m)
    assert static_wkb_exponent(b1, E1) > static_wkb_exponent(b2, E2)


@given(
    V=st.floats(0.5, 20.0, **finite),
    a=st.floats(0.2, 5.0, **finite),
    m=st.floats(0.2, 5.0, **finite),
    f1=st.floats(0.05, 0.9, **finite),
    df=st.floats(0.02, 0.5, **finite),
)
def test_static_exponent_decreasing_sech(V, a, m, f1, df):
    b = SechBarrier(V=V, a=a, m=m)
    E1 = f1 * V
    E2 = min(E1 + df * V, 0.999 * V)
    if E2 <= E1:
        return
    assert static_wkb_exponent(b, E1) > static_wkb_exponent(b, E2)


@given(
    V=st.floats(1.0, 50.0, **finite),
    e0=st.floats(0.1, 5.0, **finite),
    m=st.floats(0.2, 5.0, **finite),
    frac=st.floats(0.05, 0.95, **finite),
)
def test_triangular_exponent_vs_quadrature(V, e0, m, frac):
    E = frac * V
    b = TriangularBarrier(V=V, E_bound=E, field_static=e0, m=m)
    x_exit = (V - E) / e0

    def p_abs(x):
        return math.sqrt(2.0 * m * (V - E - e0 * x))

    num, _ = integrate.quad(p_abs, 0.0, x_exit, epsabs=1e-14, epsrel=1e-13)
    assert 2.0 * num == pytest.approx(static_wkb_exponent(b, E), rel=1e-10)


@given(
    V=st.floats(0.5, 20.0, **finite),
    a=st.floats(0.2, 5.0, **finite),
    m=st.floats(0.2, 5.0, **finite),
    frac=st.floats(0.05, 0.95, **finite),
)
def test_sech_quadrature_vs_analytic(V, a, m, frac):
    b = SechBarrier(V=V, a=a, m=m)
    E = frac * V
    assert static_wkb_exponent(b, E) == pytest.approx(
        _sech_exponent_quadrature(V, a, m, E), rel=1e-8
    )


def _sech_exponent_quadrature(V, a, m, E):
    """2*sqrt(2m) * int sqrt(V/cosh^2(x/a) - E) dx between the turning points."""
    xt = a * math.acosh(math.sqrt(V / E))

    def p_abs(x):
        return math.sqrt(max(V / math.cosh(x / a) ** 2 - E, 0.0))

    num, _ = integrate.quad(p_abs, -xt, xt, epsabs=1e-13, epsrel=1e-12)
    return 2.0 * math.sqrt(2.0 * m) * num


# --- Validation ------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(DomainError):
        TriangularBarrier(V=1.0, E_bound=2.0, field_static=1.0)
    with pytest.raises(DomainError):
        TriangularBarrier(V=1.0, E_bound=0.5, field_static=-1.0)
    with pytest.raises(DomainError):
        SechBarrier(V=-1.0, a=1.0)
    with pytest.raises(DomainError):
        LorentzPulse(amplitude=1.0, width=1.0, exponent=1)
    with pytest.raises(DomainError):
        GaussianPulse(amplitude=-1.0, rate=1.0)


_VALID = {
    TriangularBarrier: dict(V=10.0, E_bound=5.0, field_static=1.0, m=1.0),
    SechBarrier: dict(V=1.0, a=1.0, m=1.0),
    LorentzPulse: dict(amplitude=0.05, width=2.0, exponent=3),
    GaussianPulse: dict(amplitude=0.05, rate=1.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("cls,name", [
    (cls, name) for cls, kwargs in _VALID.items() for name in kwargs
    if name != "exponent"
])
def test_non_finite_fields_rejected(cls, name, value):
    # NaN passes every < and <= check, so most of these were accepted (a
    # NaN field later spun the Euclidean overflow step-back forever)
    cls(**_VALID[cls])
    with pytest.raises(DomainError, match="finite"):
        cls(**{**_VALID[cls], name: value})


def test_triangular_derived_quantities():
    b = TriangularBarrier(V=10.0, E_bound=5.0, field_static=1.0, m=1.0)
    assert b.tau00 == pytest.approx(math.sqrt(10.0))
    assert b.exit_point == pytest.approx(5.0)
    assert static_wkb_exponent(b, 5.0) == pytest.approx(
        (4.0 / 3.0) * 5.0 * math.sqrt(10.0)
    )


def test_sech_derived_quantities():
    b = SechBarrier(V=1.0, a=1.0, m=1.0)
    assert b.omega(0.5) == pytest.approx(1.0)
    assert b.tau_s(0.5) == pytest.approx(math.pi / 2.0)
