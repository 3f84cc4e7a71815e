import math
import subprocess
import sys

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings, strategies as st

from ginzburg import ValidationError, bessel_k1, cutoff_f, kernel_h, kernel_h_deriv

from oracles import fd_kernel_deriv
from reference_values import H_DERIV_123, H_DERIV_POINT, K1_TABLE


def test_kernel_peak_value():
    assert kernel_h(0.0, 0.0, 0.01) == pytest.approx(1e6, rel=1e-14)
    assert kernel_h(0.3, 0.29, 0.01) == pytest.approx(1e6 / (2 * math.sqrt(2)),
                                                      rel=1e-14)


def test_kernel_integral_is_two_over_w_squared():
    w = 0.01
    val, err = scipy.integrate.quad(lambda x: kernel_h(x, 0.0, w),
                                    -50.0, 50.0, limit=400)
    assert val == pytest.approx(2.0 / w ** 2, rel=1e-7)


def test_kernel_even_symmetry():
    # dyadic points so the reflection 2*x_d - x is itself exact in binary
    x = np.linspace(-0.25, 0.25, 33)
    x_d = 0.0625
    np.testing.assert_array_equal(kernel_h(x, x_d, 0.02),
                                  kernel_h(2 * x_d - x, x_d, 0.02))


def test_kernel_derivatives_at_peak():
    w = 0.013
    assert kernel_h_deriv(1, 0.2, 0.2, w) == 0.0
    assert kernel_h_deriv(2, 0.2, 0.2, w) == pytest.approx(-3.0 / w ** 5, rel=1e-14)


def test_kernel_derivatives_frozen_point():
    x, x_d, w = H_DERIV_POINT
    for order, ref in zip((1, 2), H_DERIV_123):
        assert kernel_h_deriv(order, x, x_d, w) == pytest.approx(ref, rel=1e-13)


def test_kernel_derivative_rejects_bad_order():
    for order in (0, 3, 4):
        with pytest.raises(ValidationError, match="order must be 1 or 2"):
            kernel_h_deriv(order, 0.0, 0.0, 0.01)


@pytest.mark.parametrize("w", [math.nan, math.inf, 0.0, -0.01])
def test_kernel_rejects_bad_width(w):
    rule = "strictly positive" if math.isfinite(w) else "a finite number"
    for call in (lambda: kernel_h(0.0, 0.0, w),
                 lambda: kernel_h_deriv(1, 0.0, 0.0, w),
                 lambda: kernel_h_deriv(2, 0.0, 0.0, w)):
        with pytest.raises(ValidationError, match=f"w must be {rule}, got {w}"):
            call()


@settings(max_examples=100, deadline=None)
@given(u=st.floats(-5.0, 5.0), order=st.sampled_from([1, 2]))
def test_kernel_derivatives_match_finite_differences(u, order):
    w, x_d = 0.02, 0.003
    x = x_d + u * w
    got = kernel_h_deriv(order, x, x_d, w)
    ref = fd_kernel_deriv(order, x, x_d, w)
    scale = max(abs(ref), abs(kernel_h(x, x_d, w)) / w ** order)
    assert abs(got - ref) <= 1e-5 * scale


def test_k1_and_f_against_quadrature_table():
    for y, k1_ref, f_ref in K1_TABLE:
        assert bessel_k1(y) == pytest.approx(k1_ref, rel=1e-8)
        assert cutoff_f(y) == pytest.approx(f_ref, rel=1e-8)


def test_k1_spot_value():
    assert bessel_k1(1.0) == pytest.approx(0.60190723, rel=1e-7)
    assert cutoff_f(1.0) == pytest.approx(0.60190723, rel=1e-7)


def test_k1_large_argument_asymptotics():
    y = 20.0
    leading = math.sqrt(math.pi / (2 * y)) * math.exp(-y)
    # leading order alone is ~1.9% off at y=20; the 3/(8y) correction for
    # K1 brings the remainder down to ~3e-4
    assert bessel_k1(y) == pytest.approx(leading, rel=0.02)
    assert bessel_k1(y) == pytest.approx(leading * (1 + 3 / (8 * y)), rel=1e-3)


def test_k1_domain():
    with pytest.raises(ValidationError):
        bessel_k1(0.0)
    with pytest.raises(ValidationError):
        bessel_k1(-1.0)
    with pytest.raises(ValidationError):
        cutoff_f(-0.1)


@pytest.mark.parametrize("func", [bessel_k1, cutoff_f])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_k1_and_f_reject_non_finite(func, bad):
    with pytest.raises(ValidationError):
        func(bad)
    with pytest.raises(ValidationError):
        func(np.array([0.5, bad, 2.0]))


def test_k1_matches_scipy_oracle():
    # ~1e5 points per spacing, log and linear, across the double range of K1
    y = np.concatenate([np.geomspace(1e-9, 700.0, 100_001),
                        np.linspace(1e-9, 700.0, 100_001)])
    ref = scipy.special.k1(y)
    assert np.max(np.abs(bessel_k1(y) - ref) / ref) <= 2e-15
    f_ref = y * ref
    assert np.max(np.abs(cutoff_f(y) - f_ref) / f_ref) <= 2e-15


def test_k1_matches_mpmath_at_branch_point_and_per_decade():
    below, above = np.nextafter(2.0, 0.0), np.nextafter(2.0, 3.0)
    points = [below, 2.0, above, 2.0 - 1e-6, 2.0 + 1e-6]
    points += [m * 10.0 ** e for e in range(-9, 3) for m in (1.0, 2.2, 4.7)]
    points += [700.0]
    for y in points:
        ref = mpmath.besselk(1, mpmath.mpf(y))
        rel = abs(mpmath.mpf(bessel_k1(y)) - ref) / ref
        assert rel <= 2e-15, (y, float(rel))


def test_k1_underflow_tail():
    y = np.array([700.000001, 705.0, 720.0, 745.0, 750.0, 1e4, 1e300])
    k = bessel_k1(y)
    assert np.all(k >= 0.0) and np.all(k < 1e-300)
    assert np.all(cutoff_f(y) < 1e-300)


def test_import_does_not_load_scipy():
    probe = ("import sys; import ginzburg.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    got = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, timeout=120)
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"


def test_cutoff_limit_and_decay():
    assert cutoff_f(0.0) == 1.0
    assert cutoff_f(10.0) < 1e-3


def test_cutoff_strictly_decreasing():
    y = np.linspace(0.0, 30.0, 400)
    f = cutoff_f(y)
    assert np.all(np.diff(f) < 0)


@settings(max_examples=60, deadline=None)
@given(y1=st.floats(0.0, 30.0), y2=st.floats(0.0, 30.0))
def test_cutoff_monotone_pairs(y1, y2):
    lo, hi = sorted((y1, y2))
    if lo < hi:
        # the decrease near 0 is below double resolution (f-1 ~ y^2 ln y),
        # so strictness is only meaningful for separated arguments
        assert cutoff_f(lo) >= cutoff_f(hi)
        if hi - lo > 1e-6:
            assert cutoff_f(lo) > cutoff_f(hi)
