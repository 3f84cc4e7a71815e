"""Interaction-kernel special functions.

The chain sees the detector through the kernel

    h(x, x_d) = [(x - x_d)^2 + w^2]^(-3/2),

whose width is the chain-detector distance w and whose curvature drives the
dipoles.  Mode couplings are damped by the cutoff f(y) = y*K1(y) with
y = Omega_alpha w / c_s, where K1 is the modified Bessel function of the
second kind; f(0) = 1 and f falls past y ~ 1, filtering modes with
wavelength shorter than w.

K1 is evaluated here with numpy alone, by the Cephes splitting at y = 2:

    y <= 2:  K1(y) = ln(y/2) * y * R(t) + P(t) / y,   t = y^2/2 - 1
    y >  2:  K1(y) = exp(-y) * Q(s) / sqrt(y),        s = 4/y - 1

where R = I1(y)/y, P = y K1(y) - y ln(y/2) I1(y) and Q = exp(y) sqrt(y) K1(y)
are Chebyshev expansions on [-1, 1], truncated where the remaining terms
fall below 2^-60 and rewritten in power form, so that each costs one multiply
and one add per term by Horner's rule.  The coefficients are printed by
scripts/gen_k1_coefficients.py (mpmath, 40 digits) and pasted below.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .params import _require_positive

# elements per block (512 KB of float64): the series and modesum sums and the
# leapfrog's prescribed drive take their kernel and cos/sin matrices a block
# at a time, so that no temporary leaves the core's cache
_BLOCK_ELEMENTS = 65_536

# Generated by scripts/gen_k1_coefficients.py (mpmath, 40 digits):
# truncated Chebyshev series in power form, sum_k a_k x^k, a_0 first.
# I1(y)/y on y <= 2, in t = y^2/2 - 1: 11 terms, vs mpmath 1.3e-17
_K1_R_SMALL = (
    0.6358617281560686,
    0.1471797367221067,
    0.011785695316910426,
    0.0004792827432651339,
    1.1787894939467186e-05,
    1.9417364216117698e-07,
    2.291273496625482e-09,
    2.0317481447162443e-11,
    1.4031759321732494e-13,
    7.760645432558989e-16,
    3.5142587881701446e-18,
)
# y K1(y) - y ln(y/2) I1(y) on y <= 2, in t: 11 terms, vs mpmath 3.9e-17
_K1_P_SMALL = (
    0.8850882877295894,
    -0.3322409552403131,
    -0.24383852886774365,
    -0.02785423521977184,
    -0.0013831688466153064,
    -3.891869064371633e-05,
    -7.081133770184678e-07,
    -9.032127501740678e-09,
    -8.53273511404978e-11,
    -6.214271617329577e-13,
    -3.5962181014457795e-15,
)
# exp(y) sqrt(y) K1(y) on y > 2, in s = 4/y - 1: 26 terms, vs mpmath 2.2e-17
_K1_Q_LARGE = (
    1.363151890371342,
    0.10334973775386527,
    -0.005566729880072931,
    0.0007357241549032677,
    -0.00013959021964175084,
    3.2843865708633974e-05,
    -8.961205912549711e-06,
    2.7300392852920254e-06,
    -9.067229884830243e-07,
    3.229983779937386e-07,
    -1.2195093824501613e-07,
    4.837695851929297e-08,
    -2.0109398585523846e-08,
    8.683982534096674e-09,
    -3.639264909950171e-09,
    1.5795148419022103e-09,
    -1.180097808498307e-09,
    6.970364983934073e-10,
    2.560533082941635e-10,
    -2.5722618233906385e-10,
    -4.2190635517826636e-10,
    3.015605420609579e-10,
    1.704297529665342e-10,
    -1.216604821004258e-10,
    -4.829107281627596e-11,
    3.150534991423443e-11,
)
# R and P are evaluated in one pass, as the rows of a (terms, 2, 1) table
_K1_RP_SMALL = np.array([_K1_R_SMALL, _K1_P_SMALL]).T[:, :, None]


def kernel_h(x, x_d, w):
    """h(x, x_d) = [(x - x_d)^2 + w^2]^(-3/2); peak w^-3 at x = x_d."""
    _require_positive(w=w)
    s = np.asarray(x, dtype=float) - x_d
    return (s * s + w * w) ** -1.5


def kernel_h_deriv(order, x, x_d, w):
    """Closed-form d^k/dx^k of kernel_h for k in {1, 2}.

    With s = x - x_d and r2 = s^2 + w^2:
        h'   = -3 s r2^(-5/2)
        h''  =  3 (4 s^2 - w^2) r2^(-7/2)      (h''(x_d) = -3 w^-5)
    """
    _require_positive(w=w)
    if order not in (1, 2):
        raise ValidationError(f"derivative order must be 1 or 2, got {order}")
    # in place, so that a call holds three arrays; every product keeps the
    # operands and the order of the formulas above
    s = np.asarray(x, dtype=float) - x_d
    r2 = s * s
    r2 += w * w
    if order == 1:
        out = -3.0 * s
        r2 **= -2.5
    else:
        out = 4.0 * s
        out *= s
        out -= w * w
        out *= 3.0
        r2 **= -3.5
    out *= r2
    return out


def _polynomial(coef, x):
    """sum_k coef[k] x^k by Horner's rule, elementwise.

    coef[k] is a float, or a (series, 1) column that evaluates several
    polynomials at the same x in one pass, one output row per series.
    """
    out = coef[-1] + np.zeros_like(x)
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


def _k1(y):
    """K1 of a float array whose entries are finite and > 0."""
    out = np.empty_like(y)
    small = y <= 2.0
    ys = y[small]
    r, p = _polynomial(_K1_RP_SMALL, 0.5 * ys * ys - 1.0)
    out[small] = np.log(0.5 * ys) * ys * r + p / ys
    yl = y[~small]
    out[~small] = np.exp(-yl) * _polynomial(_K1_Q_LARGE, 4.0 / yl - 1.0) / np.sqrt(yl)
    return out


def _finite_array(values, name):
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} must be finite")
    return values


def bessel_k1(y):
    """Modified Bessel function K1(y) for finite y > 0.

    Relative error below 1e-15 up to y = 700, including the exponentially
    small tail (K1(30) ~ 2e-14); past y ~ 705 the value leaves the normal
    range and it underflows to 0 beyond y ~ 745.
    """
    y = _finite_array(y, "y")
    if np.any(y <= 0):
        raise ValidationError("bessel_k1 requires y > 0")
    out = _k1(y)
    return out if out.ndim else float(out)


def cutoff_f(y):
    """Coupling cutoff f(y) = y * K1(y) for finite y >= 0.

    f(0) = 1 by continuous extension (hard-coded, no quadrature at 0);
    strictly decreasing; -> 0 as y -> infinity.
    """
    y = _finite_array(y, "y")
    if np.any(y < 0):
        raise ValidationError("cutoff_f requires y >= 0")
    # below ~1e-9 the correction y^2/2*(ln(y/2)+gamma-1/2) is sub-ulp, and
    # K1 itself overflows near the subnormal range; use the limit value
    small = y <= 1e-9
    safe = np.where(small, 1.0, y)
    out = np.where(small, 1.0, safe * _k1(safe))
    return out if out.ndim else float(out)
