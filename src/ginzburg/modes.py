"""Continuum normal modes of the free-ended chain and their detector couplings.

Frequencies and eigenfunctions (alpha = 1 .. N-1):

    Omega_alpha = 2 sqrt(k_c/m_c) sin(alpha pi a_c / 2L)
    u_alpha(x)  = sqrt(2/L) cos[alpha pi (x + L/2) / L]

In the long-wavelength regime (alpha pi a_c / 2L << 1) the wavenumber is
Omega_alpha / c_s; the series route, and the modesum route under its
`longwave` option, write u_alpha with that argument instead.

The renormalized mode-detector coupling is

    g_alpha = -(g hbar Omega_alpha / (w^2 c_s^2))
              * sqrt(2 Omega_alpha / (rho_c L m_tilde_d omega_d))
              * f(Omega_alpha w / c_s),

negative for positive inputs; probabilities only ever use |g_alpha|.  Modes
with Omega_alpha w / c_s > Y_MAX = 10, where f < 1e-3, are truncated; the
cutoff is a model constant, read when each call runs.

A detector moving at v > c_s resonates with the mode where

    v Omega_alpha / c_s = Omega_alpha + omega_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .params import ChainParams, SystemParams, _require_finite, _require_positive
from .specfun import cutoff_f

# modes with Omega_alpha w / c_s above this are cut off (f < 1e-3 there)
Y_MAX = 10.0


def _check_alpha(alpha, N):
    if not (isinstance(alpha, (int, np.integer)) and 1 <= alpha <= N - 1):
        raise ValidationError(f"mode index must be an integer in 1..{N - 1}, got {alpha!r}")


def _on_chain(x, chain: ChainParams) -> np.ndarray:
    """x as a float array; ValidationError unless every |x| <= L/2."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= chain.L / 2 * (1.0 + 1e-12)):
        raise ValidationError(f"position nan or outside the chain [-L/2, L/2], L={chain.L}")
    return x


def _cutoff_y(omega, params: SystemParams):
    """The cutoff argument y = Omega w / c_s."""
    return omega * params.detector.w / params.chain.c_s


def mode_frequency(alpha, chain: ChainParams):
    """Omega_alpha from the exact sine dispersion (no small-angle shortcut)."""
    _check_alpha(alpha, chain.N)
    return chain.omega_max * math.sin(alpha * math.pi * chain.a_c / (2.0 * chain.L))


def mode_frequencies(chain: ChainParams, alphas=None):
    """Vectorized Omega_alpha for an array of indices (default all 1..N-1)."""
    if alphas is None:
        alphas = np.arange(1, chain.N)
    alphas = np.asarray(alphas)
    return chain.omega_max * np.sin(alphas * math.pi * chain.a_c / (2.0 * chain.L))


def mode_function(alpha, x, chain: ChainParams):
    """Orthonormal eigenfunction u_alpha(x) on |x| <= L/2."""
    _check_alpha(alpha, chain.N)
    L = chain.L
    x = _on_chain(x, chain)
    out = math.sqrt(2.0 / L) * np.cos(alpha * math.pi / L * (x + L / 2.0))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class ModeSpectrum:
    """The mode table: frequencies, cutoff factors and the retained mask."""

    alphas: np.ndarray     # 1..N-1
    omega: np.ndarray      # Omega_alpha
    f: np.ndarray          # cutoff factor f(Omega_alpha w / c_s)
    retained: np.ndarray   # bool: Omega_alpha * w / c_s <= Y_MAX

    @property
    def retained_alphas(self) -> np.ndarray:
        return self.alphas[self.retained]

    @property
    def n_retained(self) -> int:
        return int(np.count_nonzero(self.retained))

    def upto(self, alpha_max) -> "ModeSpectrum":
        """Modes 1..alpha_max of this table."""
        n = self.alphas.size
        if not (isinstance(alpha_max, (int, np.integer)) and 1 <= alpha_max <= n):
            raise ValidationError(f"alpha_max must be an integer in 1..{n}, got {alpha_max!r}")
        head = slice(0, alpha_max)
        return ModeSpectrum(alphas=self.alphas[head], omega=self.omega[head],
                            f=self.f[head], retained=self.retained[head])


def mode_spectrum(params: SystemParams) -> ModeSpectrum:
    """All modes 1..N-1: the series and mode-sum routes, the resonance
    pair, the mode CSV and the regime report read their modes from here."""
    alphas = np.arange(1, params.chain.N)
    omega = mode_frequencies(params.chain, alphas)
    y = _cutoff_y(omega, params)
    return ModeSpectrum(alphas=alphas, omega=omega, f=cutoff_f(y),
                        retained=y <= Y_MAX)


@dataclass(frozen=True)
class ModeCoupling:
    alpha: int
    g_alpha: float
    omega_d: float
    omega_alpha: float


def coupling_strengths(params: SystemParams, omega_d, alphas=None) -> np.ndarray:
    """g_alpha for an index array, cutoff applied as a factor (no truncation).

    The cutoff enters only through f; indices past Y_MAX still get their
    formula value here, so CSV emission can show the suppressed tail.
    """
    chain, det = params.chain, params.detector
    _require_positive(omega_d=omega_d)
    omega = mode_frequencies(chain, alphas)
    c_s, w = chain.c_s, det.w
    pref = -(params.g * params.hbar * omega) / (w ** 2 * c_s ** 2)
    root = np.sqrt(2.0 * omega / (chain.rho_c * chain.L * det.m_tilde_d * omega_d))
    return pref * root * cutoff_f(_cutoff_y(omega, params))


def mode_coupling(alpha, params: SystemParams, omega_d) -> ModeCoupling:
    """Signed coupling g_alpha for one retained mode.

    Raises ValidationError outside 1..N-1 and for valid indices truncated
    by the cutoff.
    """
    chain = params.chain
    _check_alpha(alpha, chain.N)
    omega = mode_frequency(alpha, chain)
    y = _cutoff_y(omega, params)
    if y > Y_MAX:
        raise ValidationError(
            f"mode {alpha} truncated: Omega_alpha*w/c_s = {y:.4g} > y_max = {Y_MAX}")
    g_alpha = float(coupling_strengths(params, omega_d, alphas=np.array([alpha]))[0])
    return ModeCoupling(alpha=int(alpha), g_alpha=g_alpha, omega_d=float(omega_d),
                        omega_alpha=omega)


# -- resonance --------------------------------------------------------------

@dataclass(frozen=True)
class Resonance:
    alpha0: int
    detuning: float        # |v*Omega/c_s - Omega - omega_d| at alpha0, exact dispersion
    omega_star: float      # target frequency omega_d c_s / (v - c_s)
    alpha_linear: float    # continuous index from the linear dispersion map


def _detuning(v, omega_d, omega, c_s):
    # |v Omega/c_s - Omega - omega_d|, elementwise in Omega
    return abs(v * omega / c_s - omega - omega_d)


def resonance_mode(v, omega_d, params: SystemParams) -> Resonance:
    """Mode index closest to the Ginzburg resonance v*Omega/c_s = Omega + omega_d.

    Solves Omega* = omega_d c_s/(v - c_s); the returned alpha0 minimizes the
    exact-dispersion detuning (floor/ceil of the arcsin-mapped continuous
    index are compared), which coincides with rounding the linear-map index
    Omega* L/(pi c_s) in the long-wavelength regime.  Raises ValidationError
    for v <= c_s, a resonant mode past the cutoff or an overflowing detuning.
    """
    chain = params.chain
    _require_positive(omega_d=omega_d)
    _require_finite(v=v)
    c_s = chain.c_s
    if v <= c_s:
        raise ValidationError(
            f"subsonic: no Ginzburg resonance (v = {v:.6g} <= c_s = {c_s:.6g})")
    omega_star = omega_d * c_s / (v - c_s)
    alpha_linear = omega_star * chain.L / (math.pi * c_s)

    omega_top = chain.omega_max
    if omega_star >= omega_top:
        alpha_cont = float(chain.N - 1)
    else:
        alpha_cont = (2.0 * chain.L / (math.pi * chain.a_c)) * math.asin(
            omega_star / omega_top)
    candidates = {int(np.clip(f(alpha_cont), 1, chain.N - 1))
                  for f in (math.floor, math.ceil)}
    alpha0, omega0 = min(((a, mode_frequency(a, chain)) for a in candidates),
                         key=lambda am: _detuning(v, omega_d, am[1], c_s))

    y = _cutoff_y(omega0, params)
    if y > Y_MAX:
        raise ValidationError(
            f"resonant mode {alpha0} lies past the cutoff (y = {y:.4g} > {Y_MAX})")
    detuning = _detuning(v, omega_d, omega0, c_s)
    if not math.isfinite(detuning):
        raise ValidationError(f"v = {v:.6g} overflows the detuning at mode {alpha0}")
    return Resonance(alpha0=alpha0, detuning=detuning,
                     omega_star=omega_star, alpha_linear=alpha_linear)


@dataclass(frozen=True)
class ResonancePair:
    alpha1: int
    alpha2: int
    detuning1: float
    detuning2: float
    couplings: tuple[ModeCoupling, ModeCoupling]  # branch i's, at alpha_i
    # |v_i Omega/c_s - Omega - omega_dj| for the cross combinations (i != j),
    # evaluated at both in-play modes
    cross_detunings: dict
    # nearest retained mode to each cross combination and its detuning
    cross_nearest: dict
    guard_band: float
    selectivity_violated: bool
    degenerate_modes: bool


def resonance_pair(v1, v2, params: SystemParams) -> ResonancePair:
    """Resonant modes and couplings for two branches plus cross-resonance
    diagnostics: the one place a superposed pair is resolved.

    Branch 1 pairs v1 with omega_d1 = params.detector.omega_d[0], branch 2
    v2 with omega_d2 = omega_d[-1]; the velocities differ, in either order.
    Selectivity requires that no retained chain mode sits within the guard
    band of either *cross* combination (v1 with omega_d2, v2 with omega_d1);
    the guard band, 20*max(|g_alpha1|, |g_alpha2|)/hbar from the pair's
    couplings, is the margin at which the RWA is comfortably valid.
    """
    omega_d1, omega_d2 = params.detector.omega_d[0], params.detector.omega_d[-1]
    c_s = params.chain.c_s
    if v1 == v2:
        raise ValidationError(f"v1 and v2 must differ, both are {v1:.6g}")
    r1 = resonance_mode(v1, omega_d1, params)
    r2 = resonance_mode(v2, omega_d2, params)

    c1 = mode_coupling(r1.alpha0, params, omega_d1)
    c2 = mode_coupling(r2.alpha0, params, omega_d2)
    guard_band = 20.0 * max(abs(c1.g_alpha), abs(c2.g_alpha)) / params.hbar

    cross = (("v1_omega_d2", v1, omega_d2), ("v2_omega_d1", v2, omega_d1))
    cross_detunings = {f"{tag}_at_alpha{i}": _detuning(v, om_d, c.omega_alpha, c_s)
                       for tag, v, om_d in cross for i, c in ((1, c1), (2, c2))}
    spectrum = mode_spectrum(params)
    omega_ret, cross_nearest = spectrum.omega[spectrum.retained], {}
    for tag, v, om_d in cross:
        det_all = _detuning(v, om_d, omega_ret, c_s)
        j = int(det_all.argmin())
        cross_nearest[tag] = {"alpha": int(spectrum.retained_alphas[j]),
                              "detuning": float(det_all[j])}

    return ResonancePair(
        alpha1=r1.alpha0, alpha2=r2.alpha0,
        detuning1=r1.detuning, detuning2=r2.detuning, couplings=(c1, c2),
        cross_detunings=cross_detunings, cross_nearest=cross_nearest,
        guard_band=float(guard_band),
        selectivity_violated=any(c["detuning"] < guard_band
                                 for c in cross_nearest.values()),
        degenerate_modes=r1.alpha0 == r2.alpha0)
