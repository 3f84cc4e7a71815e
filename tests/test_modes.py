import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginzburg import modes
from ginzburg import (ValidationError, build_params, coupling_strengths, cutoff_f,
                      mode_coupling, mode_frequency, mode_function,
                      mode_spectrum, resonance_mode, resonance_pair)

from oracles import spectrum_eigensolve
from reference_values import F_FACTOR_10, G_ALPHA_10, OMEGA_10


def paper(N=2001, w=0.01, omega_d=10.0 * math.pi, **coupling):
    cfg = {"units": {"preset": "paper"}, "chain": {"N": N},
           "detector": {"w": w, "omega_d": omega_d}}
    if coupling:
        cfg["coupling"] = coupling
    return build_params(cfg)


# -- dispersion --------------------------------------------------------------

def test_band_top_frequency():
    p = paper(N=101)
    chain = p.chain
    assert mode_frequency(chain.N - 1, chain) == pytest.approx(
        2.0 * math.sqrt(chain.k_c / chain.m_c), rel=1e-15)


def test_small_alpha_linear_dispersion():
    chain = paper(N=1001).chain
    assert mode_frequency(1, chain) == pytest.approx(
        math.pi * chain.c_s / chain.L, rel=1e-5)


def test_frozen_frequency_value():
    chain = paper().chain
    assert mode_frequency(10, chain) == pytest.approx(OMEGA_10, rel=1e-14)


def test_alpha_out_of_range():
    chain = paper(N=101).chain
    for alpha in (0, -1, 101):
        with pytest.raises(ValidationError,
                           match=r"mode index must be an integer in 1\.\.100, got"):
            mode_frequency(alpha, chain)


def test_spectrum_matches_dense_eigensolve():
    # half-end-mass free chain: its eigenfrequencies are exactly the
    # continuum cosine-mode values, so the dense solve is a true oracle
    p = paper(N=21, w=0.2)
    chain = p.chain
    formula = np.array([mode_frequency(a, chain) for a in range(1, 21)])
    dense = spectrum_eigensolve(chain.N, chain.m_c, chain.k_c)
    assert np.max(np.abs(dense - formula) / formula) <= 1e-8


@pytest.mark.parametrize("N", [3, 11, 101, 1001, 4001])
def test_spectrum_monotone_and_bounded(N):
    chain = paper(N=N, w=10.0 / N).chain
    omega = np.array([mode_frequency(a, chain) for a in range(1, N)])
    assert np.all(np.diff(omega) > 0)
    assert omega[-1] <= 2.0 * math.sqrt(chain.k_c / chain.m_c) * (1 + 1e-15)


def test_spectrum_retained_set():
    p = paper()
    spec = mode_spectrum(p)
    y = spec.omega * p.detector.w / p.chain.c_s
    assert np.array_equal(spec.retained, y <= 10.0)
    assert np.array_equal(spec.f, cutoff_f(y))
    assert spec.retained_alphas[0] == 1
    assert not spec.retained[-1]
    head = spec.upto(7)
    assert head.alphas.tolist() == list(range(1, 8))
    assert np.array_equal(head.omega, spec.omega[:7])
    assert np.array_equal(head.f, spec.f[:7])
    for bad in (0, 2000 + 1, 7.0):
        with pytest.raises(ValidationError,
                           match=r"alpha_max must be an integer in 1\.\.2000, got"):
            spec.upto(bad)


# -- mode functions ----------------------------------------------------------

def test_mode_function_edge_values():
    chain = paper(N=1001).chain
    root = math.sqrt(2.0 / chain.L)
    assert mode_function(1, -chain.L / 2, chain) == pytest.approx(root, rel=1e-12)
    assert mode_function(2, 0.0, chain) == pytest.approx(-root, rel=1e-12)


def test_mode_function_rejects_outside_chain():
    chain = paper(N=101).chain
    with pytest.raises(Exception):
        mode_function(1, 0.6 * chain.L, chain)


def test_mode_orthonormality_quadrature():
    chain = paper().chain
    x = np.linspace(-chain.L / 2, chain.L / 2, 20001)
    u = np.stack([mode_function(a, x, chain) for a in range(1, 31)])
    gram = np.trapezoid(u[:, None, :] * u[None, :, :], x, axis=-1)
    off = gram - np.eye(30)
    assert np.max(np.abs(off)) <= 1e-8


# -- couplings ---------------------------------------------------------------

def test_coupling_frozen_value():
    p = paper()
    c = mode_coupling(10, p, omega_d=10.0 * math.pi)
    assert c.g_alpha == pytest.approx(G_ALPHA_10, rel=1e-12)
    assert cutoff_f(c.omega_alpha * p.detector.w / p.chain.c_s) == pytest.approx(
        F_FACTOR_10, rel=1e-12)
    assert c.omega_alpha == pytest.approx(OMEGA_10, rel=1e-14)


def test_coupling_sign_negative():
    p = paper()
    g = coupling_strengths(p, omega_d=10.0 * math.pi,
                           alphas=np.arange(1, 200))
    assert np.all(g < 0)


def test_coupling_prefactor_at_zero_cutoff():
    # f -> 1 in the longwave limit, so |g_alpha| approaches the bare prefactor
    p = paper(N=2001, w=1e-7)
    c = mode_coupling(1, p, omega_d=10.0 * math.pi)
    chain, det = p.chain, p.detector
    om = mode_frequency(1, chain)
    pref = (p.g * p.hbar * om / (det.w ** 2 * chain.c_s ** 2)) * math.sqrt(
        2.0 * om / (chain.rho_c * chain.L * det.m_tilde_d * (10.0 * math.pi)))
    assert abs(c.g_alpha) == pytest.approx(pref, rel=1e-9)
    assert cutoff_f(om * det.w / chain.c_s) == pytest.approx(1.0, abs=1e-9)


def test_coupling_mass_scaling():
    p1 = paper()
    p2 = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                       "detector": {"w": 0.01, "m_tilde_d": 2.0}})
    g1 = mode_coupling(10, p1, omega_d=10.0 * math.pi).g_alpha
    g2 = mode_coupling(10, p2, omega_d=10.0 * math.pi).g_alpha
    assert g2 == pytest.approx(g1 / math.sqrt(2.0), rel=1e-12)


def test_coupling_cutoff_suppression(monkeypatch):
    p = paper()
    spec = mode_spectrum(p)
    alpha_at_cut = int(spec.alphas[np.searchsorted(spec.omega,
                                                   10.0 / p.detector.w)])
    with pytest.raises(ValidationError, match=rf"mode {alpha_at_cut} truncated: "
                       r"Omega_alpha\*w/c_s = .* > y_max = 10\.0"):
        mode_coupling(alpha_at_cut, p, omega_d=10.0 * math.pi)
    # the cutoff is read when the call runs
    monkeypatch.setattr(modes, "Y_MAX", 11.0)
    c = mode_coupling(alpha_at_cut, p, omega_d=10.0 * math.pi)
    f = cutoff_f(c.omega_alpha * p.detector.w / p.chain.c_s)
    assert abs(c.g_alpha) < 1e-3 * abs(c.g_alpha / f)


def test_coupling_truncation_error_is_distinct():
    p = paper()
    with pytest.raises(ValidationError, match="mode 1500 truncated"):
        mode_coupling(1500, p, omega_d=10.0 * math.pi)
    with pytest.raises(ValidationError,
                       match=r"mode index must be an integer in 1\.\.2000, got 2001"):
        mode_coupling(2001, p, omega_d=10.0 * math.pi)


# -- resonance ---------------------------------------------------------------

def test_resonance_exact_integer_cases():
    p = paper()
    r = resonance_mode(2.0, 10.0 * math.pi, p)
    assert r.alpha0 == 10
    assert r.omega_star == pytest.approx(10.0 * math.pi, rel=1e-14)
    r = resonance_mode(1.5, 10.0 * math.pi, p)
    assert r.alpha0 == 20
    assert r.omega_star == pytest.approx(20.0 * math.pi, rel=1e-14)


def test_resonance_detuning_is_minimal():
    p = paper()
    r = resonance_mode(2.3, 9.7 * math.pi, p)
    chain = p.chain
    best = min(range(1, 600),
               key=lambda a: abs(2.3 * mode_frequency(a, chain) / chain.c_s
                                 - mode_frequency(a, chain) - 9.7 * math.pi))
    assert r.alpha0 == best


def test_resonance_subsonic_rejected():
    p = paper()
    for v in (0.5, 1.0):
        with pytest.raises(ValidationError,
                           match="subsonic: no Ginzburg resonance"):
            resonance_mode(v, 10.0 * math.pi, p)


def test_resonance_overflowing_detuning_rejected():
    with pytest.raises(ValidationError,
                       match=r"v = 1e\+308 overflows the detuning at mode 1"):
        resonance_mode(1e308, 10.0 * math.pi, paper())


@pytest.mark.parametrize("omega_d", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_non_finite_or_nonpositive_omega_d_rejected(omega_d):
    p = paper()
    for call in (lambda: coupling_strengths(p, omega_d, alphas=np.array([10])),
                 lambda: mode_coupling(10, p, omega_d),
                 lambda: resonance_mode(2.0, omega_d, p)):
        with pytest.raises(ValidationError, match="omega_d must be positive"):
            call()


def test_resonance_pair_selectivity_violation():
    p = paper()
    pair = resonance_pair(2.0, 3.0, p)
    assert (pair.alpha1, pair.alpha2) == (10, 5)
    # v2 with omega_d1 also resonates at alpha = 5 = alpha2
    assert pair.selectivity_violated
    assert pair.cross_nearest["v2_omega_d1"]["alpha"] == 5
    assert pair.cross_nearest["v2_omega_d1"]["detuning"] < pair.guard_band


def test_resonance_pair_clean_configuration():
    # v2 - c_s = 1.6 makes both cross combinations land between modes; at a
    # weak coupling the computed guard band is narrower than that gap
    omegas = (10.0 * math.pi, 11.2 * math.pi)
    p = paper(g=5e-8, omega_d=list(omegas))
    pair = resonance_pair(2.0, 2.6, p)
    assert (pair.alpha1, pair.alpha2) == (10, 7)
    g_max = max(abs(mode_coupling(a, p, om).g_alpha)
                for a, om in zip((10, 7), omegas))
    assert pair.guard_band == pytest.approx(20.0 * g_max / p.hbar, rel=1e-15)
    assert 0.0 < pair.guard_band < 0.5
    assert not pair.selectivity_violated
    # exhaustive scan: no retained mode sits inside the guard band for
    # either cross condition
    chain = p.chain
    for v, om_d in ((2.0, 11.2 * math.pi), (2.6, 10.0 * math.pi)):
        dets = [abs(v * mode_frequency(a, chain) / chain.c_s
                    - mode_frequency(a, chain) - om_d)
                for a in range(1, 600)]
        assert min(dets) >= 0.5


def test_resonance_pair_degenerate_velocities_rejected():
    p = paper()
    with pytest.raises(Exception):
        resonance_pair(2.0, 2.0, p)


def test_resonance_pair_takes_either_order():
    # no c_s < v1 < v2 rule: swapping the branches swaps every result
    p = paper()
    fwd = resonance_pair(2.0, 1.5, p)
    rev = resonance_pair(1.5, 2.0, p)
    assert (fwd.alpha1, fwd.alpha2) == (10, 20)
    assert (rev.alpha1, rev.alpha2) == (fwd.alpha2, fwd.alpha1)
    assert (rev.detuning1, rev.detuning2) == (fwd.detuning2, fwd.detuning1)
    for a, b in (("v1_omega_d2_at_alpha1", "v2_omega_d1_at_alpha2"),
                 ("v1_omega_d2_at_alpha2", "v2_omega_d1_at_alpha1")):
        assert rev.cross_detunings[a] == fwd.cross_detunings[b]
        assert rev.cross_detunings[b] == fwd.cross_detunings[a]
    assert rev.cross_nearest["v1_omega_d2"] == fwd.cross_nearest["v2_omega_d1"]
    assert rev.cross_nearest["v2_omega_d1"] == fwd.cross_nearest["v1_omega_d2"]
    assert rev.guard_band == fwd.guard_band
    assert rev.selectivity_violated == fwd.selectivity_violated


@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
def test_non_finite_velocity_rejected(v):
    p = paper()
    om = 10.0 * math.pi
    for call in (lambda: resonance_mode(v, om, p),
                 lambda: resonance_pair(v, 2.0, p),
                 lambda: resonance_pair(2.0, v, p)):
        with pytest.raises(ValidationError, match="v must be a finite number"):
            call()


@settings(max_examples=30, deadline=None)
@given(v=st.floats(1.05, 5.0), k=st.integers(5, 40))
def test_resonance_alpha_linear_consistency(v, k):
    p = paper()
    omega_d = k * math.pi * (v - 1.0)
    r = resonance_mode(v, omega_d, p)
    assert abs(r.alpha_linear - k) < 0.51
    assert r.alpha0 == int(round(r.alpha_linear))
