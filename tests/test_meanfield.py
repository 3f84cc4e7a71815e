import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ginzburg import (Y_MAX, ToleranceError, ValidationError,
                      build_params, mode_frequencies)
from ginzburg import meanfield
from ginzburg.meanfield import (Trajectory, _modesum_once, meanfield_closed,
                                meanfield_modesum, meanfield_series, profile)

from oracles import dense_series, modesum_dense_reference


@pytest.fixture(scope="module")
def p2001():
    return build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                         "detector": {"w": 0.01}})


def fig2a(v=0.5):
    return Trajectory(x0=0.0, v=v)


_GRID_801 = np.linspace(-0.5, 0.5, 801)
_GRID_4001 = np.linspace(-0.5, 0.5, 4001)


# -- trajectory and validation ------------------------------------------------

def test_trajectory_position():
    traj = Trajectory(x0=0.1, v=-0.4)
    assert traj.position(0.5) == pytest.approx(-0.1)


def test_trajectory_outside_chain_rejected(p2001):
    with pytest.raises(ValidationError):
        Trajectory(x0=0.6, v=0.5).validate(p2001)


@pytest.mark.parametrize("x0, v", [(math.nan, 0.5), (0.0, math.inf),
                                   (-math.inf, 0.5), (0.0, math.nan)])
def test_trajectory_rejects_non_finite(x0, v):
    with pytest.raises(ValidationError):
        Trajectory(x0=x0, v=v)


@pytest.mark.parametrize("route", [meanfield_closed, meanfield_series,
                                   meanfield_modesum])
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_routes_reject_bad_time(route, t, p2001):
    with pytest.raises(ValidationError):
        route(np.array([0.0]), t, fig2a(), p2001)


@pytest.mark.parametrize("route", ["closed", "series", "modesum"])
def test_routes_reject_grid_off_chain(route, p2001):
    off = np.array([0.0, 0.5 + 1e-9])
    with pytest.raises(ValidationError, match="outside the chain"):
        profile(route, off, 0.1, fig2a(), p2001)
    if route != "closed":
        fn = meanfield_series if route == "series" else meanfield_modesum
        with pytest.raises(ValidationError, match="outside the chain"):
            fn(off[::-1], 0.1, fig2a(), p2001)


@pytest.mark.parametrize("alpha_max", [0, 2000 + 1, 7.0])
def test_series_and_modesum_reject_alpha_max(alpha_max, p2001):
    for fn in (meanfield_series, meanfield_modesum):
        with pytest.raises(ValidationError, match="alpha_max"):
            fn(np.array([0.0]), 0.1, fig2a(), p2001, alpha_max=alpha_max)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-4, math.nan, math.inf])
def test_modesum_rejects_bad_rel_tol(rel_tol, p2001):
    with pytest.raises(ValidationError):
        meanfield_modesum(np.array([0.0]), 0.1, fig2a(), p2001, rel_tol=rel_tol)


@pytest.mark.parametrize("v, t", [(0.5, 4.4), (2.5, 1.9), (0.5, 1e3), (0.5, 1e6)])
def test_modesum_refuses_first_pass_over_budget(v, t, p2001):
    # just past the (time nodes x modes) budget at Fig. 2 defaults, and far past
    with pytest.raises(ValidationError, match="budget"):
        meanfield_modesum(np.array([0.0]), t, fig2a(v), p2001)


def test_pole_at_sound_speed(p2001):
    x = np.array([0.0])
    for v in (1.0, -1.0):
        with pytest.raises(ValidationError, match="is a pole of the closed/series"):
            meanfield_closed(x, 0.1, Trajectory(0.0, v), p2001)
        with pytest.raises(ValidationError, match="is a pole of the closed/series"):
            meanfield_series(x, 0.1, Trajectory(0.0, v), p2001)


def test_profile_grid_validation(p2001):
    traj = fig2a()
    with pytest.raises(ValidationError):
        profile("closed", np.linspace(-0.6, 0.6, 11), 0.1, traj, p2001)
    with pytest.raises(ValidationError):
        profile("closed", np.array([0.2, 0.1]), 0.1, traj, p2001)
    with pytest.raises(ValidationError):
        profile("nosuch", np.linspace(-0.4, 0.4, 11), 0.1, traj, p2001)


# -- switch-on ----------------------------------------------------------------

@pytest.mark.parametrize("route", ["closed", "series", "modesum"])
def test_all_routes_vanish_at_t0(route, p2001):
    grid = np.linspace(-0.45, 0.45, 21)
    prof = profile(route, grid, 0.0, fig2a(), p2001)
    peak_scale = p2001.g * p2001.detector.a_d / (
        p2001.chain.rho_c * p2001.detector.w ** 3)
    assert np.max(np.abs(prof.values)) <= 1e-12 * peak_scale


# -- closed form --------------------------------------------------------------

def test_closed_peak_subsonic(p2001):
    traj = fig2a(0.5)
    t = 0.25
    peak = float(meanfield_closed(np.array([traj.position(t)]), t, traj, p2001)[0])
    assert peak == pytest.approx(1e6 / 0.75, rel=1e-3)
    assert peak > 0


def test_closed_peak_supersonic_negative(p2001):
    traj = fig2a(2.5)
    t = 0.1
    peak = float(meanfield_closed(np.array([traj.position(t)]), t, traj, p2001)[0])
    assert peak == pytest.approx(-1e6 / 5.25, rel=1e-3)
    assert peak < 0


def test_closed_components_sum_to_total(p2001):
    x = np.linspace(-0.45, 0.45, 301)
    total, parts = meanfield_closed(x, 0.2, fig2a(), p2001, components=True)
    np.testing.assert_allclose(parts["comoving"] + parts["ripple_right"]
                               + parts["ripple_left"], total, rtol=0, atol=1e-9)


def test_closed_image_term_is_small_inside_regime(p2001):
    x = np.linspace(-0.45, 0.45, 301)
    base = meanfield_closed(x, 0.2, fig2a(), p2001)
    with_image = meanfield_closed(x, 0.2, fig2a(), p2001, include_image=True)
    assert np.max(np.abs(with_image - base)) <= 1e-4 * np.max(np.abs(base))


def test_packet_kinematics(p2001):
    # co-moving argmax tracks x0 + v t, ripples track x0 +- c_s t
    grid = np.linspace(-0.5, 0.5, 2001)
    cell = grid[1] - grid[0]
    traj = fig2a(0.5)
    for t in (0.05, 0.1, 0.15, 0.2, 0.25):
        _, parts = meanfield_closed(grid, t, traj, p2001, components=True)
        assert abs(grid[np.argmax(np.abs(parts["comoving"]))]
                   - traj.position(t)) <= cell
        assert abs(grid[np.argmax(np.abs(parts["ripple_right"]))] - t) <= cell
        assert abs(grid[np.argmax(np.abs(parts["ripple_left"]))] + t) <= cell


_P = build_params({"units": {"preset": "paper"}, "chain": {"N": 2001},
                   "detector": {"w": 0.01}})


@settings(max_examples=25, deadline=None)
@given(v=st.floats(0.1, 3.0).filter(lambda u: abs(u - 1.0) > 0.05),
       t=st.floats(0.02, 0.15))
def test_sign_at_detector_follows_supersonic_flip(v, t):
    traj = Trajectory(0.0, v)
    val = float(meanfield_closed(np.array([traj.position(t)]), t, traj, _P)[0])
    # packets overlap when |v - c_s| t < ~w; skip the mixed region
    if min(abs(v - 1.0), abs(v + 1.0)) * t > 5 * _P.detector.w:
        assert math.copysign(1.0, val) == math.copysign(1.0, 1.0 - v * v)


# -- series route -------------------------------------------------------------

def test_series_matches_closed_fig2a(p2001):
    grid = np.linspace(-0.45, 0.45, 200)
    traj = fig2a(0.5)
    phi_c = meanfield_closed(grid, 0.25, traj, p2001)
    phi_s = meanfield_series(grid, 0.25, traj, p2001)
    peak = np.max(np.abs(phi_c))
    assert np.max(np.abs(phi_s - phi_c)) <= 2e-3 * peak


def test_series_supersonic_comoving_coefficient_negative(p2001):
    grid = np.linspace(-0.45, 0.45, 200)
    traj = fig2a(2.5)
    phi_s = meanfield_series(grid, 0.1, traj, p2001)
    i = np.argmin(np.abs(grid - traj.position(0.1)))
    assert phi_s[i] < 0


def test_series_components(p2001):
    grid = np.linspace(-0.3, 0.3, 41)
    total, parts = meanfield_series(grid, 0.1, fig2a(), p2001, components=True)
    np.testing.assert_allclose(parts["comoving"] + parts["ripple_right"]
                               + parts["ripple_left"], total,
                               rtol=0, atol=1e-9 * np.max(np.abs(total)))


@pytest.mark.parametrize("v, t, x0", [(0.5, 0.25, 0.013), (2.5, 0.1, -0.02)])
def test_blocked_series_matches_dense_oracle(v, t, x0, p2001):
    chain, det = p2001.chain, p2001.detector
    grid = np.linspace(-chain.L / 2, chain.L / 2, 4001)
    phi = meanfield_series(grid, t, Trajectory(x0, v), p2001)
    ref = dense_series(grid, t, x0, v, chain.N, chain.m_c, chain.k_c, chain.a_c,
                       p2001.g, det.a_d, det.w)
    assert np.max(np.abs(phi - ref)) <= 1e-13 * np.max(np.abs(ref))


# -- blocked trig sums --------------------------------------------------------

# 300 columns give blocks of _BLOCK_ELEMENTS // 300 = 218 rows: 1000 rows are
# four full blocks and a partial one, 150 rows less than one block; a grid
# jittered by 1e-6 is not uniform and takes the direct path
_TRIG_COLS = np.linspace(0.5, 30.0, 300)
_JITTERED = (np.linspace(0.0, 2.0, 1000)
             + 1e-6 * np.random.default_rng(5).uniform(-1, 1, 1000))


@pytest.mark.parametrize("fn", [np.cos, np.sin])
@pytest.mark.parametrize("rows, uniform", [
    (np.linspace(0.0, 2.0, 1000), True),
    (np.linspace(0.0, 2.0, 150), True),
    (_JITTERED, False),
], ids=["blocks", "one_block", "jittered"])
@pytest.mark.parametrize("weight_shape", [(300,), (300, 3)])
def test_trig_dot_matches_direct_product(fn, rows, uniform, weight_shape):
    assert meanfield._uniform(rows) is uniform
    weights = np.random.default_rng(rows.size).standard_normal(weight_shape)
    got = meanfield._trig_dot(fn, rows, _TRIG_COLS, weights)
    ref = fn(np.multiply.outer(rows, _TRIG_COLS)) @ weights
    assert got.shape == ref.shape
    assert np.all(np.max(np.abs(got - ref), axis=0)
                  <= 1e-14 * np.max(np.abs(ref), axis=0))


# -- mode-sum route -----------------------------------------------------------

def test_modesum_matches_closed(p2001):
    # chain-domain quadrature vs the closed form, 50 points
    grid = np.linspace(-0.45, 0.45, 50)
    traj = fig2a(0.5)
    phi_c = meanfield_closed(grid, 0.25, traj, p2001)
    phi_m, _ = meanfield_modesum(grid, 0.25, traj, p2001)
    peak = np.max(np.abs(phi_c))
    assert np.max(np.abs(phi_m - phi_c)) <= 0.02 * peak


def test_modesum_longwave_extended_matches_series(p2001, monkeypatch):
    # on the extended domain with longwave mode shapes the quadrature and
    # the analytic time integral compute the same sum, so agreement is
    # limited only by quadrature tolerance
    monkeypatch.setattr(meanfield, "_MAX_DOUBLINGS", 6)
    grid = np.linspace(-0.35, 0.35, 7)
    traj = fig2a(0.5)
    alpha_max = 120
    phi_s = meanfield_series(grid, 0.2, traj, p2001, alpha_max=alpha_max)
    phi_m, _ = meanfield_modesum(grid, 0.2, traj, p2001, alpha_max=alpha_max,
                                 longwave=True, extended_domain=True,
                                 rel_tol=1e-8)
    assert np.max(np.abs(phi_m - phi_s)) <= 1e-6 * np.max(np.abs(phi_s))


def test_modesum_quadrature_report(p2001):
    grid = np.linspace(-0.2, 0.2, 5)
    phi, report = meanfield_modesum(grid, 0.1, fig2a(), p2001)
    assert report.converged
    assert report.error_estimate <= report.tolerance
    assert report.doublings >= 1


def _mode_table(p, alpha_max=None, longwave=False):
    """(k, Omega) of modes 1..alpha_max, by default the retained set."""
    chain = p.chain
    if alpha_max is None:
        y = mode_frequencies(chain) * p.detector.w / chain.c_s
        alpha_max = np.count_nonzero(y <= Y_MAX)
    alphas = np.arange(1, alpha_max + 1)
    omega = mode_frequencies(chain, alphas)
    return (omega / chain.c_s if longwave else alphas * math.pi / chain.L), omega


# a fine fixed resolution at the two Fig. 2 runs (panels of 0.4 w in space,
# 3 panels per fastest phase cycle), and the panel area of one doubling of it
# at (0.5, 0.25): the coarse start must reach the same profile for far less
_FINE_FIRST_PASS = {(0.5, 0.25): (482, 180), (2.5, 0.1): (482, 169)}
_FINE_FINAL_AREA = 964 * 360


@pytest.mark.parametrize("v, t", sorted(_FINE_FIRST_PASS))
def test_modesum_coarse_start_matches_fine_pass(v, t, p2001):
    k, omega = _mode_table(p2001)
    grid = np.linspace(-0.5, 0.5, 801)
    traj = Trajectory(0.0, v)
    ref = _modesum_once(grid, t, traj, p2001, k, omega, *_FINE_FIRST_PASS[v, t],
                        extended_domain=False)
    phi, report = meanfield_modesum(grid, t, traj, p2001)
    assert np.max(np.abs(phi - ref)) <= 1e-9 * np.max(np.abs(ref))
    if (v, t) == (0.5, 0.25):
        assert report.panels_x * report.panels_t <= _FINE_FINAL_AREA / 4


@pytest.mark.parametrize("v, t, counts", [(0.5, 0.25, (242, 90, 1)),
                                          (2.5, 0.1, (242, 86, 1))])
def test_modesum_fig2_panel_counts(v, t, counts, p2001):
    # both Fig. 2 runs converge after one doubling of the same first pass
    _, report = meanfield_modesum(_GRID_801, t, fig2a(v), p2001)
    assert (report.panels_x, report.panels_t, report.doublings) == counts


# (v, t, x0, (panels_x, panels_t), alpha_max, longwave, extended_domain): the
# first and the doubled pass of both Fig. 2 runs, longwave mode shapes, the
# extended domain, and 600 modes.  Each axis ends in a partial block in the
# doubled passes (blocks of 12 panels at 321 modes) and at 600 modes (blocks
# of 16 panels, 225 and 17 panels)
@pytest.mark.parametrize("v, t, x0, panels, alpha_max, longwave, extended", [
    (0.5, 0.25, 0.0, (121, 45), None, False, False),
    (0.5, 0.25, 0.0, (242, 90), None, False, False),
    (2.5, 0.1, 0.0, (121, 43), None, False, False),
    (2.5, 0.1, 0.0, (242, 86), None, False, False),
    (0.5, 0.25, 0.0, (121, 45), None, True, False),
    (0.5, 0.05, 0.013, (320, 34), 40, False, True),
    (0.5, 0.05, -0.02, (225, 17), 600, False, False),
], ids=["fig2a_first", "fig2a_doubled", "fig2b_first", "fig2b_doubled",
        "longwave", "extended", "600_modes"])
def test_modesum_pass_matches_dense_oracle(v, t, x0, panels, alpha_max, longwave,
                                           extended, p2001):
    chain, det = p2001.chain, p2001.detector
    k, omega = _mode_table(p2001, alpha_max, longwave)
    phi = _modesum_once(_GRID_801, t, Trajectory(x0, v), p2001, k, omega, *panels,
                        extended_domain=extended)
    halfwidth = meanfield._EXTENDED_HALFWIDTH_W * det.w if extended else None
    ref = modesum_dense_reference(_GRID_801, t, x0, v, k, omega, *panels, chain.L,
                                  p2001.g, det.a_d, chain.rho_c, det.w,
                                  extended_halfwidth=halfwidth)
    assert np.max(np.abs(phi - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_modesum_tight_tolerance_converges_in_default_budget(p2001):
    grid = np.linspace(-0.45, 0.45, 50)
    phi, report = meanfield_modesum(grid, 0.25, fig2a(), p2001, rel_tol=1e-10)
    assert report.converged
    assert report.error_estimate <= 1e-10


def test_modesum_tolerance_budget_exhaustion(p2001, monkeypatch):
    monkeypatch.setattr(meanfield, "_MAX_DOUBLINGS", 1)
    grid = np.linspace(-0.2, 0.2, 3)
    with pytest.raises(ToleranceError,
                       match=r"rel_tol=1\.00e-14 after 1 doublings") as e:
        meanfield_modesum(grid, 0.1, fig2a(), p2001, rel_tol=1e-14)
    achieved = float(re.search(r"\(achieved (\S+)\)", str(e.value)).group(1))
    assert achieved > 1e-14


# -- profile / constraint -----------------------------------------------------

def test_profile_metadata_and_constraint(p2001):
    grid = np.linspace(-0.5, 0.5, 10001)   # 10 points per packet width
    for v, t in ((0.5, 0.05), (0.5, 0.1), (2.5, 0.05)):
        prof = profile("closed", grid, t, Trajectory(0.0, v), p2001)
        assert prof.values.shape == grid.shape
        assert "quadrature" not in prof.meta
        l1 = np.trapezoid(np.abs(prof.values), grid)
        assert abs(prof.constraint_integral) <= 1e-4 * l1


def test_profile_modesum_attaches_quadrature_report(p2001):
    grid = np.linspace(-0.2, 0.2, 5)
    prof = profile("modesum", grid, 0.1, fig2a(), p2001)
    assert prof.meta["quadrature"].converged


# a value of the right type for each route option
_OPTION_VALUES = {"include_image": True, "alpha_max": 7, "longwave": True,
                  "extended_domain": True, "rel_tol": 1e-3}
_READS = {"closed": {"include_image"}, "series": {"alpha_max"},
          "modesum": {"alpha_max", "longwave", "extended_domain", "rel_tol"}}


@pytest.mark.parametrize("route, option", [
    (route, option) for route in sorted(_READS)
    for option in sorted(set(_OPTION_VALUES) - _READS[route])])
def test_profile_refuses_option_the_route_does_not_read(route, option, p2001):
    grid = np.linspace(-0.2, 0.2, 5)
    with pytest.raises(ValidationError, match=f"{route} route does not read {option}"):
        profile(route, grid, 0.1, fig2a(), p2001, **{option: _OPTION_VALUES[option]})


@pytest.mark.parametrize("route", sorted(_READS))
def test_profile_passes_the_options_the_route_reads(route, p2001):
    grid = np.linspace(-0.2, 0.2, 5)
    options = {o: _OPTION_VALUES[o] for o in _READS[route]}
    prof = profile(route, grid, 0.1, fig2a(), p2001, **options)
    if route == "modesum":
        assert prof.meta["quadrature"].tolerance == options["rel_tol"]
    assert np.all(np.isfinite(prof.values))


# -- memory -----------------------------------------------------------------------

# a modesum pass holds its block arrays, seven of (rows x modes) float64 (the
# cos and sin offset tables of both axes, U, the product and the accumulator)
# and kernel_h_deriv's three of (rows x rows): within 4 _BLOCK_ELEMENTS up to
# 348 modes, and in blocks of 16 panels (128 rows) past them.  extra_mb
# leaves room for the start rows, one row of modes per block (0.6 MB at
# t = 4 and 0.75 MB at 1000 modes), the node arrays, the grid and the
# output projection, which runs after the pass's arrays are released
def _modesum_bound(n_modes, extra_mb=0.5):
    if n_modes <= 348:
        elements = 4 * meanfield._BLOCK_ELEMENTS
    else:
        elements = 128 * (7 * n_modes + 3 * 128)
    return 8 * elements + extra_mb * 1e6


# (run, bound in bytes); measured peaks on numpy 2.4: modesum_fig2 2.3 MB and
# modesum_extended 2.45 MB (bound 2.6 MB), modesum_t4 3.0 MB (bound 3.35 MB),
# and modesum_1000_modes 8.0 MB (bound 8.8 MB; 49.7 MB when the route held a
# whole (space nodes x modes) matrix)
@pytest.mark.parametrize("run, bound", [
    (lambda p: meanfield_series(_GRID_4001, 0.25, fig2a(0.5), p), 16e6),
    (lambda p: meanfield_modesum(_GRID_801, 0.25, fig2a(0.5), p),
     _modesum_bound(321)),
    (lambda p: meanfield_modesum(_GRID_801, 4.0, fig2a(0.5), p),
     _modesum_bound(321, extra_mb=1.25)),
    (lambda p: meanfield_modesum(_GRID_801, 0.25, fig2a(0.5), p, longwave=True,
                                 extended_domain=True), _modesum_bound(321)),
    (lambda p: meanfield_modesum(_GRID_801, 0.01, fig2a(0.5), p, alpha_max=1000),
     _modesum_bound(1000, extra_mb=1.25)),
], ids=["series_grid4001", "modesum_fig2", "modesum_t4", "modesum_extended",
        "modesum_1000_modes"])
def test_blocked_routes_bound_peak_allocation(run, bound, p2001):
    # the routes hold blocks, not (nodes x modes) matrices; numpy loads
    # numpy.polynomial, 0.7 MB of module objects, on first use, so the
    # quadrature rule is built once outside the count
    meanfield._panels(0.0, 1.0, 1)
    tracemalloc.start()
    try:
        run(p2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
