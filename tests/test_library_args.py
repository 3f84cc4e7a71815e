"""Generated bad scalars for every public entry point that takes a scalar
number: each raises ValidationError, never a TypeError or a NaN result, and
numpy real scalars are accepted wherever a Python number is.

A case is one call with good keyword arguments and the name of one scalar
among them.  The bad value that replaces it is drawn from None, strings
(numeric ones too), nan, +-inf and complex numbers, Python and numpy; the
listed examples are always run.  An integer argument (a mode index, a step
count) also refuses any float.  Where a real number is taken, np.float64,
np.float32 and, for an integer-valued good value, np.int64 are accepted.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ginzburg import (Branch, BranchSpec, ChainParams, CouplingParams,
                      DetectorParams, FockSpace, Trajectory, ValidationError,
                      branch_spec_from_resonance, build_ndpa, build_params,
                      coupling_strengths, evolve_exact, evolve_full,
                      evolve_perturbative, evolve_superposed, force_field,
                      initial_state, integrate, kernel_h, kernel_h_deriv,
                      meanfield_closed, meanfield_modesum, meanfield_series,
                      mode_coupling, mode_frequency, mode_function, mode_spectrum,
                      profile, regime_check, resonance_mode, resonance_pair,
                      total_energy)

# an integer-valued detector frequency, so np.int64 can stand for it
OMEGA_D = 31.0
PRESET = {"units": {"preset": "paper"}, "chain": {"N": 101}}
P = build_params({**PRESET, "detector": {"w": 0.05, "omega_d": OMEGA_D}})
C10 = mode_coupling(10, P, OMEGA_D)
C5 = mode_coupling(5, P, OMEGA_D)
SPACE = FockSpace(modes=((10, 1),))
H = build_ndpa(C10, SPACE)
STATE = initial_state(P)
SPEC = branch_spec_from_resonance(P, 2.0, 3.0, 0.5, 0.0)
GRID = np.linspace(-0.5, 0.5, 5)


def _config(coupling=None, **detector):
    return build_params({**PRESET, "detector": {"w": 0.05, **detector},
                         "coupling": coupling or {}})


def _raw_dipoles(**raw):
    return _config(coupling={"p_d": 1.0, "p_c": 1.0, "epsilon0": 1.0, **raw})


def _regime_check(t_end, x0, v):
    return regime_check(P, t_end, [(x0, v)])


def _force_field(**fields):
    return force_field(dataclasses.replace(STATE, **fields), P)


def _total_energy(**fields):
    return total_energy(dataclasses.replace(STATE, **fields), P)


def _integrate_from(**fields):
    return integrate(dataclasses.replace(STATE, **fields), P, 1e-3, 2)


def _fock_space(n_max):
    return FockSpace(modes=((10, n_max),))


# (callable, good keyword arguments, the scalar names among them; a name
# ending in ? takes None for its default)
CALLS = [
    (ChainParams, dict(N=101, m_c=1.0, k_c=1.0, a_c=1.0), "N m_c k_c a_c"),
    (DetectorParams, dict(M_d=4.0, m_tilde_d=1.0, k_d=1.0, a_d=1.0,
                          omega_d=OMEGA_D, w=1.0), "M_d m_tilde_d k_d a_d omega_d w"),
    (CouplingParams, dict(g=1.0, hbar=1.0), "g hbar"),
    (_config, dict(w=1.0, omega_d=OMEGA_D, m_tilde_d=1.0, a_d=1.0),
     "w omega_d m_tilde_d a_d"),
    (_raw_dipoles, dict(p_d=1.0, p_c=1.0, epsilon0=1.0), "p_d p_c epsilon0"),
    (_regime_check, dict(t_end=0.0, x0=0.0, v=2.0), "t_end x0 v"),
    (kernel_h, dict(x=0.0, x_d=0.0, w=1.0), "w"),
    (kernel_h_deriv, dict(order=2, x=0.0, x_d=0.0, w=1.0), "w"),
    (mode_frequency, dict(alpha=10, chain=P.chain), "alpha"),
    (mode_function, dict(alpha=10, x=0.0, chain=P.chain), "alpha"),
    (mode_spectrum(P).upto, dict(alpha_max=10), "alpha_max"),
    (coupling_strengths, dict(params=P, omega_d=OMEGA_D), "omega_d"),
    (mode_coupling, dict(alpha=10, params=P, omega_d=OMEGA_D), "alpha omega_d"),
    (resonance_mode, dict(v=2.0, omega_d=OMEGA_D, params=P), "v omega_d"),
    (resonance_pair, dict(v1=2.0, v2=3.0, params=P), "v1 v2"),
    (Trajectory, dict(x0=0.0, v=2.0), "x0 v"),
    (meanfield_closed, dict(x=GRID, t=0.0, traj=Trajectory(0.0, 2.0), params=P), "t"),
    (meanfield_series, dict(x=GRID, t=0.0, traj=Trajectory(0.0, 2.0), params=P), "t"),
    (meanfield_modesum, dict(x=GRID, t=0.0, traj=Trajectory(0.0, 2.0), params=P,
                             rel_tol=1.0), "t rel_tol"),
    (profile, dict(route="closed", grid=GRID, t=0.0, traj=Trajectory(0.0, 2.0),
                   params=P), "t"),
    (initial_state, dict(params=P, x_d=0.0, v=2.0), "x_d v"),
    (_force_field, dict(x_d=0.0, p_d=0.0), "x_d p_d"),
    (_total_energy, dict(x_d=0.0, p_d=0.0), "x_d p_d"),
    (integrate, dict(state=STATE, params=P, dt=1e-3, steps=2, store_every=1),
     "dt steps store_every"),
    (_integrate_from, dict(t=0.0, x_d=0.0, p_d=0.0), "t x_d p_d"),
    (FockSpace, dict(modes=((10, 1),), detector_qubits=1), "detector_qubits"),
    (_fock_space, dict(n_max=1), "n_max"),
    (build_ndpa, dict(coupling=C10, space=SPACE, qubit=0), "qubit"),
    (evolve_exact, dict(h=H, psi0=SPACE.vacuum(), t=0.0, hbar=1.0), "t hbar"),
    (evolve_perturbative, dict(h=H, psi0=SPACE.vacuum(), t=0.0, hbar=1.0), "t hbar"),
    (evolve_full, dict(psi0=SPACE.vacuum(), t=0.0, traj=Trajectory(0.0, 2.0),
                       couplings=[C10], space=SPACE, params=P, omega_d=OMEGA_D),
     "t omega_d?"),
    (Branch, dict(x0=0.0, v=2.0, coupling=C10), "x0 v"),
    (BranchSpec, dict(branches=(Branch(0.0, 2.0, C10), Branch(0.0, 3.0, C5)),
                      theta=0.0, phi=0.0, hbar=1.0), "theta phi hbar"),
    (branch_spec_from_resonance, dict(params=P, v1=2.0, v2=3.0, theta=0.0, phi=0.0,
                                      x0_1=0.0, x0_2=0.0),
     "v1 v2 theta phi x0_1 x0_2"),
    (evolve_superposed, dict(spec=SPEC, t=0.0), "t"),
]
# case id -> (callable, good keyword arguments, scalar name, None allowed)
CASES = {f"{fn.__name__}-{name.rstrip('?')}":
         (fn, kwargs, name.rstrip("?"), name.endswith("?"))
         for fn, kwargs, names in CALLS for name in names.split()}
INTEGER = [i for i, (_, kwargs, name, _) in CASES.items() if isinstance(kwargs[name], int)]
REAL = [i for i in CASES if i not in INTEGER]

BAD = st.one_of(
    st.none(),
    st.text(max_size=4),
    st.floats().map(str),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, np.float64(math.nan),
                     np.float32(math.inf)]),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    st.complex_numbers(allow_nan=False, allow_infinity=False).map(np.complex128),
)


def _call(case, value):
    fn, kwargs, name, _ = CASES[case]
    return fn(**{**kwargs, name: value})


def _good(case):
    _, kwargs, name, _ = CASES[case]
    return kwargs[name]


def test_good_arguments_run():
    for case in CASES:
        _call(case, _good(case))


@pytest.mark.parametrize("case", CASES)
@given(bad=BAD)
@example(bad=None)
@example(bad="1.0")
@example(bad=math.nan)
@example(bad=math.inf)
@example(bad=-math.inf)
@example(bad=1j)
@example(bad=np.complex128(1))
@settings(max_examples=20, deadline=None, derandomize=True, database=None)
def test_bad_scalar_raises_validation_error(case, bad):
    assume(bad is not None or not CASES[case][3])
    with pytest.raises(ValidationError):
        _call(case, bad)


@pytest.mark.parametrize("case", INTEGER)
def test_integer_argument_refuses_floats(case):
    good = _good(case)
    for value in (float(good), np.float64(good), good + 0.5):
        with pytest.raises(ValidationError):
            _call(case, value)


@pytest.mark.parametrize("case", REAL)
def test_numpy_real_scalars_accepted(case):
    good = _good(case)
    for kind in (np.float64, np.float32) + ((np.int64,) if good == int(good) else ()):
        _call(case, kind(good))
