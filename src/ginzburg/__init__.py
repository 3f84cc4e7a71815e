"""Sound-speed analogue of Ginzburg radiation in a detector-dipole-chain system.

A detector dragged above a dipole chain faster than the chain's sound speed
excites phonon/detector pairs out of the vacuum.  This package computes the
classical mean-field chain response (three independent routes plus a
discrete brute-force oracle) and the quantized detector/phonon dynamics for
localized and superposed trajectories.
"""

import os as _os

# honor GINZBURG_NUM_THREADS before numpy first loads its BLAS backend
_threads = _os.environ.get("GINZBURG_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        _os.environ.setdefault(_var, _threads)
del _os, _threads

__version__ = "0.1.0"

from .errors import GinzburgError, GuardError, ToleranceError, ValidationError
from .params import (ChainParams, CouplingParams, DetectorParams, RegimeCheck,
                     RegimeReport, SystemParams, build_params, load_params,
                     regime_check)
from .specfun import bessel_k1, cutoff_f, kernel_h, kernel_h_deriv
from .modes import (Y_MAX, ModeCoupling, ModeSpectrum, Resonance,
                    ResonancePair, coupling_strengths, mode_coupling,
                    mode_frequencies, mode_frequency, mode_function,
                    mode_spectrum, resonance_mode, resonance_pair)
from .meanfield import (FieldProfile, QuadReport, Trajectory, meanfield_closed,
                        meanfield_modesum, meanfield_series, profile)
from .discrete_oracle import (ChainState, ChainTrajectory, force_field,
                              initial_state, integrate, site_positions,
                              total_energy)
from .quantum import (DensityMatrix, FockSpace, QuantumState, build_ndpa,
                      evolve_exact, evolve_full, evolve_perturbative,
                      trace_distance)
from .superpose import (Branch, BranchSpec, BranchedState,
                        branch_spec_from_resonance, density_matrix, discriminate,
                        evolve_superposed, mixed_density_matrix, reduce_chain,
                        reduce_detector)

__all__ = [
    "GinzburgError", "GuardError", "ToleranceError", "ValidationError",
    "ChainParams", "CouplingParams", "DetectorParams", "RegimeCheck",
    "RegimeReport", "SystemParams", "build_params", "load_params",
    "regime_check",
    "bessel_k1", "cutoff_f", "kernel_h", "kernel_h_deriv",
    "Y_MAX", "ModeCoupling", "ModeSpectrum", "Resonance",
    "ResonancePair", "coupling_strengths", "mode_coupling", "mode_frequencies",
    "mode_frequency", "mode_function", "mode_spectrum", "resonance_mode",
    "resonance_pair",
    "FieldProfile", "QuadReport", "Trajectory", "meanfield_closed",
    "meanfield_modesum", "meanfield_series", "profile",
    "ChainState", "ChainTrajectory", "force_field", "initial_state",
    "integrate", "site_positions", "total_energy",
    "DensityMatrix", "FockSpace", "QuantumState", "build_ndpa",
    "evolve_exact", "evolve_full", "evolve_perturbative", "trace_distance",
    "Branch", "BranchSpec", "BranchedState",
    "branch_spec_from_resonance", "density_matrix", "discriminate",
    "evolve_superposed", "mixed_density_matrix", "reduce_chain",
    "reduce_detector",
    "__version__",
]
