"""Quantized phonon-detector dynamics for a single localized trajectory.

Truncated Fock representation of a few retained chain modes tensored with a
detector of one or two qubits (one per internal frequency).  Three evolution
paths validate each other:

  evolve_exact          exp(-i H t / hbar) by dense eigendecomposition
  evolve_perturbative   first-order step (1 - i H t / hbar) psi0, unnormalized,
                        and the one weak-coupling guard
  evolve_full           fixed-step midpoint-exponential (Magnus-2) stepping
                        of the time-dependent pre-RWA Hamiltonian, unitary to
                        round-off: Taylor action with a norm-bounded degree
                        and sub-steps; the step resolves the fastest phase
                        by FULL_STEPS_PER_CYCLE steps a cycle

hbar is explicit on every evolution, an argument of evolve_exact and
evolve_perturbative and params.hbar in evolve_full; none assumes hbar = 1.

Every Hamiltonian comes from one sparse pair stencil.  Each pair term a b,
a b^dag and adjoint flips one detector qubit and moves one mode by one
quantum, so it is a weighted partial permutation of the basis: per basis row
and slot, a column, a coefficient index and a sqrt(n) weight, built from the
space's dims.  evolve_full applies H(t) to the amplitude vector on the
rows of the parity sector its start state occupies, into the rows of one
preallocated Taylor power buffer: a sector of at most 128 rows by one
np.dot with the stencil scattered into a dense sector matrix, a larger one
by a gather and an in-order sum over slots, O(dim * modes) memory and work;
build_ndpa and interaction_hamiltonian_full scatter the same stencil into a
dense matrix.
Every operator allocation, the amplitude vector and evolve_exact's dense
temporaries are checked against OPERATOR_BYTES first.

The rotating-wave Hamiltonian for the resonant mode is the non-degenerate
parametric amplifier H = (g_alpha/2)(a b + a^dag b^dag), which creates
phonon/detector excitations in pairs out of the vacuum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GuardError, ValidationError
from .modes import ModeCoupling
from .params import SystemParams, _check_time, _require_positive

DEFAULT_PERTURBATIVE_GUARD = 0.3
# fixed-step integrator resolves the fastest phase by this many steps/cycle
FULL_STEPS_PER_CYCLE = 50.0
# bytes one operator build may hold, checked before it allocates
OPERATOR_BYTES = 2 ** 28
# density-matrix checks: Hermitian to this fraction of the largest entry,
# no eigenvalue below the floor, trace within the tolerance of 1
_HERM_TOL = 1e-12
_EIG_FLOOR = -1e-10
_TRACE_TOL = 1e-12


def _check_budget(dim: int, n_bytes: int):
    if n_bytes > OPERATOR_BYTES:
        raise ValidationError(
            f"Fock space of dim {dim} needs {n_bytes / 2 ** 20:.0f} MiB, "
            f"over the {OPERATOR_BYTES >> 20} MiB budget")


@dataclass(frozen=True)
class FockSpace:
    """Detector qubits (slowest index) tensored with truncated mode ladders.

    modes: ((alpha, n_max), ...) in tensor order; detector_qubits (1 or 2)
    is the number of internal frequencies, qubit 0 the slowest bit of the
    detector level.  Operators come from the pair stencil, not from this
    class; number_operator reads the occupations off the basis.
    """

    modes: tuple[tuple[int, int], ...]
    detector_qubits: int = 1

    def __post_init__(self):
        labels = [alpha for alpha, _ in self.modes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate mode labels: {labels}")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   and n >= 1 for _, n in self.modes):
            raise ValidationError("every mode needs an integer n_max >= 1")
        q = self.detector_qubits
        if not (isinstance(q, (int, np.integer)) and q in (1, 2)):
            raise ValidationError(f"detector_qubits must be 1 or 2, got {q!r}")

    @property
    def mode_labels(self) -> tuple[int, ...]:
        return tuple(alpha for alpha, _ in self.modes)

    @property
    def dims(self) -> tuple[int, ...]:
        return (2 ** self.detector_qubits,) + tuple(n_max + 1 for _, n_max in self.modes)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    def _mode_slot(self, alpha: int) -> int:
        try:
            return self.mode_labels.index(alpha) + 1
        except ValueError:
            raise ValidationError(
                f"mode {alpha} not in Fock space {self.mode_labels}") from None

    def number_operator(self, alpha: int) -> np.ndarray:
        """Diagonal a_alpha^dag a_alpha: the mode's occupation of each row."""
        slot = self._mode_slot(alpha)
        # the dense diagonal, the row index and one level per factor
        _check_budget(self.dim, 8 * self.dim * (self.dim + len(self.dims) + 2))
        return np.diag(np.unravel_index(np.arange(self.dim), self.dims)[slot]
                       .astype(float))

    def basis_index(self, detector_level: int, occupations: Sequence[int]) -> int:
        if len(occupations) != len(self.modes):
            raise ValidationError("occupation list does not match mode count")
        return int(np.ravel_multi_index((detector_level, *occupations), self.dims))

    def vacuum(self) -> "QuantumState":
        _check_budget(self.dim, 16 * self.dim)
        amp = np.zeros(self.dim, dtype=complex)
        amp[0] = 1.0
        return QuantumState(self, amp)


@dataclass
class QuantumState:
    """Amplitude vector over a FockSpace basis."""

    space: FockSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.dim,):
            raise ValidationError(
                f"amplitude vector must have length {self.space.dim}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "QuantumState":
        n = self.norm
        if n == 0.0:
            raise ValidationError("cannot normalize the zero vector")
        return QuantumState(self.space, self.amplitudes / n)

    def expectation(self, op: np.ndarray) -> float:
        return float(np.real(self.amplitudes.conj() @ (op @ self.amplitudes)))

    def excitation_probability(self) -> float:
        """Sum of |amplitude|^2 over the excited level of detector qubit 0,
        in O(dim) without the projector matrix: qubit 0 is the slowest bit,
        so its excited rows are the second half of the basis."""
        excited = self.amplitudes[self.space.dim // 2:]
        return float(np.vdot(excited, excited).real)


@dataclass
class DensityMatrix:
    """Density operator over named tensor factors."""

    matrix: np.ndarray
    dims: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        d = int(np.prod(self.dims))
        if self.matrix.shape != (d, d):
            raise ValidationError(f"matrix must be {d}x{d} for dims {self.dims}")
        if len(self.names) != len(self.dims):
            raise ValidationError("one name per tensor factor required")

    @property
    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))

    def validate(self):
        if not np.all(np.isfinite(self.matrix)):
            raise ValidationError("density matrix has a non-finite entry")
        scale = max(float(np.max(np.abs(self.matrix))), 1e-300)
        if float(np.max(np.abs(self.matrix - self.matrix.conj().T))) > _HERM_TOL * scale:
            raise ValidationError("density matrix not Hermitian")
        if float(np.min(np.linalg.eigvalsh(self.matrix))) < _EIG_FLOOR:
            raise ValidationError("density matrix has a negative eigenvalue")
        if abs(self.trace - 1.0) > _TRACE_TOL:
            raise ValidationError(f"trace = {self.trace} is not 1")

    def partial_trace(self, keep: Sequence[str]) -> "DensityMatrix":
        keep = list(keep)
        missing = [n for n in keep if n not in self.names]
        if missing:
            raise ValidationError(f"unknown factors {missing}; have {self.names}")
        keep_idx = [i for i, n in enumerate(self.names) if n in keep]
        n_fac = len(self.dims)
        rho = self.matrix.reshape(self.dims + self.dims)
        # row index i and column index n_fac + i per factor; traced factors
        # share one summation label
        row = list(range(n_fac))
        col = [n_fac + i if i in keep_idx else i for i in range(n_fac)]
        out = [i for i in keep_idx] + [n_fac + i for i in keep_idx]
        reduced = np.einsum(rho, row + col, out)
        new_dims = tuple(self.dims[i] for i in keep_idx)
        d = int(np.prod(new_dims))
        return DensityMatrix(reduced.reshape(d, d), new_dims,
                             tuple(self.names[i] for i in keep_idx))

    def population(self, multi_index: Sequence[int]) -> float:
        idx = int(np.ravel_multi_index(tuple(multi_index), self.dims))
        return float(np.real(self.matrix[idx, idx]))


def trace_distance(rho_a: DensityMatrix, rho_b: DensityMatrix) -> float:
    """Half the trace norm of the difference (singular values = |eigenvalues|
    for the Hermitian difference)."""
    if rho_a.dims != rho_b.dims:
        raise ValidationError(f"dimension mismatch: {rho_a.dims} vs {rho_b.dims}")
    diff = rho_a.matrix - rho_b.matrix
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T)))))


# -- Hamiltonians ---------------------------------------------------------------


def build_ndpa(coupling: ModeCoupling, space: FockSpace,
               qubit: int = 0) -> np.ndarray:
    """Resonant-mode parametric-amplifier Hamiltonian (g_alpha/2)(ab + h.c.),
    b lowering detector qubit `qubit`.

    <n+1, e| H |n, g> = (g_alpha/2) sqrt(n+1); Hermitian by construction.
    """
    k, n_modes = space._mode_slot(coupling.alpha) - 1, len(space.modes)
    # g/2 on a_alpha b and on its adjoint, every other pair term 0
    coef = np.zeros(4 * n_modes, dtype=complex)
    coef[[2 * k, 2 * n_modes + 2 * k]] = 0.5 * coupling.g_alpha
    return _scatter(space, coef, qubit)


def _check_hermitian(h: np.ndarray):
    if not np.all(np.isfinite(h)):
        raise ValidationError("Hamiltonian has a non-finite entry")
    scale = max(float(np.max(np.abs(h))), 1e-300)
    if float(np.max(np.abs(h - h.conj().T))) > 1e-10 * scale:
        raise ValidationError("Hamiltonian is not Hermitian")


# -- evolutions ------------------------------------------------------------------


def evolve_exact(h: np.ndarray, psi0: QuantumState, t: float,
                 hbar: float) -> QuantumState:
    """psi(t) = exp(-i H t / hbar) psi0 via dense eigendecomposition."""
    _check_time(t)
    _require_positive(hbar=hbar)
    # H with the dense copies made from it: the adjoint and difference of the
    # Hermiticity check, eigh's eigenvectors and workspace, and their
    # adjoint, about 80 B per entry of H at the peak
    _check_budget(len(h), 80 * h.size)
    _check_hermitian(h)
    evals, vecs = np.linalg.eigh(h)
    phases = np.exp(-1j * evals * t / hbar)
    amp = vecs @ (phases * (vecs.conj().T @ psi0.amplitudes))
    return QuantumState(psi0.space, amp)


def evolve_perturbative(h: np.ndarray, psi0: QuantumState, t: float,
                        hbar: float) -> QuantumState:
    """First-order state psi0 - i (t / hbar) H psi0, unnormalized.

    From the vacuum under build_ndpa this is |0,g> - i (g_alpha t / 2 hbar)
    |1,e>.  Guarded to 2 max|H_ij| t / hbar <= DEFAULT_PERTURBATIVE_GUARD,
    which is |g_alpha| t / hbar for build_ndpa at n_max 1; beyond that the
    third-order error is no longer negligible and evolve_exact should be
    used instead.
    """
    _check_time(t)
    _require_positive(hbar=hbar)
    if not np.all(np.isfinite(h)):
        raise ValidationError("Hamiltonian has a non-finite entry")
    gt = 2.0 * float(np.max(np.abs(h))) * t / hbar
    if gt > DEFAULT_PERTURBATIVE_GUARD:
        raise GuardError(
            f"2 max|H_ij| t / hbar = {gt:.3f} exceeds the perturbative guard "
            f"{DEFAULT_PERTURBATIVE_GUARD}; use evolve_exact")
    amp = psi0.amplitudes - 1j * (t / hbar) * (h @ psi0.amplitudes)
    return QuantumState(psi0.space, amp)


def _pair_coefficients(t, x_d, couplings: Sequence[ModeCoupling],
                       params: SystemParams, omega_d: float) -> np.ndarray:
    """Coefficients of the pair terms a_a b and a_a b^dag of every mode, in
    Fock-space mode order, at times t, detector at x_d:

        g_a cos[Omega_a (x_d + L/2) / c_s] e^{-i (Omega_a +/- omega_d) t}

    t and x_d broadcast; the result has shape t.shape + (2 n_modes,).
    """
    chain = params.chain
    g = np.array([c.g_alpha for c in couplings])
    omega = np.array([c.omega_alpha for c in couplings])
    t = np.asarray(t, dtype=float)[..., None]
    geom = g * np.cos(omega * (np.asarray(x_d, dtype=float)[..., None]
                               + chain.L / 2.0) / chain.c_s)
    coef = np.stack([geom * np.exp(-1j * (omega + omega_d) * t),
                     geom * np.exp(-1j * (omega - omega_d) * t)], axis=-1)
    return coef.reshape(coef.shape[:-2] + (-1,))


def _pair_stencil(space: FockSpace, qubit: int, row_bytes: int):
    """Sparse rows of K = sum_k c_k A_k and K^dag, where A_k runs over the
    pair terms a_a b, a_a b^dag of _pair_coefficients, then their adjoints,
    and b lowers detector qubit `qubit`.

    Each term flips the qubit and moves one mode by one quantum, so a basis
    row has two slots per mode: a_a (column with n_a + 1) and a_a^dag
    (column with n_a - 1), with the qubit flip set by the row's level.
    Returns (cols, cidx, weight), each (2 n_modes, dim), slot-major: the
    column, the index of the term in the 4 n_modes coefficients [c, adjoint
    coefficients], and the sqrt(n) ladder weight, 0 where the ladder ends.
    row_bytes is what the caller holds per basis row next to the stencil;
    both count against OPERATOR_BYTES before anything is allocated.
    """
    if not (isinstance(qubit, (int, np.integer)) and 0 <= qubit < space.detector_qubits):
        raise ValidationError(
            f"detector qubit {qubit} absent ({space.detector_qubits} present)")
    dims, dim, n_modes = space.dims, space.dim, len(space.modes)
    # row, flip, level and temporary indices, three entries per slot
    _check_budget(dim, dim * (8 * (len(dims) + 6) + 48 * n_modes + row_bytes))
    rows = np.arange(dim)
    levels = np.unravel_index(rows, dims)
    # qubit 0 is the slowest bit of the detector level
    excited = (levels[0] >> (space.detector_qubits - 1 - qubit)) & 1
    flipped = rows + (dim >> (qubit + 1)) * (1 - 2 * excited)
    cols = np.empty((2 * n_modes, dim), dtype=np.intp)
    cidx = np.empty_like(cols)
    weight = np.empty(cols.shape)
    for k, ((_, n_max), n) in enumerate(zip(space.modes, levels[1:])):
        stride = int(np.prod(dims[k + 2:]))
        # a_a b on a ground row, a_a b^dag on an excited one
        up = n < n_max
        cols[2 * k] = np.where(up, flipped + stride, rows)
        cidx[2 * k] = 2 * k + excited
        weight[2 * k] = np.sqrt(np.where(up, n + 1, 0))
        # (a_a b^dag)^dag on a ground row, (a_a b)^dag on an excited one
        cols[2 * k + 1] = np.where(n > 0, flipped - stride, rows)
        cidx[2 * k + 1] = 2 * n_modes + 2 * k + 1 - excited
        weight[2 * k + 1] = np.sqrt(n)
    return cols, cidx, weight


def _scatter(space: FockSpace, coef: np.ndarray, qubit: int) -> np.ndarray:
    """Dense H = K + K^dag from the 4 n_modes coefficients [c, adjoint
    coefficients] of the pair terms of detector qubit `qubit`."""
    dim = space.dim
    # one dense row, and the gathered coefficients and their products
    cols, cidx, weight = _pair_stencil(space, qubit,
                                       16 * (dim + 4 * len(space.modes)))
    h = np.zeros((dim, dim), dtype=complex)
    # the padded slots repeat the zero diagonal, so plain assignment is safe
    h[np.arange(dim), cols] = coef[cidx] * weight
    return h


def _check_couplings(couplings: Sequence[ModeCoupling], space: FockSpace):
    if not couplings:
        raise ValidationError("at least one mode coupling is required")
    if tuple(c.alpha for c in couplings) != space.mode_labels:
        raise ValidationError("couplings must match the Fock-space modes in order")


def interaction_hamiltonian_full(t: float, x_d: float,
                                 couplings: Sequence[ModeCoupling],
                                 space: FockSpace, params: SystemParams,
                                 omega_d: float) -> np.ndarray:
    """Pre-RWA interaction Hamiltonian at time t, detector at x_d:

        H(t) = sum_a g_a (a e^{-i Omega_a t} + h.c.)(b e^{-i omega_d t} + h.c.)
               * cos[Omega_a (x_d + L/2) / c_s]
             = K + K^dag,  K = sum_a c_a^+ a b + c_a^- a b^dag

    with c_a^+/- from _pair_coefficients and b lowering detector qubit 0.

    All retained modes enter; the co- and counter-rotating terms are kept so
    that stepping this operator validates the rotating-wave reduction.
    """
    _check_couplings(couplings, space)
    coef = _pair_coefficients(t, x_d, couplings, params, omega_d)
    return _scatter(space, np.concatenate([coef, coef.conj()]), 0)


# (theta/s)^m / m! <= 2^-53 bounds the truncated Taylor tail of each sub-step
_TAYLOR_TOL = 2.0 ** -53
# steps whose coefficients are built at once, so memory stays flat in t; a
# block's (steps x 4 modes) complex coefficients and their temporaries stay
# small: evolve_full at criterion 8, gt 0.2 (2100 steps), allocates at most
# 0.44 MB, against 1.09 MB with every step in one block
_STEP_BLOCK = 256
# bytes of stencil values, or of dense sector matrices, built for a run of
# steps at once; a sector whose one-step matrix fits is stepped densely
_GATHER_BYTES = 2 ** 18


def _norm_bound(couplings: Sequence[ModeCoupling], space: FockSpace, dt: float,
                hbar: float) -> float:
    """evolve_full's theta >= ||H(t)|| dt / hbar at every t (see its
    docstring)."""
    return 2.0 * dt / hbar * sum(abs(c.g_alpha) * math.sqrt(n_max)
                                 for c, (_, n_max) in zip(couplings, space.modes))


def evolve_full(psi0: QuantumState, t: float, traj, couplings: Sequence[ModeCoupling],
                space: FockSpace, params: SystemParams,
                omega_d: float | None = None) -> QuantumState:
    """Midpoint-exponential (Magnus-2) stepping of the time-dependent
    Hamiltonian from 0 to t; second-order accurate and unitary to round-off.
    omega_d, if given, must equal every coupling's omega_d, the detector
    frequency its g_alpha was computed for.

    The step count is the least that keeps dt <= 2 pi / (FULL_STEPS_PER_CYCLE
    omega_fast), omega_fast the largest retained Omega_alpha plus omega_d,
    and dt = t / steps.  FULL_STEPS_PER_CYCLE is read when the call runs.
    Each step applies exp(-i H(t_mid) dt / hbar) to the state as a truncated
    Taylor series. A bound theta >= ||H|| dt / hbar, valid for every step,
    sets s = ceil(theta) equal sub-steps and the least degree m with
    (theta / s)^m / m! <= 2^-53.  Each sub-step fills the rows G^j psi,
    j = 1..m, of one (m + 1) x rows buffer, allocated once per call, and sums
    them as (1/j!) @ buffer back into row 0.

    theta: H = K + K^dag with K = sum_a a_a (x) (c_a^+ b + c_a^- b^dag).  On
    qubit 0 the factor c^+ b + c^- b^dag is [[0, c^+], [c^-, 0]], of norm
    max(|c^+|, |c^-|) <= |g_alpha|, and ||a_alpha|| = sqrt(n_max_alpha), so
    ||H|| <= 2 ||K|| <= 2 sum_a |g_alpha| sqrt(n_max_alpha) and
    theta = 2 (dt / hbar) sum_a |g_alpha| sqrt(n_max_alpha).

    G^j psi takes one of two forms, by the size n of the stepped sector.
    When one step's dense n x n generator, 16 n^2 bytes, fits _GATHER_BYTES
    (n <= 128), the stencil entries of a run of steps are scattered into
    dense sector matrices, the pattern fixed for the call, and each power is
    one np.dot.  A larger sector multiplies the stencil values, kept
    slot-major, by the gather psi[cols] into one (2 modes, n) buffer and sums
    its slots in order with np.add.reduce: elementwise work whose result does
    not depend on memory alignment, O(n * modes) memory.

    Only the rows whose parity of (phonons + qubit-0 excitation) occurs in
    psi0's support are stepped: from the vacuum, 36 of the 72 rows of the
    criterion-8 space.  Every pair term moves one phonon and flips qubit 0,
    so H(t) never couples two parities and each other row keeps its exact
    0.  The stepped rows see the same stencil entries, so their amplitudes
    are those of stepping every row (bit for bit in the gathered form); a
    psi0 with both parities steps every row.
    """
    _check_time(t)
    _check_couplings(couplings, space)
    if omega_d is None:
        omega_d = couplings[0].omega_d
    _require_positive(omega_d=omega_d)
    for c in couplings:
        if c.omega_d != omega_d:
            raise ValidationError(f"omega_d = {omega_d!r} differs from the omega_d = "
                                  f"{c.omega_d!r} of the mode-{c.alpha} coupling")
    omega_fast = max(c.omega_alpha for c in couplings) + omega_d
    dt = 2.0 * math.pi / (FULL_STEPS_PER_CYCLE * omega_fast)
    n_steps = max(1, int(math.ceil(t / dt)))
    dt = t / n_steps
    theta = _norm_bound(couplings, space, dt, params.hbar)
    n_sub = max(1, math.ceil(theta))
    ratio, n_terms, tail = theta / n_sub, 0, 1.0
    while tail > _TAYLOR_TOL:
        n_terms += 1
        tail *= ratio / n_terms

    # per row: vals, the gather prev[cols] and their products (16 B per slot
    # each), the n_terms + 1 power rows, the sum's temporary and result; a
    # run of dense sector matrices holds at most _GATHER_BYTES in all
    cols, cidx, weight = _pair_stencil(
        space, 0, 96 * len(space.modes) + 16 * (n_terms + 3)
        + math.ceil(_GATHER_BYTES / space.dim))
    # the rows of the parities psi0 occupies, their columns renumbered
    # within that sector; the others stay 0 (see the docstring)
    levels = np.unravel_index(np.arange(space.dim), space.dims)
    parity = (sum(levels[1:]) + (levels[0] >> (space.detector_qubits - 1))) & 1
    keep = np.isin(parity, parity[psi0.amplitudes != 0])
    sector = np.cumsum(keep) - 1
    cols, cidx, weight = (x.compress(keep, 1) for x in (sector[cols], cidx, weight))
    n_rows = cols.shape[1]
    inv_factorials = np.array([1.0 / math.factorial(j)
                               for j in range(n_terms + 1)], dtype=complex)
    # row j holds G^j psi, G the sub-step generator; row 0 is the state
    powers = np.empty((n_terms + 1, n_rows), dtype=complex)
    powers[0] = psi0.amplitudes[keep]
    pairs = list(zip(powers, powers[1:]))
    dense = 16 * n_rows ** 2 <= _GATHER_BYTES
    if dense:
        run = _GATHER_BYTES // (16 * max(n_rows, 1) ** 2)
        # entries off the fixed pattern stay 0; the padded slots write 0 onto
        # the diagonal, where no pair term sits
        generators = np.zeros((run, n_rows, n_rows), dtype=complex)
        rows = np.arange(n_rows)
    else:
        run = max(1, _GATHER_BYTES // (16 * max(cidx.size, 1)))
        products = np.empty(cols.shape, dtype=complex)
    for start in range(0, n_steps, _STEP_BLOCK):
        t_mid = (np.arange(start, min(start + _STEP_BLOCK, n_steps)) + 0.5) * dt
        # sub-step generator is X - X^dag with X = -i (dt / hbar s) K(t_mid);
        # its stencil entries take the coefficients [c, adjoint coefficients]
        coef = (-1j * dt / (params.hbar * n_sub)) * _pair_coefficients(
            t_mid, traj.position(t_mid), couplings, params, omega_d)
        coef = np.concatenate([coef, -coef.conj()], axis=-1)
        for first in range(0, len(coef), run):
            vals = coef[first:first + run, cidx] * weight
            if dense:
                generators[:len(vals), rows, cols] = vals
                vals = generators[:len(vals)]
            for g in vals:
                for _ in range(n_sub):
                    if dense:
                        for prev, row in pairs:
                            np.dot(g, prev, out=row)
                    else:
                        for prev, row in pairs:
                            np.multiply(g, prev[cols], out=products)
                            np.add.reduce(products, axis=0, out=row)
                    # numpy buffers the sum, since its output row 0 is also read
                    np.dot(inv_factorials, powers, out=powers[0])
    amplitudes = np.zeros(space.dim, dtype=complex)
    amplitudes[keep] = powers[0]
    return QuantumState(space, amplitudes)
