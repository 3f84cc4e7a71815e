"""Independent brute-force oracles used by the tests.

Nothing here imports computational routines from ginzburg; each function is
a from-scratch implementation of the quantity it checks so the tests compare
two independent code paths.
"""

import numpy as np
import scipy.linalg
import scipy.special


def fd_kernel_deriv(order, x, x_d, w):
    """Central finite differences of the bare kernel [(x-x_d)^2+w^2]^(-3/2).

    Five-point stencils; step scaled to w, which is the kernel's only
    length scale near the peak.
    """
    h = 0.01 * w

    def f(u):
        return ((u - x_d) ** 2 + w * w) ** -1.5

    if order == 1:
        return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)
    if order == 2:
        return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
                + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)
    raise ValueError(order)


def spring_matrices(N, m_c, k_c):
    """Stiffness and mass matrices of the free-end chain, half end masses.

    Half end masses make the discrete spectrum match the continuum cosine
    modes exactly: omega_alpha = 2 sqrt(k/m) sin(alpha pi / (2(N-1))).
    """
    K = np.zeros((N, N))
    for n in range(N - 1):
        K[n, n] += k_c
        K[n + 1, n + 1] += k_c
        K[n, n + 1] -= k_c
        K[n + 1, n] -= k_c
    m = np.full(N, m_c)
    m[0] = m[-1] = 0.5 * m_c
    return K, np.diag(m)


def spectrum_eigensolve(N, m_c, k_c):
    """Sorted positive eigenfrequencies of the half-end-mass chain."""
    K, M = spring_matrices(N, m_c, k_c)
    vals = scipy.linalg.eigh(K, M, eigvals_only=True)
    vals = np.clip(vals, 0.0, None)
    freqs = np.sqrt(vals)
    return np.sort(freqs)[1:]  # drop the zero center-of-mass mode


def loop_partial_trace(mat, dims, keep):
    """Partial trace by explicit index loops (independent of the library)."""
    dims = tuple(dims)
    keep = tuple(keep)
    assert keep
    kept_dims = [dims[i] for i in keep]
    out = np.zeros((int(np.prod(kept_dims)),) * 2, dtype=complex)
    for row in np.ndindex(*dims):
        for col_kept in np.ndindex(*kept_dims):
            col = list(row)
            for pos, i in enumerate(keep):
                col[i] = col_kept[pos]
            r = int(np.ravel_multi_index([row[i] for i in keep], kept_dims))
            c = int(np.ravel_multi_index(col_kept, kept_dims))
            out[r, c] += mat[int(np.ravel_multi_index(row, dims)),
                             int(np.ravel_multi_index(col, dims))]
    return out


def squeezing_pair_populations(r, n_max):
    """|<n,n|exp(-i r (ab + a+b+))|0,0>|^2 for the two-mode squeezer.

    Closed form: P(n) = tanh(r)^(2n) / cosh(r)^2.
    """
    n = np.arange(n_max + 1)
    return np.tanh(r) ** (2 * n) / np.cosh(r) ** 2


def frequency_from_crossings(times, q):
    """Angular frequency from linearly interpolated zero crossings.

    Fits crossing index k against crossing time (each crossing advances the
    phase by pi), so the result is robust to a slow amplitude drift.
    """
    times = np.asarray(times, dtype=float)
    q = np.asarray(q, dtype=float)
    s = np.sign(q)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    if len(idx) < 4:
        raise ValueError("need at least 4 zero crossings")
    t_cross = times[idx] - q[idx] * (times[idx + 1] - times[idx]) / (q[idx + 1] - q[idx])
    k = np.arange(len(t_cross))
    slope = np.polyfit(t_cross, k, 1)[0]  # crossings per unit time = omega/pi
    return np.pi * slope


def fit_order(scales, errors):
    """Least-squares slope of log(error) against log(scale)."""
    return np.polyfit(np.log(np.asarray(scales, float)),
                      np.log(np.asarray(errors, float)), 1)[0]


def probability(state, level, occupations):
    """|amplitude|^2 of one basis state of a QuantumState: the detector level
    and the mode occupations in tensor order, detector slowest, row-major."""
    space = state.space
    dims = [2 ** space.detector_qubits] + [n_max + 1 for _, n_max in space.modes]
    index = 0
    for digit, size in zip((level, *occupations), dims, strict=True):
        assert 0 <= digit < size, (level, occupations, dims)
        index = index * size + digit
    return float(abs(state.amplitudes[index]) ** 2)


def _kron_ladders(n_maxes, detector_qubits=1, qubit=0):
    """Detector lowering b of qubit `qubit` (qubit 0 the slowest) and mode
    lowerings a_k on qubits x modes by np.kron."""
    dims = [2] * detector_qubits + [n + 1 for n in n_maxes]

    def embed(op, slot):
        out = np.eye(1)
        for i, d in enumerate(dims):
            out = np.kron(out, op if i == slot else np.eye(d))
        return out.astype(complex)

    b = embed(np.array([[0.0, 1.0], [0.0, 0.0]]), qubit)
    a = [embed(np.diag(np.sqrt(np.arange(1.0, n + 1)), 1), k + detector_qubits)
         for k, n in enumerate(n_maxes)]
    return b, a


def excited_projector(n_maxes, detector_qubits=1, qubit=0):
    """|e><e| of detector qubit `qubit` on qubits x modes, as b^dag b."""
    b, _ = _kron_ladders(n_maxes, detector_qubits, qubit)
    return b.conj().T @ b


def dense_full_hamiltonian(t, x_d, chain_modes, omega_d, L, c_s, ladders=None,
                           detector_qubits=1):
    """Pre-RWA H(t) = sum_k g_k (a_k e^{-i W_k t} + h.c.)(b e^{-i w_d t} + h.c.)
    cos[W_k (x_d + L/2) / c_s] from explicit kron ladders, b on the first of
    detector_qubits qubits.

    chain_modes: ((n_max, g, W), ...) in tensor order after the qubits.
    """
    b, a = ladders or _kron_ladders([n for n, _, _ in chain_modes],
                                    detector_qubits)
    b_t = b * np.exp(-1j * omega_d * t)
    b_full = b_t + b_t.conj().T
    h = np.zeros_like(b)
    for a_k, (_, g, omega) in zip(a, chain_modes):
        a_t = a_k * np.exp(-1j * omega * t)
        h += g * np.cos(omega * (x_d + L / 2.0) / c_s) * ((a_t + a_t.conj().T) @ b_full)
    return h


def magnus2_dense(psi0, t, dt, x0, v, chain_modes, omega_d, L, c_s, hbar):
    """Midpoint-exponential stepping of dense_full_hamiltonian from 0 to t.

    ceil(t / dt) equal steps, each exp(-i H(t_mid) dt / hbar) by a dense
    eigendecomposition; detector at x0 + v t.
    """
    ladders = _kron_ladders([n for n, _, _ in chain_modes])
    n_steps = max(1, int(np.ceil(t / dt)))
    dt = t / n_steps
    amp = np.array(psi0, dtype=complex)
    for k in range(n_steps):
        t_mid = (k + 0.5) * dt
        h = dense_full_hamiltonian(t_mid, x0 + v * t_mid, chain_modes, omega_d,
                                   L, c_s, ladders)
        evals, vecs = np.linalg.eigh(h)
        amp = vecs @ (np.exp(-1j * evals * dt / hbar) * (vecs.conj().T @ amp))
    return amp


def leapfrog_reference(phi, p, x_d, p_d, t0, a_c, m_c, k_c, M_d, big_g, w, dt,
                       steps, dynamic=False, store_every=1):
    """Kick-drift-kick stepping of the free-end chain plus detector, one step
    at a time with freshly built forces.

    Sites n a_c for n = -(N-1)/2 .. (N-1)/2, interaction G h''(n a_c - x_d)
    with h = [s^2 + w^2]^(-3/2).  Prescribed mode moves the detector as
    x_d(0) + (p_d/M_d) t; dynamic mode kicks and drifts it.  Returns
    (times, phi, p, x_d, p_d) at every store_every-th step and the last.
    """
    n_sites = phi.size
    x = (np.arange(n_sites) - (n_sites - 1) // 2) * a_c

    def curvature(xd):
        s = x - xd
        r2 = s * s + w * w
        return 3.0 * (4.0 * s * s - w * w) * r2 ** -3.5

    def third(xd):
        s = x - xd
        r2 = s * s + w * w
        return 15.0 * s * (3.0 * w * w - 4.0 * s * s) * r2 ** -4.5

    def chain_force(phi, xd):
        d = np.diff(phi)
        f = np.empty_like(phi)
        f[0] = k_c * d[0]
        f[1:-1] = k_c * (d[1:] - d[:-1])
        f[-1] = -k_c * d[-1]
        if big_g != 0.0:
            f -= big_g * curvature(xd)
        return f

    def detector_force(phi, xd):
        if not dynamic or big_g == 0.0:
            return 0.0
        return big_g * float(np.sum(-curvature(xd) + phi * third(xd)))

    phi, p = phi.copy(), p.copy()
    x_start, v_d = x_d, p_d / M_d
    rows = [(t0, phi.copy(), p.copy(), x_d, p_d)]
    f, f_d = chain_force(phi, x_d), detector_force(phi, x_d)
    for step in range(1, steps + 1):
        p += 0.5 * dt * f
        phi += dt * p / m_c
        if dynamic:
            p_d += 0.5 * dt * f_d
            x_d += dt * p_d / M_d
        else:
            x_d = x_start + v_d * (step * dt)
        f = chain_force(phi, x_d)
        p += 0.5 * dt * f
        if dynamic:
            f_d = detector_force(phi, x_d)
            p_d += 0.5 * dt * f_d
        if step % store_every == 0 or step == steps:
            rows.append((t0 + step * dt, phi.copy(), p.copy(), x_d, p_d))
    return tuple(np.array(col) for col in zip(*rows))


def dense_series(x, t, x0, v, N, m_c, k_c, a_c, g, a_d, w):
    """Mean-field mode series on a grid from one dense (grid x modes) matrix.

    phi(x) = sum_alpha A f(y) cos[k (x + L/2)] {cos[k(x0 + c t + L/2)] / (L c (c - v))
             - 2 cos[k(x0 + v t + L/2)] / (L (c^2 - v^2)) + cos[k(x0 - c t + L/2)]
             / (L c (c + v))}, A = -2 g a_d / (rho w^2), over all N - 1 modes,
    with Omega = 2 sqrt(k_c/m_c) sin(alpha pi / (2 (N - 1))), k = Omega / c,
    f(y) = y K1(y) at y = Omega w / c (scipy's K1).
    """
    L = (N - 1) * a_c
    rho = m_c / a_c
    c = a_c * np.sqrt(k_c / m_c)
    alpha = np.arange(1, N)
    omega = 2.0 * np.sqrt(k_c / m_c) * np.sin(alpha * np.pi / (2.0 * (N - 1)))
    k = omega / c
    y = omega * w / c
    f = y * scipy.special.k1(y)
    time_part = (np.cos(k * (x0 + c * t + L / 2)) / (L * c * (c - v))
                 - 2.0 * np.cos(k * (x0 + v * t + L / 2)) / (L * (c * c - v * v))
                 + np.cos(k * (x0 - c * t + L / 2)) / (L * c * (c + v)))
    u = np.cos(np.outer(np.asarray(x, dtype=float) + L / 2, k))
    return u @ (-2.0 * g * a_d / (rho * w * w) * f * time_part)


def modesum_dense_reference(x, t, x0, v, k, omega, panels_x, panels_t, L, g, a_d,
                            rho_c, w, extended_halfwidth=None):
    """One fixed-resolution pass of the mode-sum double quadrature, from whole
    matrices and a direct cos/sin at every node.

    phi(x) = -(g a_d / rho_c) sum_alpha u_alpha(x) / Omega_alpha
             * sum_t' w_t' sin[Omega_alpha (t - t')]
             * sum_x' w_x' u_alpha(x') h''(x' - x0 - v t'),

    u_alpha(x) = sqrt(2/L) cos[k_alpha (x + L/2)], h''(s) = 3 (4 s^2 - w^2)
    (s^2 + w^2)^(-7/2), on composite 8-node Gauss-Legendre rules with
    panels_t uniform panels on [0, t] and panels_x on [-L/2, L/2].  With
    extended_halfwidth R the space panels cover the offset s = x' - x_d(t')
    in [-R, R] instead, for every time node.
    """
    xg, wg = np.polynomial.legendre.leggauss(8)

    def rule(a, b, n):
        h = (b - a) / (2.0 * n)
        centers = a + h * (2.0 * np.arange(n) + 1.0)
        return np.add.outer(centers, h * xg).ravel(), np.tile(h * wg, n)

    def h2(s):
        return 3.0 * (4.0 * s**2 - w**2) * (s**2 + w**2) ** -3.5

    def u(xs):
        return np.sqrt(2.0 / L) * np.cos(np.outer(xs + L / 2.0, k))

    tq, wt = rule(0.0, t, panels_t)
    xd = x0 + v * tq
    if extended_halfwidth is None:
        xq, wx = rule(-L / 2.0, L / 2.0, panels_x)
        spatial = (h2(np.subtract.outer(xq, xd)) * wx[:, None]).T @ u(xq)
    else:
        sq, ws = rule(-extended_halfwidth, extended_halfwidth, panels_x)
        spatial = np.array([(h2(sq) * ws) @ u(xd_i + sq) for xd_i in xd])
    q = (wt[:, None] * np.sin(np.outer(t - tq, omega)) * spatial).sum(axis=0)
    return u(np.asarray(x, dtype=float)) @ (-(g * a_d / rho_c) * q / omega)
