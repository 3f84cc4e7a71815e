"""Generate the polynomial coefficients of ginzburg.specfun's K1.

K1 is split at y = 2 as in Cephes:

    y <= 2:  K1(y) = ln(y/2) * y * R(t) + P(t) / y,   t = y^2/2 - 1
    y >  2:  K1(y) = exp(-y) * Q(s) / sqrt(y),        s = 4/y - 1

with R(t) = I1(y)/y, P(t) = y*K1(y) - y ln(y/2) I1(y) (both entire in y^2,
P = 1 at y = 0) and Q(s) = exp(y) sqrt(y) K1(y) (-> sqrt(pi/2) as y -> oo).
Each is expanded as sum_j c_j T_j on [-1, 1]: the coefficients come from a
discrete cosine transform of mpmath values at 40 digits on Chebyshev nodes,
and the series is cut once the remaining terms sum to less than 2^-60 of
|c_0|.  The truncated series is then rewritten exactly (at 40 digits) in
power form sum_k a_k x^k, which specfun evaluates by Horner's rule.  The
printed block is pasted into src/ginzburg/specfun.py:

    python3 scripts/gen_k1_coefficients.py

Before printing, the script checks each polynomial, with its coefficients
rounded to double, against mpmath on points off the fitting nodes, and
checks that sum_k |a_k| stays within 6x of the smallest |function value|
(so Horner's rule in double loses at most a few ulps), so a bad expansion
is never committed.
"""

import mpmath as mp

mp.mp.dps = 40

NODES = 120
CUT = mp.mpf(2) ** -60


def chebyshev_coefficients(func, n=NODES):
    """c_j with func(x) ~ sum_j c_j T_j(x) on [-1, 1] (c_0 already halved)."""
    theta = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    vals = [func(mp.cos(th)) for th in theta]
    coef = [2 * mp.fsum(v * mp.cos(j * th) for v, th in zip(vals, theta)) / n
            for j in range(n)]
    coef[0] /= 2
    return coef


def truncate(coef):
    """Drop the tail whose summed magnitude is below CUT of |c_0|."""
    scale = abs(coef[0])
    tail = mp.mpf(0)
    for m in range(len(coef) - 1, 0, -1):
        tail += abs(coef[m])
        if tail > CUT * scale:
            return coef[:m + 1]
    return coef[:1]


def power_form(cheb):
    """a_k with sum_j c_j T_j(x) = sum_k a_k x^k, via T_{j+1} = 2x T_j - T_{j-1}."""
    a = [mp.mpf(0)] * len(cheb)
    # T_{-1} = T_1 = x makes the recurrence give T_1 = 2x * 1 - x
    t_prev, t_cur = [mp.mpf(0), mp.mpf(1)], [mp.mpf(1)]
    for c in cheb:
        for k, v in enumerate(t_cur):
            a[k] += c * v
        t_next = [mp.mpf(0)] + [2 * v for v in t_cur]
        for k, v in enumerate(t_prev):
            t_next[k] -= v
        t_prev, t_cur = t_cur, t_next
    return a


def horner(coef, x):
    out = mp.mpf(0)
    for a in reversed(coef):
        out = out * x + a
    return out


def y_small(t):
    return mp.sqrt(2 * (t + 1))


def r_small(t):
    y = y_small(t)
    return mp.besseli(1, y) / y


def p_small(t):
    y = y_small(t)
    return y * mp.besselk(1, y) - y * mp.log(y / 2) * mp.besseli(1, y)


def q_large(s):
    y = 4 / (s + 1)
    return mp.exp(y) * mp.sqrt(y) * mp.besselk(1, y)


def check(coef, func, name):
    """Worst relative error of the double-rounded polynomial off the nodes."""
    coef = [mp.mpf(float(a)) for a in coef]
    worst = mp.mpf(0)
    smallest = mp.inf
    for i in range(200):
        x = -1 + mp.mpf(i) / 100 + mp.mpf(1) / 997
        ref = func(x)
        smallest = min(smallest, abs(ref))
        worst = max(worst, abs(horner(coef, x) - ref) / abs(ref))
    assert worst < mp.mpf("1e-16"), f"{name}: polynomial off by {worst}"
    size = mp.fsum(abs(a) for a in coef)
    assert size < 6 * smallest, f"{name}: sum |a_k| = {size} vs min |f| = {smallest}"
    return worst


def main():
    r_cheb, p_cheb = (chebyshev_coefficients(f) for f in (r_small, p_small))
    # R and P share t and are evaluated together, so they get a common length
    n_small = max(len(truncate(r_cheb)), len(truncate(p_cheb)))
    series = [
        ("_K1_R_SMALL", "I1(y)/y on y <= 2, in t = y^2/2 - 1", r_small,
         r_cheb[:n_small]),
        ("_K1_P_SMALL", "y K1(y) - y ln(y/2) I1(y) on y <= 2, in t", p_small,
         p_cheb[:n_small]),
        ("_K1_Q_LARGE", "exp(y) sqrt(y) K1(y) on y > 2, in s = 4/y - 1", q_large,
         truncate(chebyshev_coefficients(q_large))),
    ]
    print("# Generated by scripts/gen_k1_coefficients.py (mpmath, 40 digits):")
    print("# truncated Chebyshev series in power form, sum_k a_k x^k, a_0 first.")
    for name, what, func, cheb in series:
        coef = power_form(cheb)
        worst = check(coef, func, name)
        print(f"# {what}: {len(coef)} terms, vs mpmath {mp.nstr(worst, 2)}")
        print(f"{name} = (")
        for a in coef:
            print(f"    {float(a)!r},")
        print(")")


if __name__ == "__main__":
    main()
