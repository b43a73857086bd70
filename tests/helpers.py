"""Shared oracles for the test suite.

Everything in this module is intentionally independent of the library
internals: closed forms are hand-derived and frozen, and the numeric
oracles use only plain numpy operations, so that agreement between the
library and these functions is meaningful evidence.
"""

import math
from fractions import Fraction

import numpy as np

from homlie.brackets import Bracket


def milnor_ricci_eigenvalues(a, b, c):
    """Ricci eigenvalues of the diagonal 3-dimensional bracket.

    For mu(e1,e2)=a e0, mu(e0,e2)=-b e1, mu(e0,e1)=c e2 the Ricci
    endomorphism is diagonal in the same frame with entries
    (a^2-(b-c)^2)/2 and cyclic permutations.
    """
    return sorted([0.5 * (a * a - (b - c) ** 2),
                   0.5 * (b * b - (a - c) ** 2),
                   0.5 * (c * c - (a - b) ** 2)], reverse=True)


def ad_matrix(mu, x):
    """Matrix of ad(x) = mu(x, .) on R^(q+n)."""
    return np.einsum("k,kvu->uv", np.asarray(x, float), mu.float_c)


def dexp_series(mu, x, terms):
    """Partial sum of A(x) = (I - exp(-ad x)) / ad x with the given number of terms.

    Returns sum_{k=0}^{terms-1} (-1)^k / (k+1)! (ad x)^k as a dense
    (q+n) x (q+n) matrix.  The tail after T terms is bounded in operator
    norm by ||ad x||^T / (T+1)! * exp(||ad x||).
    """
    if terms < 1:
        raise ValueError("need at least one term")
    adx = ad_matrix(mu, x)
    acc = np.eye(mu.dim)
    power = np.eye(mu.dim)
    for k in range(1, terms):
        power = power @ adx
        acc += ((-1) ** k / math.factorial(k + 1)) * power
    return acc


def lauret_ricci(mu):
    """Ricci endomorphism for q = 0 via the moment-map decomposition.

    Ric = M - B/2 - S(ad H), with <M x, x> = -(1/2) sum |mu(x, e_i)|^2
    + (1/4) sum <mu(e_i, e_j), x>^2, B the Killing form, H the mean
    curvature vector <H, x> = tr ad x, and S the symmetrization.
    Entirely different bookkeeping from the connection-based route.
    """
    assert mu.q == 0
    n = mu.n
    c = mu.float_c
    m = np.zeros((n, n))
    for x in range(n):
        for y in range(n):
            acc = -0.5 * np.sum(c[x, :, :] * c[y, :, :])
            acc += 0.25 * np.sum(c[:, :, x] * c[:, :, y])
            m[x, y] = acc
    kill = np.einsum('iab,jba->ij', c, c)
    h = np.einsum('iaa->i', c)  # tr ad e_i = sum_a <mu(e_i, e_a), e_a>
    adh = np.einsum('k,kvu->uv', h, c)
    return m - 0.5 * kill - 0.5 * (adh + adh.T)


def degree2_jet_closed_form(mu):
    """Exact degree-2 metric jet from the printed closed form.

    g_ij(x) = delta_ij - (1/2) sum_k (mu_{kj}^i + mu_{ki}^j) x_k
      + sum_{k,l} [ (1/4) sum_s mu_{ki}^s mu_{lj}^s
                    + (1/6) sum_r (mu_{kr}^i mu_{lj}^r
                                   + mu_{kr}^j mu_{li}^r) ] x_k x_l

    where i, j, k, l, s run over tangent indices and r runs over all of
    R^(q+n).  Returns a dict {(i, j, alpha): Fraction} over monomials
    alpha of degree <= 2 in graded-lex order compatible with the
    library's MetricJet.coefficient accessor.
    """
    q, n = mu.q, mu.n
    assert mu.exact
    c = mu.c
    t = lambda i: q + i     # tangent index into the full array

    coeffs = {}
    for i in range(n):
        coeffs[(i, i, (0,) * n)] = Fraction(1)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lin = -Fraction(1, 2) * (c[t(k), t(j), t(i)] + c[t(k), t(i), t(j)])
                if lin:
                    alpha = tuple(1 if v == k else 0 for v in range(n))
                    key = (i, j, alpha)
                    coeffs[key] = coeffs.get(key, Fraction(0)) + lin
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    quad = Fraction(0)
                    for s in range(n):
                        quad += Fraction(1, 4) * c[t(k), t(i), t(s)] * c[t(l), t(j), t(s)]
                    for r in range(q + n):
                        quad += Fraction(1, 6) * (c[t(k), r, t(i)] * c[t(l), t(j), r]
                                                  + c[t(k), r, t(j)] * c[t(l), t(i), r])
                    if quad:
                        alpha = tuple((1 if v == k else 0) + (1 if v == l else 0)
                                      for v in range(n))
                        key = (i, j, alpha)
                        coeffs[key] = coeffs.get(key, Fraction(0)) + quad
    return {k: v for k, v in coeffs.items() if v != 0}


def jacobiator_loops(mu):
    """Jacobi cyclic sum via explicit python loops (no einsum)."""
    c = mu.float_c
    d = mu.dim
    out = np.zeros((d, d, d, d))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for m in range(d):
                    acc = 0.0
                    for l in range(d):
                        acc += (c[i, j, l] * c[l, k, m]
                                + c[j, k, l] * c[l, i, m]
                                + c[k, i, l] * c[l, j, m])
                    out[i, j, k, m] = acc
    return out


def conjugated_flow_derivative(mu, step=1e-6):
    """Central finite difference of t -> exp(tD).mu at t = 0, negated.

    The flow right-hand side equals minus the derivative of the change
    of basis by exp(tD) with D = diag(0_q, Ric); this oracle builds the
    group action directly through matrix exponentials.
    """
    from scipy.linalg import expm

    from homlie.brackets import gl_action
    from homlie.curvature import ricci_operator

    q, n = mu.q, mu.n
    d = np.zeros((q + n, q + n))
    d[q:, q:] = ricci_operator(mu)
    plus = gl_action(expm(step * d), mu).c
    minus = gl_action(expm(-step * d), mu).c
    return -(plus - minus) / (2.0 * step)


def random_orthogonal(n, rng):
    m = rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(m)
    return qmat * np.sign(np.diag(r))


def exact_bracket(q, n, entries):
    """Build an exact (Fraction) bracket from (i, j, k, value) entries."""
    vals = [(i, j, k, Fraction(v)) for i, j, k, v in entries]
    return Bracket.from_entries(q, n, vals)


def reference_flow(mu0, t_end, normalized=False, rtol=1e-9, atol=1e-12,
                   max_steps=100000, blow_up=1e8, record_stride=1):
    """Dormand-Prince 5(4) bracket flow with every right-hand side evaluated afresh.

    The stepping of flow.integrate written out plainly: each stage and
    each accepted state gets a new right-hand side, that of
    bracket_flow_rhs on a new Bracket (without the membership check, which
    stage states near a blow-up fail: the Jacobi identity is quadratic and
    a stage is a linear combination), the new state is the weighted sum of
    all seven stages, and each sample takes its Ricci eigenvalues from
    ricci_operator of its own bracket.  Returns
    (status, samples, attempted steps), samples as (t, constants, norm,
    Ricci eigenvalues, scale, residual).  No blow-up at the start.
    """
    from homlie.curvature import ricci_operator
    from homlie.flow import BUTCHER_A, ERROR_COEFFS, _residual, _rhs

    q, n = mu0.q, mu0.n
    shape = (mu0.dim,) * 3

    def f(y):
        mu = Bracket(q, n, y.reshape(shape))
        return _rhs(mu.c, q, ricci_operator(mu)).ravel()

    def sample(t, y, scale, fy):
        mu = Bracket(q, n, y.reshape(shape))
        eigs = np.sort(np.linalg.eigvalsh(ricci_operator(mu)))[::-1]
        return (t, mu.c, float(np.linalg.norm(y)), eigs, scale, _residual(y, fy))

    y = mu0.as_float().ravel()
    scale = 1.0
    if normalized:
        scale = 1.0 / np.linalg.norm(y)
        y = y / np.linalg.norm(y)
    assert normalized or np.linalg.norm(y) <= blow_up
    t, steps, accepted, status = 0.0, 0, 0, "max_steps"
    fy = f(y)
    samples = [sample(0.0, y, scale, fy)]
    scale0 = np.linalg.norm(fy) / (1.0 + np.linalg.norm(y))
    dt = min(min(0.01, 0.1 / scale0) if scale0 > 0 else 0.01, t_end)
    k = np.empty((7, y.size))
    while steps < max_steps:
        steps += 1
        k[0] = fy
        for s in range(1, 7):
            k[s] = f(y + dt * (BUTCHER_A[s, :s] @ k[:s]))
        y_new = y + dt * (BUTCHER_A[6] @ k)
        err = dt * (ERROR_COEFFS @ k)
        tol = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean((err / tol) ** 2))
        if err_norm <= 1.0:
            t += dt
            y = y_new
            if normalized:
                nrm = np.linalg.norm(y)
                y, scale = y / nrm, scale / nrm
            fy = f(y)
            accepted += 1
            if np.linalg.norm(y) > blow_up:
                status = "blow_up_detected"
                break
            if t >= t_end - 1e-12 * max(1.0, t_end):
                status = "completed"
                break
            if accepted % record_stride == 0:
                samples.append(sample(t, y, scale, fy))
        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        dt = dt * min(5.0, max(0.2, factor))
        if t + dt > t_end:
            dt = t_end - t
        if dt < 1e-14 * max(1.0, abs(t)):
            status = "step_underflow"
            break
    if samples[-1][0] < t:
        samples.append(sample(t, y, scale, fy))
    return status, samples, steps
