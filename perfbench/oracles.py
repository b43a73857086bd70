"""Reference computations the benchmark checks homlie's answers against.

Nothing here calls homlie.  Closed forms are written out by hand, and
the numeric oracles use plain numpy and scipy on the structure-constant
array c[i, j, k] = <mu(e_i, e_j), e_k>, with the isotropy block first.
Every function works on float arrays, and the ones used by the exact
operations of the fingerprint workload also on object arrays of
Fractions, where they are exact.
"""

from fractions import Fraction

import numpy as np
from scipy.integrate import solve_ivp


class CheckFailed(Exception):
    """An answer disagrees with its reference."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


def max_abs(a):
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


# -- brackets ---------------------------------------------------------------

def milnor_constants(a, b, c):
    """Structure constants of mu(e1,e2) = a e0, mu(e2,e0) = b e1, mu(e0,e1) = c e2."""
    exact = all(isinstance(v, (int, Fraction)) for v in (a, b, c))
    out = np.empty((3, 3, 3), dtype=object) if exact else np.zeros((3, 3, 3))
    if exact:
        out[...] = Fraction(0)
    for (i, j, k), v in (((1, 2, 0), a), ((2, 0, 1), b), ((0, 1, 2), c)):
        out[i, j, k] = v
        out[j, i, k] = -v
    return out


def rotate_constants(c, q, h):
    """Constants of the bracket after the orthogonal tangent change of basis h."""
    g = np.eye(c.shape[0])
    g[q:, q:] = h
    out = np.einsum("kl,abl,ia,jb->ijk", g, c, g, g, optimize=True)
    return 0.5 * (out - np.swapaxes(out, 0, 1))


def random_rotation(n, rng):
    """Haar-distributed element of SO(n) or O(n) drawn from rng."""
    m = rng.standard_normal((n, n))
    qmat, r = np.linalg.qr(m)
    return qmat * np.sign(np.diag(r))


def jacobi_residual(c):
    """Largest entry of the Jacobi cyclic sum of the bracket."""
    t = np.einsum("ijl,lkm->ijkm", c, c)
    return max_abs(t + t.transpose((2, 0, 1, 3)) + t.transpose((1, 2, 0, 3)))


# -- Ricci curvature --------------------------------------------------------

def milnor_ricci(a, b, c):
    """Diagonal of the Ricci endomorphism of milnor(a, b, c) in its own frame."""
    half = Fraction(1, 2) if all(isinstance(v, (int, Fraction)) for v in (a, b, c)) else 0.5
    return [half * (a * a - (b - c) ** 2),
            half * (b * b - (a - c) ** 2),
            half * (c * c - (a - b) ** 2)]


def moment_map_ricci(c):
    """Ricci endomorphism of a Lie group (q = 0): Ric = M - B/2 - S(ad H).

    <M x, y> = -1/2 sum <mu(x, e_i), e_k><mu(y, e_i), e_k>
               + 1/4 sum <mu(e_i, e_j), x><mu(e_i, e_j), y>,
    B is the Killing form, <H, x> = tr ad x and S symmetrizes.
    """
    m = -0.5 * np.einsum("xik,yik->xy", c, c) + 0.25 * np.einsum("ijx,ijy->xy", c, c)
    killing = np.einsum("xvu,yuv->xy", c, c)
    mean = np.einsum("iaa->i", c)
    ad_h = np.einsum("k,kvu->uv", mean, c)
    return m - 0.5 * killing - 0.5 * (ad_h + ad_h.T)


def ricci_contraction(riem):
    """Ric(y, z) = sum_i Riem(e_i, y, z, e_i)."""
    return np.einsum("kabk->ab", riem)


def riem_norm_sq_3d(ric):
    """|Riem|^2 = 4 |Ric|^2 - scal^2, valid in dimension 3 (no Weyl part)."""
    ric = np.asarray(ric, dtype=float)
    return 4.0 * float(np.sum(ric * ric)) - float(np.trace(ric)) ** 2


# -- identities of the curvature tensor and its derivatives -----------------

def curvature_identity_residual(tensors, first_order=0):
    """Largest violation of the identities of Riem, nabla Riem, nabla^2 Riem.

    tensors[k] is nabla^(first_order + k) Riem, derivative indices first.
    Every entry is skew in its (i, j) and (k, l) slots; Riem satisfies
    the first Bianchi identity, and every derivative the second one in
    its innermost derivative index.
    """
    worst = 0.0
    for order, t in enumerate(tensors, start=first_order):
        lead = "mn"[:order]
        worst = max(worst, max_abs(t + np.swapaxes(t, order, order + 1)),
                    max_abs(t + np.swapaxes(t, order + 2, order + 3)))
        if order == 0:
            cyc = (t + np.einsum("jkil->ijkl", t) + np.einsum("kijl->ijkl", t))
        else:
            outer, m = lead[:-1], lead[-1]
            spec = outer + m + "ijkl"
            cyc = (t + np.einsum(f"{outer}ij{m}kl->{spec}", t)
                   + np.einsum(f"{outer}j{m}ikl->{spec}", t))
        worst = max(worst, max_abs(cyc))
    return worst


# -- metric jet -------------------------------------------------------------

def degree2_jet(c, q, n):
    """Coefficients of the canonical-coordinate metric up to degree 2.

    g_ij(x) = delta_ij - 1/2 sum_k (mu_ki^j + mu_kj^i) x_k
              + sum_kl [ 1/4 sum_s mu_ki^s mu_lj^s
                         + 1/6 sum_r (mu_li^r mu_kr^j + mu_lj^r mu_kr^i) ] x_k x_l,

    with i, j, k, l, s tangent and r over all of R^(q+n); it comes from
    g_ij = <P A(x) e_i, P A(x) e_j>, A(x) = I - ad(x)/2 + ad(x)^2/6 - ...
    Returns {(i, j, alpha): coefficient} for the nonzero coefficients.
    """
    exact = c.dtype == object
    one, half, quarter, sixth = ((Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 6))
                                 if exact else (1.0, 0.5, 0.25, 1.0 / 6.0))
    t = c[q:, q:, q:]
    out = {}

    def add(i, j, alpha, v):
        if v != 0:
            out[(i, j, alpha)] = out.get((i, j, alpha), 0) + v

    unit = lambda *ks: tuple(sum(1 for k in ks if k == v) for v in range(n))
    for i in range(n):
        add(i, i, unit(), one)
        for j in range(n):
            for k in range(n):
                add(i, j, unit(k), -half * (t[k, i, j] + t[k, j, i]))
                for l in range(n):
                    quad = quarter * sum(t[k, i, s] * t[l, j, s] for s in range(n))
                    quad += sixth * sum(c[q + l, q + i, r] * c[q + k, r, q + j]
                                        + c[q + l, q + j, r] * c[q + k, r, q + i]
                                        for r in range(q + n))
                    add(i, j, unit(k, l), quad)
    return {key: v for key, v in out.items() if v != 0}


# -- bracket flow on Milnor brackets -----------------------------------------

def milnor_flow(abc, t_end):
    """(a, b, c) at t_end under a' = a (R1 + R2 - R0) and its cyclic versions."""
    def rhs(_, y):
        r0, r1, r2 = milnor_ricci(*y)
        a, b, c = y
        return [a * (r1 + r2 - r0), b * (r0 + r2 - r1), c * (r0 + r1 - r2)]
    sol = solve_ivp(rhs, (0.0, t_end), [float(v) for v in abc], method="DOP853",
                    rtol=1e-12, atol=1e-14)
    require(sol.success, f"reference integration failed: {sol.message}")
    return sol.y[:, -1]
