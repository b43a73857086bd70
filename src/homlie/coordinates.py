"""Canonical-coordinate metric jets and the series curvature oracle.

For a member bracket mu the invariant metric pulled back through the
exponential-type chart has a convergent Taylor expansion around the
origin whose coefficients are universal polynomials in the structure
constants.  The building block is the analytic matrix function

    A(x) = (I - exp(-ad x)) / ad x = sum_k (-1)^k / (k+1)! (ad x)^k,

evaluated on tangent vectors x; the metric coefficients are inner
products of tangent-block columns of A(x):

    g_ij(x) = < P A(x) e_{q+i}, P A(x) e_{q+j} >,   P = tangent projection.

Everything downstream of the jet is classical tensor calculus on a
polynomial metric: Christoffel symbols, the curvature tensor, and its
covariant derivatives, evaluated at the origin.  Each term of these
textbook formulas is one einsum contraction of polynomial tensors
through PolySpace.mul, e.g. Gamma^k_{ij} = g^{kl} c_{lij} / 2 is
mul("kl,lij->kij", ginv, c).  This path makes no use
of algebraic curvature formulas, which is what makes it a trustworthy
cross-check (and the arbiter of sign conventions) for the fast
algebraic path in the curvature module.

The chart is centred at the identity coset; the jet of degree D
determines nabla^k Riem at the origin exactly for k <= D - 2.  Graded-lex
order puts the monomials of degree <= d first, so truncation is a slice:
nabla^K Riem computes Gamma in degree K + 1 and nabla^j Riem in degree K - j.
"""

import math

import numpy as np

from .brackets import (bracket_norm, common_denominator, finite_float, from_integers,
                       require_member, to_integers)
from .polyjet import PolySpace

__all__ = [
    "MetricJet",
    "metric_jet",
    "coordinate_curvature_oracle",
    "curvature_derivatives",
    "InjectivityBound",
    "injectivity_bound",
    "is_completely_solvable",
]


class MetricJet:
    """Polynomial jet of the canonical-coordinate metric at the origin.

    Fields: q, n, degree, space (the PolySpace over n variables), and g,
    an array of shape (n, n, space.size) holding the coefficient vector
    of every metric entry: float64, or Fractions on an exact jet.  g is
    symmetric in the first two axes and g(0) is the identity.  to_dict
    writes exact coefficients as "p/q" strings.
    """

    def __init__(self, q, n, degree, space, g):
        self.q = q
        self.n = n
        self.degree = degree
        self.space = space
        self.g = g

    @property
    def exact(self):
        return self.g.dtype == object

    def coefficient(self, i, j, alpha):
        """Coefficient of x^alpha in g_ij."""
        return self.g[i, j, self.space.index[tuple(alpha)]]

    def evaluate(self, x):
        """The metric matrix at a coordinate point (partial sums)."""
        return self.space.evaluate(self.g, x)

    def to_dict(self):
        entries = []
        for i in range(self.n):
            for j in range(i, self.n):
                for idx, alpha in enumerate(self.space.monomials):
                    v = self.g[i, j, idx]
                    if v != 0:
                        entries.append([i, j, list(alpha),
                                        str(v) if self.exact else float(v)])
        return {"q": self.q, "n": self.n, "degree": self.degree, "entries": entries}


# Most entries the product of a metric jet may gather: n^2 times the
# C(degree + 2n, 2n) monomial pairs whose degrees fit, 32 MB in floats.
# It admits n = 3 up to degree 22 and Aloff-Wallach (n = 7) up to degree 6.
MAX_JET_ENTRIES = 4 * 10**6


def metric_jet(mu, degree):
    """Taylor coefficients of the coordinate metric up to a total degree.

    Exact brackets give Fraction coefficients, float brackets float64.
    Raises ValueError on a non-member, above MAX_JET_ENTRIES, or naming the
    lowest degree of a float jet with a coefficient beyond the float range.
    Only the splitting and the structure constants enter; the purely
    isotropy-isotropy part of the bracket does not affect the result.

    The exact path runs the float statements on Python ints.  The
    bracket N mu has the chart metric g(N x), so its degree-d
    coefficients are N^d g_d.  With L the common denominator of the
    constants and N = L (degree+1)!, every B_alpha below is an integer
    matrix, and g_d = G_d / N^d is divided out once at the end.
    """
    if degree < 0:
        raise ValueError("degree must be >= 0")
    q, n, dim = mu.q, mu.n, mu.dim
    if n * n * math.comb(degree + 2 * n, 2 * n) > MAX_JET_ENTRIES:
        raise ValueError(f"degree {degree} at n = {n} gathers {n}^2 C({degree + 2 * n}, {2 * n}) "
                         f"product entries, above MAX_JET_ENTRIES = {MAX_JET_ENTRIES}")
    require_member(mu)
    exact = mu.exact
    space = PolySpace(n, degree)
    c = mu.c
    if exact:
        lcm = common_denominator(c)
        c = to_integers(c, lcm)
        f = math.factorial(degree + 1)
        scale = np.array([(-1) ** m * f ** m // math.factorial(m + 1)
                          for m in range(degree + 1)], dtype=object)
    else:
        # (m+1)! overflows a float from m = 170 on; the int quotient is
        # correctly rounded there, and below it the float one keeps its bits
        scale = np.array([(-1.0 if m < 170 else -1) ** m / math.factorial(m + 1)
                          for m in range(degree + 1)])

    # ad(e_{q+k}) as (q+n) x (q+n) matrices
    ads = np.array([c[q + k].T for k in range(n)])

    # W recursion over monomials: W_alpha = sum_k W_{alpha - e_k} ad_k,
    # so W_alpha is the sum of all |alpha|-letter matrix words with
    # letter multiset alpha.  B_alpha = (-1)^m / (m+1)! W_alpha.
    w = np.zeros((space.size, dim, dim), dtype=c.dtype)
    w[0] = np.eye(dim, dtype=c.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        for m in range(1, degree + 1):
            src, k = np.nonzero((space.lower >= 0) & (space.degrees == m)[:, None])
            np.add.at(w, src, w[space.lower[src, k]] @ ads[k])
        b = w * scale[space.degrees, None, None]

        # tangent block of B and the convolution g = P^T P
        p = np.moveaxis(b[:, q:, q:], 0, -1)
        g = space.mul("ki,kj->ij", p, p)
        if not exact and not np.isfinite(g).all():
            top = np.abs(g).max(axis=(0, 1))            # per monomial; NaN stays NaN
            for d in range(degree + 1):
                finite_float(f"metric jet coefficient of degree {d}", top[space.degrees == d].max())
    if exact:
        g = from_integers(g, (lcm * f) ** space.degrees.astype(object))
    return MetricJet(q, n, degree, space, g)


def _christoffel(space, g):
    """Christoffel symbols Gamma^k_{ij} of a polynomial metric g given in
    space, returned one degree lower, where first derivatives of g end.

    The inverse metric comes from the Neumann series of g = I + h,
    which terminates within that degree because h has no constant term.
    """
    n = space.nvars
    exact = g.dtype == object
    low = PolySpace(n, space.degree - 1)

    dg = np.stack([space.diff(g, m) for m in range(n)])[..., :low.size]   # dg[m, i, j]
    eye = low.zeros((n, n), exact)
    eye[np.arange(n), np.arange(n), 0] = 1
    h = g[..., :low.size] - eye
    ginv = eye.copy()
    term = eye.copy()
    for _ in range(low.degree):
        term = -low.mul("ik,kj->ij", term, h)
        ginv = ginv + term

    # c[l, i, j] = d_i g_{jl} + d_j g_{il} - d_l g_{ij}
    cc = (np.transpose(dg, (2, 0, 1, 3)) + np.transpose(dg, (2, 1, 0, 3))
          - np.transpose(dg, (0, 1, 2, 3)))
    gam = low.mul("kl,lij->kij", ginv, cc)
    # exact callers scale g so that cc is even (see curvature_derivatives)
    return gam // 2 if exact else 0.5 * gam


def _riemann_poly(space, g, gam):
    """Lowered curvature tensor Riem_{ijkl} = <R(d_i, d_j) d_k, d_l> from gam given
    in space, returned one degree lower; g may be given in any higher space."""
    n = space.nvars
    low = PolySpace(n, space.degree - 1)
    dgam = np.stack([space.diff(gam, m) for m in range(n)])[..., :low.size]   # dgam[m, k, i, j]
    gam = gam[..., :low.size]
    # rup[l, k, i, j] = R^l_{kij}
    #   = d_i Gamma^l_{jk} - d_j Gamma^l_{ik} + Gamma^l_{im} Gamma^m_{jk} - (i <-> j)
    gg = low.mul("lim,mjk->lkij", gam, gam)
    rup = (np.einsum("iljk...->lkij...", dgam) - np.einsum("jlik...->lkij...", dgam)
           + gg - np.swapaxes(gg, 2, 3))
    return low.mul("lm,mkij->ijkl", g[..., :low.size], rup)


def _covariant_derivative(space, gam, t):
    """One covariant derivative of a covariant poly tensor t given in space, index
    prepended, returned one degree lower; gam may be given in any higher space."""
    n = space.nvars
    low = PolySpace(n, space.degree - 1)
    out = np.stack([space.diff(t, m) for m in range(n)])[..., :low.size]
    t, gam = t[..., :low.size], gam[..., :low.size]
    for s in range(t.ndim - 1):
        # corr[m, b, rest...] = Gamma^p_{mb} t[..., p in slot s, ...]
        corr = low.mul("pmb,p...->mb...", gam, np.moveaxis(t, s, 0))
        out = out - np.moveaxis(corr, 1, s + 1)
    return out


# Most coefficients of curvature_derivatives' top tensor over the whole jet,
# n^(4 + order) * jet.space.size.  It bounds the input, not the work, which
# stays in degree <= order + 2: n = 7 passes at degree 3, order 1 (2e6;
# milliseconds), not at degree 4, order 2.
MAX_SERIES_ENTRIES = 4 * 10**6


def curvature_derivatives(jet, order):
    """[Riem, nabla Riem, ..., nabla^order Riem] at the origin.

    Entry k has rank 4 + k with the derivative indices prepended in
    application order: entry 2 is (nabla_m2 nabla_m1 Riem)_{i j k l}
    indexed [m2, m1, i, j, k, l].  Requires jet.degree >= order + 2, and
    n^(4 + order) * jet.space.size at most MAX_SERIES_ENTRIES.

    Each stage runs only to the degree its consumer reads, so the result
    does not depend on the jet's degree: g is read to degree order + 2,
    Gamma is computed in degree order + 1, Riem in degree order and
    nabla^j Riem in degree order - j; each truncation is a slice.

    Exact jets give Fraction tensors, computed in Python ints: with L
    the common denominator of g to degree order + 2 and N = 2L, the
    metric g(N x) has the integer coefficients G_d = N^d g_d, all even
    for d >= 1, so its Christoffel symbols are integer too.  Its entry k
    is N^(2+k) times the one of g, and is divided out once at the end.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if jet.degree < order + 2:
        raise ValueError(
            f"jet of degree {jet.degree} cannot determine order-{order} "
            f"derivatives; need degree >= {order + 2}")
    # n >= 2 exceeds the cap below rank 64, so the power stays small
    if jet.n ** min(4 + order, 64) * jet.space.size > MAX_SERIES_ENTRIES:
        raise ValueError(f"order {order} of a degree-{jet.degree} jet at n = {jet.n} needs "
                         f"{jet.n}^{4 + order} * {jet.space.size} entries, above "
                         f"MAX_SERIES_ENTRIES = {MAX_SERIES_ENTRIES}")
    space = PolySpace(jet.n, order + 2)
    g = jet.g[..., :space.size]
    if jet.exact:
        scale = 2 * common_denominator(g)
        g = to_integers(g, scale ** space.degrees.astype(object))
    gam = _christoffel(space, g)
    t = _riemann_poly(PolySpace(jet.n, order + 1), g, gam)
    out = [t[..., 0]]
    for j in range(order):
        t = _covariant_derivative(PolySpace(jet.n, order - j), gam, t)
        out.append(t[..., 0])
    if jet.exact:
        return [from_integers(a, scale ** (2 + k)) for k, a in enumerate(out)]
    return [np.asarray(a, dtype=float) for a in out]


def coordinate_curvature_oracle(jet, order):
    """nabla^order Riem at the origin from a metric jet (series path)."""
    return curvature_derivatives(jet, order)[-1]


# ---------------------------------------------------------------------------
# injectivity radius bounds
# ---------------------------------------------------------------------------

class InjectivityBound:
    """Certified lower bound for the injectivity radius at the base point."""

    __slots__ = ("lower", "method", "heuristic")

    def __init__(self, lower, method, heuristic):
        self.lower = lower
        self.method = method
        self.heuristic = heuristic

    def __repr__(self):
        return (f"InjectivityBound(lower={self.lower!r}, method={self.method!r}, "
                f"heuristic={self.heuristic})")


# The refutation test of is_completely_solvable samples ad(x) on the basis
# vectors and on this many random unit directions, drawn from this seed.
_REFUTATION_SAMPLES = 64
_REFUTATION_SEED = 0


def is_completely_solvable(mu):
    """Certify or refute that every ad(x) has only real eigenvalues.

    Only meaningful for q = 0 (Lie groups).  Returns one of

    * "certified"  -- the bracket is nilpotent (lower central series
      reaches zero), which forces all-real (in fact zero) spectra;
    * "refuted"    -- some sampled ad(x), over basis vectors and random
      unit directions, has an eigenvalue with clearly nonzero imaginary
      part;
    * "unknown"    -- neither test fired.  Solvable non-nilpotent
      brackets with real spectra land here; no attempt is made to
      certify them.

    The refutation threshold is deliberately loose (1e-4 relative)
    because defective real-spectrum matrices acquire spurious imaginary
    parts of order eps^(1/k) under roundoff.
    """
    if mu.q != 0:
        raise ValueError("complete solvability test applies to q = 0 only")
    dim = mu.dim
    c = mu.float_c
    # nilpotency and real spectra do not change under mu -> s mu, so both
    # tests run on constants of unit size
    scale = np.max(np.abs(c))
    if scale == 0.0:
        return "certified"
    c = c / scale
    norm = float(np.sqrt(np.sum(c * c)))
    ads = np.array([c[i].T for i in range(dim)])

    # nilpotency via the lower central series
    span = np.eye(dim)
    for _ in range(dim + 1):
        images = np.concatenate([a @ span for a in ads], axis=1)
        # span keeps rank >= 1, so images has a singular value
        u, sv, _ = np.linalg.svd(images, full_matrices=False)
        if sv[0] <= 1e-12 * (1.0 + norm):
            return "certified"
        span = u[:, :int(np.sum(sv > 1e-10 * sv[0]))]

    rng = np.random.default_rng(_REFUTATION_SEED)
    directions = list(np.eye(dim))
    for _ in range(_REFUTATION_SAMPLES):
        v = rng.standard_normal(dim)
        directions.append(v / np.linalg.norm(v))
    for x in directions:
        adx = np.einsum("k,kvu->uv", x, c)
        eig = np.linalg.eigvals(adx)
        scale = 1.0 + np.max(np.abs(adx))
        if np.max(np.abs(eig.imag)) > 1e-4 * scale:
            return "refuted"
    return "unknown"


def injectivity_bound(mu):
    """Lower bound for the injectivity radius at the base point.

    For q = 0 a certified nilpotent bracket gives an infinite bound (the
    exponential chart is global); otherwise the bound pi / ||mu|| is
    returned, which is rigorous for q = 0 and only a heuristic for
    q > 0, flagged accordingly.
    """
    if mu.q == 0 and is_completely_solvable(mu) == "certified":
        return InjectivityBound(math.inf, "completely_solvable", False)
    nrm = bracket_norm(mu)
    if nrm * nrm < np.finfo(float).tiny:
        # the sum of squares underflowed: ||mu|| = m ||mu / m||, m = max |c|
        c = mu.float_c
        m = float(np.max(np.abs(c)))
        nrm = m * float(np.sqrt(np.sum((c / m) ** 2))) if m else 0.0
    lower = math.inf if nrm == 0.0 else math.pi / nrm
    return InjectivityBound(lower, "norm_bound", mu.q > 0)
