"""Curvature at the base point, invariant fingerprints, orbit distance.

Algebraic path
--------------
For a member bracket the Levi-Civita connection at the base point is
encoded by the classical skew/symmetric split: writing mu_p for the
tangent projection of the tangent-tangent bracket,

    <D(e_r) e_j, e_i> = 1/2 (mu_rj^i - mu_ri^j - mu_ji^r)

(all indices tangent).  The curvature operator on tangent pairs is

    R(x, y) = [D(x), D(y)] - D(mu(x, y)_p) - ad(mu(x, y)_k)|_tangent,

with mu(x,y)_k the isotropy component acting through its (skew) linear
action.  Sign conventions are fixed so that round spheres come out with
positive sectional curvature:

    Riem(x, y, z, w) = <R(x, y) z, w>,    sec(x, y) = Riem(x, y, y, x),
    Ric(y, z) = sum_i Riem(e_i, y, z, e_i).

ricci_contraction takes that trace inside the formula for R (Besse, 7.38)
on raw constants, one contraction without Riem; ricci_operator wraps it.

The series path in the coordinates module computes the same tensors
from the metric Taylor expansion alone and is used as an independent
cross-check; the two paths agree at the origin because the coordinate
frame is orthonormal there.

Fingerprints
------------
The fingerprint of order K stacks Riem, nabla Riem, ..., nabla^K Riem
at the base point as tensors on R^n.  The space is reductive (by (h1),
R^n is ad(R^q)-invariant), so every invariant tensor T obeys Nomizu's
formula (Amer. J. Math. 76, 1954)

    (nabla_x T)(y_1, ..., y_k) = - sum_s T(y_1, ..., D(x) y_s, ..., y_k),

and each order is D applied as a derivation to the one before.  Exact
brackets stay exact: their constants are scaled to even integers, D,
Riem and every derivative are computed in Python ints, and each order
is divided back to Fractions once, at the end.

Rotating the bracket by h in O(n) rotates every tensor entry, so the
orbit distance

    d(mu, lam) = min_{h in O(n)} || h . w_mu - w_lam ||

vanishes exactly on pairs related by an orthogonal change of tangent
basis.  Such an h also carries every O(n)-equivariant frame of w_mu onto
that of w_lam.  The frame used is the Ricci eigenframe with each repeated
eigenspace split by the symmetric 2-tensors contracted from Riem,
nabla Riem, ...; the minimum is sought over its 2^n sign changes and
then polished by least squares, with no randomness, unless the polish
cannot move the answer: the best candidate is at rounding level, or it
is a strict local minimum, which a first- and second-order test at the
candidate shows (the derivations D_a of so(n) are skew-adjoint, so the
Hessian takes two applications of _derive).  The candidates
are exact when the refined spectrum is simple, or when the symmetries
rotate every block left repeated independently of the others.  One
symmetry may turn several blocks together, as the isotropy circle of an
Aloff-Wallach space turns its three 2-planes; then the frames chosen in
those blocks need not match, the best candidate can be far off, and only
the polish can close the gap.  Otherwise the result is only an upper
bound.  In the two frames a sign change only flips the signs of
parity classes of entries, so the 2^n sign vectors cost two class sums,
and n is capped at MAX_ORBIT_DIM.
"""

import functools
import itertools
import math

import numpy as np
from scipy.linalg import expm
from scipy.optimize import least_squares

from .brackets import common_denominator, finite_float, from_integers, require_member, to_integers

__all__ = [
    "riemann_origin",
    "ricci_operator",
    "scalar_invariants",
    "CurvatureData",
    "curvature_data",
    "Fingerprint",
    "fingerprint",
    "rotate_tensor",
    "invariant_distance",
]


def _koszul(ct):
    """d[r, i, j] = <D(e_r) e_j, e_i> = 1/2 (mu_rj^i - mu_ri^j - mu_ji^r).

    On an object array the constants must be even integers, and the
    halving is exact integer division.
    """
    s = ct.transpose(0, 2, 1) - ct - ct.transpose(2, 1, 0)
    return s // 2 if ct.dtype == object else 0.5 * s


def _riemann(c, q):
    """(Riem, D) from structure constants c, in the arithmetic of c."""
    ct = c[q:, q:, q:]
    d = _koszul(ct)
    comm = np.einsum("iab,jbc->ijac", d, d) - np.einsum("jab,ibc->ijac", d, d)
    mp = np.einsum("ijr,rac->ijac", ct, d)
    rop = comm - mp
    if q > 0:
        ck = c[q:, q:, :q]                                  # isotropy components
        adz = np.transpose(c[:q, q:, q:], (0, 2, 1))        # adz[z, a, c]
        rop = rop - np.einsum("ijz,zac->ijac", ck, adz)
    return np.transpose(rop, (0, 1, 3, 2)), d


def riemann_origin(mu):
    """Curvature tensor at the base point, algebraic path.

    Returns Riem with shape (n, n, n, n), Riem[i, j, k, l] =
    <R(e_i, e_j) e_k, e_l> in the conventions of the module docstring,
    as float64 also for exact brackets.
    """
    return _riemann(mu.float_c, mu.q)[0]


def _ricci(riem):
    """Symmetrized Ricci form Ric[a, b] = sum_k Riem[k, a, b, k]."""
    ric = np.einsum("kabk->ab", riem)
    return 0.5 * (ric + ric.T)


def _power_traces(ric, count):
    """f_k = tr(Ric^k), k = 1..count, as floats; refused by name beyond the float range."""
    out = []
    power = np.eye(ric.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, count + 1):
            power = power @ ric
            out.append(finite_float(f"scalar invariant f_{k} = tr(Ric^{k})", np.trace(power)))
    return out


def ricci_contraction(c, q):
    """Symmetrized Ricci from float constants c with q isotropy directions first.

    Ricci by contraction (Besse, Einstein Manifolds, 7.38):
    Ric[a, b] = tr . D[a, :, b] - sum_{r,k} (D[a,r,k] + c[k,a,r]) D[r,k,b]
                - sum_{k,z} c[k,a,z] c[z,b,k],  tr = sum_k D[k, k] (z isotropy).
    """
    n = c.shape[0] - q
    ct = c[q:, q:, q:]
    d = _koszul(ct)
    ric = d.trace() @ d - (d + ct.transpose(1, 2, 0)).reshape(n, -1) @ d.reshape(-1, n)
    if q > 0:
        ric -= np.einsum("kaz,zbk->ab", c[q:, q:, :q], c[:q, q:, q:])
    return 0.5 * (ric + ric.T)


def ricci_operator(mu):
    """Ricci endomorphism on the tangent block, Ric[a, b] = Ric(e_a, e_b)."""
    return ricci_contraction(mu.float_c, mu.q)


def scalar_invariants(mu, count=None):
    """f_k = tr(Ric^k), k = 1..count (default n); a ValueError names one beyond the float range."""
    return _power_traces(ricci_operator(mu), mu.n if count is None else count)


class CurvatureData:
    """Curvature tensor, Ricci endomorphism and scalar invariants."""

    __slots__ = ("riemann", "ricci", "invariants")

    def __init__(self, riemann, ricci, invariants):
        self.riemann = riemann
        self.ricci = ricci
        self.invariants = invariants

    @property
    def ricci_eigenvalues(self):
        """Eigenvalues of the Ricci endomorphism, descending."""
        return np.sort(np.linalg.eigvalsh(self.ricci))[::-1]

    def to_dict(self):
        return {
            "n": int(self.ricci.shape[0]),
            "riemann_shape": list(self.riemann.shape),
            "riemann": [float(v) for v in self.riemann.ravel()],
            "ricci": [[float(v) for v in row] for row in self.ricci],
            "invariants": [float(v) for v in self.invariants],
        }


def curvature_data(mu):
    """Riem, and Ricci and its invariants from ricci_operator, as in scalar_invariants."""
    ric = ricci_operator(mu)
    return CurvatureData(riemann_origin(mu), ric, _power_traces(ric, mu.n))


class Fingerprint:
    """Stacked covariant derivatives of the curvature at the base point.

    tensors[k] has rank 4 + k on R^n: entry 0 is the algebraic curvature
    tensor, entry k >= 1 is Nomizu's derivation D applied k times (see
    the module docstring).  Derivative indices are prepended in
    application order.  Exact brackets give Fraction entries throughout,
    computed in integers and divided once (see fingerprint).  Float tensors
    are refused where their squared norms leave the float range.
    """

    def __init__(self, n, order, tensors):
        self.n = n
        self.order = order
        self.tensors = tensors
        self._norms_sq = None
        if tensors[0].dtype != object:
            self.norms_sq()    # float tensors beyond the float range are refused here, by name

    def norms_sq(self):
        """|nabla^k Riem|^2, k = 0..order, as floats, computed once; a ValueError names
        the first beyond the float range.  A finite sum of squares bounds every entry too."""
        if self._norms_sq is None:
            with np.errstate(over="ignore", invalid="ignore"):
                self._norms_sq = [finite_float(f"|nabla^{k} Riem|^2", (t * t).sum())
                                  for k, t in enumerate(self.tensors)]
        return list(self._norms_sq)

    def norm(self):
        return math.sqrt(sum(self.norms_sq()))

    def flat_vector(self):
        return np.concatenate([t.ravel() for t in self.tensors])

    def to_dict(self):
        return {
            "n": self.n,
            "order": self.order,
            "shapes": [list(t.shape) for t in self.tensors],
            "tensors": [[float(v) for v in t.ravel()] for t in self.tensors],
        }


def _derive(d, t):
    """nabla T by Nomizu's formula, the new index first:

        out[m, i_1, ..., i_k] = - sum_s sum_a d[m, a, i_s] T[i_1, ..., a, ..., i_k]

    with a in slot s.
    """
    out = 0 - np.tensordot(d, t, (1, 0))     # 0 - x, not -x: no -0.0 entries
    for s in range(1, t.ndim):
        out -= np.moveaxis(np.tensordot(d, t, (1, s)), 1, s + 1)
    return out


# Most entries the top tensor of a fingerprint may have, n^(4 + order):
# 400 MB in floats.  It admits Aloff-Wallach (n = 7) up to order 5.
MAX_FINGERPRINT_ENTRIES = 5 * 10**7


def fingerprint(mu, order=2):
    """Fingerprint of the given order; raises ValueError on a non-member,
    when the top tensor would exceed MAX_FINGERPRINT_ENTRIES, or, for a
    float bracket, naming the first |nabla^k Riem|^2 beyond the float range.

    Exact brackets are computed in Python ints.  D is linear in the
    constants and Riem quadratic, so order k scales by s^(2+k) when the
    constants do by s.  With s = 2L, L their common denominator, the
    scaled constants are even integers, D and every order are integer,
    and order k is divided by s^(2+k) once at the end.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    # n >= 2 exceeds the cap below rank 64, so the power stays small
    if mu.n ** min(4 + order, 64) > MAX_FINGERPRINT_ENTRIES:
        raise ValueError(f"order {order} at n = {mu.n} needs {mu.n}^{4 + order} entries, "
                         f"above MAX_FINGERPRINT_ENTRIES = {MAX_FINGERPRINT_ENTRIES}")
    require_member(mu)
    c = mu.c
    if mu.exact:
        scale = 2 * common_denominator(c)
        c = to_integers(c, scale)
    with np.errstate(over="ignore", invalid="ignore"):
        riem, d = _riemann(c, mu.q)
        tensors = [riem]
        for _ in range(order):
            tensors.append(_derive(d, tensors[-1]))
    if mu.exact:
        tensors = [from_integers(t, scale ** (2 + k)) for k, t in enumerate(tensors)]
    return Fingerprint(mu.n, order, tensors)


def rotate_tensor(h, t):
    """Rotate every index of a covariant tensor: out = T(h^T ., ..., h^T .).

    Each pass contracts the leading index with h and moves it last, so
    after t.ndim passes every index is rotated and back in place.
    """
    n = h.shape[0]
    out = t
    for _ in range(t.ndim):
        out = (h @ out.reshape(n, -1)).T
    return out.reshape(t.shape)


# Neighbouring eigenvalues closer than this, relative to the largest
# |eigenvalue|, are treated as one eigenspace.  Rounding splits a
# repeated eigenvalue by about 1e-15 relative, and below this gap the
# eigenvectors themselves are too ill-conditioned (error ~ 1e-16 / gap)
# to be matched one by one.
_CLUSTER_GAP = 1e-6


def _invariant_frame(w):
    """Orthonormal frame U (columns) of R^n read off the fingerprint w.

    Starting from one block, R^n, each block still repeated is
    diagonalized by Ric, then by P_k = sum_s W_(s) W_(s)^T for k = 0, 1,
    ..., W_(s) the mode-s unfolding of nabla^k Riem, and split at the gaps
    of its ascending eigenvalues (a block that does not split keeps its
    frame), until every block is one-dimensional or the orders run out.
    Ric and each P_k are O(n)-equivariant, so the frame of h . w is h U up
    to column signs, and up to a rotation of each block left repeated.
    """
    n = w[0].shape[0]
    u, blocks = np.eye(n), [(0, n)]
    forms = itertools.chain([_ricci(w[0])], (
        sum(np.tensordot(t, t, 2 * [[a for a in range(t.ndim) if a != s]])
            for s in range(t.ndim)) for t in w))
    for p in forms:
        tol = _CLUSTER_GAP * np.linalg.norm(p, 2)
        refined = []
        for lo, hi in blocks:
            b = u[:, lo:hi]
            values, v = np.linalg.eigh(b.T @ p @ b)
            cuts = [i for i in range(1, hi - lo) if values[i] - values[i - 1] > tol]
            if cuts:
                u[:, lo:hi] = b @ v
            refined += [(lo + i, lo + j) for i, j in zip([0] + cuts, cuts + [hi - lo])]
        blocks = refined
        if len(blocks) == n:
            break
    return u


# Largest tangent dimension invariant_distance accepts: the sign vectors
# of the candidate set number 2^n.  The families here have n <= 7.
MAX_ORBIT_DIM = 12


# The polish is skipped when the best candidate's misfit is at most this
# fraction of ||w|| = (||w_mu||^2 + ||w_lam||^2)^(1/2): rotated pairs
# reach 4.2e-14 in the candidates, and no polish improves on rounding.
_POLISH_FLOOR = 1e-12

# A candidate is stationary when ||J^T r|| <= _STATIONARY ||J|| ||r||
# (spectral norm of J).  Seen: 1e-19 to 4e-14 at stationary candidates,
# 0.04 to 0.65 at the others.
_STATIONARY = 1e-10

# Eigenvalues of J^T J below _KERNEL_CUT times the largest span ker J,
# the stabilizer of h0 . w_mu.  J^T J is formed in floats, so an exact
# stabilizer shows at most 6e-16 of the largest; the smallest eigenvalue
# off ker J seen is 0.04 of it.
_KERNEL_CUT = 1e-12

# A stationary candidate is a strict local minimum when the Hessian on
# (ker J)^perp has lambda_min > _CURVATURE_MARGIN lambda_max.  Seen:
# lambda_min / lambda_max >= 0.108 at local minima, <= -0.08 at saddles.
_CURVATURE_MARGIN = 1e-2


def _rotation_jacobian(v):
    """J^T for the rotation h -> expm(S) . v at S = 0, one block per tensor
    of v: row a of a block is D_a t flattened, the derivation by
    E_a = e_i e_j^T - e_j e_i^T, (i, j) the a-th pair of triu_indices(n, 1),
    which is the derivative of the rotation along E_a.
    """
    n = v[0].shape[0]
    i, j = np.triu_indices(n, 1)
    e = np.eye(n)
    basis = e[i, :, None] * e[j, None, :] - e[j, :, None] * e[i, None, :]
    return [_derive(basis, t).reshape(len(i), -1) for t in v]


def _strict_local_minimum(v, w):
    """Whether 1/2 ||expm(S) . v - w||^2 has a strict local minimum at
    S = 0 in so(n), modulo the stabilizer of v (along which the misfit is
    constant).  v and w are lists of tensors.

    With J from _rotation_jacobian and r = v - w the gradient is J^T r.
    D_a is skew-adjoint, so r . D_a D_b v = -<D_a r, D_b v> and the
    Hessian is J^T J - sym(J_r^T J), J_r the Jacobian of r: no second
    derivative is formed (Absil, Mahony and Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008).  J is never stacked: each
    tensor adds its own terms.
    """
    r = [a - b for a, b in zip(v, w)]
    jt = _rotation_jacobian(v)
    gram = sum(j @ j.T for j in jt)
    grad = sum(j @ x.ravel() for j, x in zip(jt, r))
    sq, vecs = np.linalg.eigh(gram)
    if sq[-1] == 0.0:
        return True                     # every rotation fixes v
    r_norm = math.sqrt(sum(float(np.sum(x * x)) for x in r))
    if np.linalg.norm(grad) > _STATIONARY * math.sqrt(sq[-1]) * r_norm:
        return False
    cross = sum(jr @ j.T for jr, j in zip(_rotation_jacobian(r), jt))
    keep = vecs[:, sq > _KERNEL_CUT * sq[-1]]
    curv = np.linalg.eigvalsh(keep.T @ (gram - 0.5 * (cross + cross.T)) @ keep)
    return bool(curv[0] > _CURVATURE_MARGIN * curv[-1])


def _sign_scores(a, c):
    """Squared misfits || diag(s) . a - c ||^2 for every sign vector s, in
    itertools.product order.

    a and c are lists of tensors in the invariant frames.  diag(s)
    multiplies the entry at (i_1, ..., i_k) by prod_j s_j over the axes j
    that occur an odd number of times in the index, its parity class.
    Summing (a - c)^2 and (a + c)^2 per class gives every sign vector's
    score from two bincounts; all terms are non-negative, so nothing
    cancels.
    """
    n = a[0].shape[0]
    bits = 1 << np.arange(n)
    size = 2 ** n
    keep = swap = 0
    for ta, tc in zip(a, c):
        code = functools.reduce(np.bitwise_xor, np.ix_(*[bits] * ta.ndim)).ravel()
        x, y = ta.ravel(), tc.ravel()
        keep = keep + np.bincount(code, (x - y) ** 2, size)
        swap = swap + np.bincount(code, (x + y) ** 2, size)
    classes = np.flatnonzero(keep + swap)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=n)))
    member = (classes >> np.arange(n)[:, None]) & 1        # member[j, class]
    flip = (((signs < 0) @ member) % 2).astype(float)     # s negates the class
    return (1.0 - flip) @ keep[classes] + flip @ swap[classes], signs


def invariant_distance(mu, lam, order=1):
    """Distance between rotation orbits of curvature fingerprints.

    Minimizes || h . w_mu - w_lam || over h in O(n), n at most
    MAX_ORBIT_DIM.  The candidates are the identity and
    h = U_lam diag(s) U_mu^T for every sign vector s in {+-1}^n, U the
    invariant frames of the two fingerprints (_invariant_frame), scored
    in those frames (_sign_scores).  The best candidate h0 (the first one
    on a tie) is returned as it is when its misfit is at most
    _POLISH_FLOOR ||w||, ||w||^2 = ||w_mu||^2 + ||w_lam||^2, or when it is
    a strict local minimum modulo the stabilizer of h0 . w_mu
    (_strict_local_minimum): there the polish cannot move it.  Otherwise
    (saddles, far-off candidates, non-stationary points) a
    Levenberg-Marquardt pass on the entry-wise residuals,
    h = h0 expm(S(theta)), polishes it, and the smaller misfit is returned.
    A rotated pair may therefore give up to _POLISH_FLOOR ||w|| rather
    than the polished rounding level.

    The candidate set is exact when the refined spectrum is simple, or
    when the symmetries rotate every block left repeated independently
    of the others (any frame of each block then matches).  When one
    symmetry turns several blocks together, the best candidate of a
    rotated pair can be far off: 46.7 to 205.9 on rotated Aloff-Wallach
    pairs, where one isotropy circle turns all three 2-planes, and only
    the polish brings them to rounding level.  In general, and always
    on distinct spaces, the result is only an upper bound for the true
    orbit distance, never above || w_mu - w_lam ||.
    Identical arguments give identical output.  Squares beyond the float range raise ValueError.
    """
    if mu.n != lam.n:
        raise ValueError(f"tangent dimensions differ (n = {mu.n} and n = {lam.n})")
    n = mu.n
    if n > MAX_ORBIT_DIM:
        raise ValueError(f"orbit distance needs n <= MAX_ORBIT_DIM = {MAX_ORBIT_DIM} "
                         f"(2^n sign candidates), got n = {n}")
    fa, fb = fingerprint(mu, order), fingerprint(lam, order)
    # before _invariant_frame: its forms, the sign scores and the Hessian of
    # _strict_local_minimum are sums of squares bounded by this multiple
    sq = sum(fa.norms_sq() + fb.norms_sq())
    finite_float("8 (order + 4)^2 (|w_mu|^2 + |w_lam|^2)", 8 * (order + 4) ** 2 * sq)
    wa = [np.asarray(t, float) for t in fa.tensors]
    wb = [np.asarray(t, float) for t in fb.tensors]

    def misfit(h):
        return np.concatenate([(rotate_tensor(h, ta) - tb).ravel()
                               for ta, tb in zip(wa, wb)])

    # theta fills the strict upper triangle of S(theta) row by row
    upper = np.triu_indices(n, 1)

    def residuals(theta, h0):
        s = np.zeros((n, n))
        s[upper] = theta
        return misfit(h0 @ expm(s - s.T))

    ua, ub = _invariant_frame(wa), _invariant_frame(wb)
    scores, signs = _sign_scores([rotate_tensor(ua.T, t) for t in wa],
                                 [rotate_tensor(ub.T, t) for t in wb])
    identity = np.linalg.norm(np.concatenate([(ta - tb).ravel() for ta, tb in zip(wa, wb)]))
    values = np.concatenate([[identity], np.sqrt(scores)])
    best = int(np.argmin(values))
    h0 = np.eye(n) if best == 0 else ub @ (signs[best - 1][:, None] * ua.T)
    if (values[best] <= _POLISH_FLOOR * math.sqrt(sq)
            or _strict_local_minimum([rotate_tensor(h0, t) for t in wa], wb)):
        return float(values[best])
    fit = least_squares(residuals, np.zeros(n * (n - 1) // 2),
                        args=(h0,), method="lm",
                        xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return min(float(values[best]), float(np.linalg.norm(fit.fun)))
