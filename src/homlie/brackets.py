"""Lie brackets on R^(q+n) with a fixed orthogonal splitting R^q + R^n.

A bracket is stored as a dense rank-3 array of structure constants
c[i, j, k] = <mu(e_i, e_j), e_k> on the standard basis of R^(q+n).  The
first q indices span the isotropy block, the remaining n indices the
tangent block.  Such a bracket describes a simply connected homogeneous
Riemannian space once it passes the four structural conditions below,
with the inner product on the tangent block being the standard one:

(h1) mu satisfies the Jacobi identity, mu(R^q, R^q) is contained in R^q
     and mu(R^q, R^n) in R^n;
(h2) the connected subgroup generated by the isotropy block is closed in
     the simply connected group of mu (decided by family bookkeeping,
     not numerically);
(h3) ad(z) restricted to R^n is skew-symmetric for every z in R^q;
(h4) no nonzero z in R^q brackets trivially with all of R^n.

(h1) and (h3) are polynomial equations checked against a residual
tolerance, (h4) is a numerical rank condition, and (h2) is undecidable
from the structure constants alone, so it rides along as a tri-state
derived from the family tag of the bracket.

Conventions used throughout the package:

* indices are 0-based; isotropy indices are 0..q-1, tangent q..q+n-1;
* the bracket norm is the Frobenius norm of the full tensor,
  ||mu||^2 = sum_{i,j} ||mu(e_i,e_j)||^2 over ordered pairs (i, j);
* the group action is (h.mu)(x, y) = h mu(h^-1 x, h^-1 y).
"""

import dataclasses
import json
import math
import numbers
import sys
from fractions import Fraction

import numpy as np

__all__ = [
    "Bracket",
    "MembershipReport",
    "bracket_norm",
    "jacobiator",
    "check_membership",
    "default_tolerance",
    "require_member",
    "gl_action",
    "check_equivariant_conditions",
    "flat_degeneration",
    "resplit",
    "milnor_bracket",
    "circle_isotropy3",
    "circle_isotropy5",
    "aloff_wallach_bracket",
    "family_member",
    "random_member",
    "read_bracket",
    "write_bracket",
    "bracket_to_dict",
    "bracket_from_dict",
]

_EXACT_TYPES = (int, Fraction)

# Largest q + n a bracket document may declare.  The membership check
# builds the dim^4 Jacobi tensor, 8 MB at this size; the largest family
# here (Aloff-Wallach) has q + n = 8.
MAX_DIM = 32

# Largest ||mu||^2 a bracket built from entries may carry.  The Jacobi residual, Riem and
# Ric have degree 2 in mu and stay in the float range; f_k = tr(Ric^k), |nabla^k Riem|^2 and
# jet coefficients of degree d (degree 2k, 2k + 4, d) need not, and finite_float refuses them.
MAX_NORM_SQ = 1e300
_TOO_LARGE = f"entries too large: ||mu||^2 exceeds {MAX_NORM_SQ:g}"


def finite_float(name, value):
    """value as a float, or a ValueError naming the quantity when it is
    outside the float range: infinite, NaN, or an int or Fraction too
    large to convert."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} is outside the float range |x| <= {sys.float_info.max:.4g}")
    return value


def _is_exact(values):
    return all(isinstance(v, _EXACT_TYPES) and not isinstance(v, bool) for v in values)


class Bracket:
    """Antisymmetric bilinear map on R^(q+n), dense structure constants.

    Parameters
    ----------
    q, n : int
        Isotropy and tangent dimensions, q >= 0, n >= 1.
    c : array_like, shape (q+n, q+n, q+n)
        Structure constants, c[i, j, k] = <mu(e_i, e_j), e_k>.  Must be
        exactly antisymmetric in (i, j).  dtype float64 for numeric
        brackets or object (Fraction entries) for exact ones.
    family, params : optional
        Tag identifying a constructor family; carries the information
        needed to decide condition (h2).

    The constant array is frozen after construction; operations return
    new Bracket instances.
    """

    __slots__ = ("q", "n", "c", "family", "params", "_float_c")

    def __init__(self, q, n, c, family=None, params=None):
        q = int(q)
        n = int(n)
        if q < 0 or n < 1:
            raise ValueError("need q >= 0 and n >= 1")
        dim = q + n
        c = np.asarray(c)
        if c.shape != (dim, dim, dim):
            raise ValueError(f"structure constants must have shape {(dim, dim, dim)}, got {c.shape}")
        if c.dtype != object:
            c = c.astype(float)
        if (c + c.swapaxes(0, 1)).any():
            # a NaN or infinite entry always lands here (nan is nonzero,
            # inf - inf = nan), so valid input pays nothing for this test
            if c.dtype != object and not np.all(np.isfinite(c)):
                raise ValueError("structure constants must be finite")
            raise ValueError("structure constants are not antisymmetric in the first two slots")
        c.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", dict(params) if params else None)
        object.__setattr__(self, "_float_c", None if c.dtype == object else c)

    def __setattr__(self, name, value):
        raise AttributeError("Bracket is immutable")

    @property
    def dim(self):
        return self.q + self.n

    @property
    def exact(self):
        """True when the constants are stored as exact Fractions."""
        return self.c.dtype == object

    def as_float(self):
        """Structure constants as a writable float64 array (a copy)."""
        return self.float_c.copy()

    @property
    def float_c(self):
        """Structure constants as a read-only float64 array: c itself on a
        float bracket; on an exact one a float copy, converted at the
        first read and returned by every later one."""
        if self._float_c is None:
            fc = np.array(self.c, dtype=float)
            fc.flags.writeable = False
            object.__setattr__(self, "_float_c", fc)
        return self._float_c

    def apply(self, x, y):
        """Evaluate mu(x, y) for coordinate vectors x, y."""
        c = self.float_c
        return np.einsum("i,j,ijk->k", np.asarray(x, float), np.asarray(y, float), c)

    def norm(self):
        return bracket_norm(self)

    @classmethod
    def from_entries(cls, q, n, entries, family=None, params=None):
        """Build from sparse entries [(i, j, k, value), ...] with i < j.

        Antisymmetric counterparts are filled in automatically; repeated
        (i, j, k) add up.  Exact (int / Fraction) values produce an exact
        bracket.  The summed constants must be finite and ||mu||^2 at most
        MAX_NORM_SQ; both are checked before the dense array is allocated.
        """
        dim = q + n
        exact = _is_exact([e[3] for e in entries]) and len(entries) > 0
        values = {}
        for i, j, k, v in entries:
            if not (0 <= i < j < dim) or not 0 <= k < dim:
                raise ValueError(f"entry ({i}, {j}, {k}) out of range or not upper-triangular")
            try:
                v = Fraction(v) if exact else float(v)
            except OverflowError:
                raise ValueError(_TOO_LARGE) from None
            values[i, j, k] = values.get((i, j, k), 0) + v
        if not exact and not all(map(math.isfinite, values.values())):
            raise ValueError("structure constants must be finite")
        if not 2 * sum(v * v for v in values.values()) <= MAX_NORM_SQ:
            raise ValueError(_TOO_LARGE)
        c = np.full((dim, dim, dim), Fraction(0), dtype=object if exact else float)
        for (i, j, k), v in values.items():
            c[i, j, k] = c[i, j, k] + v
            c[j, i, k] = c[j, i, k] - v
        return cls(q, n, c, family=family, params=params)

    def __repr__(self):
        tag = f", family={self.family!r}" if self.family else ""
        return f"Bracket(q={self.q}, n={self.n}{tag})"


def bracket_norm(mu):
    """Frobenius norm of the structure tensor.

    ||mu||^2 = sum_{i,j,k} c[i,j,k]^2, the sum running over ordered
    index pairs, so each unordered bracket value is counted twice.
    """
    c = mu.float_c
    return float(np.sqrt(np.sum(c * c)))


def jacobiator(mu):
    """Jacobi residual tensor of a bracket.

    Returns J with shape (d, d, d, d), d = q + n, where J[i, j, k, :]
    are the components of

        mu(mu(e_i,e_j), e_k) + mu(mu(e_j,e_k), e_i) + mu(mu(e_k,e_i), e_j).

    The bracket is a Lie bracket iff J vanishes identically.
    """
    c = mu.float_c
    t = np.einsum("ijl,lkm->ijkm", c, c)
    return t + t.transpose((2, 0, 1, 3)) + t.transpose((1, 2, 0, 3))


@dataclasses.dataclass(eq=False, slots=True)
class MembershipReport:
    """Outcome of check_membership, one field per structural condition."""

    q: int
    n: int
    tol: float
    h1_jacobi_residual: float
    h1_subspace_residual: float
    h2_status: str
    h3_residual: float
    h4_kernel_dim: int

    @property
    def passed(self):
        return (self.h1_jacobi_residual <= self.tol
                and self.h1_subspace_residual <= self.tol
                and self.h3_residual <= self.tol
                and self.h4_kernel_dim == 0
                and self.h2_status != "fails")

    def __repr__(self):
        return ("MembershipReport(passed={}, jacobi={:.3e}, subspace={:.3e}, "
                "h2={}, h3={:.3e}, h4_kernel_dim={})".format(
                    self.passed, self.h1_jacobi_residual, self.h1_subspace_residual,
                    self.h2_status, self.h3_residual, self.h4_kernel_dim))


def _h2_status(mu):
    # q = 0: the isotropy subgroup is trivial, hence closed.
    if mu.q == 0:
        return "holds"
    fam = mu.family
    if fam in ("milnor", "circle3", "flat"):
        return "holds"
    if fam in ("circle5", "aloff_wallach"):
        params = mu.params or {}
        return "holds" if params.get("rational_ratio", True) else "fails"
    return "unknown"


def default_tolerance(mu):
    """Residual tolerance 1e-10 * (1 + ||mu||^2) used by the checks."""
    nrm = bracket_norm(mu)
    return 1e-10 * (1.0 + nrm * nrm)


def check_membership(mu, tol=None):
    """Test the structural conditions (h1)-(h4) for a bracket.

    (h1) and (h3) are reported as max-abs residuals, (h4) as the
    numerical kernel dimension of z in R^q |-> mu(z, .)|_{R^n} (singular
    values below tol / (1 + ||mu||^2) * sigma_max count as zero, a
    scale-free 1e-10 at the default tolerance), and (h2) as the
    tri-state derived from the family tag.  The bracket is accepted iff
    both residuals are <= tol, the kernel dimension is 0, and (h2) does
    not fail.  tol defaults to default_tolerance(mu); a given tol must be
    finite and >= 0, or a ValueError names it.
    """
    if tol is None:
        tol = default_tolerance(mu)
    elif not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    q, n = mu.q, mu.n
    c = mu.float_c
    jac = float(np.max(np.abs(jacobiator(mu))))
    sub = h3 = 0.0
    h4_dim = 0
    if q > 0:
        # mu(R^q, R^q) subset R^q and mu(R^q, R^n) subset R^n
        sub = max(float(np.max(np.abs(c[:q, :q, q:]))), float(np.max(np.abs(c[:q, q:, :q]))))
        # skewness of ad(z) on the tangent block, blocks[z, v, u] = <mu(e_z, e_v), e_u>
        blocks = c[:q, q:, q:]
        h3 = float(np.max(np.abs(blocks + np.swapaxes(blocks, 1, 2))))
        # kernel of z |-> mu(z, R^n); q >= 1 rows, so sv is not empty
        sv = np.linalg.svd(c[:q, q:, :].reshape(q, -1), compute_uv=False)
        h4_dim = q if sv[0] == 0.0 else int(
            np.sum(sv <= tol / (1.0 + float(np.sum(c * c))) * sv[0]))
    return MembershipReport(q, n, float(tol), jac, sub, _h2_status(mu), h3, h4_dim)


def require_member(mu):
    """Raise ValueError unless mu passes check_membership."""
    report = check_membership(mu)
    if not report.passed:
        raise ValueError(f"bracket fails the membership check: {report!r}")


def gl_action(h, mu):
    """Change of basis (h.mu)(x, y) = h mu(h^-1 x, h^-1 y).

    h must be an invertible (q+n) x (q+n) matrix with condition number
    below 1e12; the result carries no family tag.
    """
    h = np.asarray(h, float)
    dim = mu.dim
    if h.shape != (dim, dim):
        raise ValueError(f"h must be {dim} x {dim}")
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"h is numerically singular (condition number {cond:.3e})")
    hinv = np.linalg.inv(h)
    c = mu.float_c
    new_c = np.einsum("kl,abl,ai,bj->ijk", h, c, hinv, hinv, optimize=True)
    # Re-symmetrize to kill roundoff asymmetry from the two inverse factors.
    new_c = 0.5 * (new_c - np.swapaxes(new_c, 0, 1))
    return Bracket(mu.q, mu.n, new_c)


def check_equivariant_conditions(h, mu):
    """Check the two commutation conditions under which a block map

        h = [[h_q, A], [0, h_n]]

    sends one member to another with ad(z) conjugated by h_n.  Returns
    (cond_a, cond_b):

    * cond_a : h_n^T h_n commutes with every ad(z)|_{R^n}, z in R^q;
    * cond_b : A ad(z)|_{R^n} = h_q ad(z)|_{R^q} h_q^-1 A for all z.

    Each condition is one max-abs residual over all z, compared once with
    default_tolerance(mu).  Raises ValueError when h has the wrong shape
    or an entry that is not finite, when its lower-left block (R^q into
    R^n) exceeds that tolerance, or when h_q is numerically singular
    (condition number above 1e12, as in gl_action).
    """
    tol = default_tolerance(mu)
    q = mu.q
    h = np.asarray(h, float)
    if h.shape != (mu.dim, mu.dim):
        raise ValueError("h has wrong shape")
    if not np.all(np.isfinite(h)):
        raise ValueError("h must be finite")
    if q == 0:
        return True, True
    if np.max(np.abs(h[q:, :q])) > tol:
        raise ValueError("h is not block upper-triangular for the splitting")
    hq, a, hn = h[:q, :q], h[:q, q:], h[q:, q:]
    cond = np.linalg.cond(hq)
    if not np.isfinite(cond) or cond > 1e12:
        raise ValueError(f"h_q is numerically singular (condition number {cond:.3e})")
    c = mu.float_c
    g = hn.T @ hn
    ad_n = np.swapaxes(c[:q, q:, q:], 1, 2)     # ad_n[z] = ad(e_z) on the tangent block
    ad_q = np.swapaxes(c[:q, :q, :q], 1, 2)     # ad_q[z] = ad(e_z) on the isotropy block
    res_a = np.max(np.abs(g @ ad_n - ad_n @ g))
    res_b = np.max(np.abs(a @ ad_n - hq @ ad_q @ np.linalg.inv(hq) @ a))
    return bool(res_a <= tol), bool(res_b <= tol)


def flat_degeneration(mu):
    """Kill the tangent-tangent part of a member bracket.

    The result lam agrees with mu whenever one argument lies in R^q and
    vanishes on R^n x R^n.  It passes the structural conditions whenever
    mu does and describes a flat space, so the output is tagged with
    family "flat" (closedness holds for it).  Raises ValueError when mu
    itself fails the membership check at its default tolerance.
    """
    require_member(mu)
    q = mu.q
    c = np.array(mu.c, dtype=mu.c.dtype)
    c[q:, q:, :] = Fraction(0)                  # a float array stores it as 0.0
    return Bracket(mu.q, mu.n, c, family="flat")


def resplit(mu, q):
    """Reinterpret the same structure constants with a new isotropy size.

    Useful when a degenerate limit fails the conditions for the original
    splitting but passes them after moving extra directions into the
    isotropy block.  The family tag is dropped.
    """
    dim = mu.dim
    if not 0 <= q < dim:
        raise ValueError("new isotropy dimension out of range")
    return Bracket(q, dim - q, mu.c)


# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------

def milnor_bracket(a, b, c):
    """Diagonal bracket on R^3 (q = 0): in the orthonormal frame e1, e2, e3

        mu(e2, e3) = a e1,  mu(e3, e1) = b e2,  mu(e1, e2) = c e3.

    Every unimodular 3-dimensional Lie algebra appears for suitable
    signs: all positive gives su(2), two positive one negative sl(2,R),
    (a, b > 0, c = 0) the Euclidean motion algebra, (a > 0, b = 0,
    c < 0) the motions of the Minkowski plane, (a > 0, b = c = 0) the
    Heisenberg algebra, and the zero bracket is abelian.
    """
    entries = [(1, 2, 0, a), (0, 2, 1, -b), (0, 1, 2, c)]
    return Bracket.from_entries(0, 3, entries, family="milnor",
                                params={"a": a, "b": b, "c": c})


def circle_isotropy3(a, b, c, d):
    """Four-parameter family with q = 1, n = 3 (e0 spans the isotropy).

        mu(e0, e2) = d e3,   mu(e0, e3) = -d e2,
        mu(e2, e3) = a e1 + b e0,
        mu(e1, e2) = c e3,   mu(e1, e3) = -c e2.

    Jacobi and the skewness condition hold identically; the
    nondegeneracy condition (h4) holds iff d != 0.  The closedness
    condition holds for every parameter choice.  The underlying algebra
    is R + su(2) when ac + bd > 0 and R + sl(2, R) when ac + bd < 0.
    """
    entries = [
        (0, 2, 3, d), (0, 3, 2, -d),
        (2, 3, 1, a), (2, 3, 0, b),
        (1, 2, 3, c), (1, 3, 2, -c),
    ]
    return Bracket.from_entries(1, 3, entries, family="circle3",
                                params={"a": a, "b": b, "c": c, "d": d})


def circle_isotropy5(p, q, a, b, c, d, e, f, *, rational_ratio=True):
    """Eight-parameter family with one isotropy direction and n = 5.

    e0 spans the isotropy; e1..e5 are tangent.  Nonzero brackets:

        mu(e0, e2) = p e3,  mu(e0, e3) = -p e2,
        mu(e0, e4) = q e5,  mu(e0, e5) = -q e4,
        mu(e1, e2) = e e3,  mu(e1, e3) = -e e2,
        mu(e1, e4) = f e5,  mu(e1, e5) = -f e4,
        mu(e2, e3) = a e0 + b e1,
        mu(e4, e5) = c e0 + d e1.

    The Jacobi identity holds iff a q + b f = 0 and c p + d e = 0; (h4)
    holds iff (p, q) != (0, 0).  Closedness of the isotropy subgroup
    requires the ratio p / q to be rational; numeric inputs are treated
    as exact rationals, so pass rational_ratio=False when the pair
    stands for an irrational ratio.
    """
    entries = [
        (0, 2, 3, p), (0, 3, 2, -p), (0, 4, 5, q), (0, 5, 4, -q),
        (1, 2, 3, e), (1, 3, 2, -e), (1, 4, 5, f), (1, 5, 4, -f),
        (2, 3, 0, a), (2, 3, 1, b), (4, 5, 0, c), (4, 5, 1, d),
    ]
    return Bracket.from_entries(1, 5, entries, family="circle5",
                                params={"p": p, "q": q, "a": a, "b": b, "c": c,
                                        "d": d, "e": e, "f": f,
                                        "rational_ratio": bool(rational_ratio)})


def aloff_wallach_bracket(p, q, a, b, c, d, *, rational_ratio=True):
    """Bracket presenting an Aloff-Wallach space with a 4-parameter metric.

    q = 1, n = 7; requires a, b, c, d > 0.  The underlying algebra is
    su(3) for every admissible parameter choice and every integer pair
    (p, q); scaling (p, q) by a common factor does not change the
    space.  Closedness of the isotropy circle requires p / q rational
    (see circle_isotropy5 for the rational_ratio convention).
    """
    for name, value in zip("pqabcd", (p, q, a, b, c, d)):
        finite_float(f"parameter {name} = {_shown(value)}", value)
    if not (a > 0 and b > 0 and c > 0 and d > 0):
        raise ValueError("metric parameters a, b, c, d must be positive")
    if p == 0 and q == 0:
        raise ValueError("(p, q) must not both vanish")
    try:
        r = float(p * p + p * q + q * q)
    except OverflowError:
        # the (1, j, k) entries alone give ||mu||^2 >= 8 (p^2 + p q + q^2)
        raise ValueError(_TOO_LARGE) from None
    s1 = math.sqrt(3.0 * b * c * d / a)
    s2 = math.sqrt(3.0 * a * c * d / b)
    s3 = math.sqrt(3.0 * a * b * d / c)
    # Projection of mu(p-part, p-part) back onto the two isotropy
    # directions; obtained by expressing the diagonal commutators
    # [e_{2i}, e_{2i+1}] of the matrix model in the (e_0, e_1) basis.
    entries = [
        (0, 2, 3, -d * (p + 2 * q)), (0, 3, 2, d * (p + 2 * q)),
        (0, 4, 5, -d * (2 * p + q)), (0, 5, 4, d * (2 * p + q)),
        (0, 6, 7, -d * (p - q)), (0, 7, 6, d * (p - q)),
        (1, 2, 3, -p), (1, 3, 2, p),
        (1, 4, 5, q), (1, 5, 4, -q),
        (1, 6, 7, p + q), (1, 7, 6, -(p + q)),
        (4, 6, 2, -s1), (5, 7, 2, -s1), (5, 6, 3, -s1), (4, 7, 3, s1),
        (2, 6, 4, s2), (3, 7, 4, -s2), (2, 7, 5, s2), (3, 6, 5, s2),
        (2, 4, 6, -s3), (3, 5, 6, -s3), (3, 4, 7, s3), (2, 5, 7, -s3),
        (2, 3, 0, -3 * a * (p + 2 * q) / r), (2, 3, 1, -9 * a * d * p / r),
        (4, 5, 0, -3 * b * (2 * p + q) / r), (4, 5, 1, 9 * b * d * q / r),
        (6, 7, 0, -3 * c * (p - q) / r), (6, 7, 1, 9 * c * d * (p + q) / r),
    ]
    if not all(math.isfinite(v) for *_, v in entries if isinstance(v, float)):
        raise ValueError(_TOO_LARGE)        # the parameters are finite: a product overflowed
    return Bracket.from_entries(1, 7, entries, family="aloff_wallach",
                                params={"p": p, "q": q, "a": a, "b": b, "c": c,
                                        "d": d,
                                        "rational_ratio": bool(rational_ratio)})


_FAMILIES = {
    "milnor": milnor_bracket,
    "circle3": circle_isotropy3,
    "circle5": circle_isotropy5,
    "aloff_wallach": aloff_wallach_bracket,
}


def family_member(name, params, irrational=False):
    """The member of the named family with the given parameters.

    name is one of milnor, circle3, circle5 and aloff_wallach; params
    are the constructor's positional parameters, and irrational passes
    rational_ratio=False.  Raises ValueError for an unknown name and for
    parameters the constructor refuses, including constants that are
    not finite or exceed MAX_NORM_SQ.
    """
    try:
        ctor = _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; choose from "
                         + ", ".join(sorted(_FAMILIES))) from None
    try:
        return ctor(*params, **({"rational_ratio": False} if irrational else {}))
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot build {name} from ({', '.join(map(_shown, params))}): "
                         f"{exc}") from None


def _shown(value):
    """str(value), cut beyond 20 characters to its first and last four and
    its length, so that an error line quoting it stays short."""
    text = str(value)
    return text if len(text) <= 20 else f"{text[:4]}...{text[-4:]} ({len(text)} characters)"


# ---------------------------------------------------------------------------
# random member generation
# ---------------------------------------------------------------------------

def _random_orthogonal(dim, rng):
    m = rng.standard_normal((dim, dim))
    qmat, r = np.linalg.qr(m)
    return qmat * np.sign(np.diag(r))


def _random_member_q0(n, rng):
    # n = 3 draws one of three kinds, of which 0 and 2 are both almost
    # abelian; the draw stays so that every seed gives the brackets it gave
    kind = 0 if n == 2 else int(rng.integers(0, 3 if n == 3 else 2))
    c = np.zeros((n, n, n))
    if kind == 1:
        # diagonal 3-dimensional block, abelian complement
        a, b, cc = rng.standard_normal(3)
        c[1, 2, 0], c[2, 1, 0] = a, -a
        c[2, 0, 1], c[0, 2, 1] = b, -b
        c[0, 1, 2], c[1, 0, 2] = cc, -cc
    else:
        # almost abelian: only ad(e_0) = m acts, on span(e_1..e_{n-1});
        # Jacobi holds for an arbitrary matrix there.
        m = rng.standard_normal((n - 1, n - 1))
        c[0, 1:, 1:] = m.T
        c[1:, 0, 1:] = -m.T
    mu = Bracket(0, n, c)
    h = _random_orthogonal(n, rng) * float(rng.uniform(0.5, 1.5))
    return gl_action(h, mu)


def random_member(q, n, seed=0):
    """Draw a random bracket passing the membership check.

    Brackets satisfying the Jacobi identity form a measure-zero variety,
    so plain rejection sampling of dense tensors can never succeed.
    Samples are instead drawn from structured families that satisfy
    Jacobi identically (almost abelian, diagonal 3-dimensional, random
    isotropy families for q = 1) and then moved around by a random
    change of basis, which preserves membership.  Supported: q = 0 with
    n >= 2, and q = 1 with n = 3.  seed, an int or a Generator, goes to default_rng.
    """
    rng = np.random.default_rng(seed)
    if q == 0:
        if n < 2:
            raise ValueError("need n >= 2")
        return _random_member_q0(n, rng)
    if q == 1 and n == 3:
        a, b, c = rng.standard_normal(3)
        d = float(rng.uniform(0.3, 1.5)) * (1 if rng.integers(0, 2) else -1)
        mu = circle_isotropy3(a, b, c, d)
        h = np.zeros((4, 4))
        h[0, 0] = float(rng.uniform(0.5, 1.5)) * (1 if rng.integers(0, 2) else -1)
        h[1:, 1:] = _random_orthogonal(3, rng)
        out = gl_action(h, mu)
        # block changes of basis preserve closedness of the isotropy
        # subgroup, so the family tag may be kept
        return Bracket(1, 3, out.c, family="circle3", params=mu.params)
    raise ValueError(f"no generator for q={q}, n={n}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def bracket_to_dict(mu):
    """JSON-ready dict with sparse upper-triangular entries.

    Exact constants are written as "p/q" strings, so that the document
    reads back as the same exact bracket; float constants as numbers.
    The family params follow the constants: int and Fraction values of
    an exact bracket as strings, other numbers as floats, bools as they
    are.
    """
    c = mu.c
    entries = []
    dim = mu.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(dim):
                v = c[i, j, k]
                if v != 0:
                    entries.append([i, j, k, str(Fraction(v)) if mu.exact else float(v)])
    out = {"q": mu.q, "n": mu.n, "entries": entries}
    if mu.family is not None:
        out["family"] = mu.family
        if mu.params:
            out["params"] = {k: _param_to_json(v, mu.exact) for k, v in mu.params.items()}
    return out


def _param_to_json(value, exact):
    if isinstance(value, bool):
        return value
    if exact and isinstance(value, _EXACT_TYPES):
        return str(Fraction(value))
    return float(value)


# Most digits an exact document value may spell out, counting its decimal
# exponent: Fraction("1e999999999") would build a billion-digit integer.
MAX_EXACT_DIGITS = 1000


def _bounded_digits(text):
    """text, once its digit count is known to be at most MAX_EXACT_DIGITS."""
    mantissa, _, exponent = text.lower().partition("e")
    try:
        # a sign is not a digit: a value and its negative pass alike
        digits = len(mantissa.lstrip("+-")) + abs(int(exponent or 0))
    except ValueError:
        digits = len(text)      # not a number; Fraction says so if it is short
    if digits > MAX_EXACT_DIGITS:
        raise ValueError(f"exact value {text[:24]!r} has more than "
                         f"MAX_EXACT_DIGITS = {MAX_EXACT_DIGITS} digits")
    return text


def bracket_from_dict(data):
    """Bracket from a document {"q", "n", "entries": [[i, j, k, value], ...]}.

    A value may be a number or a string parsed by Fraction ("1/2",
    "-3", "0.25").  When every value is a string the bracket is exact,
    otherwise it is float.  String values in "params" are read as
    Fractions too.  q + n (at most MAX_DIM) is checked before anything
    is allocated and the digits of every string (at most
    MAX_EXACT_DIGITS) before it is parsed; Bracket.from_entries bounds
    the constants.
    """
    try:
        q, n, entries = data["q"], data["n"], data["entries"]
    except KeyError as exc:
        raise ValueError(f"malformed bracket document: missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed bracket document: {exc}") from exc
    for key, value in (("q", q), ("n", n)):
        # 3.0 is an integer, 3.9, "3", true, inf and nan are not
        if isinstance(value, bool) or not (isinstance(value, numbers.Integral) or (
                isinstance(value, float) and value.is_integer())):
            raise ValueError(f"malformed bracket document: {key} must be an integer, "
                             f"got {value!r}")
    q, n = int(q), int(n)
    if q < 0 or n < 1:
        raise ValueError(f"need q >= 0 and n >= 1, got q = {q}, n = {n}")
    dim = q + n
    if dim > MAX_DIM:
        raise ValueError(f"q + n = {dim} exceeds the largest supported dimension {MAX_DIM}")
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"malformed bracket document: entries is not a list: {entries!r}")
    params = data.get("params")
    if params is not None and not isinstance(params, dict):
        raise ValueError(f"malformed bracket document: params is not an object: {params!r}")
    if params:
        try:
            params = {k: Fraction(_bounded_digits(v)) if isinstance(v, str) else v
                      for k, v in params.items()}
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed bracket document: params: {exc}") from exc
    strings = [_bounded_digits(ent[3]) for ent in entries
               if isinstance(ent, (list, tuple)) and len(ent) == 4 and isinstance(ent[3], str)]
    exact = 0 < len(strings) == len(entries)
    values = []
    for ent in entries:
        try:
            i, j, k, v = ent
            v = Fraction(v) if isinstance(v, str) else v
            values.append((int(i), int(j), int(k), v if exact else float(v)))
        except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed entry {ent!r}: expected [i, j, k, value]") from exc
    return Bracket.from_entries(q, n, values, family=data.get("family"), params=params)


def common_denominator(values):
    """Least common multiple of the denominators of ints and Fractions (1 for none)."""
    return math.lcm(*{v.denominator for v in np.ravel(values)})


# v * s for an int or Fraction v and an int s that v's denominator divides
_scaled = np.frompyfunc(lambda v, s: v.numerator * (s // v.denominator), 2, 1)
_ZERO = Fraction(0)


def to_integers(values, scale):
    """values * scale as Python ints in an object array.

    values are ints or Fractions; scale is an int, or ints broadcasting
    against values, that makes every product integral.  The exact
    engines run on these integers.
    """
    return _scaled(values, scale)


def from_integers(ints, scale):
    """Fractions ints / scale in an object array, the inverse of to_integers.

    scale is an int, or ints broadcasting against ints.  Fractions are
    immutable, so each distinct (int, scale) pair is made into one
    Fraction and every entry holding it shares that object: most entries
    of a jet or a curvature tensor are 0 or repeat another.
    """
    made = {}

    def fraction(a, b):
        if not a:
            return _ZERO
        f = made.get((a, b))
        if f is None:
            f = made[a, b] = Fraction(a, b)
        return f

    return np.frompyfunc(fraction, 2, 1)(ints, scale)


def write_bracket(path, mu):
    """Write a bracket as a JSON text document (round-trips doubles and
    exact fractions)."""
    with open(path, "w") as fh:
        json.dump(bracket_to_dict(mu), fh, indent=1)
        fh.write("\n")


def read_bracket(path):
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    return bracket_from_dict(data)
