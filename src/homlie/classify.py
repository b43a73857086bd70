"""Equivalence diagnostics: commutants, invariant comparison, topology.

Three unrelated ways two brackets can describe "the same" space are
covered here:

* isometry up to order K, decided (negatively) by comparing scalar
  curvature invariants computed from the fingerprints;
* equivariant equivalence of the isotropy action, whose linear-algebra
  shadow is the commutant of ad(R^q) on the tangent block;
* topological identification of the 7-dimensional circle-quotient
  family by classical congruence invariants in the integer parameters.

For coprime integers (p, q) the topology invariants are

    r = p^2 + p q + q^2,       s = p q (p + q),

and two parameter pairs give homotopy-equivalent spaces iff r matches
and s = +-s' mod r, homeomorphic iff additionally s = +-s' mod 2^3 3 r,
diffeomorphic iff s = +-s' mod 2^5 3 7 r (the factor 7 drops out when
7 divides r), and equivariantly diffeomorphic iff the multisets
{p, q, -(p+q)} agree up to an overall sign.  All arithmetic is exact.
"""

import math
from itertools import product

import numpy as np

from .brackets import bracket_norm, check_membership
from .brackets import milnor_bracket, circle_isotropy3, circle_isotropy5, aloff_wallach_bracket
from .coordinates import injectivity_bound
from .curvature import fingerprint, scalar_invariants

__all__ = [
    "commutant",
    "isometry_test",
    "AWReport",
    "aw_equivalence",
    "aw_find_witnesses",
    "sequence_diagnostics",
]

FAMILY_CONSTRUCTORS = {
    "milnor": milnor_bracket,
    "circle3": circle_isotropy3,
    "circle5": circle_isotropy5,
    "aloff_wallach": aloff_wallach_bracket,
}


def commutant(mu):
    """Basis of the matrices commuting with every ad(z)|_tangent, z in R^q.

    Returns a list of n x n matrices, orthonormal in the Frobenius inner
    product, spanning the real commutant algebra: the right singular
    vectors of the stacked commutator maps whose singular values are at
    most 1e-10 max(1, sigma_max).  The dimension reconstructs the
    isotypic decomposition of the isotropy action: each isotypic block
    of multiplicity m over R, C or H contributes a full matrix algebra
    gl_m over that division algebra.  Requires q >= 1.
    """
    q, n = mu.q, mu.n
    if q < 1:
        raise ValueError("commutant needs at least one isotropy direction")
    c = mu.float_c
    eye = np.eye(n)
    rows = []
    for z in range(q):
        m = c[z, q:, q:].T
        rows.append(np.kron(eye, m.T) - np.kron(m, eye))
    # q n^2 >= n^2 rows, so there is one singular value per basis matrix
    _, sv, vt = np.linalg.svd(np.vstack(rows))
    return [v.reshape(n, n) for v, s in zip(vt, sv) if s <= 1e-10 * max(1.0, sv[0])]


def isometry_test(mu, lam, order=2):
    """Compare curvature invariants of two brackets up to a given order.

    The scalars compared are the Ricci power traces f_1..f_n and the
    squared norms of nabla^k Riem for k = 0..order; all of them are
    invariant under orthogonal changes of tangent basis, so a genuine
    isometry forces equality.  Returns "distinct" when some scalar
    differs by more than 1e-8 (1 + magnitude), otherwise the string
    "indistinguishable_at_order_<order>".  Isotropy dimensions may
    differ; the tangent dimensions must agree.
    """
    if mu.n != lam.n:
        return "distinct"
    sa = scalar_invariants(mu)
    sb = scalar_invariants(lam)
    fa = fingerprint(mu, order)
    fb = fingerprint(lam, order)
    sa += [float(np.sum(t * t)) for t in fa.tensors]
    sb += [float(np.sum(t * t)) for t in fb.tensors]
    for a, b in zip(sa, sb):
        if abs(a - b) > 1e-8 * (1.0 + max(abs(a), abs(b))):
            return "distinct"
    return f"indistinguishable_at_order_{order}"


class AWReport:
    """Topology comparison of two integer parameter pairs."""

    __slots__ = ("pair", "pair_other", "r", "s", "r_other", "s_other",
                 "homotopy_equivalent", "homeomorphic", "diffeomorphic",
                 "equivariantly_diffeomorphic")

    def __init__(self, pair, pair_other, r, s, r_other, s_other,
                 homotopy_equivalent, homeomorphic, diffeomorphic,
                 equivariantly_diffeomorphic):
        self.pair = pair
        self.pair_other = pair_other
        self.r = r
        self.s = s
        self.r_other = r_other
        self.s_other = s_other
        self.homotopy_equivalent = homotopy_equivalent
        self.homeomorphic = homeomorphic
        self.diffeomorphic = diffeomorphic
        self.equivariantly_diffeomorphic = equivariantly_diffeomorphic

    def to_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}

    def __repr__(self):
        return ("AWReport(pair={}, pair_other={}, homotopy={}, homeo={}, "
                "diffeo={}, equivariant={})".format(
                    self.pair, self.pair_other, self.homotopy_equivalent,
                    self.homeomorphic, self.diffeomorphic,
                    self.equivariantly_diffeomorphic))


def _aw_invariants(p, q):
    if not (isinstance(p, int) and isinstance(q, int)):
        raise ValueError("parameters must be integers")
    if math.gcd(p, q) != 1:
        raise ValueError(f"parameters must be coprime, got ({p}, {q})")
    return p * p + p * q + q * q, p * q * (p + q)


def _cong(s, s_other, modulus):
    return (s - s_other) % modulus == 0 or (s + s_other) % modulus == 0


def aw_equivalence(p, q, p_other, q_other):
    """Classify the relation between two coprime integer pairs.

    Exact integer arithmetic throughout; raises ValueError for
    non-integer or non-coprime input.  The four booleans are nested:
    equivariant implies diffeomorphic implies homeomorphic implies
    homotopy equivalent.
    """
    r, s = _aw_invariants(p, q)
    r2, s2 = _aw_invariants(p_other, q_other)
    same_r = r == r2
    homotopy = same_r and _cong(s, s2, r)
    homeo = same_r and _cong(s, s2, 24 * r)
    diffeo_mod = 96 * r if r % 7 == 0 else 672 * r
    diffeo = same_r and _cong(s, s2, diffeo_mod)
    triple = sorted((p, q, -(p + q)))
    triple2 = sorted((p_other, q_other, -(p_other + q_other)))
    triple2_neg = sorted((-p_other, -q_other, p_other + q_other))
    equivariant = triple == triple2 or triple == triple2_neg
    return AWReport((p, q), (p_other, q_other), r, s, r2, s2,
                    homotopy, homeo, diffeo, equivariant)


def _eis_mul(x, y):
    """Product of Eisenstein integers a + b w given as (a, b); w^2 = -1 - w."""
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def _eis_conj(x):
    a, b = x
    return (a - b, -b)


def _aw_canonical(x):
    """Canonical pair p >= q >= 1 of p - q w, up to units and conjugation.

    Units and conjugation permute the weight triple {p, q, -(p + q)} and
    flip its overall sign; the canonical pair is the two entries of
    equal sign, made positive and sorted.  x must not be a unit.
    """
    a, b = x
    t = sorted((a, -b, b - a))
    if t[1] < 0:
        t = [-v for v in reversed(t)]
    return (t[2], t[1])


def _spf_table(n):
    """Smallest prime factor of every integer 0..n (spf[k] = k for k < 2)."""
    spf = list(range(n + 1))
    for i in range(2, math.isqrt(n) + 1):
        if spf[i] == i:
            for j in range(i * i, n + 1, i):
                if spf[j] == j:
                    spf[j] = i
    return spf


def _factor_product(factors, spf):
    """Prime factorisation {prime: exponent} of a product of integers >= 1."""
    out = {}
    for m in factors:
        while m > 1:
            ell = spf[m]
            out[ell] = out.get(ell, 0) + 1
            m //= ell
    return out


def aw_find_witnesses(r_max):
    """Exhaustively search p >= q >= 1 coprime with r <= r_max.

    Returns a dict with the first (by increasing r, then lexicographic)
    witness pairs for "homotopy equivalent but not homeomorphic" and
    "homeomorphic but not diffeomorphic", or None where none exists in
    range.  Under the congruences of this module the first witness of
    either kind is the Kreck-Stolz pair (42652, 18561), (51561, 5227) at
    r = 2955367597, which is homeomorphic but not diffeomorphic; an
    exhaustive grid scan of every coprime pair with r < 3e9 finds no other
    homotopy-equivalent pair.

    Both kinds need two distinct canonical pairs that are homotopy
    equivalent, so only those are enumerated, through the Eisenstein
    integers alpha = p - q w of norm r.  Writing s = p q (p + q) and
    D = (p - q)(2p + q)(p + 2q), one has 2 alpha^3 = D - 3 s sqrt(-3), hence
    4 r^3 = D^2 + 27 s^2, and gcd(s, r) = 1, gcd(D, r) | 3.  Two distinct
    canonical pairs of the same norm are alpha = gamma delta and
    beta = gamma conj(delta) with coprime norms g, h (the prime 1 - w of
    norm 3 can only sit in gamma), and

        {|s_alpha + s_beta|, |s_alpha - s_beta|}
            = {|s_gamma D_delta|, |D_gamma s_delta|}.

    So r | s_alpha -+ s_beta forces the norm of the larger factor tau to
    divide s or D of the smaller factor sigma, with N(sigma)^2 < r <= r_max.
    The search runs over every canonical sigma of norm at most sqrt(r_max),
    every divisor T of s_sigma or D_sigma that can be a norm coprime to
    N(sigma), and every tau of norm T up to conjugation; it forms
    sigma tau and sigma conj(tau) and classifies them with aw_equivalence.
    s and D are products of linear forms below 3 r_max^(1/4), so a small
    sieve factors them and the cost grows roughly like sqrt(r_max).  The
    factor sigma = 1 - w (the pair (1, 1)) is skipped: D_sigma = 0, so its
    two products have s = +-s' exactly and are diffeomorphic.
    """
    best = {"homotopy_not_homeo": None, "homeo_not_diffeo": None}
    for key in _aw_split_candidates(r_max):
        rep = aw_equivalence(*key[1], *key[2])
        for kind, hit in (
                ("homotopy_not_homeo",
                 rep.homotopy_equivalent and not rep.homeomorphic),
                ("homeo_not_diffeo",
                 rep.homeomorphic and not rep.diffeomorphic)):
            if hit and (best[kind] is None or key < best[kind]):
                best[kind] = key
    return {kind: None if key is None else key[1:]
            for kind, key in best.items()}


def _aw_split_candidates(r_max):
    """Yield (r, a, b) for the products sigma tau, sigma conj(tau).

    a < b are their canonical pairs and r <= r_max their common norm; see
    aw_find_witnesses for why every homotopy-equivalent pair of distinct
    canonical pairs is among them.
    """
    r_max = max(int(r_max), 0)
    root = math.isqrt(r_max)
    p_max = 1
    while (p_max + 1) ** 2 + p_max + 2 <= root:
        p_max += 1
    spf = _spf_table(3 * p_max)
    split_prime = {}
    for x in range(2, math.isqrt(3 * p_max) + 1):
        for y in range(1, x):
            ell = x * x + x * y + y * y
            if ell > 3 * p_max:
                break
            if ell % 3 == 1 and spf[ell] == ell:
                split_prime[ell] = (x, -y)
    for p in range(2, p_max + 1):
        for q in range(1, p):
            g = p * p + p * q + q * q
            if g > root:
                break
            if math.gcd(p, q) != 1:
                continue
            sigma = (p, -q)
            norms = {}
            for linear in ((p, q, p + q), (p - q, 2 * p + q, p + 2 * q)):
                fac = _factor_product(linear, spf)
                if 3 in fac:
                    fac[3] = 1
                parts = [[(ell, k) for k in range(fac[ell] + 1)]
                         for ell in sorted(fac)
                         if (ell == 3 or ell % 3 == 1) and g % ell]
                for choice in product(*parts):
                    t = math.prod(ell ** k for ell, k in choice)
                    if g < t <= r_max // g:
                        norms[t] = [(ell, k) for ell, k in choice
                                    if k and ell != 3]
            for t, prime_powers in norms.items():
                factors = []
                for ell, k in prime_powers:
                    x = (1, 0)
                    for _ in range(k):
                        x = _eis_mul(x, split_prime[ell])
                    factors.append(x)
                # 1 - w carries the factor 3; tau and conj(tau) give the
                # same two products, so the first prime power is fixed
                lam = (1, -1) if t % 3 == 0 else (1, 0)
                first = _eis_mul(lam, factors[0])
                conjugates = [(x, _eis_conj(x)) for x in factors[1:]]
                for picks in product(*conjugates):
                    tau = first
                    for x in picks:
                        tau = _eis_mul(tau, x)
                    a = _aw_canonical(_eis_mul(sigma, tau))
                    b = _aw_canonical(_eis_mul(sigma, _eis_conj(tau)))
                    yield (g * t, min(a, b), max(a, b))


def _bracket_distance(mu, lam):
    """Euclidean distance of the structure constants of two brackets on one R^(q+n)."""
    diff = mu.as_float() - lam.as_float()
    return float(np.sqrt(np.sum(diff * diff)))


def sequence_diagnostics(family, params_seq, limit, topology_pairs=None,
                         limit_pair=None):
    """Tabulate convergence diagnostics of a parameter sequence.

    Builds family members for every parameter tuple and compares them
    with the limit bracket: structure-constant distance (when the
    ambient dimensions agree), membership verdicts, Ricci power traces
    f_1..f_3 with gaps against the limit, injectivity lower bounds,
    and topology flags against limit_pair when integer pairs are
    supplied.  Returns a list of plain dicts, one per member.
    """
    try:
        ctor = FAMILY_CONSTRUCTORS[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}") from None
    if topology_pairs is not None and len(topology_pairs) != len(params_seq):
        raise ValueError(f"{len(topology_pairs)} topology pairs for "
                         f"{len(params_seq)} parameter tuples")
    limit_member = check_membership(limit).passed
    f_limit = scalar_invariants(limit, 3) if limit_member else None
    rows = []
    for idx, params in enumerate(params_seq):
        try:
            mu = ctor(*params)
        except TypeError as exc:
            raise ValueError(f"cannot build a {family} member from {tuple(params)}: "
                             f"{exc}") from None
        rep = check_membership(mu)
        row = {
            "index": idx,
            "params": tuple(params),
            "member": rep.passed,
            "h2_status": rep.h2_status,
        }
        row["bracket_distance"] = (_bracket_distance(mu, limit)
                                   if mu.dim == limit.dim else None)
        fs = scalar_invariants(mu, 3)
        for j, v in enumerate(fs, start=1):
            row[f"f{j}"] = v
        if f_limit is not None:
            for j, (a, b) in enumerate(zip(fs, f_limit), start=1):
                row[f"gap{j}"] = abs(a - b)
        bound = injectivity_bound(mu)
        row["inj_lower"] = bound.lower
        row["inj_heuristic"] = bound.heuristic
        if topology_pairs is not None and limit_pair is not None:
            pq = topology_pairs[idx]
            rep_aw = aw_equivalence(pq[0], pq[1], limit_pair[0], limit_pair[1])
            row["homotopy_equivalent_to_limit"] = rep_aw.homotopy_equivalent
            row["homeomorphic_to_limit"] = rep_aw.homeomorphic
        rows.append(row)
    return rows
