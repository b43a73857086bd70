"""The three workloads: seeded, fixed lists of calls into homlie, each checked.

A workload is built once per run from its seed.  The result is one
round: a list of operations that the runner repeats, in the same order,
until the run's time is up.  Each operation is a call into homlie's
public API (made through the module attribute at call time, so that the
traced run sees it) and a check of its answer against an oracle from
``oracles`` or a property the method must have.  The checks run outside
the timed region.

README.md gives the make-up of each round, with the cost and count of
every kind of operation in it.
"""

import contextlib
import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np

from oracles import (
    curvature_identity_residual,
    degree2_jet,
    jacobi_residual,
    max_abs,
    milnor_constants,
    milnor_flow,
    milnor_ricci,
    moment_map_ricci,
    random_rotation,
    require,
    ricci_contraction,
    riem_norm_sq_3d,
    rotate_constants,
)


class Op:
    """One call into homlie, the check of its answer, and what it is given.

    inputs lists the arguments of the call (structure constants as
    arrays); it is what a seed determines.
    """

    __slots__ = ("kind", "call", "check", "inputs")

    def __init__(self, kind, call, check, inputs):
        self.kind = kind
        self.call = call
        self.check = check
        self.inputs = inputs


def _jitter(rng, values, spread=0.1):
    """Scale each value by a seeded factor in [1 - spread, 1 + spread]."""
    return tuple(float(v) * float(rng.uniform(1.0 - spread, 1.0 + spread)) for v in values)


def _in_frame(hl, mu, h):
    """The same space in the orthonormal tangent frame h."""
    c = np.asarray(mu.c, dtype=float)
    return hl.Bracket(mu.q, mu.n, rotate_constants(c, mu.q, h), family=mu.family, params=mu.params)


def _rotated(hl, mu, rng):
    """The same space in a seeded random orthonormal tangent frame."""
    return _in_frame(hl, mu, random_rotation(mu.n, rng))


def _flat(hl, mu):
    """Drop the tangent-tangent part of the bracket: a flat space."""
    c = np.array(mu.c)
    c[mu.q:, mu.q:, :] = 0
    return hl.Bracket(mu.q, mu.n, c, family="flat")


def _signed(rng, lo, hi):
    return float(rng.uniform(lo, hi)) * float(rng.choice([-1.0, 1.0]))


def _circle5_params(rng):
    """circle_isotropy5 parameters satisfying a q + b f = 0 and c p + d e = 0."""
    p, q = float(rng.uniform(1.0, 2.0)), float(rng.uniform(0.5, 1.0))
    b, d, e, f = (_signed(rng, 0.5, 1.5) for _ in range(4))
    return (p, q, -b * f / q, b, -d * e / p, d, e, f)


# ---------------------------------------------------------------------------
# orbit: invariant_distance on n = 3 pairs
# ---------------------------------------------------------------------------

# Base spaces, each compared with a copy of itself (or of another space)
# in a fixed generic frame.  The seed moves every parameter by up to 1 %
# and every frame by a rotation of up to about 0.02 rad.  The cost of
# today's search depends strongly on the frame (a factor of 2 or more
# between random frames), so fully random frames would make the run's
# figures depend on the seed more than on the code.
ORBIT_SIMPLE = [(-1.0, 1.5, 2.0), (1.0, -2.0, 3.0), (0.5, 1.0, 2.0)]  # Milnor, simple spectrum
ORBIT_BERGER = [(2.0, 1.0), (1.0, 2.0)]                                # milnor_bracket(a, b, b)
ORBIT_CIRCLE3 = [(1.0, 0.5, 1.5, 1.0), (-1.0, 1.0, 0.5, 1.5)]         # circle_isotropy3
ORBIT_DISTINCT = [((1.0, 1.5, 0.0), (1.0, 1.5, 2.5)),                 # pairs of Milnor spaces
                  ((1.0, 1.5, 2.5), (1.0, 2.0, 3.0)),
                  ((1.0, 0.0, 0.0), (1.0, 1.5, 2.5))]
ORBIT_FRAMES = 20260101      # generator of the fixed frames
ORBIT_JITTER = 0.01


def _near(rng, frame):
    """frame times a seeded rotation (I - S)^-1 (I + S), |S_ij| <= ORBIT_JITTER."""
    n = frame.shape[0]
    s = rng.uniform(-0.5, 0.5, (n, n)) * ORBIT_JITTER
    s = s - s.T
    return frame @ np.linalg.solve(np.eye(n) - s, np.eye(n) + s)


def _orbit_check(hl, mu, nu, bound_lo, rotated):
    def check(d):
        d = float(d)
        require(math.isfinite(d) and d >= 0.0, f"distance {d!r} is not a finite number >= 0")
        wa = hl.fingerprint(mu, 1).flat_vector()
        wb = hl.fingerprint(nu, 1).flat_vector()
        start = float(np.linalg.norm(wa - wb))
        require(d <= start * (1.0 + 1e-12) + 1e-12,
                f"distance {d:.6e} exceeds the identity start {start:.6e}")
        require(d >= bound_lo * (1.0 - 1e-9),
                f"distance {d:.6e} is below the curvature-norm bound {bound_lo:.6e}")
        if rotated:
            require(d <= 1e-6, f"distance {d:.3e} > 1e-6 on a rotated pair")
    return check


def _riem_norm_milnor(abc):
    return math.sqrt(riem_norm_sq_3d(np.diag(milnor_ricci(*abc))))


def build_orbit(hl, seed, workdir):
    rng = np.random.default_rng(seed)
    frames = np.random.default_rng(ORBIT_FRAMES)
    ops = []

    def pair(kind, mu, lam, bound_lo, rotated):
        nu = _in_frame(hl, lam, _near(rng, random_rotation(lam.n, frames)))
        ops.append(Op(kind, lambda: hl.invariant_distance(mu, nu),
                      _orbit_check(hl, mu, nu, bound_lo, rotated), (mu.c, nu.c)))

    jitter = lambda values: _jitter(rng, values, ORBIT_JITTER)
    for abc in ORBIT_SIMPLE:
        mu = hl.milnor_bracket(*jitter(abc))
        pair("rotated_simple", mu, mu, 0.0, True)
    for ab in ORBIT_BERGER:
        a, b = jitter(ab)
        mu = hl.milnor_bracket(a, b, b)
        pair("rotated_berger", mu, mu, 0.0, True)
    for params in ORBIT_CIRCLE3:
        mu = hl.circle_isotropy3(*jitter(params))
        pair("rotated_circle3", mu, mu, 0.0, True)
    for abc, abc2 in ORBIT_DISTINCT:
        abc, abc2 = jitter(abc), jitter(abc2)
        lo = abs(_riem_norm_milnor(abc) - _riem_norm_milnor(abc2))
        require(lo > 0.0, "distinct pair with equal curvature norms")
        pair("distinct", hl.milnor_bracket(*abc), hl.milnor_bracket(*abc2), lo, False)
    return ops


# ---------------------------------------------------------------------------
# fingerprint: float series fingerprints and isometry_test, then the same
# layers on exact (Fraction) brackets
# ---------------------------------------------------------------------------

def _fingerprint_check(order, ricci=None, eigenvalues=None, symmetric=False, flat=False):
    """Checks on Fingerprint.tensors: shapes, identities and references.

    ricci: the Ricci matrix in the bracket's frame; eigenvalues: the
    Ricci spectrum, both from an independent computation.
    """
    def check(fp):
        ts = [np.asarray(t, dtype=float) for t in fp.tensors]
        require(len(ts) == order + 1, f"{len(ts)} tensors for order {order}")
        n = ts[0].shape[0]
        for k, t in enumerate(ts):
            require(t.shape == (n,) * (4 + k), f"tensor {k} has shape {t.shape}")
            require(bool(np.all(np.isfinite(t))), f"tensor {k} is not finite")
        scale = 1.0 + max(max_abs(t) for t in ts)
        resid = curvature_identity_residual(ts)
        require(resid <= 1e-9 * scale, f"curvature identities violated by {resid:.3e}")
        ric = ricci_contraction(ts[0])
        if ricci is not None:
            err = max_abs(ric - ricci)
            require(err <= 1e-9 * scale, f"Ricci differs from the reference by {err:.3e}")
        if eigenvalues is not None:
            got = np.sort(np.linalg.eigvalsh(0.5 * (ric + ric.T)))
            err = max_abs(got - np.sort(eigenvalues))
            require(err <= 1e-9 * scale,
                    f"Ricci spectrum differs from the closed form by {err:.3e}")
        if symmetric:
            err = max(max_abs(t) for t in ts[1:])
            require(err <= 1e-9 * scale, f"nabla^k Riem = {err:.3e} on a symmetric space")
        if flat:
            nrm = math.sqrt(sum(float(np.sum(t * t)) for t in ts))
            require(nrm <= 1e-10, f"fingerprint norm {nrm:.3e} on a flat space")
    return check


def _verdict_check(expected):
    def check(verdict):
        require(verdict == expected, f"isometry_test said {verdict!r}, expected {expected!r}")
    return check


def _almost_abelian4(hl, rng):
    """q = 0, n = 4: ad(e_0) an arbitrary matrix on span(e_1, e_2, e_3)."""
    c = np.zeros((4, 4, 4))
    m = rng.standard_normal((3, 3))
    for v in range(1, 4):
        for u in range(1, 4):
            c[0, v, u] = m[u - 1, v - 1]
            c[v, 0, u] = -m[u - 1, v - 1]
    return hl.Bracket(0, 4, rotate_constants(c, 0, random_rotation(4, rng)))


def _milnor_sum4(hl, rng):
    """q = 0, n = 4: a Milnor bracket plus an abelian direction."""
    c = np.zeros((4, 4, 4))
    c[:3, :3, :3] = milnor_constants(*(_signed(rng, 0.5, 2.0) for _ in range(3)))
    return hl.Bracket(0, 4, rotate_constants(c, 0, random_rotation(4, rng)))


def _distinct_milnor(rng):
    """Two Milnor parameter triples whose Ricci spectra differ."""
    abc = tuple(float(v) for v in rng.uniform(0.5, 2.0, 3))
    abc2 = (abc[0] * 1.5, abc[1], abc[2])
    gap = max_abs(np.sort(milnor_ricci(*abc)) - np.sort(milnor_ricci(*abc2)))
    require(gap > 1e-3, "distinct Milnor spectra coincide")
    return abc, abc2


def build_fingerprint(hl, seed, workdir):
    """The float operations of the round, then the exact ones."""
    return _build_float_series(hl, seed) + _build_exact_series(hl, seed)


def _build_float_series(hl, seed):
    rng = np.random.default_rng(seed)
    ops = []

    def fp(kind, mu, order, **expect):
        ops.append(Op(kind, lambda: hl.fingerprint(mu, order),
                      _fingerprint_check(order, **expect), (mu.c, order)))

    def iso(kind, mu, nu, order, expected):
        ops.append(Op(kind, lambda: hl.isometry_test(mu, nu, order=order),
                      _verdict_check(expected), (mu.c, nu.c, order)))

    def milnor(abc):
        mu = _rotated(hl, hl.milnor_bracket(*abc), rng)
        return mu, dict(ricci=moment_map_ricci(mu.c), eigenvalues=milnor_ricci(*abc))

    # n = 3, order 1, and isometry_test at order 1
    abc = tuple(_signed(rng, 0.5, 2.0) for _ in range(3))
    mu, ref = milnor(abc)
    fp("fp1_n3", mu, 1, **ref)
    a = float(rng.uniform(0.5, 2.0))
    mu, ref = milnor((a, a, a))
    fp("fp1_n3", mu, 1, symmetric=True, **ref)
    sym3 = hl.circle_isotropy3(0.0, _signed(rng, 0.5, 2.0), 0.0, _signed(rng, 0.5, 2.0))
    fp("fp1_n3", sym3, 1, symmetric=True)
    circ = hl.circle_isotropy3(*(_signed(rng, 0.5, 2.0) for _ in range(4)))
    fp("fp1_n3", _flat(hl, circ), 1, flat=True)
    abc, abc2 = _distinct_milnor(rng)
    mu = hl.milnor_bracket(*abc)
    iso("iso1_n3", mu, _rotated(hl, mu, rng), 1, "indistinguishable_at_order_1")
    iso("iso1_n3", mu, _rotated(hl, hl.milnor_bracket(*abc2), rng), 1, "distinct")
    iso("iso1_n3", circ, _rotated(hl, circ, rng), 1, "indistinguishable_at_order_1")
    abc, abc2 = _distinct_milnor(rng)
    iso("iso1_n3", hl.milnor_bracket(*abc), hl.milnor_bracket(*abc2), 1, "distinct")

    # n = 3, order 2; n = 4, order 1; isometry_test at n = 4 and at order 2
    abc = tuple(_signed(rng, 0.5, 2.0) for _ in range(3))
    mu, ref = milnor(abc)
    fp("fp2_n3", mu, 2, **ref)
    a = float(rng.uniform(0.5, 2.0))
    mu, ref = milnor((a, a, a))
    fp("fp2_n3", mu, 2, symmetric=True, **ref)
    fp("fp2_n3", sym3, 2, symmetric=True)
    fp("fp2_n3", circ, 2)
    for make in (_almost_abelian4, _milnor_sum4):
        mu = make(hl, rng)
        fp("fp1_n4", mu, 1, ricci=moment_map_ricci(mu.c))
    mu = _almost_abelian4(hl, rng)
    iso("iso1_n4", mu, _rotated(hl, mu, rng), 1, "indistinguishable_at_order_1")
    mu = hl.milnor_bracket(*(_signed(rng, 0.5, 2.0) for _ in range(3)))
    iso("iso2_n3", mu, _rotated(hl, mu, rng), 2, "indistinguishable_at_order_2")

    # n = 5, order 1: the collapse family, a general member and a flat one
    p = float(rng.uniform(1.0, 2.0))
    collapse = hl.circle_isotropy5(p, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0)
    fp("fp1_n5", collapse, 1, eigenvalues=[1.0, p - 0.5, p - 0.5, 0.5, 0.5])
    for _ in range(2):
        general = hl.circle_isotropy5(*_circle5_params(rng))
        fp("fp1_n5", general, 1)
    fp("fp1_n5", _flat(hl, general), 1, flat=True)
    return ops


# Fraction arithmetic costs grow with the size of the numbers, so the
# seed picks only the order and the signs of fixed magnitudes.
EXACT_MILNOR = (1, 2, 3)
EXACT_CIRCLE3 = (Fraction(1, 2), Fraction(3, 2), Fraction(1), Fraction(2))


def _signed_permutation(rng, values):
    order = rng.permutation(len(values))
    return tuple(values[i] * int(rng.choice([-1, 1])) for i in order)


def _all_fractions(values, what):
    bad = [v for v in np.ravel(values) if type(v) is not Fraction]
    require(not bad, f"{len(bad)} {what} coefficients are not Fractions, e.g. {bad[:1]!r}")


def _jet_check(hl, mu, degree):
    closed = degree2_jet(mu.c, mu.q, mu.n)
    as_float = hl.Bracket(mu.q, mu.n, np.array(mu.c, dtype=float),
                          family=mu.family, params=mu.params)

    def check(jet):
        require(jet.degree == degree and jet.exact, "jet is not exact or has the wrong degree")
        _all_fractions(jet.g, "jet")
        for idx, alpha in enumerate(jet.space.monomials):
            if sum(alpha) > 2:
                break
            for i in range(mu.n):
                for j in range(mu.n):
                    want = closed.get((i, j, tuple(alpha)), 0)
                    require(jet.g[i, j, idx] == want,
                            f"g[{i},{j}] at x^{alpha} is {jet.g[i, j, idx]}, closed form {want}")
        ref = hl.metric_jet(as_float, degree).g
        err = max_abs(np.array(jet.g, dtype=float) - ref)
        require(err <= 1e-12 * (1.0 + max_abs(ref)), f"exact and float jets differ by {err:.3e}")
    return check


def _series_check(hl, mu, order, abc=None, algebraic_first=False):
    """Checks on [Riem, ..., nabla^order Riem] of an exact bracket.

    algebraic_first: entry 0 comes from the float algebraic path, as in
    Fingerprint.tensors, and only the entries after it must be exact.
    """
    as_float = hl.Bracket(mu.q, mu.n, np.array(mu.c, dtype=float),
                          family=mu.family, params=mu.params)
    ref = hl.fingerprint(as_float, order).tensors

    def check(tensors):
        require(len(tensors) == order + 1, f"{len(tensors)} tensors for order {order}")
        skip = 1 if algebraic_first else 0
        for t in tensors[skip:]:
            _all_fractions(t, "curvature")
        require(curvature_identity_residual(tensors[skip:], skip) == 0.0,
                "curvature identities do not hold exactly")
        err = max(max_abs(np.array(t, dtype=float) - r) for t, r in zip(tensors, ref))
        require(err <= 1e-10 * (1.0 + max(max_abs(r) for r in ref)),
                f"exact and float curvature differ by {err:.3e}")
        if abc is not None:
            ric = ricci_contraction(tensors[0])
            want = np.diag(milnor_ricci(*abc))
            if algebraic_first:
                err = max_abs(np.array(ric, dtype=float) - np.array(want, dtype=float))
                require(err <= 1e-12 * (1.0 + max_abs(want)),
                        f"Ricci off the closed form by {err:.3e}")
            else:
                require(all(x == y for x, y in zip(ric.ravel(), want.ravel())),
                        f"exact Ricci {ric.tolist()} differs from the closed form {want.tolist()}")
    return check


def _build_exact_series(hl, seed):
    rng = np.random.default_rng(seed)
    ops = []
    milnors = [_signed_permutation(rng, EXACT_MILNOR) for _ in range(2)]
    brackets = ([hl.milnor_bracket(*abc) for abc in milnors]
                + [hl.circle_isotropy3(*_signed_permutation(rng, EXACT_CIRCLE3))
                   for _ in range(2)])
    for degree in (2, 3, 4, 5):
        for mu in brackets:
            ops.append(Op(f"exact_jet{degree}", lambda mu=mu, d=degree: hl.metric_jet(mu, d),
                          _jet_check(hl, mu, degree), (mu.c, degree)))
    for mu, abc in ((brackets[0], milnors[0]), (brackets[1], milnors[1]), (brackets[2], None)):
        ops.append(Op("exact_riem",
                      lambda mu=mu: hl.curvature_derivatives(hl.metric_jet(mu, 2), 0),
                      _series_check(hl, mu, 0, abc), (mu.c, 2, 0)))
    check = _series_check(hl, brackets[0], 1, milnors[0], algebraic_first=True)
    ops.append(Op("exact_fp1", lambda: hl.fingerprint(brackets[0], 1),
                  lambda fp: check(fp.tensors), (brackets[0].c, 1)))
    return ops


# ---------------------------------------------------------------------------
# flow: `homlie flow ... --constants` run in-process through homlie.cli.main
# ---------------------------------------------------------------------------

def _write_bracket(path, q, n, c, family, params):
    dim = q + n
    entries = [[i, j, k, float(c[i, j, k])] for i in range(dim) for j in range(i + 1, dim)
               for k in range(dim) if c[i, j, k] != 0]
    doc = {"q": q, "n": n, "entries": entries, "family": family, "params": params}
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _read_flow_csv(path):
    """(q, n, header, rows as float arrays) of a CSV written with --constants."""
    with open(path, newline="") as fh:
        meta = fh.readline().split()
        require(meta[:1] == ["#"], f"first line {meta!r} is not '# q=.. n=..'")
        fields = dict(tok.split("=") for tok in meta[1:])
        rows = list(csv.reader(fh))
    header = rows[0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    return int(fields["q"]), int(fields["n"]), header, data


def _constants(header, row, dim):
    c = np.zeros((dim, dim, dim))
    for col, name in enumerate(header):
        if name.startswith("c_"):
            i, j, k = (int(v) for v in name[2:].split("_"))
            c[i, j, k] = row[col]
            c[j, i, k] = -row[col]
    return c


def _flow_check(out_csv, q, n, c0, normalized, milnor_abc=None, soliton=False,
                norm_law=None):
    """Checks on the CSV of one flow run.

    milnor_abc: initial (a, b, c) of a plain Milnor flow, compared with
    an independent integration of the 3-variable ODE.  norm_law(t): the
    closed-form bracket norm along the run.  soliton: the soliton
    residual must vanish at every sample.
    """
    dim = q + n

    def check(outcome):
        code, err_text = outcome
        require(code == 0, f"homlie flow exited {code}: {err_text.strip()}")
        require("status: completed" in err_text, f"flow did not complete: {err_text.strip()}")
        got_q, got_n, header, data = _read_flow_csv(out_csv)
        require((got_q, got_n) == (q, n), f"CSV is for q={got_q}, n={got_n}")
        require(len(data) >= 2 and bool(np.all(np.isfinite(data))), "CSV has non-finite values")
        t, norm, resid = data[:, 0], data[:, 1], data[:, 2]
        first, last = _constants(header, data[0], dim), _constants(header, data[-1], dim)
        scale = float(np.sqrt(np.sum(last * last)))
        jac = jacobi_residual(last)
        require(jac <= 1e-8 * max(1.0, scale * scale), f"final Jacobi residual {jac:.3e}")
        if normalized:
            err = max_abs(norm - 1.0)
            require(err <= 1e-12, f"norm column is off 1 by {err:.3e} on a normalized run")
        if q > 0:
            # components with an isotropy input slot keep their ratios
            mask = np.abs(c0[:q]) > 1e-12
            ratio = last[:q][mask] / c0[:q][mask]
            spread = float(np.max(ratio) - np.min(ratio))
            require(spread <= 1e-8 * float(np.max(np.abs(ratio))),
                    f"isotropy-slot ratios drift by {spread:.3e}")
            if not normalized:
                require(max_abs(ratio - 1.0) <= 1e-8, "isotropy-slot constants moved")
        if milnor_abc is not None:
            got = np.array([last[1, 2, 0], last[2, 0, 1], last[0, 1, 2]])
            want = milnor_flow(milnor_abc, float(t[-1]))
            err = max_abs(got - want)
            require(err <= 1e-6 * (1.0 + max_abs(want)),
                    f"final (a, b, c) {got} differs from the ODE solution {want} by {err:.3e}")
            ric = np.sort(data[-1, 3:3 + n])
            err = max_abs(ric - np.sort(milnor_ricci(*got)))
            require(err <= 1e-9 * (1.0 + max_abs(ric)), f"Ricci columns off by {err:.3e}")
        if norm_law is not None:
            err = max_abs(norm / norm_law(t) - 1.0)
            require(err <= 1e-6, f"norm column departs from its closed form by {err:.3e}")
        if soliton:
            worst = max_abs(resid)
            require(worst <= 1e-9, f"soliton residual {worst:.3e} on a soliton")
        start = c0 / float(np.sqrt(np.sum(c0 * c0))) if normalized else c0
        require(max_abs(first - start) <= 1e-12 * (1.0 + max_abs(start)),
                "first row does not hold the initial bracket")
    return check


# Base parameters; the seed moves each by up to 10 %.  The cost of a run
# is its number of steps, which these choices keep within a factor of 3.
FLOW_COPIES = 3     # seeded copies of each run per round
FLOW_JITTER = 0.1
FLOW_MILNOR = [(1.0, 1.2, 0.8), (1.0, 1.2, -0.8), (1.0, 1.2, 0.0)]
FLOW_CIRCLE3 = [((1.0, 0.8, 1.2, 0.7), True, 1.5), ((1.0, -0.8, 1.2, 0.7), False, 0.3)]
FLOW_CIRCLE5 = (1.5, 0.75, 1.0, -1.0, 0.8, 1.2)     # p, q, b, d, e, f
FLOW_AW_PAIRS = [(1, 1), (1, 2), (2, 3)]


def build_flow(hl, seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    count = [0]

    def run(kind, q, n, c, family, params, t_end, normalized, **expect):
        count[0] += 1
        src = os.path.join(workdir, f"mu{count[0]}.json")
        out = os.path.join(workdir, f"run{count[0]}.csv")
        _write_bracket(src, q, n, c, family, params)
        argv = ["flow", src, "--t-end", repr(float(t_end)), "--constants", "--output", out]
        if normalized:
            argv.append("--normalized")

        def call():
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = hl.cli.main(argv)
            return code, err.getvalue()
        check = _flow_check(out, q, n, np.array(c, dtype=float), normalized, **expect)
        ops.append(Op(kind, call, check, (np.array(c), t_end, normalized)))

    def milnor(abc):
        return milnor_constants(*(float(v) for v in abc))

    jitter = lambda values: _jitter(rng, values, FLOW_JITTER)
    for _ in range(FLOW_COPIES):
        # Heisenberg: plain flow has |mu| = sqrt(2) a / sqrt(1 + 3 a^2 t); a soliton
        (a,) = jitter((1.0,))
        law = lambda t, a=a: math.sqrt(2.0) * a / np.sqrt(1.0 + 3.0 * a * a * t)
        run("milnor", 0, 3, milnor((a, 0.0, 0.0)), "milnor", None, 0.8 / a ** 2, False,
            milnor_abc=(a, 0.0, 0.0), soliton=True, norm_law=law)
        (a,) = jitter((1.0,))
        run("milnor", 0, 3, milnor((a, 0.0, 0.0)), "milnor", None, 1.0 / a ** 2, True, soliton=True)
        # round S^3: |mu| = sqrt(6) a / sqrt(1 - a^2 t); Einstein
        (a,) = jitter((1.0,))
        law = lambda t, a=a: math.sqrt(6.0) * a / np.sqrt(1.0 - a * a * t)
        run("milnor", 0, 3, milnor((a, a, a)), "milnor", None, 0.6 / a ** 2, False,
            milnor_abc=(a, a, a), soliton=True, norm_law=law)
        # su(2), sl(2, R) and e(2) brackets, plain; a normalized su(2) flow
        for abc in FLOW_MILNOR:
            abc = jitter(abc)
            run("milnor", 0, 3, milnor(abc), "milnor", None, 0.15, False, milnor_abc=abc)
        run("milnor", 0, 3, milnor(jitter((0.5, 0.8, 0.3))), "milnor", None, 3.0, True)
        # circle isotropy and Aloff-Wallach brackets
        for params, normalized, t_end in FLOW_CIRCLE3:
            mu = hl.circle_isotropy3(*jitter(params))
            run("circle3", 1, 3, mu.c, "circle3", mu.params, t_end, normalized)
        p, q, b, d, e, f = jitter(FLOW_CIRCLE5)
        mu = hl.circle_isotropy5(p, q, -b * f / q, b, -d * e / p, d, e, f)
        run("circle5", 1, 5, mu.c, "circle5", None, 1.0, True)
        p, q = FLOW_AW_PAIRS[int(rng.integers(0, len(FLOW_AW_PAIRS)))]
        mu = hl.aloff_wallach_bracket(p, q, *jitter((1.0, 1.0, 1.0, 1.0)))
        run("aloff_wallach", 1, 7, mu.c, "aloff_wallach", None, 0.5, True)
    return ops


WORKLOADS = {
    "orbit": build_orbit,
    "fingerprint": build_fingerprint,
    "flow": build_flow,
}

__all__ = ["Op", "WORKLOADS"]
