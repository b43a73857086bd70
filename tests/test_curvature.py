import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm
from hypothesis import given, settings, strategies as st

import homlie.brackets as br
import homlie.curvature as cu
from homlie.classify import isometry_test
from homlie.coordinates import (coordinate_curvature_oracle,
                                curvature_derivatives, metric_jet)
from helpers import exact_bracket, lauret_ricci, milnor_ricci_eigenvalues, \
    random_orthogonal

coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False,
                  allow_infinity=False)


def toy_sphere(a):
    return exact_bracket(1, 2, [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 0, a)])


# ---------------------------------------------------------------------------
# reference geometries
# ---------------------------------------------------------------------------

def test_round_su2_curvature():
    mu = br.milnor_bracket(1.0, 1.0, 1.0)
    riem = cu.riemann_origin(mu)
    for i in range(3):
        for j in range(3):
            if i != j:
                assert riem[i, j, j, i] == pytest.approx(0.25, abs=1e-14)
    assert np.allclose(cu.ricci_operator(mu), 0.5 * np.eye(3), atol=1e-14)


def test_flat_euclidean_motions():
    mu = br.milnor_bracket(0.0, 1.0, 1.0)
    assert np.max(np.abs(cu.riemann_origin(mu))) <= 1e-14
    assert np.max(np.abs(cu.ricci_operator(mu))) <= 1e-14


def test_heisenberg_ricci_signature():
    mu = br.milnor_bracket(1.0, 0.0, 0.0)
    eigs = curvature_eigs(mu)
    assert np.allclose(eigs, [0.5, -0.5, -0.5], atol=1e-14)


def curvature_eigs(mu):
    return cu.curvature_data(mu).ricci_eigenvalues


def test_toy_sphere_sectional_curvature():
    mu = toy_sphere(Fraction(7, 10))
    riem = cu.riemann_origin(mu)
    # one tangent 2-plane, orthonormal frame at the origin
    assert riem[0, 1, 1, 0] == pytest.approx(0.7, abs=1e-14)
    assert riem[1, 0, 0, 1] == pytest.approx(0.7, abs=1e-14)
    assert riem[0, 1, 0, 1] == pytest.approx(-0.7, abs=1e-14)


@pytest.mark.parametrize("abc", [
    (1.0, 1.0, 1.0),
    (1.0, 0.5, 0.25),
    (2.0, -1.0, 0.3),
    (0.0, 1.0, -1.0),
    (1.0, 0.0, 0.0),
])
def test_milnor_ricci_closed_form(abc):
    mu = br.milnor_bracket(*abc)
    assert np.allclose(curvature_eigs(mu), milnor_ricci_eigenvalues(*abc),
                       atol=1e-12)


# ---------------------------------------------------------------------------
# independent computational paths
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
def test_moment_map_ricci_cross_check(seed):
    # second derivation of the Ricci endomorphism for q = 0, via the
    # moment map / Killing form / mean curvature decomposition
    mu = br.random_member(0, 3 if seed % 2 else 4, seed=seed)
    assert np.allclose(cu.ricci_operator(mu), lauret_ricci(mu), atol=1e-10)


RICCI_CASES = {
    "milnor": br.milnor_bracket(1.0, 0.5, 0.25),
    "circle3": br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    "circle5": br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5),
    "aloff_wallach": br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
    "exact_milnor": br.milnor_bracket(Fraction(1, 3), 1, 2),
    **{f"random_q0_n{n}_{s}": br.random_member(0, n, seed=s)
       for n in (3, 4, 5, 6) for s in range(2)},
    **{f"random_q1_n3_{s}": br.random_member(1, 3, seed=s) for s in range(2)},
}


@pytest.mark.parametrize("mu", RICCI_CASES.values(), ids=RICCI_CASES.keys())
def test_ricci_operator_equals_contracted_riemann(mu):
    # ricci_operator contracts the constants directly; the trace of the
    # full algebraic Riem is the reference
    want = cu._ricci(cu.riemann_origin(mu))
    got = cu.ricci_operator(mu)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def moment_map_ricci(c):
    """Ric = M - B/2 - S(ad H) for q = 0, as whole-array contractions."""
    m = (-0.5 * np.einsum("xab,yab->xy", c, c)
         + 0.25 * np.einsum("abx,aby->xy", c, c))
    killing = np.einsum("xab,yba->xy", c, c)
    adh = np.einsum("k,kvu->uv", np.einsum("kaa->k", c), c)
    return m - 0.5 * killing - 0.5 * (adh + adh.T)


@pytest.mark.parametrize("mu", [mu for mu in RICCI_CASES.values() if mu.q == 0],
                         ids=[k for k, mu in RICCI_CASES.items() if mu.q == 0])
def test_ricci_operator_equals_moment_map_form(mu):
    want = moment_map_ricci(mu.float_c)
    got = cu.ricci_operator(mu)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("mu", [
    br.milnor_bracket(1.0, 0.5, 0.25),
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1),
    br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 0.5, 1.0),
], ids=["milnor", "circle3", "circle5", "aloff_wallach"])
def test_series_path_agrees_with_algebraic_path(mu):
    riem_alg = cu.riemann_origin(mu)
    riem_ser = coordinate_curvature_oracle(metric_jet(mu, 2), 0)
    scale = 1.0 + np.max(np.abs(riem_alg))
    assert np.max(np.abs(riem_alg - riem_ser)) / scale <= 1e-12


@pytest.mark.parametrize("mu, order", [
    (br.milnor_bracket(1.0, 2.0, 3.0), 2),
    (br.random_member(0, 4, seed=0), 2),
    (br.circle_isotropy3(0.8, -0.3, 1.1, 0.7), 2),
    (br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0), 1),
], ids=["milnor", "random_q0_n4", "circle3", "circle5"])
def test_fingerprint_agrees_with_series_path(mu, order):
    # Nomizu's derivation formula against Christoffel calculus on the
    # metric Taylor series; this is what keeps the series path checked
    fp = cu.fingerprint(mu, order)
    series = curvature_derivatives(metric_jet(mu, order + 2), order)
    for alg, ser in zip(fp.tensors, series):
        assert np.max(np.abs(alg - ser)) <= 1e-10 * np.max(np.abs(ser))


def _assert_fractions_equal(got, want):
    assert got.shape == want.shape
    for a, b in zip(got.ravel(), want.ravel()):
        assert type(a) is Fraction and type(b) is Fraction and a == b


def test_exact_fingerprint_equals_exact_series_path():
    for mu in (br.milnor_bracket(1, 2, 3), br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1)):
        fp = cu.fingerprint(mu, 1)
        series = curvature_derivatives(metric_jet(mu, 3), 1)
        for alg, ser in zip(fp.tensors, series):
            _assert_fractions_equal(alg, ser)


# ---------------------------------------------------------------------------
# fingerprints and orbit distance
# ---------------------------------------------------------------------------

def test_fingerprint_layout():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    fp = cu.fingerprint(mu, order=2)
    assert fp.order == 2
    assert [t.ndim for t in fp.tensors] == [4, 5, 6]
    assert np.array_equal(fp.tensors[0], cu.riemann_origin(mu))
    assert fp.norm() == pytest.approx(
        math.sqrt(sum(np.sum(t * t) for t in fp.tensors)), rel=1e-14)
    assert fp.flat_vector().size == 81 + 243 + 729
    with pytest.raises(ValueError):
        cu.fingerprint(mu, order=-1)


def test_exact_fingerprint_is_all_fractions():
    fp = cu.fingerprint(br.milnor_bracket(1, 2, 3), 2)
    assert [t.ndim for t in fp.tensors] == [4, 5, 6]
    for t in fp.tensors:
        assert all(type(v) is Fraction for v in t.ravel())
    assert np.array_equal(np.array(fp.tensors[0], dtype=float),
                          cu.riemann_origin(br.milnor_bracket(1.0, 2.0, 3.0)))


rational = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
exact_members = st.one_of(
    st.builds(br.milnor_bracket, rational, rational, rational),
    st.builds(br.circle_isotropy3, rational, rational, rational,
              rational.filter(lambda d: d != 0)))   # d = 0 fails (h4)


@settings(max_examples=12, deadline=None)
@given(exact_members)
def test_exact_fingerprint_equals_exact_series_path_random(mu):
    # integer-scaled Nomizu derivation against integer-scaled Christoffel
    # calculus on the metric jet: two independent exact routes
    fp = cu.fingerprint(mu, 2)
    series = curvature_derivatives(metric_jet(mu, 4), 2)
    for alg, ser in zip(fp.tensors, series):
        _assert_fractions_equal(alg, ser)


def test_exact_zero_bracket_gives_zero_fractions():
    mu = br.milnor_bracket(0, 0, 0)
    assert mu.exact
    for tensors in (cu.fingerprint(mu, 2).tensors,
                    curvature_derivatives(metric_jet(mu, 4), 2)):
        for t in tensors:
            assert all(type(v) is Fraction and v == 0 for v in t.ravel())


def test_fingerprint_rejects_nonmember():
    # mu(e0, e1) = e1, mu(e0, e2) = e0, mu(e1, e2) = e1 fails Jacobi
    mu = br.Bracket.from_entries(0, 3, [(0, 1, 1, 1.0), (0, 2, 0, 1.0), (1, 2, 1, 1.0)])
    assert not br.check_membership(mu).passed
    with pytest.raises(ValueError, match="membership"):
        cu.fingerprint(mu, 1)


def _rotate_per_axis(h, t):
    """Reference rotation: one tensordot and one moveaxis per index."""
    for axis in range(t.ndim):
        t = np.moveaxis(np.tensordot(h, t, axes=(1, axis)), 0, axis)
    return t


@pytest.mark.parametrize("n", [3, 4, 5, 7])
def test_rotate_tensor_matches_per_axis_reference(n):
    rng = np.random.default_rng(n)
    h = random_orthogonal(n, rng)
    for rank in (4, 5, 6):
        t = rng.standard_normal((n,) * rank)
        assert np.array_equal(cu.rotate_tensor(h, t), _rotate_per_axis(h, t))


def test_rotate_tensor_equivariance():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    rng = np.random.default_rng(3)
    h = random_orthogonal(3, rng)
    rotated = br.gl_action(h, mu)
    assert np.allclose(cu.riemann_origin(rotated),
                       cu.rotate_tensor(h, cu.riemann_origin(mu)), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(coeff, coeff, coeff, st.floats(min_value=0.25, max_value=2.0))
def test_ricci_quadratic_scaling(a, b, c, s):
    base = cu.ricci_operator(br.milnor_bracket(a, b, c))
    scaled = cu.ricci_operator(br.milnor_bracket(s * a, s * b, s * c))
    assert np.allclose(scaled, s * s * base, atol=1e-10)


def test_invariant_distance_vanishes_on_rotated_pair():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    h = random_orthogonal(3, np.random.default_rng(11))
    d = cu.invariant_distance(mu, br.gl_action(h, mu), order=1)
    assert d <= 1e-6


def test_invariant_distance_separates_distinct_geometries():
    mu = br.milnor_bracket(1.0, 1.0, 1.0)
    lam = br.milnor_bracket(1.0, 1.0, 0.5)
    assert cu.invariant_distance(mu, lam, order=1) > 1e-3


def test_invariant_distance_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match=r"dimensions differ \(n = 3 and n = 4\)"):
        cu.invariant_distance(br.milnor_bracket(1, 1, 1),
                              br.random_member(0, 4, seed=0))


def test_invariant_distance_is_deterministic():
    mu = br.milnor_bracket(1.0, 0.6, 0.3)
    lam = br.milnor_bracket(0.9, 0.7, 0.2)
    d1 = cu.invariant_distance(mu, lam, order=1)
    d2 = cu.invariant_distance(mu, lam, order=1)
    assert d1 == d2


def test_invariant_distance_on_exact_bracket_matches_float():
    d_exact = cu.invariant_distance(br.milnor_bracket(1, 1, 1),
                                    br.milnor_bracket(1, 1, 2))
    d_float = cu.invariant_distance(br.milnor_bracket(1.0, 1.0, 1.0),
                                    br.milnor_bracket(1.0, 1.0, 2.0))
    assert d_exact == pytest.approx(d_float, rel=1e-12)


def _in_random_frame(mu, seed):
    """mu after a random orthogonal change of tangent basis."""
    h = np.eye(mu.dim)
    h[mu.q:, mu.q:] = random_orthogonal(mu.n, np.random.default_rng(seed))
    return br.gl_action(h, mu)


def _found_pair():
    """A distinct pair whose polish stops in a local minimum (16.51, where
    a multi-start search finds 14.63)."""
    h = random_orthogonal(3, np.random.default_rng(5))
    return (br.milnor_bracket(-1.0, 1.5, 2.0),
            br.gl_action(h, br.milnor_bracket(1.0, 1.5, 2.0)))


@pytest.mark.parametrize("pair, order", [
    ((br.milnor_bracket(2.0, 1.0, 1.0), _in_random_frame(br.milnor_bracket(2.0, 1.0, 1.0), 7)), 1),
    (_found_pair(), 2),
    ((br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
      br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 0.5, 1.0)), 1),
], ids=["berger", "found_pair_order2", "aloff_wallach"])
def test_sign_scores_equal_brute_force_misfits(pair, order):
    # every candidate h = U_lam diag(s) U_mu^T, scored by a full rotation
    mu, lam = pair
    wa = cu.fingerprint(mu, order).tensors
    wb = cu.fingerprint(lam, order).tensors
    ua, ub = cu._invariant_frame(wa), cu._invariant_frame(wb)
    scores, signs = cu._sign_scores([_rotate_per_axis(ua.T, t) for t in wa],
                                    [_rotate_per_axis(ub.T, t) for t in wb])
    assert scores.shape == (2 ** mu.n,)
    # a score is at most 2 (|w_mu|^2 + |w_lam|^2); the absolute floor only
    # matters for the near-zero score of the matching candidate
    scale = sum(np.sum(t * t) for t in wa + wb)
    for k, s in enumerate(signs):
        h = ub @ (s[:, None] * ua.T)
        want = sum(np.sum((_rotate_per_axis(h, ta) - tb) ** 2) for ta, tb in zip(wa, wb))
        assert scores[k] == pytest.approx(want, rel=1e-12, abs=1e-14 * scale)


@pytest.mark.parametrize("frame", [1, 2, 3, 30])
@pytest.mark.parametrize("mu", [
    br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5),
    br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
], ids=["circle5", "aloff_wallach"])
def test_invariant_distance_rotated_pair_beyond_n3(mu, frame):
    # both keep 2-fold clusters after refinement (circle5 two, Aloff-Wallach
    # three).  circle5's best candidate is already at rounding level; on
    # Aloff-Wallach one isotropy circle turns all three 2-planes together,
    # the best candidate is 47 to 206 off in these frames, and only the
    # polish reaches rounding level
    assert cu.invariant_distance(mu, _in_random_frame(mu, frame)) <= 1e-10


def test_invariant_distance_rejects_n_above_cap(monkeypatch):
    n = cu.MAX_ORBIT_DIM + 1
    mu = br.Bracket(0, n, np.zeros((n, n, n)))

    def enumerate_nothing(*args):
        raise AssertionError("fingerprint computed before the dimension check")

    monkeypatch.setattr(cu, "fingerprint", enumerate_nothing)
    with pytest.raises(ValueError, match="MAX_ORBIT_DIM"):
        cu.invariant_distance(mu, mu)


def test_fingerprint_order_cap():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    for call in (lambda: cu.fingerprint(mu, 40),
                 lambda: cu.fingerprint(mu, 10**9),
                 lambda: cu.invariant_distance(mu, mu, order=40),
                 lambda: isometry_test(mu, mu, order=40)):
        with pytest.raises(ValueError, match="MAX_FINGERPRINT_ENTRIES"):
            call()
    # the cap admits Aloff-Wallach (n = 7) at order 5
    assert 7 ** 9 <= cu.MAX_FINGERPRINT_ENTRIES < 7 ** 10


def milnor_plus_line(a, b, c):
    """milnor_bracket(a, b, c) + R, a q = 0, n = 4 direct sum."""
    m3 = br.milnor_bracket(a, b, c)
    cc = np.zeros((4, 4, 4))
    cc[:3, :3, :3] = m3.c
    return br.Bracket(0, 4, cc)


@pytest.mark.parametrize("frame", range(4))
def test_invariant_distance_degenerate_spectrum_without_symmetry(frame):
    # Ric has a three-fold zero eigenvalue, but no rotation of that
    # eigenspace is a symmetry: R splits it 1 | 2 and nabla R the rest
    mu = milnor_plus_line(1.0, 2.0, 3.0)
    h = random_orthogonal(4, np.random.default_rng(100 + frame))
    assert cu.invariant_distance(mu, br.gl_action(h, mu)) <= 1e-6


def _three_fold():
    """Ricci spectrum 1, 1, 2.5, 2.5, 2.5; R splits the three-fold eigenspace
    4.25 | 13.25, 13.25, and the isotropy circle rotates both 2-planes left."""
    return br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0)


@pytest.mark.parametrize("frame", range(8))
def test_invariant_distance_three_fold_eigenvalue_without_symmetry(frame):
    # random rotations of the three-fold eigenspace gave 0.72 to 4.99 here
    mu = _three_fold()
    assert cu.invariant_distance(mu, _in_random_frame(mu, frame)) <= 1e-6


@pytest.mark.parametrize("mu, sizes", [
    (_three_fold(), [2, 1, 2]),
    (milnor_plus_line(1.0, 2.0, 3.0), [1, 1, 1, 1]),
], ids=["three_fold", "milnor_plus_line"])
@pytest.mark.parametrize("frame", range(3))
def test_invariant_frame_is_equivariant(mu, sizes, frame):
    # the frame of h . w is h U with columns negated, and rotated within
    # the blocks that stay repeated (sizes: the blocks after refinement)
    w = cu.fingerprint(mu, 1).tensors
    h = random_orthogonal(mu.n, np.random.default_rng(frame))
    u = cu._invariant_frame(w)
    uh = cu._invariant_frame([cu.rotate_tensor(h, t) for t in w])
    q = uh.T @ h @ u
    edges = np.cumsum([0] + sizes)
    expect = np.zeros_like(q)
    for lo, hi in zip(edges, edges[1:]):
        block = q[lo:hi, lo:hi]
        expect[lo:hi, lo:hi] = block
        if hi - lo == 1:
            assert abs(block[0, 0]) == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(q, expect, atol=1e-9)


def test_invariant_distance_degenerate_berger_pair():
    mu = br.milnor_bracket(2.0, 1.0, 1.0)
    h = random_orthogonal(3, np.random.default_rng(7))
    assert cu.invariant_distance(mu, br.gl_action(h, mu)) <= 1e-6


def test_invariant_distance_degenerate_circle3_pair():
    mu = br.circle_isotropy3(1.0, 0.5, 1.5, 1.0)
    h = np.eye(4)
    h[1:, 1:] = random_orthogonal(3, np.random.default_rng(8))
    assert cu.invariant_distance(mu, br.gl_action(h, mu)) <= 1e-6


@pytest.mark.parametrize("pair, order, parent_value", [
    (_found_pair(), 1, 16.5132522538718),
    ((br.milnor_bracket(1.0, 0.0, 0.0), br.milnor_bracket(1.0, 1.5, 2.5)), 1, 13.8834433769149),
], ids=["found_pair", "heisenberg"])
def test_invariant_distance_upper_bound_does_not_grow(pair, order, parent_value):
    # parent_value is what the random block rotations gave (rounded up); on
    # distinct spaces the result is an upper bound and must not grow
    assert cu.invariant_distance(*pair, order=order) <= parent_value


@pytest.mark.parametrize("abc, def_, pattern_search_value", [
    ((1.0, 1.0, 1.0), (1.0, 1.0, 0.5), 0.5994789404140815),
    ((1.0, 0.6, 0.3), (0.9, 0.7, 0.2), 0.6377515190103424),
])
def test_invariant_distance_no_larger_than_pattern_search(abc, def_,
                                                          pattern_search_value):
    # pattern_search_value is what the former multi-start pattern search
    # returned with default arguments.  On distinct spaces both methods
    # give only an upper bound; on these pairs they agree to rounding.
    mu, lam = br.milnor_bracket(*abc), br.milnor_bracket(*def_)
    d = cu.invariant_distance(mu, lam)
    assert d <= pattern_search_value * (1.0 + 1e-12)
    start = cu.fingerprint(mu, 1).flat_vector() - cu.fingerprint(lam, 1).flat_vector()
    assert d <= np.linalg.norm(start)


def _count_polishes(monkeypatch):
    calls = []
    real = cu.least_squares

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cu, "least_squares", counting)
    return calls


@pytest.mark.parametrize("mu, lam", [
    (br.milnor_bracket(1.0, 0.5, 0.25),
     br.gl_action(random_orthogonal(3, np.random.default_rng(11)), br.milnor_bracket(1.0, 0.5, 0.25))),
    (br.milnor_bracket(2.0, 1.0, 1.0),
     br.gl_action(random_orthogonal(3, np.random.default_rng(7)), br.milnor_bracket(2.0, 1.0, 1.0))),
    (br.circle_isotropy3(1.0, 0.5, 1.5, 1.0), _in_random_frame(br.circle_isotropy3(1.0, 0.5, 1.5, 1.0), 8)),
    (br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5),
     _in_random_frame(br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5), 1)),
], ids=["milnor", "berger", "circle3", "circle5"])
def test_rotated_pair_at_rounding_floor_is_not_polished(monkeypatch, mu, lam):
    calls = _count_polishes(monkeypatch)
    assert cu.invariant_distance(mu, lam) <= 1e-10
    assert not calls


def test_strict_local_minimum_is_not_polished(monkeypatch):
    # Heisenberg against milnor(1, 1.5, 2.5): stationary, Hessian positive
    # definite off the stabilizer, so the candidate is the answer
    calls = _count_polishes(monkeypatch)
    d = cu.invariant_distance(br.milnor_bracket(1.0, 0.0, 0.0), br.milnor_bracket(1.0, 1.5, 2.5))
    assert not calls
    assert d == pytest.approx(13.88344337691482, rel=1e-14)


@pytest.mark.parametrize("order, parent_value", [(1, 16.5132522538718),
                                                 (2, 68.00275729710677)])
def test_saddle_is_polished(monkeypatch, order, parent_value):
    # the FOUND pair's best candidate is a stationary saddle at order 1
    # (lambda_min / lambda_max = -0.135) and not stationary at order 2.
    # At order 2 the polish runs about 1 200 finite-difference residuals
    # through a flat region, and rounding-level changes in the fingerprint
    # move where it stops: 1.3e-14 relative above the parent's value
    calls = _count_polishes(monkeypatch)
    assert cu.invariant_distance(*_found_pair(), order=order) <= parent_value * (1.0 + 1e-13)
    assert len(calls) == 1


def test_far_off_candidate_is_polished(monkeypatch):
    # rotated Aloff-Wallach: the best candidate is 47 to 206 off
    calls = _count_polishes(monkeypatch)
    mu = br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5)
    assert cu.invariant_distance(mu, _in_random_frame(mu, 1)) <= 1e-10
    assert len(calls) == 1


def test_misfit_hessian_matches_finite_differences():
    # f(theta) = 1/2 ||expm(S(theta)) h0 . w_mu - w_lam||^2 at a random h0,
    # S(theta) filling the strict upper triangle row by row
    mu, lam = br.milnor_bracket(1.0, 0.5, 0.25), br.milnor_bracket(-1.0, 1.5, 2.0)
    wa, wb = cu.fingerprint(mu, 2).tensors, cu.fingerprint(lam, 2).tensors
    n, upper = 3, np.triu_indices(3, 1)
    h0 = random_orthogonal(n, np.random.default_rng(4))
    v = [cu.rotate_tensor(h0, t) for t in wa]
    r = [a - b for a, b in zip(v, wb)]
    jt = np.concatenate(cu._rotation_jacobian(v), axis=1)
    jrt = np.concatenate(cu._rotation_jacobian(r), axis=1)
    cross = jrt @ jt.T
    hess = jt @ jt.T - 0.5 * (cross + cross.T)

    def f(theta):
        s = np.zeros((n, n))
        s[upper] = theta
        h = expm(s - s.T) @ h0
        return 0.5 * sum(np.sum((cu.rotate_tensor(h, a) - b) ** 2) for a, b in zip(wa, wb))

    step, eye = 1e-4, np.eye(len(upper[0]))
    fd = np.array([[(f(step * (ea + eb)) - f(step * (ea - eb)) - f(step * (eb - ea))
                     + f(-step * (ea + eb))) / (4 * step * step) for eb in eye] for ea in eye])
    assert np.allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
    # and the gradient J^T r against central differences
    grad = jt @ np.concatenate([x.ravel() for x in r])
    fd_grad = np.array([(f(step * e) - f(-step * e)) / (2 * step) for e in eye])
    assert np.allclose(grad, fd_grad, rtol=1e-6, atol=1e-6 * np.abs(fd_grad).max())


def _derive_einsum(d, t):
    """Reference derivation: one einsum per slot."""
    out = 0
    for s in range(t.ndim):
        term = np.einsum("mab,a...->mb...", d, np.moveaxis(t, s, 0))
        out = out - np.moveaxis(term, 1, s + 1)
    return out


@pytest.mark.parametrize("mu", [br.random_member(0, 4, seed=1), br.milnor_bracket(1, 2, 3)],
                         ids=["float", "exact"])
def test_derive_matches_einsum_reference(mu):
    # exact: equal integers; float: summation order differs, rounding only
    c = mu.c
    if mu.exact:
        c = br.to_integers(c, 2 * br.common_denominator(c))
    t, d = cu._riemann(c, mu.q)
    for _ in range(2):
        want, t = _derive_einsum(d, t), cu._derive(d, t)
        if mu.exact:
            assert np.array_equal(t, want)
        else:
            assert np.allclose(t, want, rtol=0, atol=1e-14 * np.abs(want).max())


# ---------------------------------------------------------------------------
# scalar invariants
# ---------------------------------------------------------------------------

def test_scalar_invariants_are_ricci_power_traces():
    mu = br.circle_isotropy3(0.8, -0.3, 1.1, 0.7)
    ric = cu.ricci_operator(mu)
    inv = cu.scalar_invariants(mu)
    assert len(inv) == mu.n
    for k, val in enumerate(inv, start=1):
        assert val == pytest.approx(np.trace(np.linalg.matrix_power(ric, k)),
                                    rel=1e-12, abs=1e-12)
    assert cu.scalar_invariants(mu, count=2) == inv[:2]


def test_curvature_data_to_dict_round_trips_values():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    data = cu.curvature_data(mu)
    d = data.to_dict()
    assert d["n"] == 3
    assert d["riemann_shape"] == [3, 3, 3, 3]
    assert np.allclose(np.array(d["riemann"]).reshape(3, 3, 3, 3),
                       data.riemann)
    assert np.allclose(np.array(d["ricci"]), data.ricci)
    assert d["invariants"] == pytest.approx(data.invariants)


def test_orbit_distance_refuses_squares_near_the_top_of_the_float_range():
    # |nabla Riem|^2 has degree 6 in mu: near s = 10^50.9 it is in the float range,
    # but the sums of squares the alignment forms are not
    def pair(s):
        return br.milnor_bracket(-s, 1.5 * s, 2 * s), br.milnor_bracket(s, 1.5 * s, 2 * s)

    for e in (50.85, 50.9, 50.95):
        with pytest.raises(ValueError, match=r"\(\|w_mu\|\^2 \+ \|w_lam\|\^2\) is outside"):
            cu.invariant_distance(*pair(10**e))
    assert math.isfinite(cu.invariant_distance(*pair(10**50.5)))
