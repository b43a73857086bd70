import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

import homlie.brackets as br
import homlie.coordinates as co
from helpers import ad_matrix, degree2_jet_closed_form, dexp_series, exact_bracket


def abelian(n):
    return br.Bracket(0, n, np.zeros((n, n, n)))


def toy_sphere(a):
    """q=1, n=2 presentation of the constant-curvature-a sphere."""
    return exact_bracket(1, 2, [(0, 1, 2, 1), (0, 2, 1, -1), (1, 2, 0, a)])


# ---------------------------------------------------------------------------
# exp-derivative series
# ---------------------------------------------------------------------------

def test_dexp_abelian_is_identity():
    mu = abelian(3)
    assert np.array_equal(dexp_series(mu, np.ones(3), 8), np.eye(3))


def test_dexp_solves_defining_equation():
    # A(x) * ad(x) = I - exp(-ad(x)) characterizes the series
    mu = br.milnor_bracket(0.8, -0.4, 1.1)
    x = np.array([0.3, -0.2, 0.5])
    adx = ad_matrix(mu, x)
    a = dexp_series(mu, x, 30)
    assert np.allclose(a @ adx, np.eye(3) - expm(-adx), atol=1e-14)


def test_dexp_nilpotent_is_exact_after_two_terms():
    h3 = br.milnor_bracket(1.0, 0.0, 0.0)
    x = np.array([0.7, -0.3, 0.9])
    adx = ad_matrix(h3, x)
    assert np.allclose(adx @ adx, 0.0)
    assert np.allclose(dexp_series(h3, x, 2), dexp_series(h3, x, 12))


def test_dexp_tail_bound():
    mu = br.milnor_bracket(1.0, 1.0, 1.0)
    x = np.array([0.2, 0.1, -0.3])
    adx = ad_matrix(mu, x)
    nrm = np.linalg.norm(adx, 2)
    for terms in (3, 5, 8):
        tail = np.linalg.norm(dexp_series(mu, x, terms)
                              - dexp_series(mu, x, 40), 2)
        bound = nrm ** terms / math.factorial(terms + 1) * math.exp(nrm)
        assert tail <= bound + 1e-15


# ---------------------------------------------------------------------------
# metric jet
# ---------------------------------------------------------------------------

def test_jet_abelian_is_flat_identity():
    jet = co.metric_jet(abelian(3), 4)
    x = np.array([0.3, -0.8, 1.4])
    assert np.allclose(jet.evaluate(x), np.eye(3))


def test_jet_degree1_coefficient_formula():
    mu = br.milnor_bracket(1.0, 2.0, -0.5)
    jet = co.metric_jet(mu, 1)
    n = 3
    for i in range(n):
        for j in range(n):
            for k in range(n):
                alpha = tuple(1 if v == k else 0 for v in range(n))
                want = -0.5 * (mu.c[k, j, i] + mu.c[k, i, j])
                assert jet.coefficient(i, j, alpha) == pytest.approx(want, abs=1e-15)


def test_jet_exact_degree2_matches_closed_form_milnor():
    mu = br.milnor_bracket(1, 2, 3)
    jet = co.metric_jet(mu, 2)
    assert jet.exact
    want = degree2_jet_closed_form(mu)
    n = 3
    for i in range(n):
        for j in range(n):
            for alpha in jet.space.monomials:
                have = jet.coefficient(i, j, alpha)
                expect = want.get((i, j, alpha), Fraction(0))
                assert have == expect, (i, j, alpha, have, expect)


def test_jet_exact_degree2_matches_closed_form_random_rational():
    rng = np.random.default_rng(42)
    nums = rng.integers(-4, 5, size=4)
    dens = rng.integers(1, 5, size=4)
    a, b, c, d = (Fraction(int(x), int(y)) for x, y in zip(nums, dens))
    if d == 0:
        d = Fraction(1)
    mu = br.circle_isotropy3(a, b, c, d)
    assert mu.exact
    jet = co.metric_jet(mu, 2)
    want = degree2_jet_closed_form(mu)
    for i in range(3):
        for j in range(3):
            for alpha in jet.space.monomials:
                have = jet.coefficient(i, j, alpha)
                expect = want.get((i, j, alpha), Fraction(0))
                assert have == expect, (i, j, alpha, have, expect)


def test_jet_exact_degree5_matches_float_and_closed_form():
    mu = br.circle_isotropy3(Fraction(3, 4), Fraction(-2, 9), Fraction(5, 6), Fraction(-7, 3))
    jet = co.metric_jet(mu, 5)
    assert jet.exact
    assert all(type(v) is Fraction for v in jet.g.ravel())
    ref = co.metric_jet(br.Bracket(mu.q, mu.n, mu.as_float()), 5).g
    err = np.max(np.abs(np.array(jet.g, dtype=float) - ref))
    assert err <= 1e-12 * (1.0 + np.max(np.abs(ref)))
    want = degree2_jet_closed_form(mu)
    for alpha in jet.space.monomials:
        if sum(alpha) > 2:
            break
        for i in range(3):
            for j in range(3):
                assert jet.coefficient(i, j, alpha) == want.get((i, j, alpha), 0)


def test_jet_scaling_homogeneity():
    # coefficients of degree |alpha| scale like c^|alpha|
    mu = br.milnor_bracket(1.0, 0.5, -0.25)
    scaled = br.Bracket(0, 3, 2.0 * mu.c)
    j1 = co.metric_jet(mu, 3)
    j2 = co.metric_jet(scaled, 3)
    for alpha in j1.space.monomials:
        w = 2.0 ** sum(alpha)
        for i in range(3):
            for j in range(3):
                assert j2.coefficient(i, j, alpha) == pytest.approx(
                    w * j1.coefficient(i, j, alpha), abs=1e-12)


def test_jet_evaluate_agrees_with_dexp_product():
    # g(x) = (P A(x))^T (P A(x)) restricted to tangent columns, P the
    # projection onto the tangent block
    mu = br.circle_isotropy3(0.4, -0.2, 0.8, 1.1)
    deg = 10
    jet = co.metric_jet(mu, deg)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = 0.05 * rng.standard_normal(3)
        a = dexp_series(mu, np.concatenate([[0.0], x]), 30)
        pa = a[1:, 1:]   # tangent rows and columns
        want = pa.T @ pa
        have = jet.evaluate(x)
        assert np.allclose(have, want, atol=1e-11)


def test_toy_sphere_jet_closed_form():
    # group-exponential coordinates on the round sphere agree with
    # normal coordinates: g_ij = delta_ij - (a/3)(|x|^2 delta_ij - x_i x_j)
    a = Fraction(5, 3)
    jet = co.metric_jet(toy_sphere(a), 2)
    assert jet.exact
    third = Fraction(1, 3)
    assert jet.coefficient(0, 0, (0, 2)) == -a * third
    assert jet.coefficient(0, 0, (2, 0)) == 0
    assert jet.coefficient(1, 1, (2, 0)) == -a * third
    assert jet.coefficient(1, 1, (0, 2)) == 0
    assert jet.coefficient(0, 1, (1, 1)) == a * third


def test_jet_requires_membership():
    bad = br.circle_isotropy3(1.0, 1.0, 1.0, 0.0)   # (h4) fails
    with pytest.raises(ValueError):
        co.metric_jet(bad, 2)


def test_jet_to_dict_round_trip_values():
    mu = br.milnor_bracket(1.0, 1.0, 0.0)
    jet = co.metric_jet(mu, 2)
    doc = jet.to_dict()
    assert doc["degree"] == 2 and doc["n"] == 3
    seen = {(e[0], e[1], tuple(e[2])): e[3] for e in doc["entries"]}
    for (i, j, alpha), v in seen.items():
        assert jet.coefficient(i, j, alpha) == pytest.approx(v)


# ---------------------------------------------------------------------------
# coordinate curvature
# ---------------------------------------------------------------------------

def test_christoffel_at_origin_sign():
    # Gamma^i_{rj}(0) = -(mu_{ri}^j + mu_{ji}^r)/2 over tangent indices
    mu = br.milnor_bracket(1.0, 2.0, -0.5)
    jet = co.metric_jet(mu, 2)
    gam = co._christoffel(jet.space, jet.g)
    n = 3
    for i in range(n):
        for r in range(n):
            for j in range(n):
                want = -0.5 * (mu.c[r, i, j] + mu.c[j, i, r])
                assert gam[i, r, j, 0] == pytest.approx(want, abs=1e-14)


def test_flat_bracket_zero_curvature_jet():
    jet = co.metric_jet(br.milnor_bracket(1.0, 1.0, 0.0), 4)
    riem = co.coordinate_curvature_oracle(jet, 0)
    assert np.max(np.abs(riem)) <= 1e-13


def test_curvature_derivatives_need_enough_degree():
    jet = co.metric_jet(br.milnor_bracket(1.0, 1.0, 1.0), 2)
    with pytest.raises(ValueError):
        co.curvature_derivatives(jet, 1)


def test_curvature_derivatives_above_size_cap_fail_at_once(monkeypatch):
    # 7^6 * 330 entries; the series path itself ran past 120 s here
    jet = co.metric_jet(br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5), 4)

    def slow_path(*args):
        raise AssertionError("the size cap was not checked first")

    monkeypatch.setattr(co, "_christoffel", slow_path)
    monkeypatch.setattr(co.PolySpace, "mul", slow_path)
    with pytest.raises(ValueError, match="MAX_SERIES_ENTRIES"):
        co.curvature_derivatives(jet, 2)


def test_toy_sphere_constant_curvature_from_jet():
    a = 0.7
    mu = br.Bracket(1, 2, toy_sphere(Fraction(7, 10)).as_float())
    jet = co.metric_jet(mu, 4)
    riem = co.coordinate_curvature_oracle(jet, 0)
    assert riem[0, 1, 1, 0] == pytest.approx(a, abs=1e-12)
    nabla = co.curvature_derivatives(jet, 1)[1]
    assert np.max(np.abs(nabla)) <= 1e-12  # symmetric space


# ---------------------------------------------------------------------------
# solvability and injectivity
# ---------------------------------------------------------------------------

def test_solvability_trichotomy():
    h3 = br.milnor_bracket(1.0, 0.0, 0.0)
    su2 = br.milnor_bracket(1.0, 1.0, 1.0)
    e11 = br.milnor_bracket(0.0, 1.0, -1.0)   # real non-nilpotent spectra
    assert co.is_completely_solvable(h3) == "certified"
    assert co.is_completely_solvable(su2) == "refuted"
    assert co.is_completely_solvable(e11) == "unknown"
    assert co.is_completely_solvable(abelian(3)) == "certified"


def test_solvability_rejects_isotropy():
    with pytest.raises(ValueError):
        co.is_completely_solvable(br.circle_isotropy3(1.0, 0.0, 1.0, 1.0))


def test_injectivity_norm_bound_value():
    a, b, c = 1.0, 2.0, 3.0
    bound = co.injectivity_bound(br.milnor_bracket(a, b, c))
    want = math.pi / math.sqrt(2 * (a * a + b * b + c * c))
    assert bound.lower == pytest.approx(want, abs=1e-15)
    assert bound.method == "norm_bound"
    assert bound.heuristic is False


def test_injectivity_infinite_for_nilpotent():
    bound = co.injectivity_bound(br.milnor_bracket(1.0, 0.0, 0.0))
    assert bound.lower == math.inf
    assert bound.method == "completely_solvable"


def test_injectivity_of_zero_bracket_is_certified():
    bound = co.injectivity_bound(abelian(3))
    assert (bound.lower, bound.method, bound.heuristic) == \
        (math.inf, "completely_solvable", False)


def test_injectivity_of_underflowing_norm_is_finite():
    # su(2) scaled by 1e-170: the float sum of squares underflows to 0.0
    s = 1e-170
    mu = br.milnor_bracket(s, s, s)
    assert br.bracket_norm(mu) == 0.0
    bound = co.injectivity_bound(mu)
    assert (bound.method, bound.heuristic) == ("norm_bound", False)
    assert bound.lower == pytest.approx(math.pi / (math.sqrt(6.0) * s), rel=1e-15)


@pytest.mark.parametrize("s", [1e-170, 1e-13, 1e-6, 1e-3, 1.0, 1e6])
def test_solvability_verdict_does_not_depend_on_scale(s):
    assert co.is_completely_solvable(br.milnor_bracket(s, s, s)) == "refuted"
    assert co.is_completely_solvable(br.milnor_bracket(s, 0.0, 0.0)) == "certified"
    assert co.is_completely_solvable(br.milnor_bracket(0.0, s, -s)) == "unknown"


def test_injectivity_q_positive_is_heuristic():
    bound = co.injectivity_bound(br.circle_isotropy3(1.0, 0.0, 1.0, 1.0))
    assert bound.heuristic is True
    assert bound.lower > 0
