import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homlie.brackets as br
import homlie.classify as cl
from helpers import random_orthogonal

nonzero_int = st.integers(min_value=-40, max_value=40).filter(lambda v: v != 0)


def coprime_pairs():
    return st.tuples(nonzero_int, nonzero_int).filter(
        lambda pq: math.gcd(pq[0], pq[1]) == 1)


# ---------------------------------------------------------------------------
# commutant of the isotropy action
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu,expected_dim", [
    (br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1), 5),    # two inequivalent rotation weights
    (br.circle_isotropy5(0, 2, 1, 1, 1, 0, 1, -2), 11),    # weight zero doubles one block
    (br.circle_isotropy5(1, 1, 1, 1, 1, 1, -1, -1), 9),    # equal weights merge the blocks
    # a 2-torus turning two planes at independent rates: 4 = 2 x gl_1(C)
    (br.resplit(br.circle_isotropy5(math.sqrt(2.0), 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0,
                                    rational_ratio=False), 2), 4),
], ids=["p<q", "p=0", "p=q", "q=2"])
def test_commutant_dimension_tracks_isotropy_weights(mu, expected_dim):
    q = mu.q
    basis = cl.commutant(mu)
    assert len(basis) == expected_dim
    for z in range(q):
        ad = mu.c[z, q:, q:].T
        for b in basis:
            assert np.max(np.abs(ad @ b - b @ ad)) <= 1e-12
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert np.sum(bi * bj) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("s", [1e-11, 1e-9, 1.0, 1e6])
def test_commutant_dimension_does_not_depend_on_scale(s):
    # one weight on a 2-plane and a trivial line: 3 = gl_1(C) + gl_1(R)
    mu = br.circle_isotropy3(s, 2 * s, s, 3 * s)
    basis = cl.commutant(mu)
    assert len(basis) == 3
    ad = mu.c[0, 1:, 1:].T
    for b in basis:
        assert np.max(np.abs(ad @ b - b @ ad)) <= 1e-12 * np.max(np.abs(ad))


def test_commutant_requires_isotropy():
    with pytest.raises(ValueError):
        cl.commutant(br.milnor_bracket(1, 1, 1))


def test_commutant_of_trivial_action_is_everything():
    mu = br.circle_isotropy3(1.0, 0.0, 1.0, 0.0)
    # d = 0 fails the effectiveness condition, but the commutant is still
    # defined and must be all of gl_3
    assert len(cl.commutant(mu)) == 9


# ---------------------------------------------------------------------------
# invariant-based isometry screening
# ---------------------------------------------------------------------------

def test_rotated_bracket_is_indistinguishable():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    h = random_orthogonal(3, np.random.default_rng(7))
    assert cl.isometry_test(mu, br.gl_action(h, mu)) == \
        "indistinguishable_at_order_2"


def test_distinct_geometries_are_separated():
    assert cl.isometry_test(br.milnor_bracket(1, 1, 1),
                            br.milnor_bracket(1, 1, 0.5)) == "distinct"
    assert cl.isometry_test(br.milnor_bracket(1, 1, 1),
                            br.random_member(0, 4, seed=0)) == "distinct"


@pytest.mark.parametrize("mu", [br.milnor_bracket(1e140, 1e140, 1e140),
                                br.milnor_bracket(10**80, 10**80, 10**80),
                                br.milnor_bracket(1e45, 2e45, 3e45)])
def test_isometry_test_refuses_invariants_beyond_the_float_range(mu):
    # inf and NaN compare equal to nothing, so no verdict could follow
    with pytest.raises(ValueError, match="is outside the float range"):
        cl.isometry_test(mu, mu)


def test_cross_presentation_pair_matches():
    # the same negatively curved space presented once with a circle
    # isotropy and once as a plain group metric
    k = 4
    mu = br.circle_isotropy3(-1 / math.sqrt(k), -1 + 1 / math.sqrt(k), 1.0, 1.0)
    lam = br.milnor_bracket(-1 / math.sqrt(k), math.sqrt(k), math.sqrt(k))
    assert cl.isometry_test(mu, lam, order=1) == "indistinguishable_at_order_1"


# ---------------------------------------------------------------------------
# topology of the integer-parameter family
# ---------------------------------------------------------------------------

def test_aw_invariants_and_reflexivity():
    rep = cl.aw_equivalence(1, 2, 1, 2)
    assert (rep.r, rep.s) == (7, 6)
    assert rep.homotopy_equivalent and rep.homeomorphic
    assert rep.diffeomorphic and rep.equivariantly_diffeomorphic


def test_aw_equivalence_input_validation():
    with pytest.raises(ValueError):
        cl.aw_equivalence(2, 4, 1, 1)
    with pytest.raises(ValueError):
        cl.aw_equivalence(1.5, 2, 1, 1)


def test_aw_weight_triple_symmetries_are_equivariant():
    # (q, -(p+q)) and (-p, -q) produce the same weight triple up to sign
    for p, q in [(1, 2), (3, 5), (11, 2)]:
        assert cl.aw_equivalence(p, q, q, -(p + q)).equivariantly_diffeomorphic
        assert cl.aw_equivalence(p, q, -p, -q).equivariantly_diffeomorphic


@settings(max_examples=150, deadline=None)
@given(coprime_pairs(), coprime_pairs())
def test_aw_implication_chain_and_symmetry(ab, cd):
    rep = cl.aw_equivalence(*ab, *cd)
    if rep.equivariantly_diffeomorphic:
        assert rep.diffeomorphic
    if rep.diffeomorphic:
        assert rep.homeomorphic
    if rep.homeomorphic:
        assert rep.homotopy_equivalent
    back = cl.aw_equivalence(*cd, *ab)
    assert back.homotopy_equivalent == rep.homotopy_equivalent
    assert back.homeomorphic == rep.homeomorphic
    assert back.diffeomorphic == rep.diffeomorphic
    assert back.equivariantly_diffeomorphic == rep.equivariantly_diffeomorphic


def test_aw_report_to_dict():
    d = cl.aw_equivalence(1, 2, 2, 1).to_dict()
    assert d["pair"] == (1, 2) and d["pair_other"] == (2, 1)
    assert d["equivariantly_diffeomorphic"] is True
    assert list(d) == ["pair", "pair_other", "r", "s", "r_other", "s_other",
                       "homotopy_equivalent", "homeomorphic", "diffeomorphic",
                       "equivariantly_diffeomorphic"]


def test_aw_report_repr():
    assert repr(cl.aw_equivalence(1, 2, 1, 3)) == (
        "AWReport(pair=(1, 2), pair_other=(1, 3), homotopy=False, homeo=False, "
        "diffeo=False, equivariant=False)")


def test_homeo_not_diffeo_pair_from_the_literature():
    rep = cl.aw_equivalence(51561, 5227, 42652, 18561)
    assert rep.r == rep.r_other == 2955367597
    assert rep.homotopy_equivalent
    assert rep.homeomorphic
    assert not rep.diffeomorphic


def test_witness_search_is_empty_in_small_ranges():
    # repeated r values below a few thousand never satisfy the s
    # congruences; this pins down the (verified) arithmetic obstruction
    found = cl.aw_find_witnesses(5000)
    assert found["homotopy_not_homeo"] is None
    assert found["homeo_not_diffeo"] is None


def test_witness_search_boundary_is_the_kreck_stolz_pair():
    # the homeomorphic-but-not-diffeomorphic pair of Kreck & Stolz,
    # J. Differential Geom. 33 (1991), is the first witness by r
    below = cl.aw_find_witnesses(2_955_367_596)
    assert below == {"homotopy_not_homeo": None, "homeo_not_diffeo": None}
    at = cl.aw_find_witnesses(2_955_367_597)
    assert at["homeo_not_diffeo"] == ((42652, 18561), (51561, 5227))
    assert at["homotopy_not_homeo"] is None


def eis_mul(x, y):
    # (a + b w)(c + d w) with w^2 = -1 - w
    (a, b), (c, d) = x, y
    return (a * c - b * d, a * d + b * c - b * d)


def eis_conj(x):
    # conj(w) = w^2 = -1 - w
    return (x[0] - x[1], -x[1])


def s_and_d(x):
    # p - q w = x gives s = p q (p + q), D = (p - q)(2p + q)(p + 2q)
    p, q = x[0], -x[1]
    return p * q * (p + q), (p - q) * (2 * p + q) * (p + 2 * q)


eisenstein = st.tuples(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))


@settings(max_examples=300, deadline=None)
@given(eisenstein, eisenstein, st.booleans())
def test_eisenstein_split_identity(gamma, delta, times_lambda):
    # the identity aw_find_witnesses rests on: for alpha = gamma delta and
    # beta = gamma conj(delta), s_alpha +- s_beta are s_gamma D_delta and
    # D_gamma s_delta up to sign, and 4 N^3 = D^2 + 27 s^2 for every factor
    if times_lambda:
        gamma = eis_mul(gamma, (1, -1))
    alpha = eis_mul(gamma, delta)
    beta = eis_mul(gamma, eis_conj(delta))
    assert alpha == cl._eis_mul(gamma, delta)
    assert eis_conj(delta) == cl._eis_conj(delta)
    s_a, d_a = s_and_d(alpha)
    s_b, d_b = s_and_d(beta)
    s_g, d_g = s_and_d(gamma)
    s_d, d_d = s_and_d(delta)
    assert sorted([abs(s_a + s_b), abs(s_a - s_b)]) == \
        sorted([abs(s_g * d_d), abs(d_g * s_d)])
    for x in (alpha, beta, gamma, delta):
        a, b = x
        norm = a * a - a * b + b * b
        s, d = s_and_d(x)
        assert 4 * norm ** 3 == d * d + 27 * s * s
        if s != 0:
            p, q = cl._aw_canonical(x)
            assert p >= q >= 1
            assert p * p + p * q + q * q == norm and p * q * (p + q) == abs(s)


# ---------------------------------------------------------------------------
# sequence tabulation
# ---------------------------------------------------------------------------

def test_sequence_diagnostics_rows():
    params = [(1.0, 1.0 / k, 1.0 / k) for k in (2, 4, 8)]
    limit = br.milnor_bracket(1.0, 0.0, 0.0)
    rows = cl.sequence_diagnostics("milnor", params, limit)
    assert [row["index"] for row in rows] == [0, 1, 2]
    for row in rows:
        assert row["member"] is True
        assert row["h2_status"] == "holds"
        assert set(row) >= {"params", "bracket_distance", "f1", "f2", "f3",
                            "gap1", "gap2", "gap3", "inj_lower",
                            "inj_heuristic"}
    dists = [row["bracket_distance"] for row in rows]
    gaps = [row["gap1"] for row in rows]
    assert dists[0] > dists[1] > dists[2]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sequence_diagnostics_topology_columns():
    params = [(k, k + 1, 1.0, 1.0, 1.0, 1.0) for k in (1, 2)]
    limit = br.aloff_wallach_bracket(1, 1, 1.0, 1.0, 1.0, 1.0)
    rows = cl.sequence_diagnostics(
        "aloff_wallach", params, limit,
        topology_pairs=[(1, 2), (2, 3)], limit_pair=(1, 1))
    for row in rows:
        assert row["homotopy_equivalent_to_limit"] is False
        assert row["homeomorphic_to_limit"] is False


@pytest.mark.parametrize("options", [dict(topology_pairs=[(1, 2)]), dict(limit_pair=(1, 1))],
                         ids=["pairs_only", "limit_pair_only"])
def test_sequence_diagnostics_topology_options_go_together(options):
    limit = br.aloff_wallach_bracket(1, 1, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"topology_pairs \(--pairs\) and limit_pair "
                                         r"\(--limit-pair\) go together"):
        cl.sequence_diagnostics("aloff_wallach", [(1, 2, 1.0, 1.0, 1.0, 1.0)], limit, **options)


def test_sequence_diagnostics_dimension_mismatch_distance():
    rows = cl.sequence_diagnostics(
        "milnor", [(1.0, 1.0, 1.0)], br.circle_isotropy3(1, 1, 1, 1))
    assert rows[0]["bracket_distance"] is None


def test_sequence_diagnostics_unknown_family():
    with pytest.raises(ValueError):
        cl.sequence_diagnostics("torus", [], br.milnor_bracket(1, 1, 1))
