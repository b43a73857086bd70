import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import homlie.brackets as br
from helpers import jacobiator_loops, random_orthogonal

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                   allow_infinity=False)


def test_bracket_rejects_non_antisymmetric():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    with pytest.raises(ValueError):
        br.Bracket(0, 3, c)


def test_bracket_is_immutable():
    mu = br.milnor_bracket(1.0, 1.0, 1.0)
    with pytest.raises(AttributeError):
        mu.q = 2
    with pytest.raises(ValueError):
        mu.c[0, 1, 2] = 5.0


def test_from_entries_exact_dtype():
    mu = br.milnor_bracket(1, 2, Fraction(3))
    assert mu.exact
    assert mu.c[1, 2, 0] == Fraction(1)
    assert br.milnor_bracket(1.0, 2, 3).exact is False


def test_float_c_of_exact_bracket_is_one_read_only_copy():
    mu = br.circle_isotropy3(Fraction(1, 3), Fraction(-5, 7), 2, 1)
    fc = mu.float_c
    assert fc.dtype == float and not fc.flags.writeable
    assert np.array_equal(fc, np.array(mu.c, float))
    assert mu.float_c is fc
    with pytest.raises(ValueError):
        fc[0, 1, 2] = 5.0
    copy = mu.as_float()
    assert copy.flags.writeable and np.array_equal(copy, fc) and copy is not fc
    float_mu = br.milnor_bracket(1.0, 2.0, 3.0)
    assert float_mu.float_c is float_mu.c


# ints and Fractions, negative, zero and beyond 2^63
_exact = st.one_of(st.integers(-2**80, 2**80), st.sampled_from([0, -1, 2**63, -2**64]),
                   st.fractions(max_denominator=2**70).filter(lambda f: abs(f) < 2**90))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(_exact, min_size=3, max_size=3), min_size=1, max_size=4),
       st.integers(1, 2**70), st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_exact_conversions_equal_fraction_arithmetic(rows, factor, powers):
    values = np.empty((len(rows), 3), dtype=object)
    values[...] = rows
    lcm = math.lcm(*(Fraction(v).denominator for v in values.flat))
    assert br.common_denominator(values) == lcm
    # a scalar scale, and one scale per column broadcast over the rows
    for scale in (lcm * factor, np.array([lcm * factor ** k for k in powers], dtype=object)):
        want = np.array([[int(Fraction(v) * s) for v, s in zip(row, np.broadcast_to(scale, 3))]
                         for row in rows], dtype=object)
        ints = br.to_integers(values, scale)
        assert ints.dtype == object and ints.shape == values.shape
        assert all(type(v) is int for v in ints.flat)
        assert np.array_equal(ints, want)
        back = br.from_integers(ints, scale)
        assert back.dtype == object and back.shape == values.shape
        assert all(type(v) is Fraction for v in back.flat)
        assert all(v == Fraction(v0) for v, v0 in zip(back.flat, values.flat))
        assert all(b == Fraction(i, s) for b, i, s in
                   zip(back.flat, ints.flat, np.broadcast_to(scale, values.shape).flat))


def test_from_integers_makes_each_distinct_fraction_once():
    ints = np.array([[0, 3, 0], [3, 0, 6]], dtype=object)
    out = br.from_integers(ints, 6)
    assert out.tolist() == [[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 1]]
    assert out[0, 0] is out[0, 2] is out[1, 1]
    assert out[0, 1] is out[1, 0]
    assert br.common_denominator(np.array([], dtype=object)) == 1


def test_norm_milnor_closed_form():
    a, b, c = 1.3, -0.4, 2.1
    mu = br.milnor_bracket(a, b, c)
    assert br.bracket_norm(mu) == pytest.approx(
        math.sqrt(2 * (a * a + b * b + c * c)), rel=1e-14)


def test_apply_matches_structure_constants():
    mu = br.circle_isotropy3(0.3, -0.7, 1.1, 0.9)
    x = np.array([1.0, 0.0, 2.0, -1.0])
    y = np.array([0.0, 1.0, 0.5, 0.0])
    expected = np.einsum('i,j,ijk->k', x, y, mu.c)
    assert np.allclose(mu.apply(x, y), expected)


@settings(max_examples=25, deadline=None)
@given(finite, finite, finite)
def test_jacobiator_matches_loop_oracle(a, b, c):
    mu = br.milnor_bracket(a, b, c)
    assert np.allclose(br.jacobiator(mu), jacobiator_loops(mu), atol=1e-12)


def test_milnor_membership_and_family_tags():
    rep = br.check_membership(br.milnor_bracket(1.0, 2.0, 3.0))
    assert rep.passed
    assert rep.h2_status == "holds"
    assert rep.h1_jacobi_residual <= 1e-14
    assert rep.h4_kernel_dim == 0


def test_circle3_membership_and_h4():
    mu = br.circle_isotropy3(1.0, -2.0, 0.5, 1.5)
    rep = br.check_membership(mu)
    assert rep.passed
    # d = 0 kills the isotropy action on the tangent space: (h4) fails
    degenerate = br.circle_isotropy3(1.0, -2.0, 0.5, 0.0)
    rep0 = br.check_membership(degenerate)
    assert rep0.h4_kernel_dim == 1
    assert not rep0.passed


def test_circle5_jacobi_constraint():
    good = br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0)
    assert br.check_membership(good).passed
    # violating a*q + b*f = 0 must show up as a Jacobi residual
    bad = br.circle_isotropy5(1.0, 2.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0)
    rep = br.check_membership(bad)
    assert rep.h1_jacobi_residual > 1e-3
    assert not rep.passed


def test_circle5_h4_needs_nonzero_rotation():
    mu = br.circle_isotropy5(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0)
    rep = br.check_membership(mu)
    assert rep.h4_kernel_dim == 1
    assert not rep.passed


def test_irrational_ratio_tag_blocks_h2():
    mu = br.circle_isotropy5(math.sqrt(2.0), 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0,
                             rational_ratio=False)
    rep = br.check_membership(mu)
    assert rep.h2_status == "fails"
    assert not rep.passed
    # the same numeric bracket with the rational tag is accepted
    ok = br.circle_isotropy5(1.5, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0)
    assert br.check_membership(ok).h2_status == "holds"


def test_aloff_wallach_membership_any_pair():
    for (p, q) in [(1, 1), (1, 2), (3, 5), (1.0, 1.25)]:
        mu = br.aloff_wallach_bracket(p, q, 1.0, 2.0, 0.5, 1.0)
        rep = br.check_membership(mu)
        assert rep.passed, (p, q, rep.h1_jacobi_residual)


def test_aloff_wallach_killing_form_negative_definite():
    # su(3) is compact semisimple, so the Killing form of the bracket
    # must be negative definite for every parameter choice
    mu = br.aloff_wallach_bracket(2, 3, 1.3, 0.8, 1.1, 0.9)
    kill = np.einsum('iab,jba->ij', mu.c, mu.c)
    assert np.max(np.linalg.eigvalsh(kill)) < -1e-8


def test_aloff_wallach_rejects_bad_metric_params():
    with pytest.raises(ValueError):
        br.aloff_wallach_bracket(1, 1, -1.0, 1.0, 1.0, 1.0)


def test_berger_rescaling_identity():
    # diag(1, sqrt(k), sqrt(k)) carries the round bracket to mu_{1/k,1,1}
    k = 9.0
    h = np.diag([1.0, math.sqrt(k), math.sqrt(k)])
    moved = br.gl_action(h, br.milnor_bracket(1.0, 1.0, 1.0))
    target = br.milnor_bracket(1.0 / k, 1.0, 1.0)
    assert np.allclose(moved.c, target.c, atol=1e-14)


def test_gl_action_group_law():
    rng = np.random.default_rng(11)
    mu = br.milnor_bracket(1.0, -0.5, 0.7)
    g = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    h = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    once = br.gl_action(g @ h, mu)
    twice = br.gl_action(g, br.gl_action(h, mu))
    assert np.allclose(once.c, twice.c, atol=1e-10)


def test_gl_action_conditioning_guard():
    mu = br.milnor_bracket(1.0, 1.0, 1.0)
    h = np.diag([1.0, 1.0, 1e-14])
    with pytest.raises(ValueError):
        br.gl_action(h, mu)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.1, max_value=10.0), finite, finite, finite)
def test_scaling_action_preserves_membership(scale, a, b, c):
    mu = br.milnor_bracket(a, b, c)
    moved = br.gl_action(scale * np.eye(3), mu)
    assert br.check_membership(moved).passed == br.check_membership(mu).passed


def test_gl_action_membership_preserved_block_maps():
    rng = np.random.default_rng(5)
    mu = br.circle_isotropy3(0.4, 1.0, -0.3, 1.2)
    h = np.zeros((4, 4))
    h[0, 0] = -1.7
    h[1:, 1:] = random_orthogonal(3, rng)
    moved = br.gl_action(h, mu)
    rep = br.check_membership(br.Bracket(1, 3, moved.c, family="circle3",
                                         params=mu.params))
    assert rep.passed


def test_equivariant_conditions_block_map():
    mu = br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0)
    # commuting block map: scalar on the fixed vector, rotations-commuting
    # scalars on each invariant plane
    h = np.diag([0.7, 1.3, 0.5, 0.5, 2.0, 2.0])
    cond_a, cond_b = br.check_equivariant_conditions(h, mu)
    assert cond_a and cond_b
    # generic diagonal map breaks equivariance with ad(e_0)
    h_bad = np.diag([0.7, 1.3, 0.5, 0.6, 2.0, 2.0])
    cond_a, _ = br.check_equivariant_conditions(h_bad, mu)
    assert not cond_a


def test_flat_degeneration_membership_and_tag():
    mu = br.circle_isotropy3(0.4, 1.0, -0.3, 1.2)
    flat = br.flat_degeneration(mu)
    assert flat.family == "flat"
    rep = br.check_membership(flat)
    assert rep.passed
    # tangent-tangent components are gone, isotropy action kept
    assert np.all(flat.c[1:, 1:, :] == 0)
    assert np.array_equal(flat.c[:1], mu.c[:1])


def test_flat_degeneration_requires_membership():
    bad = br.circle_isotropy3(1.0, -2.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        br.flat_degeneration(bad)


def test_resplit_moves_the_subspace_marker():
    mu = br.circle_isotropy5(math.sqrt(2.0), 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0,
                             rational_ratio=False)
    out = br.resplit(mu, 2)
    assert (out.q, out.n) == (2, 4)
    assert np.array_equal(out.c, mu.c)
    assert br.check_membership(out).passed


def test_random_member_q0_all_dims():
    rng = np.random.default_rng(0)
    for n in (2, 3, 4):
        for _ in range(10):
            mu = br.random_member(0, n, seed=rng)
            assert br.check_membership(mu).passed


def test_random_member_q1():
    rng = np.random.default_rng(1)
    for _ in range(10):
        mu = br.random_member(1, 3, seed=rng)
        assert (mu.q, mu.n) == (1, 3)
        assert br.check_membership(mu).passed


def test_random_member_unsupported_signature():
    with pytest.raises(ValueError):
        br.random_member(2, 2)


def test_json_round_trip(tmp_path):
    mu = br.circle_isotropy3(0.25, -1.5, 0.75, 1.0)
    path = tmp_path / "bracket.json"
    br.write_bracket(path, mu)
    back = br.read_bracket(path)
    assert (back.q, back.n) == (mu.q, mu.n)
    assert np.array_equal(back.c, mu.c)
    assert back.family == "circle3"
    assert back.params == mu.params


def test_json_file_is_sparse_entries(tmp_path):
    mu = br.milnor_bracket(1.0, 0.0, 0.0)
    path = tmp_path / "h3.json"
    br.write_bracket(path, mu)
    doc = json.loads(path.read_text())
    assert doc["q"] == 0 and doc["n"] == 3
    assert doc["entries"] == [[1, 2, 0, 1.0]]


def test_json_round_trip_exact(tmp_path):
    for mu in (br.milnor_bracket(Fraction(1, 2), -3, Fraction(2, 7)),
               br.circle_isotropy3(Fraction(-3, 4), 0, Fraction(5, 9), 2)):
        path = tmp_path / "exact.json"
        br.write_bracket(path, mu)
        doc = json.loads(path.read_text())
        assert all(isinstance(e[3], str) for e in doc["entries"])
        back = br.read_bracket(path)
        assert back.exact and back.family == mu.family
        assert all(type(v) is Fraction and v == w for v, w in zip(back.c.ravel(), mu.c.ravel()))


def test_json_round_trip_exact_params(tmp_path):
    path = tmp_path / "params.json"
    br.write_bracket(path, br.milnor_bracket(Fraction(1, 3), 1, 1))
    assert json.loads(path.read_text())["params"] == {"a": "1/3", "b": "1", "c": "1"}
    back = br.read_bracket(path)
    assert back.params == {"a": Fraction(1, 3), "b": 1, "c": 1}
    assert all(type(v) is Fraction for v in back.params.values())
    # bools stay bools, and a float bracket keeps float params
    br.write_bracket(path, br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1, rational_ratio=False))
    back = br.read_bracket(path)
    assert back.params["rational_ratio"] is False and back.params["p"] == 1
    br.write_bracket(path, br.milnor_bracket(1 / 3, 1.0, 1))
    doc = json.loads(path.read_text())
    assert doc["params"] == {"a": 1 / 3, "b": 1.0, "c": 1.0}
    assert br.read_bracket(path).params == doc["params"]
    for bad in ("1/0", "x"):
        with pytest.raises(ValueError, match="params"):
            br.bracket_from_dict({"q": 0, "n": 3, "entries": [[1, 2, 0, 1]],
                                  "params": {"a": bad}})


def test_bracket_from_dict_parses_fraction_strings():
    exact = br.bracket_from_dict({"q": 0, "n": 3, "entries": [
        [1, 2, 0, "1/2"], [0, 2, 1, "-3"], [0, 1, 2, "0.25"]]})
    assert exact.exact
    assert exact.c[1, 2, 0] == Fraction(1, 2) and exact.c[2, 1, 0] == Fraction(-1, 2)
    assert exact.c[0, 1, 2] == Fraction(1, 4)
    # one number among the values makes the bracket float
    mixed = br.bracket_from_dict({"q": 0, "n": 3, "entries": [
        [1, 2, 0, "1/3"], [0, 2, 1, -3]]})
    assert not mixed.exact and mixed.c[1, 2, 0] == 1 / 3
    for bad in ("1/0", "nan", "x"):
        with pytest.raises(ValueError, match="malformed entry"):
            br.bracket_from_dict({"q": 0, "n": 3, "entries": [[1, 2, 0, bad]]})


@pytest.mark.parametrize("q, n", [(-1, 3), (0, 0), (2, -1)])
def test_bracket_from_dict_rejects_bad_dimensions(q, n):
    with pytest.raises(ValueError, match="need q >= 0 and n >= 1"):
        br.bracket_from_dict({"q": q, "n": n, "entries": []})


@pytest.mark.parametrize("key, value", [("n", 3.9), ("q", "x"), ("q", "0"), ("n", True),
                                        ("n", float("inf")), ("q", float("nan")), ("n", None)])
def test_bracket_from_dict_refuses_non_integer_dimensions(key, value):
    doc = {"q": 0, "n": 3, "entries": [[1, 2, 0, 1], [0, 2, 1, -1], [0, 1, 2, 1]]}
    doc[key] = value
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        br.bracket_from_dict(doc)


def test_bracket_from_dict_accepts_integral_float_dimensions():
    mu = br.bracket_from_dict({"q": 0.0, "n": 3.0, "entries": [[0, 1, 2, 1.0]]})
    assert (mu.q, mu.n) == (0, 3) and type(mu.n) is int


def test_bracket_from_dict_caps_dimension_before_allocating():
    # a dense (1e9)^3 array would not fit; the cap fires first
    with pytest.raises(ValueError, match="exceeds the largest supported dimension"):
        br.bracket_from_dict({"q": 0, "n": 10 ** 9, "entries": [[0, 1, 2, 1.0]]})
    dim = br.MAX_DIM
    mu = br.bracket_from_dict({"q": 0, "n": dim, "entries": [[0, 1, 2, 1.0]]})
    assert mu.dim == dim


@pytest.mark.parametrize("value", [1e308, 1e151, "1e400"])
def test_bracket_from_dict_rejects_oversized_norm(value):
    entries = [[1, 2, 0, value], [0, 2, 1, value], [0, 1, 2, value]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="entries too large"):
            br.bracket_from_dict({"q": 0, "n": 3, "entries": entries})


def test_read_bracket_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"q": 0}')
    with pytest.raises(ValueError):
        br.read_bracket(path)


def test_default_tolerance_tracks_norm():
    small = br.milnor_bracket(1.0, 1.0, 1.0)
    big = br.milnor_bracket(100.0, 100.0, 100.0)
    assert br.default_tolerance(big) > br.default_tolerance(small)
    assert br.default_tolerance(small) == pytest.approx(1e-10 * (1 + 6.0))


# 1e140: |mu|^2 near 1e282, where tol * sigma_max would overflow a float
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5, 1e140])
@pytest.mark.parametrize("mu", [
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0),
    br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
], ids=["circle3", "circle5", "aloff_wallach"])
def test_membership_is_scale_free(mu, scale):
    # the (h4) rank threshold is relative to sigma_max, so a member stays
    # one under mu -> scale * mu also where tol = 1e-10 (1 + |mu|^2) >= 1
    scaled = br.Bracket(mu.q, mu.n, scale * mu.c, family=mu.family, params=mu.params)
    rep = br.check_membership(scaled)
    assert rep.passed and rep.h4_kernel_dim == 0


def test_bracket_repr_names_the_family_when_tagged():
    assert repr(br.milnor_bracket(1.0, 1.0, 1.0)) == "Bracket(q=0, n=3, family='milnor')"
    assert repr(br.Bracket(1, 2, np.zeros((3, 3, 3)))) == "Bracket(q=1, n=2)"


def test_membership_report_repr_is_the_require_member_error():
    bad = br.circle_isotropy3(1.0, 0.0, 1.0, 0.0)   # (h4) fails
    text = ("MembershipReport(passed=False, jacobi=0.000e+00, subspace=0.000e+00, "
            "h2=holds, h3=0.000e+00, h4_kernel_dim=1)")
    assert repr(br.check_membership(bad)) == text
    with pytest.raises(ValueError) as info:
        br.require_member(bad)
    assert str(info.value) == f"bracket fails the membership check: {text}"


@pytest.mark.parametrize("q, n, c, message", [
    (-1, 3, np.zeros((2, 2, 2)), "need q >= 0 and n >= 1"),
    (0, 3, np.zeros((3, 3, 2)), r"must have shape \(3, 3, 3\), got \(3, 3, 2\)"),
    (0, 2, np.full((2, 2, 2), np.nan), "must be finite"),
], ids=["negative_q", "shape", "nan"])
def test_bracket_rejects_bad_dense_constants(q, n, c, message):
    with pytest.raises(ValueError, match=message):
        br.Bracket(q, n, c)


@pytest.mark.parametrize("entry", [(0, 3, 1, 1.0), (1, 0, 2, 1.0), (0, 1, -1, 1.0)])
def test_from_entries_rejects_out_of_range_entries(entry):
    with pytest.raises(ValueError, match="out of range or not upper-triangular"):
        br.Bracket.from_entries(0, 3, [entry])


def test_gl_action_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match="h must be 3 x 3"):
        br.gl_action(np.eye(4), br.milnor_bracket(1.0, 1.0, 1.0))


def test_equivariant_conditions_edge_cases():
    mu = br.circle_isotropy3(1.0, 0.5, 1.0, 2.0)
    with pytest.raises(ValueError, match="wrong shape"):
        br.check_equivariant_conditions(np.eye(3), mu)
    assert br.check_equivariant_conditions(np.eye(3), br.milnor_bracket(1.0, 2.0, 3.0)) \
        == (True, True)
    lower_left = np.eye(4)
    lower_left[2, 0] = 1.0
    with pytest.raises(ValueError, match="not block upper-triangular"):
        br.check_equivariant_conditions(lower_left, mu)
    # A = e_2^T: A ad(e_0)|_tangent has the entry -d, while ad(e_0) vanishes on R^q
    h = np.eye(4)
    h[0, 2] = 1.0
    assert br.check_equivariant_conditions(h, mu) == (True, False)


_CIRCLE3 = br.circle_isotropy3(1.0, 0.5, 1.0, 2.0)
# q = 2: e_1 joins the isotropy, and ad(e_1) acts on R^q as well
_CIRCLE5_Q2 = br.resplit(br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0), 2)


@pytest.mark.parametrize("mu, entry, value, message", [
    (_CIRCLE3, (0, 0), math.nan, "h must be finite"),
    (_CIRCLE3, (2, 3), math.inf, "h must be finite"),
    (_CIRCLE3, (0, 0), 0.0, "h_q is numerically singular"),
    (_CIRCLE5_Q2, (1, 1), 1e-13, r"h_q is numerically singular \(condition number 1.000e\+13\)"),
], ids=["nan", "inf", "singular", "ill_conditioned"])
def test_equivariant_conditions_refuse_a_bad_h_by_name(mu, entry, value, message):
    h = np.eye(mu.dim)
    h[entry] = value
    with pytest.raises(ValueError, match=message):
        br.check_equivariant_conditions(h, mu)


def _equivariant_conditions_per_z(h, mu):
    # one z at a time, as the two conditions are stated
    q, c, tol = mu.q, mu.float_c, br.default_tolerance(mu)
    hq, a, hn = h[:q, :q], h[:q, q:], h[q:, q:]
    g = hn.T @ hn
    cond_a = cond_b = True
    for z in range(q):
        m, mq = c[z, q:, q:].T, c[z, :q, :q].T
        cond_a &= bool(np.max(np.abs(g @ m - m @ g)) <= tol)
        cond_b &= bool(np.max(np.abs(a @ m - hq @ mq @ np.linalg.inv(hq) @ a)) <= tol)
    return cond_a, cond_b


def test_equivariant_conditions_equal_the_per_z_statement():
    rng = np.random.default_rng(3)
    circle5 = br.circle_isotropy5(1.0, 2.0, 1.0, 2.0, 1.0, -1.0, 1.0, -1.0)
    cases = [(circle5, np.diag([0.7, 1.3, 0.5, 0.5, 2.0, 2.0])),
             (circle5, np.diag([0.7, 1.3, 0.5, 0.6, 2.0, 2.0]))]
    for mu in (_CIRCLE5_Q2, _CIRCLE3, br.random_member(1, 3, seed=4)):
        q = mu.q
        for upper in (np.zeros((q, mu.n)), rng.standard_normal((q, mu.n))):
            h = np.eye(mu.dim)
            h[:q, q:] = upper
            h[:q, :q] = np.eye(q) + 0.3 * np.triu(rng.standard_normal((q, q)))
            cases.append((mu, h))
            h = h.copy()
            h[q:, q:] += 0.3 * rng.standard_normal((mu.n, mu.n))
            cases.append((mu, h))
    verdicts = set()
    for mu, h in cases:
        verdict = br.check_equivariant_conditions(h, mu)
        assert verdict == _equivariant_conditions_per_z(h, mu)
        verdicts.add(verdict)
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-10])
def test_check_membership_refuses_a_bad_tol_by_name(tol):
    with pytest.raises(ValueError, match="tol must be finite and >= 0"):
        br.check_membership(br.milnor_bracket(1.0, 1.0, 1.0), tol=tol)


def test_flat_degeneration_of_an_exact_bracket_stays_exact():
    mu = br.circle_isotropy3(1, 2, 3, Fraction(1, 2))
    lam = br.flat_degeneration(mu)
    assert lam.exact and lam.family == "flat"
    assert all(v == 0 and type(v) is Fraction for v in lam.c[1:, 1:, :].ravel())
    assert np.array_equal(lam.c[:1], mu.c[:1]) and np.array_equal(lam.c[:, :1], mu.c[:, :1])
    assert br.check_membership(lam).passed


@pytest.mark.parametrize("q", [-1, 3])
def test_resplit_out_of_range(q):
    with pytest.raises(ValueError, match="out of range"):
        br.resplit(br.milnor_bracket(1.0, 1.0, 1.0), q)


def test_aloff_wallach_refuses_the_zero_pair():
    with pytest.raises(ValueError, match="must not both vanish"):
        br.aloff_wallach_bracket(0, 0, 1.0, 1.0, 1.0, 1.0)


def test_random_member_needs_two_tangent_directions():
    with pytest.raises(ValueError, match="need n >= 2"):
        br.random_member(0, 1)


@pytest.mark.parametrize("text, message", [
    ("[0, 3, []]", "malformed bracket document: list indices"),
    ('{"q": 0, "n": 3, "entries": {"0": 1}}', "entries is not a list"),
    ('{"q": 0, "n": 3, "entries": [[0, 1, 2, "abc"]]}', "malformed entry"),
    ('{"q": 0, "n": 3, "entries": [[0, 1, 2, "1e1x"]]}', "malformed entry"),
], ids=["list", "entries_object", "abc", "bad_exponent"])
def test_read_bracket_rejects_malformed_documents(tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        br.read_bracket(path)
