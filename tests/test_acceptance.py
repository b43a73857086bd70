"""End-to-end acceptance checks, one test per numbered release criterion.

Every test prints a single "criterion NN ...: PASS/FAIL" line (visible
with -s, or in the captured output on failure) in addition to the usual
pytest verdict.  Tolerances and runtime caps are part of the criteria
and asserted literally.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import homlie.brackets as br
import homlie.classify as cl
import homlie.coordinates as co
import homlie.curvature as cu
import homlie.flow as fl
from helpers import degree2_jet_closed_form, random_orthogonal


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({label}): FAIL")
        raise
    print(f"criterion {num:02d} ({label}): PASS")


def ricci_eigs(mu):
    return np.sort(np.linalg.eigvalsh(cu.ricci_operator(mu)))[::-1]


def test_criterion_01_collapse_family_ricci_eigenvalues():
    with criterion(1, "collapse family Ricci eigenvalues"):
        t0 = time.perf_counter()
        for p in (1.0, 1.2, 1.4):
            mu = br.circle_isotropy5(p, 1.0, 1.0, -1.0, 0.0, 1.0, 0.0, 1.0)
            want = sorted([1.0, p - 0.5, p - 0.5, 0.5, 0.5], reverse=True)
            assert np.allclose(ricci_eigs(mu), want, atol=1e-9)
        assert time.perf_counter() - t0 < 1.0


def test_criterion_02_squashed_sphere_ricci_eigenvalues():
    with criterion(2, "squashed three-sphere Ricci eigenvalues"):
        for k in (1, 4, 16, 64):
            rk = math.sqrt(k)
            for sign in (1.0, -1.0):
                mu = br.milnor_bracket(sign / rk, rk, rk)
                eigs = ricci_eigs(mu)
                want = sorted([1.0 / (2 * k), sign - 1.0 / (2 * k),
                               sign - 1.0 / (2 * k)], reverse=True)
                assert np.allclose(eigs, want, atol=1e-9)
                limit = sorted([0.0, sign, sign], reverse=True)
                assert np.max(np.abs(eigs - np.array(limit))) \
                    <= 1.0 / (2 * k) + 1e-9


def test_criterion_03_flat_brackets_have_zero_fingerprint():
    with criterion(3, "flatness of degenerate brackets"):
        flat = br.milnor_bracket(1.0, 1.0, 0.0)
        assert cu.scalar_invariants(flat, 2)[1] <= 1e-12
        assert cu.fingerprint(flat, order=2).norm() <= 1e-10
        shapes = [(0, 2), (0, 3), (0, 4), (1, 3)]
        for s in range(100):
            q, n = shapes[s % len(shapes)]
            mu = br.random_member(q, n, seed=s)
            degen = br.flat_degeneration(mu)
            assert cu.scalar_invariants(degen, 2)[1] <= 1e-12
            assert cu.fingerprint(degen, order=2).norm() <= 1e-10


def _assert_jet_matches_closed_form(mu):
    jet = co.metric_jet(mu, 2)
    assert jet.exact
    want = degree2_jet_closed_form(mu)
    for i in range(mu.n):
        for j in range(mu.n):
            for alpha in jet.space.monomials:
                have = jet.coefficient(i, j, alpha)
                expect = want.get((i, j, alpha), Fraction(0))
                assert have == expect, (i, j, alpha, have, expect)


def test_criterion_04_exact_degree_two_jet_closed_form():
    with criterion(4, "exact degree-2 metric jet"):
        _assert_jet_matches_closed_form(br.milnor_bracket(1, 2, 3))
        rng = np.random.default_rng(7)
        nums = rng.integers(-4, 5, size=4)
        dens = rng.integers(1, 5, size=4)
        a, b, c, d = (Fraction(int(x), int(y)) for x, y in zip(nums, dens))
        if d == 0:
            d = Fraction(1)
        _assert_jet_matches_closed_form(br.circle_isotropy3(a, b, c, d))


def test_criterion_05_dual_path_curvature_agreement():
    with criterion(5, "dual-path curvature agreement on 200 brackets"):
        t0 = time.perf_counter()
        for s in range(200):
            n = 3 if s < 100 else 4
            mu = br.random_member(0, n, seed=s)
            alg = cu.riemann_origin(mu)
            ser = co.coordinate_curvature_oracle(co.metric_jet(mu, 2), 0)
            scale = 1.0 + float(np.max(np.abs(alg)))
            assert float(np.max(np.abs(alg - ser))) / scale <= 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_criterion_06_orbit_distance_vanishes_on_rotated_pairs():
    with criterion(6, "orbit distance on 50 rotated pairs"):
        rng = np.random.default_rng(2024)
        for i in range(50):
            mu = br.random_member(0, 3, seed=1000 + i)
            h = random_orthogonal(3, rng)
            d = cu.invariant_distance(mu, br.gl_action(h, mu), order=1)
            assert d <= 1e-6, (i, d)


def test_criterion_07_flow_preserves_membership_structure():
    with criterion(7, "flow preserves bracket structure"):
        traj = fl.integrate(br.milnor_bracket(1.0, 0.5, 0.25), 20.0,
                            normalized=True)
        assert traj.status == "completed"
        assert np.max(np.abs(br.jacobiator(traj.final.bracket))) <= 1e-8

        mu = br.circle_isotropy3(0.8, -0.3, 1.1, 0.7)
        traj = fl.integrate(mu, 20.0, normalized=True)
        assert traj.status == "completed"
        fin = traj.final
        assert np.max(np.abs(br.jacobiator(fin.bracket))) <= 1e-8
        drift = np.max(np.abs(fin.bracket.c[:1] / fin.scale - mu.c[:1]))
        assert drift <= 1e-8


def test_criterion_08_nilpotent_soliton_is_a_flow_fixed_point():
    with criterion(8, "nilpotent soliton fixed point"):
        traj = fl.integrate(br.milnor_bracket(1.0, 0.0, 0.0), 55.0,
                            normalized=True)
        assert traj.status == "completed"
        residuals = [(s.t, fl.soliton_residual(s.bracket))
                     for s in traj.samples]
        first = next(i for i, (t, r) in enumerate(residuals) if r < 1e-6)
        assert residuals[first][0] <= 50.0
        tail = residuals[first:first + 10]
        assert len(tail) == 10
        assert all(r < 1e-6 for _, r in tail)


def test_criterion_09_invariant_gaps_decay_like_one_over_k():
    with criterion(9, "curvature invariants converge at rate 1/k"):
        limit = br.milnor_bracket(1.0, 0.0, 0.0)
        f_limit = cu.scalar_invariants(limit, 3)
        ks = list(range(2, 65))
        gaps = {j: [] for j in (1, 2, 3)}
        for k in ks:
            fs = cu.scalar_invariants(br.milnor_bracket(1.0, 1.0 / k, 1.0 / k), 3)
            for j in (1, 2, 3):
                gaps[j].append(abs(fs[j - 1] - f_limit[j - 1]))
        for j in (1, 2, 3):
            g = gaps[j]
            assert all(a > b for a, b in zip(g, g[1:])), f"f_{j} not monotone"
            fitted = max(k * v for k, v in zip(ks, g))
            assert fitted < 10.0
            assert all(v <= fitted / k + 1e-12 for k, v in zip(ks, g))
            # the rate really is 1/k: k * gap stays level between the
            # first and second half of the range instead of growing
            early = max(k * v for k, v in zip(ks, g) if k <= 16)
            late = max(k * v for k, v in zip(ks, g) if k >= 32)
            assert late <= 1.25 * early
        assert max(k * v for k, v in zip(ks, gaps[1])) == pytest.approx(2.0)


def test_criterion_10_topology_arithmetic_and_witness_search():
    with criterion(10, "topology congruences and witness search"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10000:
            p, q, p2, q2 = (int(v) for v in rng.integers(-60, 61, size=4))
            if 0 in (p, q, p2, q2):
                continue
            if math.gcd(p, q) != 1 or math.gcd(p2, q2) != 1:
                continue
            rep = cl.aw_equivalence(p, q, p2, q2)
            if rep.equivariantly_diffeomorphic:
                assert rep.diffeomorphic
            if rep.diffeomorphic:
                assert rep.homeomorphic
            if rep.homeomorphic:
                assert rep.homotopy_equivalent
            checked += 1
        found = cl.aw_find_witnesses(3_000_000_000)
        assert time.perf_counter() - t0 < 300.0
        # Kreck & Stolz, J. Differential Geom. 33 (1991): the pairs below
        # give homeomorphic but not diffeomorphic spaces; an exhaustive
        # grid scan of every coprime pair with r < 3e9 finds no other
        # homotopy-equivalent pair, so this is the first witness by r
        assert found["homeo_not_diffeo"] == ((42652, 18561), (51561, 5227)), \
            ("the first homeomorphic-but-not-diffeomorphic pair is the "
             "Kreck-Stolz pair (42652, 18561), (51561, 5227) at "
             "r = 2955367597; s = -q^3 mod r varies with the pair, and this "
             "one satisfies the homotopy and homeomorphism congruences but "
             "not the diffeomorphism one")
        assert found["homotopy_not_homeo"] is None, \
            ("no homotopy-equivalent-but-not-homeomorphic pair exists with "
             "r <= 3e9: the grid scan below 3e9 finds a single homotopy-"
             "equivalent pair, and it is homeomorphic; for 3 not dividing r, "
             "4 r^3 = D^2 + 27 s^2 and quadratic reciprocity force "
             "8 | s -+ s' together with r | s -+ s', and 3 | s, so homotopy "
             "equivalence implies homeomorphism there")


def test_criterion_11_convergence_without_topological_stabilization():
    with criterion(11, "parameter sequence converges, topology does not"):
        limit = br.aloff_wallach_bracket(1, 1, 1.0, 1.0, 1.0, 1.0)
        dists = []
        for k in range(1, 21):
            mu = br.aloff_wallach_bracket(1.0, (k + 1.0) / k, 1.0, 1.0, 1.0, 1.0)
            diff = mu.as_float() - limit.as_float()
            dists.append(float(np.sqrt(np.sum(diff * diff))))
            rep = cl.aw_equivalence(k, k + 1, 1, 1)
            assert not rep.homeomorphic
            assert not rep.homotopy_equivalent
        assert all(a > b for a, b in zip(dists, dists[1:]))


def test_criterion_12_injectivity_radius_bounds():
    with criterion(12, "injectivity radius lower bounds"):
        for a, b, c in [(1.0, 1.0, 1.0), (1.0, 2.0, 3.0), (0.5, -0.7, 1.1)]:
            bound = co.injectivity_bound(br.milnor_bracket(a, b, c))
            want = math.pi / math.sqrt(2 * (a * a + b * b + c * c))
            assert bound.lower == pytest.approx(want, abs=1e-12)
            assert bound.heuristic is False
        h3 = co.injectivity_bound(br.milnor_bracket(1.0, 0.0, 0.0))
        assert math.isinf(h3.lower)
