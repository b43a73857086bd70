import math
import warnings

import numpy as np
import pytest

import homlie.brackets as br
import homlie.curvature as cu
import homlie.flow as fl
from helpers import conjugated_flow_derivative, reference_flow


def unit_su2():
    return br.milnor_bracket(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mu", [
    br.milnor_bracket(1.0, 0.5, 0.25),
    br.milnor_bracket(-0.7, 1.3, 0.0),
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    br.circle_isotropy5(1, 2, 1, 2, 1, -1, 1, -1),
    br.milnor_bracket(2 ** -0.5, 0.0, 0.0),
], ids=["milnor", "milnor2", "circle3", "circle5", "h3unit"])
def test_rhs_matches_conjugation_derivative(mu):
    # the rhs should be minus the infinitesimal change of basis by
    # exp(t diag(0, Ric)); the oracle builds that via matrix exponentials
    rhs = fl.bracket_flow_rhs(mu)
    assert rhs.q == mu.q and rhs.n == mu.n
    assert np.allclose(rhs.c, conjugated_flow_derivative(mu), atol=1e-7)


def three_einsum_rhs(mu):
    """The flow right-hand side term by term, with D = diag(0_q, Ric)."""
    d = np.zeros((mu.dim, mu.dim))
    d[mu.q:, mu.q:] = cu.ricci_operator(mu)
    c = mu.float_c
    rhs = (np.einsum("ai,ajk->ijk", d, c)
           + np.einsum("bj,ibk->ijk", d, c)
           - np.einsum("kb,ijb->ijk", d, c))
    return 0.5 * (rhs - np.swapaxes(rhs, 0, 1))


@pytest.mark.parametrize("mu", [
    br.milnor_bracket(1.0, 0.5, 0.25),
    br.milnor_bracket(2 ** -0.5, 0.0, 0.0),
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5),
    br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
    br.random_member(0, 5, seed=3),
    br.random_member(1, 3, seed=1),
], ids=["milnor", "h3unit", "circle3", "circle5", "aloff_wallach",
        "random_q0_n5", "random_q1_n3"])
def test_rhs_equals_three_einsum_formula(mu):
    want = three_einsum_rhs(mu)
    got = fl.bracket_flow_rhs(mu).c
    assert np.max(np.abs(got - want)) <= 1e-14 * mu.norm() ** 3


def test_rhs_on_nilpotent_soliton_is_a_multiple():
    mu = br.milnor_bracket(1.0, 0.0, 0.0)
    rhs = fl.bracket_flow_rhs(mu)
    assert np.array_equal(rhs.c, -1.5 * mu.c)
    assert fl.soliton_residual(mu) == 0.0


def test_rhs_on_einstein_bracket_is_a_multiple():
    mu = unit_su2()
    rhs = fl.bracket_flow_rhs(mu)
    assert np.allclose(rhs.c, 0.5 * mu.c, atol=1e-14)
    assert fl.soliton_residual(mu) <= 1e-14


def test_rhs_vanishes_on_flat_bracket():
    mu = br.milnor_bracket(0.0, 1.0, 1.0)
    assert np.max(np.abs(fl.bracket_flow_rhs(mu).c)) <= 1e-14


def test_rhs_is_cubic_and_residual_scale_free():
    mu = br.milnor_bracket(1.0, 0.6, -0.4)
    s = 1.7
    scaled = br.milnor_bracket(s * 1.0, s * 0.6, s * -0.4)
    assert np.allclose(fl.bracket_flow_rhs(scaled).c,
                       s ** 3 * fl.bracket_flow_rhs(mu).c, atol=1e-12)
    assert fl.soliton_residual(scaled) == pytest.approx(
        fl.soliton_residual(mu), rel=1e-10)


def test_rhs_isotropy_rows_vanish_identically():
    mu = br.circle_isotropy3(0.8, -0.3, 1.1, 0.7)
    rhs = fl.bracket_flow_rhs(mu)
    assert np.max(np.abs(rhs.c[:1])) == 0.0


def test_zero_bracket_residual_is_undefined():
    with pytest.raises(ValueError, match="zero bracket"):
        fl.soliton_residual(br.milnor_bracket(0.0, 0.0, 0.0))


def test_rhs_rejects_nonmember():
    bad = br.circle_isotropy3(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="membership"):
        fl.bracket_flow_rhs(bad)
    with pytest.raises(ValueError, match="membership"):
        fl.integrate(bad, 1.0)


# ---------------------------------------------------------------------------
# integration against the exact ray solution
# ---------------------------------------------------------------------------

def test_plain_flow_reproduces_exact_ray_solution():
    # on the ray through the round bracket the flow reduces to the
    # scalar ODE s' = s^3 / 2, s(0) = 1, whose solution is (1 - t)^(-1/2)
    mu = unit_su2()
    traj = fl.integrate(mu, 0.5, rtol=1e-10, atol=1e-13)
    assert traj.status == "completed"
    fin = traj.final
    s = (1.0 - 0.5) ** -0.5
    assert fin.t == pytest.approx(0.5, abs=1e-12)
    assert fin.norm == pytest.approx(math.sqrt(6.0) * s, rel=1e-9)
    assert np.allclose(fin.bracket.c, s * mu.c, rtol=1e-8)
    assert fin.scale == 1.0


def test_normalized_flow_stays_on_unit_sphere():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    traj = fl.integrate(mu, 5.0, normalized=True)
    assert traj.status == "completed"
    for s in traj.samples:
        assert s.norm == pytest.approx(1.0, abs=1e-12)
    ts = traj.times()
    assert ts[0] == 0.0 and np.all(np.diff(ts) > 0)


def test_normalized_flow_isotropy_rows_frozen_up_to_scale():
    mu = br.circle_isotropy3(0.8, -0.3, 1.1, 0.7)
    traj = fl.integrate(mu, 10.0, normalized=True)
    assert traj.status == "completed"
    fin = traj.final
    assert fin.scale != 1.0
    assert np.allclose(fin.bracket.c[:1] / fin.scale, mu.c[:1], atol=1e-9)


def test_normalized_flow_is_projectively_scale_covariant():
    # rescaling the seed only changes the normalized trajectory through
    # the recorded scale factor
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    big = br.milnor_bracket(3.0, 1.5, 0.75)
    t1 = fl.integrate(mu, 4.0, normalized=True)
    t2 = fl.integrate(big, 4.0, normalized=True)
    assert np.allclose(t1.final.bracket.c, t2.final.bracket.c, atol=1e-8)


def test_normalized_flow_fixes_soliton_direction():
    mu = br.milnor_bracket(1.0, 0.0, 0.0)
    traj = fl.integrate(mu, 3.0, normalized=True)
    assert traj.status == "completed"
    unit = mu.c / np.linalg.norm(mu.c)
    assert np.allclose(traj.final.bracket.c, unit, atol=1e-10)
    assert fl.soliton_residual(traj.final.bracket) <= 1e-12


def test_normalized_flow_preserves_jacobi():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    traj = fl.integrate(mu, 5.0, normalized=True)
    res = np.max(np.abs(br.jacobiator(traj.final.bracket)))
    assert res <= 1e-10


@pytest.mark.parametrize("mu", [
    br.milnor_bracket(1.0, 0.5, 0.25),
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
], ids=["milnor", "circle3"])
def test_every_sample_stays_in_the_space(mu):
    traj = fl.integrate(mu, 8.0, normalized=True, record_stride=50)
    assert traj.status == "completed"
    for s in traj.samples:
        assert br.check_membership(s.bracket).passed
        jac = np.max(np.abs(br.jacobiator(s.bracket)))
        assert jac <= 1e-8 * (1.0 + s.norm ** 2)


def test_flow_preserves_the_diagonal_subvariety():
    # a bracket with only the three cyclic components keeps that shape:
    # the rhs is diagonal in the same basis, so nothing else turns on
    mu = br.milnor_bracket(1.0, 0.25, 0.25)
    family = np.abs(mu.c) > 0
    traj = fl.integrate(mu, 6.0, normalized=True, record_stride=20)
    assert traj.status == "completed"
    for s in traj.samples:
        off = np.where(family, 0.0, s.bracket.c)
        assert np.max(np.abs(off)) <= 1e-9


def test_tolerance_controls_accuracy():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    ref = fl.integrate(mu, 3.0, normalized=True, rtol=1e-12, atol=1e-14)
    gaps = []
    for rtol in (1e-4, 1e-7, 1e-10):
        traj = fl.integrate(mu, 3.0, normalized=True, rtol=rtol,
                            atol=rtol * 1e-3)
        gaps.append(np.max(np.abs(traj.final.bracket.c - ref.final.bracket.c)))
    # stricter tolerances shrink the fixed-time gap; the decay is slower
    # than the tolerance itself because renormalizing after each accepted
    # step reparameterizes time at first order in the step size
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] <= 1e-4


# ---------------------------------------------------------------------------
# termination statuses
# ---------------------------------------------------------------------------

def test_blow_up_is_detected():
    # the ray solution (1 - t)^(-1/2) leaves any bounded ball before t = 1
    traj = fl.integrate(unit_su2(), 2.0, blow_up=1e3)
    assert traj.status == "blow_up_detected"
    assert traj.final.norm > 1e3
    assert traj.final.t < 1.0


@pytest.mark.parametrize("a", [3.99e102, 1e140])
def test_plain_flow_starting_above_blow_up_stops_before_the_first_step(a):
    # the right-hand side, cubic in mu, overflows at the first stage
    mu = br.milnor_bracket(0.0, 0.0, a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = fl.integrate(mu, 1.0)
        normalized = fl.integrate(mu, 0.1, normalized=True)
    assert traj.status == "blow_up_detected"
    assert len(traj.samples) == 1 and traj.final.t == 0.0
    assert np.array_equal(traj.final.bracket.c, mu.float_c)
    assert traj.final.residual == pytest.approx(
        fl.soliton_residual(br.milnor_bracket(0.0, 0.0, 1.0)), abs=1e-15)
    # the normalized flow rescales first and runs as usual
    assert normalized.status == "completed"


def test_step_underflow_near_singularity():
    # with an unreachably large blow-up threshold the step size collapses
    # at the finite-time singularity instead
    traj = fl.integrate(unit_su2(), 2.0, blow_up=1e14)
    assert traj.status == "step_underflow"
    assert traj.final.t == pytest.approx(1.0, abs=1e-6)


def test_step_underflow_records_the_final_state_once():
    # at default settings the round bracket's step collapses near t = 1;
    # with stride 1 the last accepted step has recorded the state it stops at
    traj = fl.integrate(unit_su2(), 2.0)
    assert traj.status == "step_underflow"
    assert traj.samples[-2].t < traj.final.t


def test_max_steps_status():
    traj = fl.integrate(unit_su2(), 2.0, max_steps=3)
    assert traj.status == "max_steps"


def test_record_stride_keeps_endpoints():
    mu = br.milnor_bracket(1.0, 0.5, 0.25)
    dense = fl.integrate(mu, 2.0, normalized=True, record_stride=1)
    sparse = fl.integrate(mu, 2.0, normalized=True, record_stride=1000)
    assert len(sparse.samples) < len(dense.samples)
    assert sparse.samples[0].t == 0.0
    assert sparse.final.t == pytest.approx(2.0, abs=1e-12)


def test_integrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        fl.integrate(unit_su2(), 0.0)
    with pytest.raises(ValueError):
        fl.integrate(br.milnor_bracket(0.0, 0.0, 0.0), 1.0, normalized=True)


def test_trajectory_api():
    traj = fl.integrate(unit_su2(), 0.1)
    assert traj.q == 0 and traj.n == 3
    assert traj.final is traj.samples[-1]
    assert "completed" in repr(traj)
    s = traj.samples[0]
    assert s.ricci_eigenvalues == pytest.approx([0.5, 0.5, 0.5])


@pytest.mark.parametrize("mu, normalized", [
    (br.circle_isotropy3(0.8, -0.3, 1.1, 0.7), False),
    (br.milnor_bracket(1.0, 0.5, 0.25), True),
], ids=["circle3", "milnor_normalized"])
def test_sample_residual_equals_soliton_residual(mu, normalized):
    # integrate fills each sample's residual from the right-hand side it
    # already holds for that state; it is the public function's value
    traj = fl.integrate(mu, 2.0, normalized=normalized)
    assert len(traj.samples) > 10
    for s in traj.samples:
        assert s.residual == fl.soliton_residual(s.bracket)


# ---------------------------------------------------------------------------
# integrate against the plain stepper: raw-array stages, first same as last
# ---------------------------------------------------------------------------

FAMILIES = [
    br.milnor_bracket(1.0, 0.5, 0.25),
    br.circle_isotropy3(0.8, -0.3, 1.1, 0.7),
    br.circle_isotropy5(1.0, 3.0, 0.5, 1.0, -1.4, 0.7, 2.0, -1.5),
    br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5),
] + [br.random_member(q, n, seed)
     for q, n, seed in [(0, 3, 1), (0, 4, 2), (0, 5, 3), (1, 3, 1), (1, 3, 4)]]


@pytest.mark.parametrize("mu", FAMILIES, ids=[
    "milnor", "circle3", "circle5", "aloff_wallach", "random_q0_n3", "random_q0_n4",
    "random_q0_n5", "random_q1_n3", "random_q1_n3_seed4"])
def test_raw_contraction_and_stage_rhs_equal_the_public_functions(mu):
    c = mu.as_float()
    ric = cu.ricci_contraction(c, mu.q)
    assert np.array_equal(ric, cu.ricci_operator(mu))
    assert np.array_equal(fl._rhs(c, mu.q, ric), fl.bracket_flow_rhs(mu).c)


# (bracket, t_end, options): plain runs with 15, 36 and 73 rejected steps
# (the last ends in blow-up) and 2 at rtol 1e-12, normalized runs, strides
BIT_IDENTICAL_RUNS = [
    (br.milnor_bracket(1.0, 1.0, 1.0), 0.9999, dict(rtol=1e-3)),
    (br.milnor_bracket(1.0, 1.0, 1.0), 0.9999, dict(rtol=1e-6)),
    (br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5), 1.0, dict(rtol=1e-6)),
    (br.milnor_bracket(10.0, 1.0, -1.0), 1.0, dict(rtol=1e-12)),
    (br.circle_isotropy3(0.8, -0.3, 1.1, 0.7), 5.0, dict(normalized=True)),
    (br.milnor_bracket(1.0, 0.5, 0.25), 5.0, dict(normalized=True)),
    (br.milnor_bracket(1.0, 0.5, 0.25), 5.0, dict(normalized=True, record_stride=3)),
    (br.milnor_bracket(1.0, 1.0, 1.0), 0.9999, dict(rtol=1e-6, record_stride=3)),
]


@pytest.mark.parametrize("mu, t_end, options", BIT_IDENTICAL_RUNS, ids=[
    "su2_1e-3", "su2_1e-6", "aloff_wallach_blow_up", "milnor_1e-12", "circle3_normalized",
    "milnor_normalized", "milnor_normalized_stride3", "su2_stride3"])
def test_integrate_equals_the_plain_stepper_bit_for_bit(mu, t_end, options):
    status, want, _ = reference_flow(mu, t_end, **options)
    traj = fl.integrate(mu, t_end, **options)
    assert traj.status == status and len(traj.samples) == len(want)
    for s, (t, c, norm, eigs, scale, residual) in zip(traj.samples, want):
        assert (s.t, s.norm, s.scale, s.residual) == (t, norm, scale, residual)
        assert np.array_equal(s.bracket.c, c) and np.array_equal(s.ricci_eigenvalues, eigs)


def test_the_plain_bit_identity_runs_reject_steps():
    # a rejected step reruns k from the same first stage, so a last stage
    # aliased into the next attempt's first shows only on runs like these
    for (mu, t_end, options), rejected in zip(BIT_IDENTICAL_RUNS, [15, 36, 73, 2]):
        _, samples, attempted = reference_flow(mu, t_end, **options)
        assert attempted - (len(samples) - 1) == rejected


@pytest.mark.parametrize("mu, t_end, options", [
    (br.milnor_bracket(1.0, 1.0, 1.0), 0.9999, dict(rtol=1e-3)),
    (br.aloff_wallach_bracket(1, 2, 1.0, 2.0, 3.0, 0.5), 1.0, dict(rtol=1e-6)),
    (br.circle_isotropy3(0.8, -0.3, 1.1, 0.7), 2.0, dict(record_stride=3)),
], ids=["su2", "aloff_wallach", "circle3_stride3"])
def test_plain_run_makes_one_contraction_per_stage(monkeypatch, mu, t_end, options):
    calls = [0]
    contraction = cu.ricci_contraction

    def counted(c, q):
        calls[0] += 1
        return contraction(c, q)

    monkeypatch.setattr(fl, "ricci_contraction", counted)
    fl.integrate(mu, t_end, **options)
    monkeypatch.undo()
    _, _, attempted = reference_flow(mu, t_end, **options)
    assert calls[0] == 1 + 6 * attempted


def test_non_finite_stage_raises_at_once():
    # the first right-hand side overflows, so no step from the start can be
    # finite; rejecting them would shrink dt until step_underflow
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="^structure constants must be finite$"):
            fl.integrate(br.milnor_bracket(1e140, 2e140, 3e140), 1.0, blow_up=math.inf)
        for s in (1e60, 1e100):
            traj = fl.integrate(br.milnor_bracket(s, 2 * s, 3 * s), 1.0, blow_up=math.inf)
            assert traj.status == "step_underflow" and len(traj.samples) == 2


@pytest.mark.parametrize("options, message", [
    (dict(t_end=0.0), "t_end must be finite and > 0, got 0.0"),
    (dict(t_end=-1.0), "t_end must be finite and > 0"),
    (dict(t_end=math.nan), "t_end must be finite and > 0, got nan"),
    (dict(t_end=math.inf), "t_end must be finite and > 0, got inf"),
    (dict(rtol=math.nan), "rtol must be finite and >= 0, got nan"),
    (dict(rtol=math.inf), "rtol must be finite and >= 0"),
    (dict(rtol=-1e-9), "rtol must be finite and >= 0"),
    (dict(atol=0.0), "atol must be finite and > 0, got 0.0"),
    (dict(rtol=0.0, atol=0.0), "atol must be finite and > 0"),
    (dict(atol=math.nan), "atol must be finite and > 0"),
    (dict(atol=-1e-12), "atol must be finite and > 0"),
    (dict(record_stride=0), "record_stride must be >= 1, got 0"),
    (dict(record_stride=-3), "record_stride must be >= 1"),
], ids=["t_end_0", "t_end_negative", "t_end_nan", "t_end_inf", "rtol_nan", "rtol_inf",
        "rtol_negative", "atol_0", "rtol_and_atol_0", "atol_nan", "atol_negative", "stride_0",
        "stride_negative"])
def test_integrate_refuses_bad_numeric_arguments_by_name(options, message):
    args = dict(t_end=0.5) | options
    with pytest.raises(ValueError, match=f"^{message}"):
        fl.integrate(br.milnor_bracket(1.0, 1.0, 1.0), **args)


@pytest.mark.parametrize("rtol", [0.1, 1.0, 1e300])
def test_loose_rtol_rejects_steps_that_leave_the_float_range(rtol):
    # su(2) blows up before t = 1; a loose rtol lets dt grow until a stage
    # overflows, and that step is rejected instead of raising
    traj = fl.integrate(br.milnor_bracket(1.0, 1.0, 1.0), 2.0, rtol=rtol)
    assert traj.status in ("blow_up_detected", "step_underflow")
    assert all(np.isfinite(s.bracket.c).all() for s in traj.samples)
    assert traj.times()[-1] > 0.0
