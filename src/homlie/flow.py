"""Bracket flow: an ODE on structure constants driven by Ricci curvature.

The flow moves the bracket instead of the metric.  With D the block
endomorphism that vanishes on the isotropy block and equals the Ricci
endomorphism on the tangent block, the right-hand side is

    d/dt mu = mu(D . , .) + mu(. , D .) - D mu(. , .),

which is minus the infinitesimal change of basis by D, so the solution
stays inside the structural-condition set and evolves the underlying
space by a Ricci-type deformation.  Stationary directions of the
norm-normalized flow are exactly the brackets whose right-hand side is
a multiple of the bracket itself (algebraic solitons); the scale-free
defect of that property is reported by soliton_residual.

Integration uses an embedded Dormand-Prince 5(4) pair with standard step
control.  Each stage is one Ricci contraction and one right-hand side on
the raw state array; the 7th stage's state is the 5th-order solution, so
on the plain flow a step's last stage is the next one's first (first
same as last).  Normalized mode rescales to unit bracket norm after every
accepted step and evaluates the rescaled state once.  A sample takes its
Ricci eigenvalues and soliton residual from its state's evaluation.
"""

import numpy as np

from .brackets import Bracket, require_member
from .curvature import ricci_contraction, ricci_operator

__all__ = [
    "bracket_flow_rhs",
    "soliton_residual",
    "FlowSample",
    "FlowTrajectory",
    "integrate",
]

# Dormand-Prince 5(4) tableau: stage s evaluates the right-hand side at
# y + dt * A[s, :s] @ K[:s]; stage 7 equals the 5th-order solution, so
# the last error coefficient folds in the b* weight of stage 7.
BUTCHER_A = np.zeros((7, 7))
BUTCHER_A[np.tril_indices(7, -1)] = [
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]

# difference between 5th- and 4th-order weights
ERROR_COEFFS = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
                         -17253 / 339200, 22 / 525, -1 / 40])


def _rhs(c, q, ric):
    """X - X^T01 - c D with X[i] = sum_a D[a, i] c[a], D = diag(0_q, ric)."""
    n = ric.shape[0]
    x = np.zeros(c.shape)
    x[q:] = (ric @ c[q:].reshape(n, -1)).reshape(x[q:].shape)
    rhs = x - x.swapaxes(0, 1)
    rhs[..., q:] -= c[..., q:] @ ric
    return rhs


def _residual(c, rhs):
    """||rhs - (<rhs, c> / ||c||^2) c|| / ||c||^3; 0.0 on the zero bracket."""
    nrm2 = float(np.sum(c * c))
    if nrm2 == 0.0:
        return 0.0
    res = rhs - (float(np.sum(rhs * c)) / nrm2) * c
    # past nrm2 ~ 3e205 a numpy power gives inf where a float one raises OverflowError
    return float(np.sqrt(np.sum(res * res)) / np.float64(nrm2) ** 1.5)


def bracket_flow_rhs(mu):
    """Right-hand side of the flow as a bracket on the same splitting.

    Requires a membership-passing bracket; raises ValueError otherwise.
    """
    require_member(mu)
    return Bracket(mu.q, mu.n, _rhs(mu.float_c, mu.q, ricci_operator(mu)))


def soliton_residual(mu):
    """Scale-invariant distance of the flow direction from the ray of mu.

    Computes r = rhs - (<rhs, mu> / ||mu||^2) mu and returns
    ||r|| / ||mu||^3, which is invariant under mu -> c mu.  The value is
    zero exactly for algebraic solitons (the normalized flow is then
    stationary up to reparameterization).  Requires a nonzero member
    bracket; the residual of the zero bracket is undefined (0/0).
    """
    require_member(mu)
    c = mu.float_c
    if float(np.sum(c * c)) == 0.0:
        raise ValueError("soliton residual is undefined for the zero bracket")
    return _residual(c, _rhs(c, mu.q, ricci_operator(mu)))


class FlowSample:
    """One recorded state: time, bracket, norm, Ricci eigenvalues.

    scale is the product of all rescaling factors applied so far by the
    normalized flow (1.0 throughout for the plain flow).  The ODE keeps
    every component with an isotropy input slot constant, so dividing
    such components by scale recovers their initial values up to
    integrator error.  residual is soliton_residual of the state (0.0
    for the zero bracket), computed from the right-hand side in hand.
    """

    __slots__ = ("t", "bracket", "norm", "ricci_eigenvalues", "scale", "residual")

    def __init__(self, t, bracket, norm, ricci_eigenvalues, scale=1.0, residual=0.0):
        self.t = t
        self.bracket = bracket
        self.norm = norm
        self.ricci_eigenvalues = ricci_eigenvalues
        self.scale = scale
        self.residual = residual


class FlowTrajectory:
    """Integration result: status and the recorded samples.

    status is one of "completed", "blow_up_detected", "max_steps",
    "step_underflow"; for everything except "completed" the samples
    cover only the reached time span.
    """

    __slots__ = ("status", "samples", "q", "n")

    def __init__(self, status, samples, q, n):
        self.status = status
        self.samples = samples
        self.q = q
        self.n = n

    @property
    def final(self):
        return self.samples[-1]

    def times(self):
        return np.array([s.t for s in self.samples])

    def __repr__(self):
        return (f"FlowTrajectory(status={self.status!r}, samples={len(self.samples)}, "
                f"t_final={self.final.t:.6g})")


def integrate(mu0, t_end, normalized=False, rtol=1e-9, atol=1e-12,
              max_steps=100000, blow_up=1e8, record_stride=1):
    """Integrate the bracket flow from mu0 over [0, t_end].

    mu0 must pass the membership check.  normalized=True rescales to
    unit bracket norm after every accepted step.  Steps are controlled
    by the embedded 5(4) error estimate against atol + rtol * |state|;
    blow-up is declared when the bracket norm exceeds blow_up, for a
    plain flow that starts above it before the first step.  Every
    record_stride-th accepted step is recorded, plus the initial state
    and, once, the state the run ends at, whatever its status.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    require_member(mu0)
    q, n = mu0.q, mu0.n
    shape = (mu0.dim,) * 3

    # a stage evaluates (ric, rhs) on a view of y: one Ricci contraction, no Bracket
    def f(y):
        c = y.reshape(shape)
        ric = ricci_contraction(c, q)
        return ric, _rhs(c, q, ric).ravel()

    y = mu0.as_float().ravel()
    scale = 1.0
    if normalized:
        nrm = np.linalg.norm(y)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero bracket")
        y = y / nrm
        scale = 1.0 / nrm

    def sample(t, y, ric, residual):
        return FlowSample(t, Bracket(q, n, y.reshape(shape)), float(np.linalg.norm(y)),
                          np.sort(np.linalg.eigvalsh(ric))[::-1], scale, residual)

    if not normalized and np.linalg.norm(y) > blow_up:
        # blown up before the first step, where the right-hand side, cubic
        # in mu, can overflow; the residual is scale-free, so it is taken
        # at unit norm (one right-hand side and one sample, as a start)
        u = y / np.linalg.norm(y)
        return FlowTrajectory("blow_up_detected", [sample(
            0.0, y, ricci_contraction(y.reshape(shape), q), _residual(u, f(u)[1]))], q, n)

    t = 0.0
    ric, fy = f(y)
    samples = [sample(0.0, y, ric, _residual(y, fy))]
    scale0 = np.linalg.norm(fy) / (1.0 + np.linalg.norm(y))
    dt = min(min(0.01, 0.1 / scale0) if scale0 > 0 else 0.01, t_end)
    steps = accepted = 0
    status = "max_steps"
    k = np.empty((7, y.size))

    while steps < max_steps:
        steps += 1
        k[0] = fy
        for s in range(1, 7):
            y_new = y + dt * (BUTCHER_A[s, :s] @ k[:s])
            ric_new, k[s] = f(y_new)
        err = dt * (ERROR_COEFFS @ k)
        tol = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = np.sqrt(np.mean((err / tol) ** 2))
        if not np.isfinite(err_norm):  # a non-finite stage; a larger dt would not end it
            raise ValueError("structure constants must be finite")

        if err_norm <= 1.0:
            t += dt
            y = y_new
            if normalized:
                nrm = np.linalg.norm(y)
                y, scale = y / nrm, scale / nrm
                ric, fy = f(y)
            else:
                ric, fy = ric_new, k[6].copy()    # first same as last; k is overwritten next
            accepted += 1
            if np.linalg.norm(y) > blow_up:
                status = "blow_up_detected"
                break
            if t >= t_end - 1e-12 * max(1.0, t_end):
                status = "completed"
                break
            if accepted % record_stride == 0:
                samples.append(sample(t, y, ric, _residual(y, fy)))

        factor = 0.9 * err_norm ** -0.2 if err_norm > 0 else 5.0
        dt = dt * min(5.0, max(0.2, factor))
        if t + dt > t_end:
            dt = t_end - t
        if dt < 1e-14 * max(1.0, abs(t)):
            status = "step_underflow"
            break

    # the final state, once, whatever ended the run
    if samples[-1].t < t:
        samples.append(sample(t, y, ric, _residual(y, fy)))
    return FlowTrajectory(status, samples, q, n)
