"""Exactly-conservative affine functional projection.

The projected field is u~ = alpha * u_raw + beta with (alpha, beta) solved in
closed form from a linear (mass) and a quadratic (energy) integral constraint.
Spatial moments of the raw network are estimated over a large detached point
cloud (plain numpy, never tape-recorded); gradients of the moments are instead
estimated on the training mini-batch, and the projection parameters are
differentiated through exact analytical Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import net as netmod
from .autodiff import Tape
from .errors import IllPosedTargets, NumericalAbort
from .jets import Jet

EPS_FLOOR = 1e-8  # variance relaxation floor used in the roots and the Jacobians


@dataclass(frozen=True)
class TargetInvariants:
    """Domain-averaged target trajectories c1(t)/|X| and c2(t)/|X|."""

    c1_bar: Callable[[float], float]
    c2_bar: Callable[[float], float]

    def at(self, t):
        c1 = float(self.c1_bar(t))
        c2 = float(self.c2_bar(t))
        v = c2 - c1 * c1
        if not np.isfinite(v) or v <= 0.0:
            raise IllPosedTargets(f"target variance must be positive, got {v:.3e} at t={t}")
        return c1, c2, v


@dataclass(frozen=True)
class MomentEstimate:
    mu1: float
    mu2: float
    m: int
    t: float

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("moment estimation needs at least two points")
        # relative to mu2: a flat field with a large mean leaves a roundoff
        # deficit that the variance floor in solve_affine handles
        if self.mu2 < self.mu1 * self.mu1 - 1e-12 * (1.0 + self.mu2):
            raise ValueError("second moment below the square of the first")

    @property
    def variance(self):
        return self.mu2 - self.mu1 * self.mu1


@dataclass(frozen=True)
class AffineParams:
    alpha: float
    beta: float
    t: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and np.isfinite(self.beta)):
            raise ValueError("non-finite projection parameters")
        if self.alpha <= 0.0:
            raise ValueError("projection scale must be positive")


@dataclass(frozen=True)
class ProjectionJacobians:
    da_dmu1: float
    da_dmu2: float
    db_dmu1: float
    db_dmu2: float


def estimate_moments(params, cloud_points: np.ndarray, t: float) -> MomentEstimate:
    """Sample moments of u_raw over a spatial cloud at fixed t (detached).

    The evaluation is a plain numpy forward pass; by construction it cannot
    allocate tape nodes.
    """
    return moments_at_times(params, cloud_points, [t])[0]


def moments_at_times(params, cloud_points: np.ndarray, times) -> list:
    """Moments at several time slices with one fused forward pass.

    The rows of all times form one segment, planned as one call over
    len(times) * m rows, whose blocks fill their own rows.
    """
    times = np.asarray(times, dtype=np.float64)
    if cloud_points.shape[0] < 2:
        raise ValueError("moment estimation needs at least two points")
    u, = netmod.forward_segments(params, [(cloud_points, times)])
    return moments_of(u, times)


def moments_of(u: np.ndarray, times) -> list:
    """The moments at each time of raw values u, laid out time-major."""
    out = []
    # a diverged field's moments overflow silently: solve_affine reports them
    with np.errstate(over="ignore", invalid="ignore"):
        for u_t, t in zip(u.reshape(len(times), -1), times):
            out.append(MomentEstimate(mu1=float(u_t.mean()), mu2=float((u_t * u_t).mean()),
                                      m=u_t.size, t=float(t)))
    return out


def solve_affine(moments: MomentEstimate, targets: TargetInvariants, eps=EPS_FLOOR) -> AffineParams:
    """Closed-form roots of the two-constraint system.

    alpha = sqrt(V_target / max(sigma^2, eps)), beta = c1_bar - alpha * mu1.
    The variance floor keeps a nearly-flat field from producing a singular
    scale; the same floored variance is used by the Jacobians so the backward
    map differentiates exactly what was evaluated forward.
    """
    if not (np.isfinite(moments.mu1) and np.isfinite(moments.mu2)):
        raise NumericalAbort("non-finite moments")
    c1, c2, v_target = targets.at(moments.t)
    sigma2 = max(moments.variance, eps)
    alpha = float(np.sqrt(v_target / sigma2))
    beta = c1 - alpha * moments.mu1
    return AffineParams(alpha=alpha, beta=beta, t=moments.t)


def projection_jacobians(moments: MomentEstimate, affine: AffineParams,
                         eps=EPS_FLOOR) -> ProjectionJacobians:
    """Exact analytical Jacobians of (alpha, beta) with respect to (mu1, mu2)."""
    sigma2 = max(moments.variance, eps)
    a = affine.alpha
    da1 = a * moments.mu1 / sigma2
    da2 = -a / (2.0 * sigma2)
    db1 = -a - moments.mu1 * da1
    db2 = -moments.mu1 * da2
    jac = ProjectionJacobians(da_dmu1=da1, da_dmu2=da2, db_dmu1=db1, db_dmu2=db2)
    for v in (da1, da2, db1, db2):
        if not np.isfinite(v):
            raise ValueError("non-finite projection Jacobian")
    return jac


def moment_grad_estimates(params, batch_points: np.ndarray, t: float):
    """Mini-batch estimates of the parameter gradients of (mu1, mu2).

    grad mu1 = mean_j grad u(x_j); grad mu2 = mean_j 2 u(x_j) grad u(x_j).
    Tape-recorded by definition; both gradients come from one recorded
    forward pass with two reverse sweeps.
    """
    n = batch_points.shape[0]
    if n < 1:
        raise ValueError("empty mini-batch")
    tape = Tape()
    tn = netmod.TapeNet(tape, params)
    Xt = np.concatenate([batch_points, np.full((n, 1), float(t))], axis=1)
    u = tn.forward(Xt)
    m1 = tape.mean(u)
    m2 = tape.mean(u.pow2())
    g1 = tn.grad(tape.backward(m1))
    g2 = tn.grad(tape.backward(m2))
    return g1, g2


def projected_grad(affine: AffineParams, jac: ProjectionJacobians,
                   moment_grads, u_raw_value, grad_u_raw):
    """Parameter gradient of the projected output at one point.

    grad u~ = alpha * grad u_raw + u_raw * grad alpha + grad beta, with the
    moment-gradient estimates feeding the implicit channels through the
    analytical Jacobians.
    """
    g1, g2 = moment_grads
    grad_alpha = jac.da_dmu1 * g1 + jac.da_dmu2 * g2
    grad_beta = jac.db_dmu1 * g1 + jac.db_dmu2 * g2
    return affine.alpha * grad_u_raw + float(u_raw_value) * grad_alpha + grad_beta


def same_batch_shift(batch_values: np.ndarray, c1_bar: float):
    """Mean-matching shift evaluated and applied on the identical batch.

    delta = c1_bar - mean(batch); the shifted batch has mean c1_bar exactly
    (to roundoff), for every batch size and point placement.
    """
    batch_values = np.asarray(batch_values, dtype=np.float64)
    if batch_values.size == 0:
        raise ValueError("empty batch")
    delta = float(c1_bar) - float(batch_values.mean())
    return delta, batch_values + delta


def fixed_set_shift(batch_values: np.ndarray, quadrature_values: np.ndarray, c1_bar: float):
    """The mismatched variant: shift from a frozen quadrature set applied to a
    fresh batch.  Returns (delta, shifted batch, residual vs c1_bar)."""
    delta = float(c1_bar) - float(np.asarray(quadrature_values).mean())
    shifted = np.asarray(batch_values, dtype=np.float64) + delta
    residual = float(shifted.mean()) - float(c1_bar)
    return delta, shifted, residual


class AffineField:
    """Field view of u~ = alpha * u_raw + beta over a base field.

    alpha and beta may be floats (frozen projection) or tape variables
    (differentiable scalars); beta may also be a function of no arguments,
    read only when a value or a coefficient 0 is formed.  Every
    spatial-derivative jet coefficient of the projected field is alpha times
    the raw coefficient, which is what keeps homogeneous Neumann boundaries
    intact.
    """

    def __init__(self, base, alpha, beta):
        self.base = base
        self.alpha = alpha
        self.beta = beta

    def value(self):
        beta = self.beta() if callable(self.beta) else self.beta
        return self.alpha * self.base.value() + beta

    def jet(self, coord, order) -> Jet:
        """alpha times each raw derivative coefficient; coefficient 0 is the
        projected value, formed on its first read."""
        raw = self.base.jet(coord, order)
        derivs = [raw.coeff(k) for k in range(1, order + 1)]
        return Jet([None] + [None if c is None else c * self.alpha for c in derivs], self.value)
