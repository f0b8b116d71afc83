"""Comparison methods: discrete Euclidean projections on grids and clouds.

The projections are the closed-form nearest-point maps onto the Riemann-sum
constraint sets over a uniform grid (constant volume element ``dv``).
``mc_misuse_projection`` applies the same algebra on a random point cloud
with dv := |X|/n, reproducing the conservation failure that heterogeneous
quadrature weights cause under mini-batch sampling.  The soft-penalty
baseline lives in ``trainer.step_baseline``, where it is trained.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .autodiff import Var
from .errors import ConfigError, DegenerateField, InfeasibleTargets

GRID_POINT_CAP = 2 ** 20


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor-product grid over a box; dv is the hypervolume element."""

    counts: tuple          # points per dimension
    spacings: tuple        # grid spacing per dimension

    def __post_init__(self):
        if any(n < 2 for n in self.counts):
            raise ConfigError("grids need at least two points per dimension")

    @property
    def n(self):
        return int(np.prod(self.counts))

    @property
    def dv(self):
        return float(np.prod(self.spacings))


def preflight_grid(counts):
    """Refuse tensor grids beyond the point cap, with a memory estimate."""
    n = int(np.prod(counts))
    if n > GRID_POINT_CAP:
        est_mb = n * 8 / 1e6
        raise ConfigError(
            f"grid of {n} points exceeds the cap of {GRID_POINT_CAP}; "
            f"holding one field copy alone needs ~{est_mb:.0f} MB")
    return n


def uniform_grid(domain, counts):
    """Tensor-product grid points (n, d) and the matching GridSpec."""
    counts = tuple(int(c) for c in counts)
    preflight_grid(counts)
    axes = []
    spacings = []
    for lo, hi, n in zip(domain.lower, domain.upper, counts):
        axes.append(np.linspace(lo, hi, n))
        spacings.append((hi - lo) / (n - 1))
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return pts, GridSpec(counts=counts, spacings=tuple(spacings))


def proj_linear(field, dv, c1):
    """Shift every entry so the Riemann sum of the field equals c1."""
    field = np.asarray(field, dtype=np.float64)
    n = field.size
    shift = c1 / (n * dv) - field.mean()
    return field + shift


def proj_quadratic(field, dv, c2):
    """Scale the field so the Riemann sum of its square equals c2."""
    field = np.asarray(field, dtype=np.float64)
    s = float((field * field).sum())
    if s <= 0.0:
        raise DegenerateField("cannot scale a zero field onto the quadratic constraint")
    if c2 <= 0.0:
        raise ConfigError("quadratic target must be positive")
    return field * np.sqrt(c2 / (dv * s))


def combined_scalars(field, dv, c1, c2):
    """Scale a and shift b of the nearest point a * field + b on the
    intersection of the linear and quadratic constraint sets.

    The centered field is rescaled onto the sphere, then recentered at the
    mean the linear constraint dictates.  ``field`` is a numpy array or a tape
    variable; a is of the same kind, so the projection can be differentiated
    on a tape.  On a tape b is a function of no arguments that records the
    shift on its first call, in places held where it would have been recorded
    here; over numpy b is a number.
    """
    taped = isinstance(field, Var)
    n = (field.value if taped else field).size
    radius2 = c2 / dv - c1 * c1 / (n * dv * dv)
    if radius2 <= 0.0:
        raise InfeasibleTargets(
            f"combined projection infeasible: c2/dv - c1^2/(n dv^2) = {radius2:.3e} <= 0")
    mu = field.tape.mean(field) if taped else field.mean()
    centered = field - mu
    den = field.tape.sum(centered * centered) if taped else (centered * centered).sum()
    if float(den.value if taped else den) <= 1e-300:
        raise DegenerateField("zero-variance field has no nearest point on the sphere")
    if not taped:
        a = np.sqrt(radius2 / den)
        return a, c1 / (n * dv) - a * mu
    tape = field.tape
    a = (radius2 / den).sqrt()
    at = tape.hold(), tape.hold()
    return a, functools.cache(lambda: tape.record(
        "sub", c1 / (n * dv), tape.record("mul", a, mu, at=at[0]), at=at[1]))


def proj_combined(field, dv, c1, c2):
    """Nearest point on the intersection of the linear and quadratic constraint sets."""
    field = np.asarray(field, dtype=np.float64)
    a, b = combined_scalars(field, dv, c1, c2)
    return a * field + b


def mc_misuse_projection(field, domain_volume, c1, c2):
    """The combined projection applied verbatim on a random cloud with dv = |X|/n.

    Conservation holds on the cloud itself (same algebra) but is *not*
    guaranteed with respect to any independent evaluation cloud; the
    deviation decays only at the Monte Carlo rate.
    """
    field = np.asarray(field, dtype=np.float64)
    dv = domain_volume / field.size
    return proj_combined(field, dv, c1, c2)


def riemann_invariants(field, dv):
    """Riemann-sum estimates (c1, c2) of the two integrals on a grid/cloud."""
    field = np.asarray(field, dtype=np.float64)
    return dv * float(field.sum()), dv * float((field * field).sum())
