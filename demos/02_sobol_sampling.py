#!/usr/bin/env python3
"""Low-discrepancy vs pseudo-random sampling for integral estimation.

Estimates the integral of a bump over [0, 2] with matched point budgets and
shows the quadrature error: the Sobol' stream converges near O(1/m), the
uniform stream at the Monte Carlo rate O(1/sqrt(m)).
"""

import numpy as np

from cpl.sampler import Domain, SeededRng, sobol_points, spatial_cloud, uniform_points

dom = Domain((0.0,), (2.0,), 1.0)


def u(x):
    return np.exp(-(((x - 1.0) / 0.4) ** 2))


xs = np.linspace(0.0, 2.0, 2_000_001)
truth = np.trapezoid(u(xs), xs)
print(f"dense-quadrature integral: {truth:.10f}")
print(f"{'m':>8}  {'sobol err':>12}  {'uniform err':>12}")
rng = SeededRng(0, 1)
for m in (64, 256, 1024, 4096, 16384):
    sob = spatial_cloud(m, dom, skip=0).points[:, 0]
    uni = uniform_points(m, 1, rng).points[:, 0] * 2.0
    est_s = 2.0 * u(sob).mean()
    est_u = 2.0 * u(uni).mean()
    print(f"{m:8d}  {abs(est_s - truth):12.3e}  {abs(est_u - truth):12.3e}")

print()
print("first Sobol' points (index 0 skipped by design):")
print(sobol_points(4, 2, skip=0).points)
