#!/usr/bin/env python3
"""Why discrete Riemann-sum projections break under random collocation.

The combined discrete projection conserves exactly on the point set it was
computed from, but evaluated on an independent cloud the error decays only at
the Monte Carlo rate.  The affine functional projection with detached
quadrature holds the targets on held-out points to quadrature accuracy.
Writes a CSV so the curves can be plotted externally.
"""

import numpy as np

from cpl.baselines import mc_misuse_projection, riemann_invariants
from cpl.net import NetworkConfig, forward_array, init_params
from cpl.pde import make_problem
from cpl.projection import estimate_moments, solve_affine
from cpl.sampler import SeededRng, sample_interior, spatial_cloud

prob = make_problem("sine_gordon_nd", dim=1)
targets = prob.domain_averaged_targets()
vol = prob.domain.volume
params = init_params(NetworkConfig(in_dim=2, hidden_layers=4, width=64, seed=3))
t = 0.25
c1b, c2b, _ = targets.at(t)
rng = SeededRng(1, 1)


def field(x):
    return forward_array(params, np.concatenate(
        [x, np.full((x.shape[0], 1), t)], axis=1))


rows = ["n,discrete_same_cloud,discrete_heldout,functional_heldout"]
holdout = spatial_cloud(100_000, prob.domain, skip=10_000_000).points
u_hold = field(holdout)

print(f"{'n':>7} {'discrete same-cloud':>20} {'discrete held-out':>18} "
      f"{'functional held-out':>20}")
for n in (100, 1000, 10_000):
    devs_same, devs_out = [], []
    for _ in range(30):
        pts = sample_interior(prob.domain, n, rng)
        vals = field(pts)
        proj = mc_misuse_projection(vals, vol, c1b * vol, c2b * vol)
        dv = vol / n
        g1, _ = riemann_invariants(proj, dv)
        devs_same.append(abs(g1 - c1b * vol))
        a = (proj[1] - proj[0]) / (vals[1] - vals[0])
        b = proj[0] - a * vals[0]
        devs_out.append(abs(vol * (a * u_hold + b).mean() - c1b * vol))
    cloud = spatial_cloud(n, prob.domain, skip=0).points
    af = solve_affine(estimate_moments(params, cloud, t), targets)
    fun_dev = abs(vol * (af.alpha * u_hold + af.beta).mean() - c1b * vol)
    same = float(np.mean(devs_same))
    out = float(np.mean(devs_out))
    print(f"{n:7d} {same:20.3e} {out:18.3e} {fun_dev:20.3e}")
    rows.append(f"{n},{same:.6e},{out:.6e},{fun_dev:.6e}")

with open("integral_compare.csv", "w") as fh:
    fh.write("\n".join(rows) + "\n")
print("\nwrote integral_compare.csv")
