#!/usr/bin/env python3
"""Tape memory versus operator subsampling on a 16d drift-diffusion operator.

The d^2 = 256 linear terms make the full reverse-mode graph expensive; the
doubly-stochastic estimator records only the |I| sampled terms, so the tape
shrinks proportionally, while the detached quadrature cloud never appears in
the accounting at all.  Slots count the float64 scalars of the recorded
values; bytes count every distinct array the tape holds, partials included.
"""

import numpy as np

from cpl import trainer
from cpl.autodiff import Tape
from cpl.net import NetworkConfig, init_params
from cpl.pde import make_problem
from cpl.sampler import spatial_cloud
from cpl.trainer import RngSet, TrainConfig, plan_step, step_sdifp


class KeptTape(Tape):
    """A step tape that stays reachable after the step, for its byte count."""

    last = None

    def __init__(self):
        super().__init__()
        KeptTape.last = self


trainer.Tape = KeptTape  # the steps build their tape from this name

prob = make_problem("fokker_planck_linear_nd", dim=16)
targets = prob.domain_averaged_targets()
params = init_params(NetworkConfig(in_dim=17, hidden_layers=2, width=16, seed=0))
print(f"operator terms: {prob.n_terms} (16d, one per ordered index pair)")

print(f"{'|I|':>5} {'tape slots':>12} {'bytes held':>12} {'ratio to full':>14}")
full_slots = None
for size in (256, 64, 16, 4):
    tc = TrainConfig(problem="fokker_planck_linear_nd", dim=16, method="sdifp",
                     estimator="ds_uge", size_i=size, size_j=size, batch_n=16,
                     cloud_m=10_000, n_time_slices=1, n_ic=8, n_bc=8,
                     width=16, hidden_layers=2, seed=0).validate()
    cloud = spatial_cloud(10_000, prob.domain, skip=0)
    plan = plan_step(prob, tc, RngSet(1))
    if size == 256:
        plan.I = plan.J = np.arange(256)
    _, diag, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
    if full_slots is None:
        full_slots = diag.tape_nodes
    print(f"{size:5d} {diag.tape_nodes:12d} {KeptTape.last.bytes_held():12d} "
          f"{diag.tape_nodes / full_slots:14.3f}")

print()
print("detached cloud size has no effect on the tape:")
for m in (1000, 10_000, 100_000):
    tc = TrainConfig(problem="fokker_planck_linear_nd", dim=16, method="sdifp",
                     estimator="ds_uge", size_i=4, size_j=4, batch_n=16,
                     cloud_m=m, n_time_slices=1, n_ic=8, n_bc=8,
                     width=16, hidden_layers=2, seed=0).validate()
    cloud = spatial_cloud(m, prob.domain, skip=0)
    plan = plan_step(prob, tc, RngSet(1))
    _, diag, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
    print(f"  M = {m:7d}: tape slots {diag.tape_nodes}, bytes held {KeptTape.last.bytes_held()}")
