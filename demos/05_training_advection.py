#!/usr/bin/env python3
"""A short end-to-end training run on 1d advection.

Uses a reduced budget so it finishes in seconds; scale epochs up for
the accuracy reported by the full experiments.  Prints the metric trajectory
and the frozen (alpha, beta) ends of the projection table.
"""

from cpl.trainer import TrainConfig, run_training

cfg = TrainConfig(problem="advection1d", method="sdifp", estimator="full",
                  epochs=300, batch_n=100, cloud_m=5000, n_time_slices=4,
                  width=32, eval_every=50, eval_cloud=5000, seed=0)
print("training sdifp on advection1d (300 epochs, width 32) ...")
result = run_training(cfg, cache_dir=".refcache", log=print)

last = result.metrics[-1]
print()
print(f"final: loss {last.loss:.3e}  Error_u {last.error_u:.3e}  "
      f"Error_c1 {last.error_c1:.3e}  Error_c2 {last.error_c2:.3e}")
print(f"peak tape slots per step: {result.max_tape_nodes}")
t0, a0, b0 = result.affine_table[0]
t1, a1, b1 = result.affine_table[-1]
print(f"frozen projection: alpha({t0:.2f}) = {a0:.5f}, beta = {b0:+.5f}")
print(f"                   alpha({t1:.2f}) = {a1:.5f}, beta = {b1:+.5f}")
