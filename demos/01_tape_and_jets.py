#!/usr/bin/env python3
"""A tour of the differentiation core.

Builds a tiny expression on the tape, runs one reverse sweep, then pushes a
Taylor jet through tanh and through a small network to read off derivatives
up to order 3.  Everything is checked against closed forms or finite
differences as we go.
"""

import numpy as np

from cpl.autodiff import Tape, finite_diff_derivatives, jet_to_derivatives
from cpl.jets import Jet, jet_tanh
from cpl.net import ArrayNet, NetField, NetworkConfig, TapeNet, forward_array, init_params

print("=== reverse mode on a scalar tape ===")
tape = Tape()
x = tape.leaf(2.0)
y = tape.leaf(0.3)
f = x * y.tanh() + (x * y).sin()
adj = tape.backward(f)
print(f"f(x, y) = x tanh(y) + sin(x y) at (2, 0.3)")
print(f"  value      : {float(f.value):+.6f}")
print(f"  df/dx tape : {float(adj[x.idx]):+.6f}")
print(f"  df/dx exact: {np.tanh(0.3) + 0.3 * np.cos(0.6):+.6f}")
print(f"  df/dy tape : {float(adj[y.idx]):+.6f}")
print(f"  df/dy exact: {2 / np.cosh(0.3) ** 2 + 2 * np.cos(0.6):+.6f}")
print(f"  tape nodes : {len(tape)} (slots {tape.num_slots})")

print()
print("=== Taylor jets: derivatives up to order 3 in one pass ===")
jet = jet_tanh(Jet([np.float64(0.7), np.float64(1.0), None, None]))
ders = [float(np.asarray(d)) for d in jet_to_derivatives(jet)]
z = np.tanh(0.7)
exact = [z, 1 - z**2, -2 * z * (1 - z**2), -2 * (1 - z**2) * (1 - 3 * z**2)]
print("tanh at 0.7:")
for k, (a, b) in enumerate(zip(ders, exact)):
    print(f"  order {k}: jet {a:+.8f}   closed form {b:+.8f}")

print()
print("=== the network's own jets: u_x, u_xx, u_xxx of a tanh MLP ===")
params = init_params(NetworkConfig(in_dim=2, hidden_layers=2, width=8, seed=0))
x0, t0 = 0.4, 0.3
field = NetField(ArrayNet(params), np.array([[x0]]), t0)
ders = [float(d[0]) for d in jet_to_derivatives(field.jet(0, 3))]
fd = finite_diff_derivatives(
    lambda x: float(forward_array(params, np.array([[x, t0]]))[0]), x0, 3, h=1e-2)
print(f"u(x, t) at (x, t) = ({x0}, {t0}), one primal plus the tanh recurrence per layer:")
for k in range(1, 4):
    print(f"  order {k}: jet {ders[k]:+.8f}   finite differences {fd[k - 1]:+.8f}")

tape = Tape()
tn = TapeNet(tape, params)
u_xxx = NetField(tn, np.array([[x0]]), t0).jet(0, 3).coeffs[3]
grad = tn.grad(tape.backward(tape.sum(u_xxx)))
print(f"on the tape the same jet is {len(tape)} nodes; one reverse sweep of u_xxx/6 "
      f"gives all {grad.size} parameter adjoints (norm {np.linalg.norm(grad):.4f})")
