"""Mesh-free exactly-conservative PINN training toolkit.

Library layout:

- ``autodiff`` / ``jets``: scalar-graph reverse-mode tape and Taylor jets
- ``sampler``: Sobol' and uniform point generation, index subsets
- ``net``: tanh MLP backbone with value/tape/jet evaluation paths
- ``projection``: closed-form affine functional projection machinery
- ``baselines``: discrete Riemann-sum projections (the soft penalty is in ``trainer``)
- ``pde``: problem registry and residual operators
- ``refsolve``: finite-difference reference oracle
- ``trainer``: per-method training steps, Adam, metrics
- ``cli``: experiment driver (train / verify / sweep / reference)
"""

__version__ = "0.1.0"
