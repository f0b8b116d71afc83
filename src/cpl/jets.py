"""Truncated Taylor jets along one input direction (order <= 3).

A jet stores normalized coefficients c_k = f^(k)/k!, so products follow the
plain Leibniz convolution with no factorials.  Coefficients may be floats,
numpy arrays (batched evaluation) or tape variables; ``None`` marks a
coefficient that is structurally zero and lets the recurrence skip work.

The network's jets are its layer products (linear in the coefficients) and
tanh, which is propagated through its own ODE recurrence (y' = (1 - y^2) x'),
so no symbolic differentiation is needed anywhere.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var

MAX_ORDER = 3


class UnsupportedJetOp(NotImplementedError):
    """Raised for a jet beyond the supported order."""


def _tanh(x):
    return x.tanh() if isinstance(x, Var) else np.tanh(x)


def _tanh_slope(y):
    """1 - y^2 for y = tanh(x); on a tape, one node sharing the tanh partial."""
    return y.tape.tanh_slope(y) if isinstance(y, Var) else 1.0 - y * y


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _mul(a, b):
    if a is None or b is None:
        return None
    return a * b


def _over_k(acc, k):
    """acc / k as the recurrence forms it, acc * (1/k); at k = 1 that product
    is acc itself, so no node is recorded for it."""
    if acc is None or k == 1:
        return acc
    return acc * (1.0 / k)


class Jet:
    """Normalized Taylor coefficients of a scalar function along one direction.

    Coefficient 0 may instead come from ``value``, a function of no arguments
    called on its first read (``coeffs[0]`` is then None): residual and
    boundary terms read only derivative coefficients, so on a tape a jet's
    coefficient 0 records nothing until something reads it.
    """

    __slots__ = ("_coeffs", "_value")

    def __init__(self, coeffs, value=None):
        if len(coeffs) > MAX_ORDER + 1:
            raise UnsupportedJetOp(f"jets support order <= {MAX_ORDER}")
        self._coeffs = list(coeffs)
        self._value = value

    def coeff(self, k):
        """Coefficient k; coefficient 0 is formed on its first read."""
        if k == 0 and self._value is not None:
            self._coeffs[0], self._value = self._value(), None
        return self._coeffs[k]

    @property
    def coeffs(self):
        """All coefficients, orders 0..order."""
        self.coeff(0)
        return self._coeffs


def tanh_series(x, y0, w0, top=None):
    """Coefficients of tanh along the jet coefficients x, given the primal
    y0 = tanh(x[0]) and w0 = 1 - y0^2 (x[0] is not read).  The coefficients
    of w = 1 - y^2 are formed only below the top order, which reads none.

    ``top``, when given, is a function of no arguments that forms the top
    order's last term K * x[K] * w0 (x[K] is then None); it is called where
    the recurrence would have formed that term.
    """
    k_max = len(x) - 1
    y = [y0] + [None] * k_max
    w = [w0] + [None] * k_max  # w = 1 - y^2
    for k in range(1, k_max + 1):
        acc = None
        for j in range(1, k + 1):
            cj = x[j]
            if cj is None:
                continue
            acc = _add(acc, _mul(float(j) * cj if j > 1 else cj, w[k - j]))
        if k == k_max and top is not None:
            acc = _add(acc, top())
        y[k] = _over_k(acc, k)
        if k < k_max:
            acc = None
            for j in range(k + 1):
                acc = _add(acc, _mul(y[j], y[k - j]))
            w[k] = None if acc is None else -acc
    return y


def jet_tanh(x: Jet) -> Jet:
    """tanh of a jet: the primal, then the recurrence; the oracle the
    network's per-layer jets are checked against."""
    y0 = _tanh(x.coeffs[0])
    return Jet(tanh_series(x.coeffs, y0, _tanh_slope(y0)))
