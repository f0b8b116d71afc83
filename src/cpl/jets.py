"""Truncated Taylor jets along one input direction (order <= 3).

A jet stores normalized coefficients c_k = f^(k)/k!, so products follow the
plain Leibniz convolution with no factorials.  Coefficients may be floats,
numpy arrays (batched evaluation) or tape variables; ``None`` marks a
coefficient that is structurally zero and lets the recurrences skip work.

tanh is propagated through its own ODE recurrence (y' = (1 - y^2) x'),
sin/cos as a coupled pair, exp/sqrt/div through the standard closed
recurrences, so no symbolic differentiation is needed anywhere.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Var

MAX_ORDER = 3


class UnsupportedJetOp(NotImplementedError):
    """Raised when a primitive has no jet propagation rule."""


def _tanh(x):
    return x.tanh() if isinstance(x, Var) else np.tanh(x)


def _sin(x):
    return x.sin() if isinstance(x, Var) else np.sin(x)


def _cos(x):
    return x.cos() if isinstance(x, Var) else np.cos(x)


def _exp(x):
    return x.exp() if isinstance(x, Var) else np.exp(x)


def _sqrt(x):
    return x.sqrt() if isinstance(x, Var) else np.sqrt(x)


def _tanh_slope(y):
    """1 - y^2 for y = tanh(x); on a tape, one node sharing the tanh partial."""
    return y.tape.tanh_slope(y) if isinstance(y, Var) else 1.0 - y * y


def _add(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _sub(a, b):
    if b is None:
        return a
    if a is None:
        return -b
    return a - b


def _mul(a, b):
    if a is None or b is None:
        return None
    return a * b


def _over_k(acc, k):
    """acc / k as the recurrences form it, acc * (1/k); at k = 1 that product
    is acc itself, so no node is recorded for it."""
    if acc is None or k == 1:
        return acc
    return acc * (1.0 / k)


class Jet:
    """Normalized Taylor coefficients of a scalar function along one direction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        if len(coeffs) > MAX_ORDER + 1:
            raise UnsupportedJetOp(f"jets support order <= {MAX_ORDER}")
        self.coeffs = list(coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __add__(self, other):
        if isinstance(other, Jet):
            n = max(self.order, other.order)
            a = self.coeffs + [None] * (n - self.order)
            b = other.coeffs + [None] * (n - other.order)
            return Jet([_add(x, y) for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = _add(out[0], other)
        return Jet(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            n = max(self.order, other.order)
            a = self.coeffs + [None] * (n - self.order)
            b = other.coeffs + [None] * (n - other.order)
            return Jet([_sub(x, y) for x, y in zip(a, b)])
        out = list(self.coeffs)
        out[0] = _sub(out[0], other)
        return Jet(out)

    def __mul__(self, other):
        if isinstance(other, Jet):
            return jet_mul(self, other)
        return Jet([None if c is None else c * other for c in self.coeffs])

    __rmul__ = __mul__

    def scale_shift(self, scale, shift):
        """Affine image of the jet: order-0 coefficient gains the shift."""
        out = [None if c is None else c * scale for c in self.coeffs]
        out[0] = _add(out[0], shift)
        return Jet(out)


def jet_mul(a: Jet, b: Jet) -> Jet:
    n = max(a.order, b.order)
    ca = a.coeffs + [None] * (n - a.order)
    cb = b.coeffs + [None] * (n - b.order)
    out = []
    for k in range(n + 1):
        acc = None
        for j in range(k + 1):
            acc = _add(acc, _mul(ca[j], cb[k - j]))
        out.append(acc)
    return Jet(out)


def jet_pow2(a: Jet) -> Jet:
    return jet_mul(a, a)


def jet_div(a: Jet, b: Jet) -> Jet:
    n = max(a.order, b.order)
    ca = a.coeffs + [None] * (n - a.order)
    cb = b.coeffs + [None] * (n - b.order)
    if cb[0] is None:
        raise ZeroDivisionError("jet division by a zero-valued jet")
    out = []
    for k in range(n + 1):
        acc = ca[k]
        for j in range(k):
            acc = _sub(acc, _mul(out[j], cb[k - j]))
        out.append(None if acc is None else acc / cb[0])
    return Jet(out)


def tanh_series(x, y0, w0):
    """Coefficients of tanh along the jet coefficients x, given the primal
    y0 = tanh(x[0]) and w0 = 1 - y0^2 (x[0] is not read).  The coefficients
    of w = 1 - y^2 are formed only below the top order, which reads none."""
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
        y[k] = _over_k(acc, k)
        if k < k_max:
            acc = None
            for j in range(k + 1):
                acc = _add(acc, _mul(y[j], y[k - j]))
            w[k] = None if acc is None else -acc
    return y


def jet_tanh(x: Jet) -> Jet:
    y0 = _tanh(x.coeffs[0])
    return Jet(tanh_series(x.coeffs, y0, _tanh_slope(y0)))


def jet_exp(x: Jet) -> Jet:
    k_max = x.order
    e = [None] * (k_max + 1)
    e[0] = _exp(x.coeffs[0])
    for k in range(1, k_max + 1):
        acc = None
        for j in range(1, k + 1):
            cj = x.coeffs[j]
            if cj is None:
                continue
            acc = _add(acc, _mul(float(j) * cj if j > 1 else cj, e[k - j]))
        e[k] = _over_k(acc, k)
    return Jet(e)


def jet_sin_cos(x: Jet):
    k_max = x.order
    s = [None] * (k_max + 1)
    c = [None] * (k_max + 1)
    s[0] = _sin(x.coeffs[0])
    c[0] = _cos(x.coeffs[0])
    for k in range(1, k_max + 1):
        acc_s = None
        acc_c = None
        for j in range(1, k + 1):
            cj = x.coeffs[j]
            if cj is None:
                continue
            term = float(j) * cj if j > 1 else cj
            acc_s = _add(acc_s, _mul(term, c[k - j]))
            acc_c = _add(acc_c, _mul(term, s[k - j]))
        s[k] = _over_k(acc_s, k)
        c[k] = None if acc_c is None else -_over_k(acc_c, k)
    return Jet(s), Jet(c)


def jet_sin(x: Jet) -> Jet:
    return jet_sin_cos(x)[0]


def jet_cos(x: Jet) -> Jet:
    return jet_sin_cos(x)[1]


def jet_sqrt(x: Jet) -> Jet:
    k_max = x.order
    y = [None] * (k_max + 1)
    y[0] = _sqrt(x.coeffs[0])
    for k in range(1, k_max + 1):
        acc = x.coeffs[k]
        for j in range(1, k):
            acc = _sub(acc, _mul(y[j], y[k - j]))
        y[k] = None if acc is None else acc / (2.0 * y[0])
    return Jet(y)
