"""Reverse-mode automatic differentiation on an explicit tape.

The tape records a scalar computation graph; every node carries a float64
numpy value so one recorded graph can be evaluated at a whole batch of
points simultaneously (the value is then an array over the batch).  Leaves
are parameters or inputs; ``backward`` runs a single reverse sweep and
returns one adjoint per node.

Besides the elementwise primitives the tape has structured ops for the
network: ``tanh_layer``, one whole hidden layer tanh(h @ W.T + b) as one node
that holds its output and 1 - y^2, and no pre-activation; ``affine``, the
bias-free h @ W.T of a jet coefficient; ``affine_mul``, the top-order term
(k * (h @ W.T)) * w of a layer's jet, which keeps no pre-activation either
and forms it again in the sweep; ``project``, the scalar head, with an
optional bias.  Further there are reductions (``mean``, ``sum``) and
``slope``: the 1 - y^2 of a tanh output, as one node whose value is the
partial the tanh node already stores.  ``hold`` keeps a place on the tape for
a node recorded later (``leaf``, ``record`` and ``project`` take it as
``at``), so a value read late sits where reading it early would have put it,
and the reverse sweep adds up its adjoints in the same order.

Node count is the memory proxy used everywhere else: ``num_slots`` counts
scalar float64 slots across all recorded values, so it grows linearly with
both the structural size of the graph and the batch width.  ``bytes_held``
counts the bytes of the distinct arrays behind them, partials included.
"""

from __future__ import annotations

import math

import numpy as np


class AdDomainError(ArithmeticError):
    """Raised for primitive evaluations outside their domain (div by zero, sqrt of negative)."""


def _unbroadcast(adj, shape):
    """Reduce an adjoint back to the shape of the operand it belongs to."""
    if adj.shape == shape:
        return adj
    if shape == ():
        return adj.sum()
    extra = adj.ndim - len(shape)
    if extra > 0:
        adj = adj.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and adj.shape[i] != 1)
    if axes:
        adj = adj.sum(axis=axes, keepdims=True)
    return adj


class Var:
    """Handle to one tape node."""

    __slots__ = ("tape", "idx")

    def __init__(self, tape, idx):
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.values[self.idx]

    def __repr__(self):
        return f"Var(idx={self.idx}, value={self.value!r})"

    def __add__(self, other):
        return self.tape.record("add", self, other)

    def __radd__(self, other):
        return self.tape.record("add", other, self)

    def __sub__(self, other):
        return self.tape.record("sub", self, other)

    def __rsub__(self, other):
        return self.tape.record("sub", other, self)

    def __mul__(self, other):
        return self.tape.record("mul", self, other)

    def __rmul__(self, other):
        return self.tape.record("mul", other, self)

    def __truediv__(self, other):
        return self.tape.record("div", self, other)

    def __rtruediv__(self, other):
        return self.tape.record("div", other, self)

    def __neg__(self):
        return self.tape.record("mul", self, -1.0)

    def tanh(self):
        return self.tape.record("tanh", self)

    def sin(self):
        return self.tape.record("sin", self)

    def sqrt(self):
        return self.tape.record("sqrt", self)

    def pow2(self):
        return self.tape.record("pow2", self)


class Tape:
    """Append-only record of a computation; topologically ordered by construction."""

    def __init__(self):
        self.ops = []
        self.parents = []   # tuple of parent indices (None for constant operands)
        self.partials = []  # local partials for elementwise ops, aux payload otherwise
        self.values = []
        self.num_slots = 0

    def __len__(self):
        return len(self.ops)

    def _push(self, op, parents, partials, value, at=None):
        """Append a node, or record it in the place ``at`` that ``hold`` kept."""
        if at is None:
            self.ops.append(op)
            self.parents.append(parents)
            self.partials.append(partials)
            self.values.append(value)
            idx = len(self.ops) - 1
        else:
            idx = at.idx
            if self.ops[idx] != "held" or any(p is not None and p >= idx for p in parents):
                raise ValueError("a held place takes one node whose parents precede it")
            self.ops[idx], self.parents[idx] = op, parents
            self.partials[idx], self.values[idx] = partials, value
        self.num_slots += value.size
        return Var(self, idx)

    def hold(self):
        """Keep the next place on the tape for a node recorded later with
        ``at=``; until then it holds no slot and no sweep reaches it."""
        return self._push("held", (), None, np.empty(0))

    def bytes_held(self):
        """Bytes of the distinct arrays the tape holds, values and partials
        alike; an array held twice counts once (a ``slope`` value is its tanh's
        partial, a ``mul`` partial is the other operand's value)."""
        arrays = {}
        for value, partial in zip(self.values, self.partials):
            arrays[id(value)] = value
            for p in partial or ():
                if isinstance(p, (np.ndarray, np.generic)):
                    arrays[id(p)] = p
        return sum(a.nbytes for a in arrays.values())

    def leaf(self, value, at=None):
        """Register an input/parameter leaf, in the place ``at`` when given."""
        return self._push("leaf", (), None, np.asarray(value, dtype=np.float64), at)

    def record(self, op, *args, at=None):
        """Apply a scalar primitive, appending one node with its local partials
        (or recording it in the place ``at`` when given).

        Operands may be tape variables or plain constants; constants do not
        become nodes of their own.
        """
        if op in ("add", "sub", "mul", "div"):
            a, b = args
            av = a.value if isinstance(a, Var) else np.asarray(a, dtype=np.float64)
            bv = b.value if isinstance(b, Var) else np.asarray(b, dtype=np.float64)
            if op == "add":
                val, pa, pb = av + bv, 1.0, 1.0
            elif op == "sub":
                val, pa, pb = av - bv, 1.0, -1.0
            elif op == "mul":
                val, pa, pb = av * bv, bv, av
            else:
                if np.any(bv == 0.0):
                    raise AdDomainError("division by zero on the tape")
                val = av / bv
                pa = 1.0 / bv
                pb = -val / bv
            parents = (a.idx if isinstance(a, Var) else None,
                       b.idx if isinstance(b, Var) else None)
            return self._push(op, parents, (pa, pb), np.asarray(val, dtype=np.float64), at)

        (x,) = args
        xv = x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)
        if op == "tanh":
            val = np.tanh(xv)
            partial = 1.0 - val * val
        elif op == "sin":
            val = np.sin(xv)
            partial = np.cos(xv)
        elif op == "sqrt":
            if np.any(xv < 0.0):
                raise AdDomainError("sqrt of a negative value on the tape")
            val = np.sqrt(xv)
            partial = 0.5 / val
        elif op == "pow2":
            val = xv * xv
            partial = 2.0 * xv
        else:
            raise ValueError(f"unknown primitive {op!r}")
        parent = (x.idx if isinstance(x, Var) else None,)
        return self._push(op, parent, (partial,), np.asarray(val, dtype=np.float64), at)

    # -- structured ops ------------------------------------------------------

    def affine(self, h, W):
        """h @ W.T for h (B, in), W (out, in): a layer's jet coefficient,
        which takes no bias."""
        return self._push("affine", (h.idx, W.idx), None, h.value @ W.value.T)

    def affine_mul(self, h, W, k, w):
        """(k * (h @ W.T)) * w, with no scaling at k = 1, as one node: the
        top-order term of a layer's jet, whose pre-activation has no other
        reader.

        The bits are those of an ``affine`` node, a ``mul`` by k and a ``mul``
        by w.  The pre-activation is not kept; the sweep forms it again.
        """
        z = h.value @ W.value.T
        if k != 1:
            z = float(k) * z
        return self._push("affine_mul", (h.idx, W.idx, w.idx), (k,), z * w.value)

    def tanh_layer(self, h, W, b):
        """y = tanh(h @ W.T + b) for h (B, in), W (out, in), b (out,), as one
        node holding y and its partial 1 - y^2.

        The pre-activation is formed in y's buffer and is not kept: the sweep
        reads only the partial.  The bits are those of an ``affine`` node with
        the bias followed by a ``tanh`` node.
        """
        y = h.value @ W.value.T
        y += b.value
        np.tanh(y, out=y)
        return self._push("tanh_layer", (h.idx, W.idx, b.idx), (1.0 - y * y,), y)

    def project(self, h, w, b0=None, at=None):
        """Scalar head: h @ w (+ b0) for h (B, in), w (in,), scalar b0;
        recorded in the place ``at`` when given."""
        val = h.value @ w.value
        if b0 is None:
            return self._push("project", (h.idx, w.idx), None, val, at)
        return self._push("project", (h.idx, w.idx, b0.idx), None, val + b0.value, at)

    def mean(self, x):
        val = np.asarray(x.value.mean(), dtype=np.float64)
        return self._push("mean", (x.idx,), None, val)

    def sum(self, x):
        val = np.asarray(x.value.sum(), dtype=np.float64)
        return self._push("sum", (x.idx,), None, val)

    def tanh_slope(self, y):
        """1 - y^2 for the output y of a ``tanh`` or ``tanh_layer`` node, as
        one node.

        The value is the partial the tanh node already stores (the same bits
        as ``1.0 - y * y``), and the backward sends ``(a * -1.0) * y`` to y
        twice, as the ``mul`` + ``sub`` pair it replaces did.
        """
        if self.ops[y.idx] not in ("tanh", "tanh_layer"):
            raise ValueError("tanh_slope needs the output of a tanh node")
        return self._push("slope", (y.idx,), None, self.partials[y.idx][0])

    # -- reverse sweep ---------------------------------------------------------

    def backward(self, root):
        """Single reverse sweep from a scalar root; returns one adjoint per node.

        Nodes unreachable from the root keep adjoint None.  Repeated calls are
        independent (fresh adjoint buffers), so several roots of one recorded
        forward pass can be differentiated in sequence.
        """
        ridx = root.idx
        if self.values[ridx].size != 1:
            raise ValueError("backward requires a scalar root node")
        adj = [None] * len(self.ops)
        adj[ridx] = np.ones_like(self.values[ridx])
        ops, parents, partials, values = self.ops, self.parents, self.partials, self.values
        for i in range(ridx, -1, -1):
            a = adj[i]
            if a is None:
                continue
            op = ops[i]
            if op == "leaf":
                continue
            par = parents[i]
            if op == "tanh_layer" or op == "affine":
                if op == "tanh_layer":
                    a = a * partials[i][0]  # through the tanh, then the affine map
                h = values[par[0]]
                W = values[par[1]]
                _acc(adj, par[0], a @ W)
                _acc(adj, par[1], a.T @ h)
                if len(par) == 3:
                    _acc(adj, par[2], a.sum(axis=0))
            elif op == "affine_mul":
                # the chain's sweep: w's adjoint, then through the k scaling
                # to the affine map
                h, W, w = (values[p] for p in par)
                k = partials[i][0]
                z = h @ W.T
                a_z = a * w
                if k != 1:
                    z = float(k) * z
                    a_z = a_z * float(k)
                _acc(adj, par[2], a * z)
                _acc(adj, par[0], a_z @ W)
                _acc(adj, par[1], a_z.T @ h)
            elif op == "project":
                h = values[par[0]]
                w = values[par[1]]
                _acc(adj, par[0], a[:, None] * w[None, :])
                _acc(adj, par[1], h.T @ a)
                if len(par) == 3:
                    _acc(adj, par[2], np.asarray(a.sum()))
            elif op == "mean":
                x = values[par[0]]
                _acc(adj, par[0], np.full_like(x, float(a) / x.size))
            elif op == "sum":
                x = values[par[0]]
                _acc(adj, par[0], np.full_like(x, float(a)))
            elif op == "slope":
                contrib = (a * -1.0) * values[par[0]]
                _acc(adj, par[0], contrib)
                _acc(adj, par[0], contrib)
            else:
                for p, partial in zip(par, partials[i]):
                    if p is not None:
                        contrib = a * partial
                        shape = values[p].shape
                        if contrib.shape != shape:
                            contrib = _unbroadcast(contrib, shape)
                        _acc(adj, p, contrib)
        return adj


def _acc(adj, idx, contrib):
    cur = adj[idx]
    if cur is None:
        adj[idx] = np.asarray(contrib, dtype=np.float64)
    else:
        cur += contrib


def finite_diff_gradient(f, x, rel_h=1e-5):
    """Central finite differences of a scalar function of a flat vector.

    Independent oracle for backward(); h is scaled per coordinate by
    max(1, |x_i|).
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for i in range(x.size):
        h = rel_h * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def finite_diff_derivatives(f, x0, order, h=1e-3, richardson=True):
    """Derivatives of a scalar function of one variable, orders 1..order.

    Central stencils, optionally with one Richardson extrapolation step.
    Used as the oracle for jet coefficients.
    """

    def stencil(h):
        d = []
        if order >= 1:
            d.append((f(x0 + h) - f(x0 - h)) / (2 * h))
        if order >= 2:
            d.append((f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2)
        if order >= 3:
            d.append((f(x0 + 2 * h) - 2 * f(x0 + h) + 2 * f(x0 - h) - f(x0 - 2 * h)) / (2 * h**3))
        return np.array(d)

    if not richardson:
        return stencil(h)
    coarse = stencil(h)
    fine = stencil(h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def jet_to_derivatives(jet):
    """Convert normalized Taylor coefficients to raw derivatives f^(k)."""
    out = []
    for k, c in enumerate(jet.coeffs):
        v = 0.0 if c is None else (c.value if isinstance(c, Var) else c)
        out.append(np.asarray(v, dtype=np.float64) * math.factorial(k))
    return out
