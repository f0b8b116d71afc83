"""Backbone scalar network: tanh MLP over (x, t) with a linear head.

Parameters live in one flat float64 vector with a per-layer shape table.
Three evaluation paths share the same layer code: plain numpy values (used
for detached quadrature, never recorded), tape-recorded values, and Taylor
jets along one chosen input coordinate in either mode.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import struct
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError
from .jets import Jet, jet_tanh
from .sampler import SeededRng

TIME = -1  # coordinate id for the time input


@dataclass(frozen=True)
class NetworkConfig:
    in_dim: int               # d + 1 (spatial dims plus time)
    hidden_layers: int = 4    # "4-layer MLP" = 4 hidden tanh layers + linear head
    width: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.width < 1 or self.hidden_layers < 1 or self.in_dim < 1:
            raise ConfigError("network config requires positive sizes")

    def layer_shapes(self):
        dims = [self.in_dim] + [self.width] * self.hidden_layers + [1]
        return [(dims[i + 1], dims[i]) for i in range(len(dims) - 1)]

    def param_count(self):
        return sum(r * c + r for r, c in self.layer_shapes())

    def struct_hash(self):
        key = f"mlp:{self.in_dim}:{self.hidden_layers}:{self.width}".encode()
        return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


@dataclass
class MLPParams:
    config: NetworkConfig
    flat: np.ndarray

    def __post_init__(self):
        if self.flat.size != self.config.param_count():
            raise ConfigError("parameter vector length does not match the config")

    def layers(self):
        """Views (W, b) per layer into the flat vector (no copies)."""
        out = []
        off = 0
        for r, c in self.config.layer_shapes():
            W = self.flat[off:off + r * c].reshape(r, c)
            off += r * c
            b = self.flat[off:off + r]
            off += r
            out.append((W, b))
        return out

    def copy(self):
        return MLPParams(self.config, self.flat.copy())


def init_params(config: NetworkConfig) -> MLPParams:
    """Glorot-uniform weights, zero biases, deterministic per config seed."""
    rng = SeededRng(config.seed, stream=7)
    flat = np.zeros(config.param_count())
    params = MLPParams(config, flat)
    for W, b in params.layers():
        fan_out, fan_in = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = (rng.uniform(W.shape) * 2.0 - 1.0) * limit
        b[...] = 0.0
    return params


def _check_inputs(X):
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite network input")


_FORWARD_CHUNK = 8192  # keep layer activations inside the cache
_SPLIT_MIN = 1024      # below this a chunk costs less than handing half of it over

_helper = (None, None)  # (pid, executor) of the process that started it
_helper_lock = threading.Lock()


@functools.cache
def _openblas(symbol, restype, *argtypes):
    """A function of the OpenBLAS numpy is linked against, or None."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
        if fn is not None:
            fn.restype = restype
            fn.argtypes = argtypes
            return fn
    return None


def blas_threads():
    """Thread count of the linked OpenBLAS, or None when it cannot be read."""
    fn = _openblas("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return None if fn is None else int(fn())


def set_blas_threads(n):
    """Set the thread count of the linked OpenBLAS, where it can be found."""
    fn = _openblas("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if fn is not None:
        fn(int(n))


def _helper_pool():
    """The one helper thread of this process, started on first use.

    Keyed on the pid: a forked child inherits the parent's executor object
    but not its thread, so it starts its own.
    """
    global _helper
    with _helper_lock:
        if _helper[0] != os.getpid():
            _helper = (os.getpid(), ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="cpl-forward"))
        return _helper[1]


def _forward_rows(layers, X, bufs, out, lo, hi, base):
    """Rows lo:hi of X through the network into out[lo:hi].

    Activations go to rows lo-base:hi-base of the two ping-pong buffers, so
    two calls over disjoint row ranges of one chunk can run at once.  Each
    row's value depends only on the BLAS calls it is part of, and a range
    that starts at a multiple of 4 keeps every row in the same position
    relative to the kernels' row blocking as one call over the whole chunk.
    """
    h = X[lo:hi]
    for i, (W, b) in enumerate(layers[:-1]):
        z = bufs[i % 2][lo - base:hi - base]
        np.matmul(h, W.T, out=z)
        z += b
        np.tanh(z, out=z)
        h = z
    W_head, b_head = layers[-1]
    np.matmul(h, W_head[0], out=out[lo:hi])
    out[lo:hi] += b_head[0]


def forward_array(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Plain value evaluation over a batch X (B, in_dim); touches no tape.

    This is the detached-quadrature hot path: evaluated in row chunks with
    in-place bias/activation so large clouds stay memory-friendly.  With a
    single-threaded BLAS each chunk of at least _SPLIT_MIN rows is split near
    its middle at a multiple of 4; a helper thread runs the second half while
    the caller runs the first.  The output is bitwise the same as a serial
    pass over the same chunks, and the rows in flight stay one chunk.
    """
    _check_inputs(X)
    layers = params.layers()
    n = X.shape[0]
    rows = min(n, _FORWARD_CHUNK)
    width = layers[0][0].shape[0]
    bufs = (np.empty((rows, width)), np.empty((rows, width)))
    out = np.empty(n)
    split = blas_threads() == 1
    for s in range(0, n, _FORWARD_CHUNK):
        e = min(s + _FORWARD_CHUNK, n)
        if not split or e - s < _SPLIT_MIN:
            _forward_rows(layers, X, bufs, out, s, e, s)
            continue
        mid = s + (e - s) // 8 * 4
        fut = _helper_pool().submit(_forward_rows, layers, X, bufs, out, mid, e, s)
        try:
            _forward_rows(layers, X, bufs, out, s, mid, s)
        finally:
            wait((fut,))  # the halves share the buffers: never leave one running
        fut.result()
    return out


class TapeNet:
    """Network bound to a tape: parameters registered once as leaves.

    The last layer is held as a weight row and a scalar bias so the output
    is a (B,)-shaped node rather than (B, 1).
    """

    def __init__(self, tape: Tape, params: MLPParams):
        self.tape = tape
        self.config = params.config
        layers = params.layers()
        self.hidden = [(tape.leaf(W), tape.leaf(b)) for W, b in layers[:-1]]
        W_last, b_last = layers[-1]
        self.head_w = tape.leaf(W_last[0])
        self.head_b = tape.leaf(np.asarray(b_last[0]))

    def forward(self, X: np.ndarray) -> Var:
        return self.forward_jet(X, 0, 0).coeffs[0]

    def forward_jet(self, X, coord, order) -> Jet:
        return _mlp_jet(self, X, coord, order, tape=self.tape)

    def grad(self, adjoints) -> np.ndarray:
        """Assemble a flat gradient vector from backward() adjoints."""
        parts = []
        for Wv, bv in self.hidden:
            gW = adjoints[Wv.idx]
            gb = adjoints[bv.idx]
            parts.append((np.zeros_like(Wv.value) if gW is None else gW).reshape(-1))
            parts.append(np.zeros_like(bv.value) if gb is None else np.asarray(gb))
        gw = adjoints[self.head_w.idx]
        gb0 = adjoints[self.head_b.idx]
        parts.append((np.zeros_like(self.head_w.value) if gw is None else gw).reshape(-1))
        parts.append(np.zeros(1) if gb0 is None else np.asarray(gb0).reshape(1))
        return np.concatenate(parts)


class ArrayNet:
    """Same evaluation API as TapeNet, but over raw numpy values (never recorded)."""

    def __init__(self, params: MLPParams):
        self.config = params.config
        layers = params.layers()
        self.hidden = layers[:-1]
        W_last, b_last = layers[-1]
        self.head_w = W_last[0]
        self.head_b = b_last[0]

    def forward(self, X):
        return self.forward_jet(X, 0, 0).coeffs[0]

    def forward_jet(self, X, coord, order) -> Jet:
        return _mlp_jet(self, X, coord, order, tape=None)


def _mlp_jet(net, X, coord, order, tape) -> Jet:
    """Jet of the network output along one input coordinate.

    coord: spatial index 0..d-1 or TIME (the last input column).  Order 0 is
    the plain forward pass expressed through the same path, so coefficient 0
    is bitwise equal to forward().
    """
    if order > 3 or order < 0:
        raise ConfigError("jets are supported up to order 3")
    _check_inputs(X)
    B, in_dim = X.shape
    col = in_dim - 1 if coord == TIME else coord
    if col < 0 or col >= in_dim:
        raise ConfigError("jet coordinate outside the network input")

    coeffs = [None] * (order + 1)
    coeffs[0] = tape.leaf(X) if tape else X
    if order >= 1:
        e = np.zeros((B, in_dim))
        e[:, col] = 1.0
        coeffs[1] = tape.leaf(e) if tape else e

    for W, b in net.hidden:
        z = [None] * (order + 1)
        if tape:
            z[0] = tape.affine(coeffs[0], W, b)
            for k in range(1, order + 1):
                if coeffs[k] is not None:
                    z[k] = tape.linear_nb(coeffs[k], W)
        else:
            z[0] = coeffs[0] @ W.T + b
            for k in range(1, order + 1):
                if coeffs[k] is not None:
                    z[k] = coeffs[k] @ W.T
        coeffs = jet_tanh(Jet(z)).coeffs

    out = [None] * (order + 1)
    if tape:
        out[0] = tape.project(coeffs[0], net.head_w, net.head_b)
        for k in range(1, order + 1):
            if coeffs[k] is not None:
                out[k] = tape.dotvec(coeffs[k], net.head_w)
    else:
        out[0] = coeffs[0] @ net.head_w + net.head_b
        for k in range(1, order + 1):
            if coeffs[k] is not None:
                out[k] = coeffs[k] @ net.head_w
    return Jet(out)


class NetField:
    """A network restricted to a batch of spatial points at one time.

    Supplies the value and directional jets the residual operators consume.
    Jets are evaluated fresh per request (each operator term records its own
    subgraph); only the plain value is cached.
    """

    def __init__(self, net, X_spatial: np.ndarray, t: float):
        self.net = net
        B, d = X_spatial.shape
        self.Xt = np.concatenate([X_spatial, np.full((B, 1), float(t))], axis=1)
        self._value = None

    def value(self):
        if self._value is None:
            self._value = self.net.forward(self.Xt)
        return self._value

    def jet(self, coord, order) -> Jet:
        return self.net.forward_jet(self.Xt, coord, order)


_MAGIC = b"CPLNET1\x00"


def save_checkpoint(path, params: MLPParams):
    """Flat little-endian float64 binary with (magic, config hash, length) header."""
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", params.config.struct_hash(), params.flat.size))
        fh.write(params.flat.astype("<f8").tobytes())


def load_checkpoint(path, config: NetworkConfig) -> MLPParams:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _MAGIC:
            raise ConfigError("not a network checkpoint file")
        h, n = struct.unpack("<QQ", fh.read(16))
        if h != config.struct_hash():
            raise ConfigError("checkpoint was written for a different network shape")
        if n != config.param_count():
            raise ConfigError("checkpoint length mismatch")
        flat = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
    return MLPParams(config, flat)
