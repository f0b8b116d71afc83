"""Backbone scalar network: tanh MLP over (x, t) with a linear head.

Parameters live in one flat float64 vector with a per-layer shape table.
``forward_segments`` is the blocked value pass for detached quadrature, with
``forward_array`` its one-array case; neither touches a tape.  ``NetField``
evaluates the network on one batch: it runs the primal once and extends it to
Taylor jets along any input coordinate, with one code path whether the
parameters are tape leaves (``TapeNet``) or plain numpy arrays (``ArrayNet``).
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import struct
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tape, Var
from .errors import ConfigError
from .jets import Jet, _tanh_slope, tanh_series
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
    return X


_FORWARD_CHUNK = 8192     # the output is bitwise that of one BLAS call per chunk
_SPLIT_MIN = 1024         # below this a chunk costs less than handing half of it over
_BLOCK_BYTES = 512 << 10  # a block's activations at one layer: its input and output
                          # fill half of a 2 MiB L2
_BLOCK_MIN = 64           # rows; the smallest block checked bitwise (width 1024),
                          # while 16-row blocks at width 64 changed bits

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


def _forward_block(layers, X, bufs, out, lo, hi):
    """Rows lo:hi of X through the network into out[lo:hi].

    `layers` holds (W, tile) per hidden layer, the tile being its bias
    repeated over a number of rows, and (W, b) for the head.
    Activations go to the first hi-lo rows of bufs[0] and bufs[1].
    Each row's value depends only on the BLAS calls it is part of.  With a
    single-threaded BLAS, a block that starts at a multiple of 4 from its
    chunk's start keeps every row in the same position relative to the
    kernels' row blocking as one call over the whole chunk.
    """
    h = X[lo:hi]
    for i, (W, tile) in enumerate(layers[:-1]):
        z = bufs[i % 2][:hi - lo]
        np.matmul(h, W.T, out=z)
        # the bias in whole tiles and one part tile, all contiguous: a
        # broadcast add of the bias row takes numpy's 64 KiB ufunc buffer
        whole = (hi - lo) // len(tile) * len(tile)
        tiles = z[:whole].reshape(-1, *tile.shape)
        tiles += tile
        z[whole:] += tile[:hi - lo - whole]
        np.tanh(z, out=z)
        h = z
    W_head, b_head = layers[-1]
    np.matmul(h, W_head[0], out=out[lo:hi])
    out[lo:hi] += b_head[0]


class _Filled:
    """The rows (points[r % m], times[r // m]) of a segment, never stacked.

    Each block writes its own rows into its thread's input buffer, with the
    same values and layout as the rows of the stacked array, so it gets the
    same bits.  A block may span two or more times.
    """

    def __init__(self, points, times):
        self.points = points
        self.times = np.asarray(times, dtype=np.float64).reshape(-1)
        _check_inputs(points)
        _check_inputs(self.times)

    def __len__(self):
        return self.points.shape[0] * self.times.size

    def fill(self, buf, lo, hi):
        """Rows lo:hi into buf[:hi - lo], which is returned."""
        m, d = self.points.shape
        r = lo
        while r < hi:
            i, j = divmod(r, m)
            e = min(hi, r - j + m)
            buf[r - lo:e - lo, :d] = self.points[j:j + e - r]
            buf[r - lo:e - lo, d] = self.times[i]
            r = e
        return buf[:hi - lo]


def _run_blocks(layers, bufs, rows, queue):
    """Blocks from the shared queue, one at a time, through this thread's buffers.

    A block of an array reads its rows in place; a block of a filled segment
    first writes them to `rows`, this thread's input buffer.  On a fault the
    queue is emptied, so no thread starts another block.
    """
    while True:
        try:
            src, out, lo, hi = queue.popleft()
        except IndexError:
            return
        try:
            if isinstance(src, _Filled):
                _forward_block(layers, src.fill(rows, lo, hi), bufs, out[lo:hi], 0, hi - lo)
            else:
                _forward_block(layers, src, bufs, out, lo, hi)
        except BaseException:
            queue.clear()
            raise


def _cut(lo, hi, block):
    """lo:hi in blocks of `block` rows, the last block taking the remainder.

    No block is shorter than `block` unless it is all of lo:hi: a short
    remainder block of its own changes output bits.
    """
    starts = list(range(lo, hi, block))[:max(1, (hi - lo) // block)]
    return list(zip(starts, starts[1:] + [hi]))


def _block_plan(n, block, split):
    """The blocks of n rows: each chunk, or with `split` each half of it, cut
    into blocks of `block` rows.

    With `split`, a chunk of at least _SPLIT_MIN rows is split near its middle
    at a multiple of 4.  The chunks, the split points and the cuts fix which
    rows share a BLAS call, and so the bits, whichever thread runs a block.
    """
    blocks = []
    for s in range(0, n, _FORWARD_CHUNK):
        e = min(s + _FORWARD_CHUNK, n)
        mid = s + (e - s) // 8 * 4 if split and e - s >= _SPLIT_MIN else e
        blocks += _cut(s, mid, block) + _cut(mid, e, block)
    return blocks


def _plan(sources, outs, block, split):
    """The queue of every block (source, out, lo, hi) of every segment,
    largest first.  Each segment is planned as _block_plan plans a call of
    its own, so its bits do not depend on what else is in the queue."""
    blocks = [(src, out, lo, hi) for src, out in zip(sources, outs)
              for lo, hi in _block_plan(len(src), block, split)]
    return deque(sorted(blocks, key=lambda c: c[2] - c[3]))


def forward_segments(params: MLPParams, segments) -> list:
    """Plain value evaluation of several segments of rows; touches no tape.

    This is the detached-quadrature hot path.  A segment is an array X
    (n, in_dim) or a pair (points, times), which stands for the rows
    (points[r % m], times[r // m]) of m points at each time; its blocks fill
    their rows themselves, so no stacked input is built.  The result is one
    output per segment, each a view of one buffer.

    Each segment's rows are cut into chunks of _FORWARD_CHUNK.  With a
    single-threaded BLAS each chunk of at least _SPLIT_MIN rows is split near
    its middle at a multiple of 4, and each half, or unsplit chunk, is cut
    into blocks of _BLOCK_BYTES of activations, a multiple of 16 rows and at
    least _BLOCK_MIN, so a layer's input and output stay in the L2 cache.
    The halves fix the block boundaries, not who runs a block: the caller and
    one helper thread take the blocks of all segments, largest first, from
    one shared queue, so they join once per call.  A call under _SPLIT_MIN
    rows in all runs on the caller alone.  The caller allocates every
    activation buffer, two per thread of the longest block, an input buffer
    per thread when a segment is filled, and the bias tiles, so the working
    memory does not grow with the rows.  A multi-threaded BLAS cuts each call
    among its threads at rows that depend on the call's size, so there each
    chunk stays one call on the caller, in two buffers of its rows.  Each
    segment's output is bitwise that of a serial pass over its own chunks.
    """
    sources = [_Filled(*seg) if isinstance(seg, tuple) else _check_inputs(seg)
               for seg in segments]
    *hidden, head = params.layers()
    width = head[0].shape[1]
    split = blas_threads() == 1
    block = max(_BLOCK_MIN, _BLOCK_BYTES // (8 * width) // 16 * 16) if split else _FORWARD_CHUNK
    out = np.empty(sum(len(src) for src in sources))
    outs, off = [], 0
    for src in sources:
        outs.append(out[off:off + len(src)])
        off += len(src)
    queue = _plan(sources, outs, block, split)
    helped = split and out.size >= _SPLIT_MIN
    threads = 2 if helped else 1
    longest = max((hi - lo for _, _, lo, hi in queue), default=0)
    # all from this thread's heap: a buffer the helper allocated would come
    # from a second glibc arena and hold pages of its own
    bufs = np.empty((2 * threads, longest, width))
    rows = (np.empty((threads, longest, params.config.in_dim))
            if any(isinstance(src, _Filled) for src in sources) else (None, None))
    # each bias repeated over 8192 elements or more, numpy's ufunc buffer
    # size: an add over whole tiles then runs in contiguous loops without one
    tile_rows = -(-8192 // width)
    layers = [(W, np.tile(b, (tile_rows, 1))) for W, b in hidden] + [head]
    if not helped:
        _run_blocks(layers, bufs, rows[0], queue)
        return outs
    fut = _helper_pool().submit(_run_blocks, layers, bufs[2:], rows[1], queue)
    try:
        _run_blocks(layers, bufs, rows[0], queue)
    finally:
        # a helper task that has not started never will; one that has is
        # waited for, so it never runs past this call
        if not fut.cancel():
            wait((fut,))
    if not fut.cancelled():
        fut.result()
    return outs


def forward_array(params: MLPParams, X: np.ndarray) -> np.ndarray:
    """Plain value evaluation over a batch X (B, in_dim): the one-segment
    case of forward_segments, with every block read from X in place."""
    return forward_segments(params, [X])[0]


class TapeNet:
    """Network bound to a tape: parameters registered once as leaves.

    The last layer is held as a weight row and a scalar bias so the output
    is a (B,)-shaped node rather than (B, 1).
    """

    def __init__(self, tape: Tape, params: MLPParams):
        self.tape = tape
        self.config = params.config
        *hidden, (W_last, b_last) = params.layers()
        self.hidden = [(self.leaf(W), self.leaf(b)) for W, b in hidden]
        self.head_w = self.leaf(W_last[0])
        self.head_b = self.leaf(np.asarray(b_last[0]))

    def leaf(self, value):
        return self.tape.leaf(value)

    def forward(self, X: np.ndarray) -> Var:
        return NetField.of_inputs(self, X, value_only=True).value()

    def forward_jet(self, X, coord, order) -> Jet:
        return NetField.of_inputs(self, X).jet(coord, order)

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


class ArrayNet(TapeNet):
    """Same evaluation API as TapeNet, but over raw numpy values (never recorded)."""

    def __init__(self, params: MLPParams):
        super().__init__(None, params)

    def leaf(self, value):
        return value


# Layer ops on a tape variable or a numpy array: one code path for both.

def _layer(h, W, b):
    """tanh(h @ W.T + b): on a tape one node, on numpy formed in one buffer."""
    if isinstance(h, Var):
        return h.tape.tanh_layer(h, W, b)
    z = h @ W.T
    z += b
    np.tanh(z, out=z)
    return z


def _affine(h, W):
    return h.tape.affine(h, W) if isinstance(h, Var) else h @ W.T


def _affine_mul(h, W, k, w):
    """(k * (h @ W.T)) * w: on a tape one node that keeps no pre-activation."""
    if isinstance(h, Var):
        return h.tape.affine_mul(h, W, k, w)
    z = h @ W.T
    return (z if k == 1 else float(k) * z) * w


def _head(h, w, b0=None, at=None):
    if isinstance(h, Var):
        return h.tape.project(h, w, b0, at)
    return h @ w if b0 is None else h @ w + b0


class NetField:
    """A network restricted to a batch of spatial points at one time.

    Supplies the value and directional jets the residual operators consume.
    The hidden layers run once, on the first request, and keep each layer's
    tanh output y (plus 1 - y^2 once a jet needs it); every jet adds only its
    own coefficients of orders 1..order.  The head runs on the first read of
    the value, which is also every jet's coefficient 0; on a tape its node
    goes in a place held right after the hidden layers, where an eager head
    would have been recorded.

    A field built ``value_only`` has no jets.  On a tape its value is one
    ``value_pass`` node after the input leaf, which keeps no activation; over
    numpy it is the same field as any other.
    """

    def __init__(self, net, X_spatial: np.ndarray, t: float, value_only=False):
        B, d = X_spatial.shape
        self.net = net
        self.Xt = np.concatenate([X_spatial, np.full((B, 1), float(t))], axis=1)
        self.value_only = value_only
        self._hidden = None  # per hidden layer: [tanh output, 1 - output^2 or None]
        self._value = None
        self._at = None      # the tape place held for the head

    @classmethod
    def of_inputs(cls, net, Xt: np.ndarray, value_only=False):
        """The field over network inputs that already carry their time column."""
        fld = cls.__new__(cls)
        fld.net, fld.Xt, fld.value_only = net, Xt, value_only
        fld._hidden, fld._value, fld._at = None, None, None
        return fld

    def _primal(self):
        if self._hidden is None:
            _check_inputs(self.Xt)
            h = self.net.leaf(self.Xt)
            self._hidden = []
            for W, b in self.net.hidden:
                h = _layer(h, W, b)
                self._hidden.append([h, None])
            if isinstance(h, Var):
                self._at = h.tape.hold()
        return self._hidden

    def value(self):
        if self._value is None:
            net = self.net
            if self.value_only and net.tape is not None:
                _check_inputs(self.Xt)
                self._value = net.tape.value_pass(net.leaf(self.Xt), net.hidden,
                                                  net.head_w, net.head_b)
            else:
                self._value = _head(self._primal()[-1][0], net.head_w, net.head_b, self._at)
        return self._value

    def jet(self, coord, order) -> Jet:
        """Jet of the output along coord: a spatial index 0..d-1 or TIME."""
        if self.value_only:
            raise ValueError("a field built value-only has no jets")
        if order > 3 or order < 0:
            raise ConfigError("jets are supported up to order 3")
        B, in_dim = self.Xt.shape
        col = in_dim - 1 if coord == TIME else coord
        if col < 0 or col >= in_dim:
            raise ConfigError("jet coordinate outside the network input")
        hidden = self._primal()
        if order == 0:
            return Jet([None], self.value)
        e = np.zeros((B, in_dim))
        e[:, col] = 1.0
        x = [None, self.net.leaf(e)] + [None] * (order - 1)
        for layer, (W, _) in zip(hidden, self.net.hidden):
            if layer[1] is None:
                layer[1] = _tanh_slope(layer[0])
            # the top coefficient's pre-activation has one reader, the top
            # order's last term, which forms it as one node
            z = [None] + [None if c is None else _affine(c, W) for c in x[1:-1]] + [None]
            top = x[-1]
            x = tanh_series(z, *layer, top=None if top is None else
                            lambda: _affine_mul(top, W, order, layer[1]))
        return Jet([None] + [None if c is None else _head(c, self.net.head_w)
                             for c in x[1:]], self.value)


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
