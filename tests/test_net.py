import gc
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import Future

import numpy as np
import pytest

from cpl import checks, net
from cpl.autodiff import Tape, Var, finite_diff_gradient
from cpl.errors import ConfigError
from cpl.jets import Jet, jet_tanh
from cpl.net import (TIME, ArrayNet, MLPParams, NetField, NetworkConfig, TapeNet,
                     forward_array, init_params, load_checkpoint, save_checkpoint)

# pinned at build time from seed 1234, inputs (0.75, 0.25) and (1.5, 0.9)
GOLDEN = [-0.036395009489969266, -0.06051637495035933]


def test_init_deterministic():
    cfg = NetworkConfig(in_dim=2, seed=42)
    a = init_params(cfg)
    b = init_params(cfg)
    assert np.array_equal(a.flat, b.flat)


def test_golden_forward_value():
    cfg = NetworkConfig(in_dim=2, hidden_layers=4, width=128, seed=1234)
    p = init_params(cfg)
    u = forward_array(p, np.array([[0.75, 0.25], [1.5, 0.9]]))
    assert u.tolist() == GOLDEN


def test_jets_finite_everywhere_sampled():
    cfg = NetworkConfig(in_dim=2, hidden_layers=3, width=16, seed=5)
    p = init_params(cfg)
    an = ArrayNet(p)
    X = np.random.default_rng(1).random((40, 2)) * 2.0
    for coord in (0, TIME):
        jet = an.forward_jet(X, coord, 3)
        for c in jet.coeffs:
            assert c is not None and np.all(np.isfinite(c))


def test_jet_coeff0_bitwise_equals_forward():
    cfg = NetworkConfig(in_dim=2, hidden_layers=4, width=32, seed=9)
    p = init_params(cfg)
    an = ArrayNet(p)
    X = np.random.default_rng(2).random((11, 2)) * 2.0
    u = an.forward(X)
    for order in (1, 2, 3):
        jet = an.forward_jet(X, 0, order)
        assert np.array_equal(jet.coeffs[0], u)
    # the chunked quadrature path agrees bitwise as well
    assert np.array_equal(forward_array(p, X), u)


def test_jet_first_coeff_matches_fd_of_forward():
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=8, seed=3)
    p = init_params(cfg)
    an = ArrayNet(p)
    X = np.random.default_rng(3).random((6, 2)) * 2.0
    jet = an.forward_jet(X, 0, 1)
    h = 1e-6
    Xp = X.copy()
    Xm = X.copy()
    Xp[:, 0] += h
    Xm[:, 0] -= h
    fd = (forward_array(p, Xp) - forward_array(p, Xm)) / (2 * h)
    assert np.max(np.abs(jet.coeffs[1] - fd) / np.maximum(1e-3, np.abs(fd))) <= 1e-6


def test_third_derivative_single_unit_analytic():
    cfg = NetworkConfig(in_dim=2, hidden_layers=1, width=1, seed=0)
    p = MLPParams(cfg, np.zeros(cfg.param_count()))
    w, b0, v = 0.9, 0.3, -1.1
    layers = p.layers()
    layers[0][0][0, 0] = w
    layers[0][1][0] = b0
    layers[1][0][0, 0] = v
    an = ArrayNet(p)
    for x in (0.1, 0.45, 0.8, 1.35, 1.9):
        jet = an.forward_jet(np.array([[x, 0.0]]), 0, 3)
        d3 = float(jet.coeffs[3][0]) * 6.0
        z = np.tanh(w * x + b0)
        tanh3 = -2.0 * (1 - z * z) * (1 - 3 * z * z)
        assert d3 == pytest.approx(v * w ** 3 * tanh3, rel=1e-10)


def test_parameter_gradients_of_jet_coeffs_pass_fd():
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=5, seed=8)
    p = init_params(cfg)
    X = np.random.default_rng(4).random((3, 2)) * 2.0
    for order, coeff in ((0, 0), (2, 2)):
        tape = Tape()
        tn = TapeNet(tape, p)
        jet = tn.forward_jet(X, 0, order)
        g = tn.grad(tape.backward(tape.sum(jet.coeffs[coeff])))

        def f(theta):
            an = ArrayNet(MLPParams(cfg, theta.copy()))
            return float(np.asarray(an.forward_jet(X, 0, order).coeffs[coeff]).sum())

        g_fd = finite_diff_gradient(f, p.flat)
        assert np.max(np.abs(g - g_fd) / np.maximum(np.abs(g_fd), 1e-4)) <= 1e-5


def test_netfield_time_jet():
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=6, seed=2)
    p = init_params(cfg)
    an = ArrayNet(p)
    X = np.array([[0.5], [1.5]])
    fld = NetField(an, X, 0.3)
    jet = fld.jet(TIME, 1)
    h = 1e-6
    up = NetField(an, X, 0.3 + h).value()
    um = NetField(an, X, 0.3 - h).value()
    fd = (up - um) / (2 * h)
    assert np.max(np.abs(jet.coeffs[1] - fd)) <= 1e-7


def _per_jet_primal_jet(net, X, coord, order, tape):
    """Reference: every jet re-runs its own primal alongside its coefficients."""
    B, in_dim = X.shape
    col = in_dim - 1 if coord == TIME else coord
    coeffs = [None] * (order + 1)
    coeffs[0] = tape.leaf(X) if tape is not None else X
    if order >= 1:
        e = np.zeros((B, in_dim))
        e[:, col] = 1.0
        coeffs[1] = tape.leaf(e) if tape is not None else e
    for W, b in net.hidden:
        z = [None] * (order + 1)
        if tape is not None:
            z[0] = tape.affine(coeffs[0], W) + b
            for k in range(1, order + 1):
                if coeffs[k] is not None:
                    z[k] = tape.affine(coeffs[k], W)
        else:
            z[0] = coeffs[0] @ W.T + b
            for k in range(1, order + 1):
                if coeffs[k] is not None:
                    z[k] = coeffs[k] @ W.T
        coeffs = jet_tanh(Jet(z)).coeffs
    out = [None] * (order + 1)
    if tape is not None:
        out[0] = tape.project(coeffs[0], net.head_w, net.head_b)
        for k in range(1, order + 1):
            if coeffs[k] is not None:
                out[k] = tape.project(coeffs[k], net.head_w)
    else:
        out[0] = coeffs[0] @ net.head_w + net.head_b
        for k in range(1, order + 1):
            if coeffs[k] is not None:
                out[k] = coeffs[k] @ net.head_w
    return Jet(out)


def _field_setup(hidden_layers=3):
    cfg = NetworkConfig(in_dim=3, hidden_layers=hidden_layers, width=8, seed=13)
    X = np.random.default_rng(5).random((9, 2)) * 2.0
    return init_params(cfg), X, 0.35


def _value(c):
    return c.value if isinstance(c, Var) else c


def test_netfield_records_each_hidden_primal_once():
    p, X, t = _field_setup(hidden_layers=3)
    tape = Tape()
    fld = NetField(TapeNet(tape, p), X, t)
    u = fld.value()
    for coord in (0, TIME):
        for order in (1, 2, 3):
            assert fld.jet(coord, order).coeffs[0] is u
    layers = [i for i, op in enumerate(tape.ops) if op == "tanh_layer"]
    assert len(layers) == 3
    assert "tanh" not in tape.ops


def test_value_only_pass_has_no_dead_tape_nodes():
    p, X, t = _field_setup()
    tape = Tape()
    root = tape.sum(NetField(TapeNet(tape, p), X, t).value())
    adj = tape.backward(root)
    assert [i for i, a in enumerate(adj) if a is None] == []


@pytest.mark.parametrize("taped", [False, True])
def test_shared_primal_jets_bitwise_equal_per_jet_primal(taped):
    p, X, t = _field_setup()
    Xt = np.concatenate([X, np.full((X.shape[0], 1), t)], axis=1)
    ref_tape = Tape() if taped else None
    ref_net = TapeNet(ref_tape, p) if taped else ArrayNet(p)
    tape = Tape() if taped else None
    fld = NetField(TapeNet(tape, p) if taped else ArrayNet(p), X, t)
    weights = np.random.default_rng(6).random((3, 4))
    obj = ref_obj = 0.0
    for ci, coord in enumerate((0, 1, TIME)):
        for order in range(4):
            got = fld.jet(coord, order)
            ref = _per_jet_primal_jet(ref_net, Xt, coord, order, ref_tape)
            assert len(got.coeffs) == len(ref.coeffs) == order + 1
            for k, (g, r) in enumerate(zip(got.coeffs, ref.coeffs)):
                assert np.array_equal(_value(g), _value(r)), (coord, order, k)
                if taped:
                    w = weights[ci, k]
                    obj = obj + tape.sum(g) * w
                    ref_obj = ref_obj + ref_tape.sum(r) * w
    if taped:
        g = fld.net.grad(tape.backward(obj))
        g_ref = ref_net.grad(ref_tape.backward(ref_obj))
        assert np.max(np.abs(g - g_ref)) <= 1e-13 * np.max(np.abs(g_ref))


def test_non_finite_input_rejected():
    cfg = NetworkConfig(in_dim=2, hidden_layers=1, width=2, seed=0)
    p = init_params(cfg)
    with pytest.raises(ValueError):
        forward_array(p, np.array([[np.nan, 0.0]]))


def test_checkpoint_roundtrip(tmp_path):
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=8, seed=77)
    p = init_params(cfg)
    path = os.path.join(tmp_path, "ckpt.bin")
    save_checkpoint(path, p)
    q = load_checkpoint(path, cfg)
    assert np.array_equal(p.flat, q.flat)


def test_checkpoint_config_mismatch(tmp_path):
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=8, seed=77)
    p = init_params(cfg)
    path = os.path.join(tmp_path, "ckpt.bin")
    save_checkpoint(path, p)
    other = NetworkConfig(in_dim=2, hidden_layers=2, width=16, seed=77)
    with pytest.raises(ConfigError):
        load_checkpoint(path, other)


def test_checkpoint_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "junk.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ConfigError):
        load_checkpoint(path, NetworkConfig(in_dim=2, seed=0))


def test_config_validation():
    with pytest.raises(ConfigError):
        NetworkConfig(in_dim=0)
    with pytest.raises(ConfigError):
        NetworkConfig(in_dim=2, width=0)


def _serial_forward(params, X):
    """The chunk loop without a helper thread: the reference for forward_array."""
    layers = params.layers()
    W_head, b_head = layers[-1]
    out = np.empty(X.shape[0])
    for s in range(0, X.shape[0], 8192):
        h = X[s:s + 8192]
        for W, b in layers[:-1]:
            z = h @ W.T
            z += b
            np.tanh(z, out=z)
            h = z
        out[s:s + 8192] = h @ W_head[0] + b_head[0]
    return out


def _random_params(in_dim, width, seed):
    """Glorot weights and random biases: init_params sets every bias to 0,
    which would hide a wrong bias add."""
    p = init_params(NetworkConfig(in_dim=in_dim, width=width, seed=seed))
    rng = np.random.default_rng(seed)
    for _, b in p.layers():
        b[...] = rng.uniform(-0.5, 0.5, b.shape)
    return p


@pytest.fixture
def blas_threads(monkeypatch):
    """Set the linked BLAS to n threads, or report n where it cannot be read."""
    before = net.blas_threads()

    def set_to(n):
        if before is None:
            monkeypatch.setattr(net, "blas_threads", lambda: n)
        else:
            net.set_blas_threads(n)

    yield set_to
    if before is not None:
        net.set_blas_threads(before)


@pytest.fixture
def row_calls(monkeypatch):
    """Record (lo, hi, ran on the helper thread) of every block forward_array runs."""
    real = net._forward_block
    calls = []
    caller = threading.get_ident()

    def spy(layers, X, bufs, out, lo, hi):
        calls.append((lo, hi, threading.get_ident() != caller))
        real(layers, X, bufs, out, lo, hi)

    monkeypatch.setattr(net, "_forward_block", spy)
    return calls


def _assert_block_layout(calls, n, block):
    """Each block runs once and the blocks tile 0:n; none crosses a chunk or a
    split point, each starts at a multiple of 4, and one shorter than `block`
    is a whole half or chunk.  Either thread may run any block, but a call
    under 1024 rows runs on the caller alone."""
    assert len(set(calls)) == len(calls)
    calls = sorted(calls)
    assert [lo for lo, _, _ in calls] == [0] + [hi for _, hi, _ in calls[:-1]]
    assert sum(hi - lo for lo, hi, _ in calls) == n
    if n < 1024:
        assert not any(on_helper for _, _, on_helper in calls)
    for s in range(0, n, 8192):
        e = min(s + 8192, n)
        inside = [c for c in calls if s <= c[0] < e]
        assert inside[-1][1] == e
        # a chunk of at least 1024 rows is split at a multiple of 4 near its
        # middle; a smaller one is cut as a whole
        mid = s + (e - s) // 8 * 4 if e - s >= 1024 else e
        assert mid == e or mid in [lo for lo, _, _ in inside]
        halves = ((s, mid), (mid, e))
        for lo, hi, _ in inside:
            assert lo % 4 == 0 and hi - lo < 2 * block
            assert hi - lo >= block or (lo, hi) in halves


FORWARD_SIZES = (1, 63, 64, 1023, 1024, 8191, 8192, 8193, 8194, 8210, 8192 + 4097,
                 10001, 16385, 16402, 50000)


@pytest.mark.parametrize("width", [64, 128, 256])
@pytest.mark.parametrize("in_dim", [2, 17])
def test_forward_array_split_bitwise_equals_serial(blas_threads, row_calls, width, in_dim):
    blas_threads(1)
    p = _random_params(in_dim, width, width + in_dim)
    X_all = np.random.default_rng(in_dim).random((max(FORWARD_SIZES), in_dim)) * 2.0 - 0.5
    for n in FORWARD_SIZES:
        row_calls.clear()
        X = X_all[:n]
        assert np.array_equal(forward_array(p, X), _serial_forward(p, X)), n
        _assert_block_layout(row_calls, n, 65536 // width)


SWEEP_SIZES = (*range(4090, 4120), *range(8180, 8270), *range(12270, 12320),
               1, 2, 3, 5, 17, 63, 64, 65, 100, 255, 1000, 1023, 1024, 1025, 1808, 2047,
               2048, 3001, 5000, 16383, 16384, 16385, 20000, 24577, 32768, 40001, 50000,
               65537, 74000, 81919, 90000)


@pytest.mark.slow
@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("in_dim", [2, 17])
def test_forward_array_wide_sweep_bitwise_equals_serial(blas_threads, width, in_dim):
    """Sizes around the first chunk's split point (4096), the chunk edge
    (8192, where a tail of its own starts) and the second chunk's split, and a
    spread up to 90,000 rows."""
    blas_threads(1)
    p = _random_params(in_dim, width, width + in_dim)
    X_all = np.random.default_rng(in_dim).random((max(SWEEP_SIZES), in_dim)) * 2.0 - 0.5
    # a prefix's whole chunks have the same bits as in the longest input
    whole = _serial_forward(p, X_all)
    for n in SWEEP_SIZES:
        s = n // 8192 * 8192
        expected = np.concatenate([whole[:s], _serial_forward(p, X_all[s:n])])
        assert np.array_equal(forward_array(p, X_all[:n]), expected), n


class _StubPool:
    """A helper pool whose task runs at once on the calling thread, or never
    (its future comes back cancelled, so waiting on it cannot hang)."""

    def __init__(self, run):
        self.run = run

    def submit(self, fn, *args):
        fut = Future()
        if self.run:
            fut.set_running_or_notify_cancel()
            fn(*args)
            assert not args[-1]         # the task took every block of the queue
            fut.set_result(None)
        else:
            fut.cancel()
            fut.set_running_or_notify_cancel()
        return fut


@pytest.mark.parametrize("width", [64, 128])
def test_forward_array_bits_do_not_depend_on_the_schedule(blas_threads, monkeypatch, width):
    """All blocks on the caller, all through the helper's buffers, or as the
    two threads take them: the same bits as the serial chunk loop."""
    blas_threads(1)
    p = _random_params(2, width, width)
    X_all = np.random.default_rng(width).random((50_000, 2)) * 2.0 - 0.5
    pools = {"shared": net._helper_pool, "caller only": lambda: _StubPool(False),
             "helper only": lambda: _StubPool(True)}
    for n in (848, 1808, 10_000, 50_000):
        X = X_all[:n]
        expected = _serial_forward(p, X)
        for schedule, pool in pools.items():
            monkeypatch.setattr(net, "_helper_pool", pool)
            assert np.array_equal(forward_array(p, X), expected), (n, schedule)


def test_forward_array_multithreaded_blas_does_not_split(blas_threads, row_calls):
    """A multi-threaded BLAS cuts each call among its threads at rows set by
    the call's size, so blocks inside a chunk would change bits (1024-row
    blocks did at 8186 rows): each chunk stays one call on the caller."""
    blas_threads(2)
    X_all = np.random.default_rng(5).random((16402, 2))
    for width in (64, 128):
        p = init_params(NetworkConfig(in_dim=2, width=width, seed=3))
        for n in (8186, 10001, 16402):
            row_calls.clear()
            X = X_all[:n]
            assert np.array_equal(forward_array(p, X), _serial_forward(p, X)), (width, n)
            assert row_calls == [(s, min(s + 8192, n), False) for s in range(0, n, 8192)]


def test_forward_array_memory_does_not_grow_with_rows(blas_threads):
    """Beyond its output the call allocates four activation buffers of the
    longest block (1,024 rows) and one 64 KiB bias tile per hidden layer: as
    much at 10,000 rows as at 50,000.  tracemalloc also counts the Python
    objects of the call (about 11 KiB: the block list and its queue, the
    future, frames), of which one (lo, hi) tuple per block grows with the
    rows, up to 4 KiB more at 50,000 rows here."""
    blas_threads(1)
    p = init_params(NetworkConfig(in_dim=2, width=64, seed=2))
    X = np.random.default_rng(8).random((50_000, 2))
    forward_array(p, X)                 # the helper thread and its queue exist
    extra = []
    gc.disable()
    tracemalloc.start()
    try:
        for n in (10_000, 50_000):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            forward_array(p, X[:n])
            extra.append(tracemalloc.get_traced_memory()[1] - before - 8 * n)
    finally:
        tracemalloc.stop()
        gc.enable()
    assert abs(extra[0] - extra[1]) <= 8192
    assert extra[0] <= 4 * 1024 * 64 * 8 + 4 * 8192 * 8 + 32768


def test_forward_array_in_forked_child(blas_threads):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    blas_threads(1)
    p = init_params(NetworkConfig(in_dim=2, width=64, seed=4))
    X = np.random.default_rng(6).random((4096, 2))
    expected = forward_array(p, X)
    # the parent's helper executor exists before the fork, whether or not its
    # thread took a block of this call
    assert net._helper[0] == os.getpid()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            same = np.array_equal(forward_array(p, X), expected)
            code = 0 if same and net._helper[0] == os.getpid() else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forward_array hung in a forked child")
        time.sleep(0.01)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0


@pytest.mark.parametrize("faulty_half", ["caller", "helper"])
def test_forward_array_error_in_either_half_waits_for_the_other(blas_threads, monkeypatch,
                                                                faulty_half):
    """The faulty thread fails its first block while the other is inside one.
    No thread starts another block, and the error propagates only after the
    helper has finished the block it was running."""
    blas_threads(1)
    real = net._forward_block
    caller = threading.get_ident()
    healthy_inside, faulting = threading.Event(), threading.Event()
    started, finished = [], []

    def rows(layers, X, bufs, out, lo, hi):
        on_helper = threading.get_ident() != caller
        started.append(on_helper)
        if on_helper == (faulty_half == "helper"):
            assert healthy_inside.wait(timeout=10)
            faulting.set()
            raise RuntimeError("fault in one half")
        healthy_inside.set()
        assert faulting.wait(timeout=10)
        time.sleep(0.05)                # the fault reaches the queue meanwhile
        real(layers, X, bufs, out, lo, hi)
        finished.append(on_helper)

    monkeypatch.setattr(net, "_forward_block", rows)
    p = init_params(NetworkConfig(in_dim=2, width=16, seed=1))
    X = np.random.default_rng(7).random((3 * 8192, 2))   # six blocks of 4096 rows
    with pytest.raises(RuntimeError, match="fault in one half"):
        forward_array(p, X)
    # one block each: the healthy thread ran its block to the end and then
    # took no other, and the faulty one failed its first
    healthy_on_helper = faulty_half == "caller"
    assert sorted(started) == [False, True]
    assert finished == [healthy_on_helper]
    # and the helper is idle: nothing of the failed call is still queued
    assert net._helper_pool().submit(len, finished).result(timeout=10) == 1


def test_forward_array_concurrent_callers_share_the_helper(blas_threads):
    blas_threads(1)
    p = init_params(NetworkConfig(in_dim=3, width=16, seed=6))
    inputs = [np.random.default_rng(10 + k).random((10001, 3)) for k in range(6)]
    expected = [_serial_forward(p, X) for X in inputs]
    wrong = []

    def caller(k):
        for _ in range(4):
            if not np.array_equal(forward_array(p, inputs[k]), expected[k]):
                wrong.append(k)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(k,)) for k in range(len(inputs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


@pytest.mark.parametrize("threads", [1, 2])
def test_forward_segments_bitwise_equal_per_segment_calls(blas_threads, threads):
    """checks.check_segments_bitwise, the `cpl verify` invariant, at one BLAS
    thread (blocks shared by two threads) and at two (one call per chunk)."""
    blas_threads(threads)
    res = checks.check_segments_bitwise()
    assert res.ok, f"{res.observed} segments differ from their own calls"


def _stacked(points, times):
    return np.concatenate([np.concatenate([points, np.full((len(points), 1), t)], axis=1)
                           for t in np.atleast_1d(times)])


@pytest.mark.parametrize("width", [64, 128])
def test_forward_segments_bits_do_not_depend_on_the_schedule(blas_threads, monkeypatch, width):
    """A multi-segment call, arrays and filled segments mixed, and a fused
    filled call whose blocks span two times: the same bits whether the caller
    runs every block, the helper's buffers run every block, or both share."""
    blas_threads(1)
    p = _random_params(2, width, width)
    rng = np.random.default_rng(width + 1)
    X = rng.random((1808, 2)) * 2.0 - 0.5
    pts = rng.random((10_000, 1)) * 2.0
    fused = (pts[:1808], np.linspace(0.0, 1.0, 5))
    calls = {"multi-segment": [X, (pts[:848], 0.3), (pts, 0.7), fused, X[:150]],
             "fused": [fused]}
    pools = {"shared": net._helper_pool, "caller only": lambda: _StubPool(False),
             "helper only": lambda: _StubPool(True)}
    for call, segments in calls.items():
        expected = [_serial_forward(p, s if isinstance(s, np.ndarray) else _stacked(*s))
                    for s in segments]
        for schedule, pool in pools.items():
            monkeypatch.setattr(net, "_helper_pool", pool)
            got = net.forward_segments(p, segments)
            assert len(got) == len(expected)
            for k, (g, e) in enumerate(zip(got, expected)):
                assert np.array_equal(g, e), (call, schedule, k)


@pytest.mark.parametrize("faulty_half", ["caller", "helper"])
def test_forward_segments_error_in_either_thread_stops_the_queue(blas_threads, monkeypatch,
                                                                 faulty_half):
    """The fault rule over one queue of three segments, two of them filled:
    the faulty thread fails its first block while the other is inside one;
    no thread starts another block of any segment, and the error propagates
    only after the helper has finished the block it was running."""
    blas_threads(1)
    real = net._forward_block
    caller = threading.get_ident()
    healthy_inside, faulting = threading.Event(), threading.Event()
    started, finished = [], []

    def rows(layers, X, bufs, out, lo, hi):
        on_helper = threading.get_ident() != caller
        started.append(on_helper)
        if on_helper == (faulty_half == "helper"):
            assert healthy_inside.wait(timeout=10)
            faulting.set()
            raise RuntimeError("fault in one thread")
        healthy_inside.set()
        assert faulting.wait(timeout=10)
        time.sleep(0.05)                # the fault reaches the queue meanwhile
        real(layers, X, bufs, out, lo, hi)
        finished.append(on_helper)

    monkeypatch.setattr(net, "_forward_block", rows)
    p = init_params(NetworkConfig(in_dim=2, width=16, seed=1))
    rng = np.random.default_rng(7)
    pts = rng.random((8192, 1))
    # six blocks of 4096 rows: two per segment
    segments = [rng.random((8192, 2)), (pts, 0.5), (pts[:4096], [0.1, 0.2])]
    with pytest.raises(RuntimeError, match="fault in one thread"):
        net.forward_segments(p, segments)
    assert sorted(started) == [False, True]
    assert finished == [faulty_half == "caller"]
    assert net._helper_pool().submit(len, finished).result(timeout=10) == 1
