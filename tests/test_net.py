import os
import sys
import threading
import time

import numpy as np
import pytest

from cpl import net
from cpl.autodiff import Tape, finite_diff_gradient
from cpl.errors import ConfigError
from cpl.net import (TIME, ArrayNet, MLPParams, NetField, NetworkConfig, TapeNet,
                     forward_array, init_params, load_checkpoint, save_checkpoint)

# pinned at build time from seed 1234, inputs (0.75, 0.25) and (1.5, 0.9)
GOLDEN = [-0.036395009489969266, -0.06051637495035933]


def test_init_deterministic():
    cfg = NetworkConfig(in_dim=2, seed=42)
    a = init_params(cfg)
    b = init_params(cfg)
    assert np.array_equal(a.flat, b.flat)


def test_init_glorot_bound_and_zero_bias():
    cfg = NetworkConfig(in_dim=2, hidden_layers=4, width=128, seed=0)
    p = init_params(cfg)
    layers = p.layers()
    W = layers[2][0]  # fan_in = fan_out = 128
    bound = np.sqrt(6.0 / 256.0)
    assert np.all(np.abs(W) <= bound)
    assert np.any(np.abs(W) > 0.8 * bound)
    for _, b in layers:
        assert np.all(b == 0.0)


def test_zero_params_zero_output():
    cfg = NetworkConfig(in_dim=3, hidden_layers=2, width=8, seed=0)
    p = MLPParams(cfg, np.zeros(cfg.param_count()))
    X = np.random.default_rng(0).random((7, 3))
    assert np.all(forward_array(p, X) == 0.0)


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
    """Record (lo, hi, ran on the helper thread) of every half forward_array runs."""
    real = net._forward_rows
    calls = []
    caller = threading.get_ident()

    def spy(layers, X, bufs, out, lo, hi, base):
        calls.append((lo, hi, threading.get_ident() != caller))
        real(layers, X, bufs, out, lo, hi, base)

    monkeypatch.setattr(net, "_forward_rows", spy)
    return calls


FORWARD_SIZES = (1, 63, 64, 1023, 1024, 8191, 8192, 8193, 8192 + 4097, 10001, 50000)


@pytest.mark.parametrize("width", [64, 128])
@pytest.mark.parametrize("in_dim", [2, 17])
def test_forward_array_split_bitwise_equals_serial(blas_threads, row_calls, width, in_dim):
    blas_threads(1)
    p = init_params(NetworkConfig(in_dim=in_dim, width=width, seed=width + in_dim))
    X_all = np.random.default_rng(in_dim).random((max(FORWARD_SIZES), in_dim)) * 2.0 - 0.5
    for n in FORWARD_SIZES:
        row_calls.clear()
        X = X_all[:n]
        assert np.array_equal(forward_array(p, X), _serial_forward(p, X)), n
        # every chunk of at least 1024 rows has its second half on the helper
        chunks = [min(8192, n - s) for s in range(0, n, 8192)]
        assert sum(helper for _, _, helper in row_calls) == sum(c >= 1024 for c in chunks)
        assert sum(hi - lo for lo, hi, _ in row_calls) == n
        assert all(lo % 4 == 0 for lo, _, _ in row_calls)


def test_forward_array_multithreaded_blas_does_not_split(blas_threads, row_calls):
    blas_threads(2)
    p = init_params(NetworkConfig(in_dim=2, width=64, seed=3))
    X = np.random.default_rng(5).random((10001, 2))
    assert np.array_equal(forward_array(p, X), _serial_forward(p, X))
    assert row_calls == [(0, 8192, False), (8192, 10001, False)]


def test_forward_array_in_forked_child(blas_threads, row_calls):
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    blas_threads(1)
    p = init_params(NetworkConfig(in_dim=2, width=64, seed=4))
    X = np.random.default_rng(6).random((4096, 2))
    expected = forward_array(p, X)      # the parent's helper thread now exists
    assert any(helper for _, _, helper in row_calls)
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
    blas_threads(1)
    real = net._forward_rows
    caller = threading.get_ident()
    finished = []

    def rows(layers, X, bufs, out, lo, hi, base):
        on_helper = threading.get_ident() != caller
        if on_helper == (faulty_half == "helper"):
            raise RuntimeError("fault in one half")
        time.sleep(0.05)                # still running when the other half fails
        real(layers, X, bufs, out, lo, hi, base)
        finished.append(lo)

    monkeypatch.setattr(net, "_forward_rows", rows)
    p = init_params(NetworkConfig(in_dim=2, width=16, seed=1))
    X = np.random.default_rng(7).random((2048, 2))
    with pytest.raises(RuntimeError, match="fault in one half"):
        forward_array(p, X)
    # the healthy half ran to its end before the fault propagated
    assert finished == [1024 if faulty_half == "caller" else 0]
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
