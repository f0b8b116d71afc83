"""Self-verification battery: every module's key invariants as fast checks.

Each check returns (ok, observed, tolerance, note); the CLI prints one line
per check and fails the process if any check fails.  ``ALL_CHECKS`` is the
one implementation of each invariant: ``cpl verify`` runs it through
``run_all`` and ``tests/test_checks.py`` runs each entry as its own pytest
case.  ``check_jacobians_fd(flip_da_dmu2=True)`` flips the sign of one
analytical Jacobian entry; the test suite requires that canary to fail.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from . import pde as pdemod
from . import refsolve
from .autodiff import Tape, finite_diff_derivatives, finite_diff_gradient, jet_to_derivatives
from .baselines import proj_combined, proj_linear, proj_quadratic
from .jets import Jet, jet_tanh
from .net import (TIME, ArrayNet, MLPParams, NetField, NetworkConfig, TapeNet, forward_array,
                  forward_segments, init_params)
from .projection import (MomentEstimate, TargetInvariants, estimate_moments,
                         moment_grad_estimates, projected_grad, projection_jacobians,
                         same_batch_shift, solve_affine)
from .sampler import SeededRng, sample_subsets, sobol_points, spatial_cloud, uniform_points
from .trainer import (OptimizerState, RngSet, TrainConfig, adam_update, plan_step,
                      sdifp_coupled_objective, step_sdifp)


@dataclass
class CheckResult:
    name: str
    ok: bool
    observed: float
    tolerance: float
    note: str = ""


def _small_net(seed=0, width=8, hidden=2, in_dim=2):
    cfg = NetworkConfig(in_dim=in_dim, hidden_layers=hidden, width=width, seed=seed)
    return cfg, init_params(cfg)


def check_primitive_values():
    t = Tape()
    v1 = t.record("mul", 3.0, 3.0)
    v2 = t.record("tanh", 0.0)
    v3 = t.record("sin", np.pi / 6.0)
    err = max(abs(float(v1.value) - 9.0), abs(float(v2.value)),
              abs(float(v3.value) - 0.5))
    return CheckResult("adcore/primitive-values", err <= 1e-12, err, 1e-12)


def check_backward_fd():
    """Parameter gradients of a whole pass against central differences;
    ``TapeNet.forward`` records the pass as one ``value_pass`` node, so this
    is the oracle of that node's sweep."""
    worst = 0.0
    for seed, (in_dim, width, rows) in itertools.product(range(4), ((2, 8, 4), (3, 6, 5))):
        cfg, p = _small_net(seed, width=width, in_dim=in_dim)
        X = SeededRng(seed, 3).uniform((rows, in_dim)) * 2.0

        def f(theta):
            return float(forward_array(MLPParams(cfg, theta.copy()), X).sum())

        tape = Tape()
        tn = TapeNet(tape, p)
        out = tn.forward(X)
        g = tn.grad(tape.backward(tape.sum(out)))
        g_fd = finite_diff_gradient(f, p.flat)
        scale = np.maximum(np.abs(g_fd), 1e-6)
        worst = max(worst, float(np.max(np.abs(g - g_fd) / scale)))
    return CheckResult("adcore/backward-vs-fd", worst <= 1e-6, worst, 1e-6)


def check_value_pass_bitwise():
    """A pass recorded as one ``value_pass`` node has the value and the
    parameter gradients of the layered pass bit for bit, over two sweeps of
    one recording, at a 1-row batch, one hidden layer and in_dim 17 at width
    128 with nonzero biases; and its tape holds exactly the layered tape's
    bytes less the activations and partials of the hidden layers."""
    rng = SeededRng(7, 9)
    mismatches = 0
    for in_dim, hidden, width, rows in ((2, 3, 8, 9), (2, 3, 8, 1), (2, 1, 8, 9),
                                        (17, 2, 128, 40)):
        p = init_params(NetworkConfig(in_dim=in_dim, hidden_layers=hidden, width=width))
        for _, b in p.layers():
            b[...] = rng.uniform(b.shape) - 0.5
        X = rng.uniform((rows, in_dim)) * 2.0
        runs = []
        for value_only in (True, False):
            tape = Tape()
            tn = TapeNet(tape, p)
            u = NetField.of_inputs(tn, X, value_only).value()
            sweeps = [tn.grad(tape.backward(m)).tobytes()
                      for m in (tape.mean(u), tape.mean(u.pow2()))]
            runs.append((u.value.tobytes(), sweeps, tape.bytes_held()))
        (u, g, held), (ref_u, ref_g, ref_held) = runs
        mismatches += (u != ref_u) + (g[0] != ref_g[0]) + (g[1] != ref_g[1])
        mismatches += ref_held - held != 2 * hidden * rows * width * 8
    return CheckResult("adcore/value-pass-bitwise", mismatches == 0, mismatches, 0)


def check_jet_vs_fd():
    # h large enough that the order-3 divided difference stays above roundoff;
    # relative error where the derivative is above 1e-2, absolute near its zeros
    worst = 0.0
    rng = SeededRng(1, 1)
    for x0 in [0.7] + [float(rng.uniform(()) * 4.0 - 2.0) for _ in range(100)]:
        jet = jet_tanh(Jet([np.float64(x0), np.float64(1.0), None, None]))
        ders = [float(d) for d in jet_to_derivatives(jet)[1:]]
        fd = finite_diff_derivatives(np.tanh, x0, 3, h=5e-3)
        for a, b in zip(ders, fd):
            worst = max(worst, abs(a - b) / max(1e-2, abs(b)))
    return CheckResult("adcore/jet-vs-fd-tanh", worst <= 1e-5, worst, 1e-5)


def check_mixed_mode():
    worst = 0.0
    for (seed, width), n in (((4, 8), 3), ((11, 5), 4)):
        cfg, p = _small_net(seed, width)
        X = SeededRng(seed, 3).uniform((n, 2)) * 2.0
        for coord, order in itertools.product((0, TIME), (1, 2, 3)):
            tape = Tape()
            tn = TapeNet(tape, p)
            jet = tn.forward_jet(X, coord, order)
            g = tn.grad(tape.backward(tape.sum(jet.coeff(order))))

            def f(theta):
                an = ArrayNet(MLPParams(cfg, theta.copy()))
                return float(an.forward_jet(X, coord, order).coeff(order).sum())

            g_fd = finite_diff_gradient(f, p.flat)
            scale = np.maximum(np.abs(g_fd), 1e-6)
            worst = max(worst, float(np.max(np.abs(g - g_fd) / scale)))
    return CheckResult("adcore/mixed-mode-jet-grad", worst <= 1e-5, worst, 1e-5)


def check_tape_count_deterministic():
    prob = pdemod.make_problem("advection1d")
    mismatches, firsts = 0, []
    for (seed, width), X, t in (((2, 8), np.full((5, 1), 0.3), 0.25),
                                ((0, 4), np.linspace(0.1, 1.9, 6).reshape(-1, 1), 0.2)):
        _, p = _small_net(seed, width)
        counts = []
        for _ in range(3):
            tape = Tape()
            pdemod.residual_full(prob, NetField(TapeNet(tape, p), X, t))
            counts.append((len(tape), tape.num_slots))
        mismatches += sum(c != counts[0] for c in counts)
        firsts.append(counts[0])
    return CheckResult("adcore/tape-count-deterministic", mismatches == 0, mismatches, 0,
                       note=f"nodes, slots = {firsts[0]} and {firsts[1]}")


def check_sobol_reference():
    p1 = sobol_points(1, 1, skip=0).points
    p2 = sobol_points(2, 2, skip=0).points
    err = max(abs(p1[0, 0] - 0.5), abs(p2[0, 0] - 0.5), abs(p2[0, 1] - 0.5))
    return CheckResult("sampler/sobol-first-points", err == 0.0, err, 0.0)


def check_sobol_range():
    pts = sobol_points(1000, 16, skip=3).points
    ok = np.all(pts >= 0.0) and np.all(pts < 1.0)
    return CheckResult("sampler/sobol-range", bool(ok), 0.0 if ok else 1.0, 0.0)


def check_sobol_discrepancy():
    m = 4096
    sob = sobol_points(m, 2, skip=0).points
    uni = uniform_points(m, 2, SeededRng(5, 1)).points
    rng = SeededRng(6, 1)
    err_s = err_u = 0.0
    for _ in range(100):
        lo = rng.uniform((2,)) * 0.5
        hi = lo + rng.uniform((2,)) * (1.0 - lo)
        vol = float(np.prod(hi - lo))
        in_s = np.all((sob >= lo) & (sob < hi), axis=1).mean()
        in_u = np.all((uni >= lo) & (uni < hi), axis=1).mean()
        err_s += abs(in_s - vol)
        err_u += abs(in_u - vol)
    ratio = err_u / max(err_s, 1e-300)
    return CheckResult("sampler/sobol-discrepancy-3x", ratio >= 3.0, ratio, 3.0,
                       note="uniform/sobol box-count error ratio")


def check_uniform_determinism():
    a = uniform_points(100, 3, SeededRng(7, 2)).points
    b = uniform_points(100, 3, SeededRng(7, 2)).points
    mean = uniform_points(10_000, 1, SeededRng(8, 1)).points.mean()
    ok = np.array_equal(a, b) and abs(mean - 0.5) <= 0.02
    return CheckResult("sampler/uniform-deterministic-mean", bool(ok),
                       abs(mean - 0.5), 0.02)


def check_subset_frequencies():
    rng = SeededRng(9, 1)
    counts = np.zeros(6)
    trials = 60_000
    for _ in range(trials):
        I, _ = sample_subsets(6, 2, 2, rng)
        counts[I] += 1
    freq = counts / (trials * 2)
    err = float(np.max(np.abs(freq - 1.0 / 6.0)))
    return CheckResult("sampler/subset-frequencies", err <= 0.01, err, 0.01)


def check_subset_independence():
    rng = SeededRng(10, 1)
    trials = 30_000
    vi = np.zeros((trials, 6))
    vj = np.zeros((trials, 6))
    for k in range(trials):
        I, J = sample_subsets(6, 2, 2, rng)
        vi[k, I] = 1.0
        vj[k, J] = 1.0
    corr = 0.0
    for a in range(6):
        for b in range(6):
            c = np.corrcoef(vi[:, a], vj[:, b])[0, 1]
            corr = max(corr, abs(float(c)))
    return CheckResult("sampler/subset-independence", corr <= 0.02, corr, 0.02)


def check_net_basics():
    cfg = NetworkConfig(in_dim=2, hidden_layers=4, width=16, seed=3)
    p = init_params(cfg)
    zero = MLPParams(cfg, np.zeros_like(p.flat))
    X = SeededRng(1, 4).uniform((5, 2))
    out = forward_array(zero, X)
    biases_zero = all(np.all(b == 0.0) for _, b in p.layers())
    limit_ok = True
    for W, _ in p.layers():
        # Glorot uniform: every |W| within the bound, the largest close to it
        lim = np.sqrt(6.0 / sum(W.shape))
        limit_ok = limit_ok and 0.8 * lim < np.max(np.abs(W)) <= lim
    ok = np.all(out == 0.0) and biases_zero and limit_ok
    return CheckResult("net/init-and-zero-forward", bool(ok), 0.0 if ok else 1.0, 0.0)


def check_net_third_derivative():
    # one hidden unit: u = v tanh(w x + b), so d3u/dx3 = v w^3 tanh'''(wx+b)
    cfg = NetworkConfig(in_dim=2, hidden_layers=1, width=1, seed=0)
    p = init_params(cfg)
    w, b0, v = 1.3, -0.2, 0.7
    p.flat[:] = 0.0
    layers = p.layers()
    layers[0][0][0, 0] = w
    layers[0][1][0] = b0
    layers[1][0][0, 0] = v
    an = ArrayNet(p)
    worst = 0.0
    for x in (0.1, 0.5, 0.9, 1.3, 1.7):
        jet = an.forward_jet(np.array([[x, 0.0]]), 0, 3)
        d3 = float(jet.coeff(3)[0]) * 6.0
        z = np.tanh(w * x + b0)
        tanh3 = -2.0 * (1 - z * z) * (1 - 3 * z * z)  # third derivative of tanh
        exact = v * w ** 3 * tanh3
        worst = max(worst, abs(d3 - exact) / max(1e-9, abs(exact)))
    return CheckResult("net/analytic-third-derivative", worst <= 1e-9, worst, 1e-9)


def check_segments_bitwise():
    """One block queue over many segments gives each the bits of a call of its
    own: arrays, (points, t) pairs and fused (points, times) segments, of
    sizes below and above the split threshold, in one call, at widths 64 and
    128 with nonzero biases, at the process's BLAS thread count."""
    sizes = (127, 150, 1000, 1808, 10_000)
    times = np.array([0.1, 0.35, 0.9])
    rng = SeededRng(5, 9)
    mismatches = 0
    for width in (64, 128):
        p = init_params(NetworkConfig(in_dim=2, width=width, seed=width))
        for _, b in p.layers():
            b[...] = rng.uniform(b.shape) - 0.5
        pts = rng.uniform((max(sizes), 1)) * 2.0
        segments, stacked = [], []
        for k, m in enumerate(sizes):
            at = [np.concatenate([pts[:m], np.full((m, 1), t)], axis=1) for t in times]
            segments += [at[k % 3], (pts[:m], times[k % 3]), (pts[:m], times)]
            stacked += [at[k % 3], at[k % 3], np.concatenate(at)]
        outs = forward_segments(p, segments)
        mismatches += sum(not np.array_equal(u, forward_array(p, X))
                          for u, X in zip(outs, stacked))
    return CheckResult("detached/segments-bitwise", mismatches == 0, mismatches, 0)


def check_affine_roots():
    rng = SeededRng(11, 1)
    worst = 0.0
    alpha_min = np.inf
    for _ in range(300):
        mu1 = float(rng.uniform(()) * 6.0 - 3.0)
        sig2 = float(rng.uniform(()) * 4.0 + 1e-4)
        mu2 = mu1 * mu1 + sig2
        c1 = float(rng.uniform(()) * 6.0 - 3.0)
        v = float(rng.uniform(()) * 5.0 + 1e-4)
        c2 = c1 * c1 + v
        tg = TargetInvariants(lambda t, c1=c1: c1, lambda t, c2=c2: c2)
        mo = MomentEstimate(mu1=mu1, mu2=mu2, m=10, t=0.0)
        af = solve_affine(mo, tg)
        alpha_min = min(alpha_min, af.alpha)
        r1 = af.alpha * mu1 + af.beta - c1
        r2 = af.alpha ** 2 * mu2 + 2 * af.alpha * af.beta * mu1 + af.beta ** 2 - c2
        worst = max(worst, abs(r1) / (1 + abs(c1)), abs(r2) / (1 + abs(c2)))
    ok = worst <= 1e-10 and alpha_min > 0
    return CheckResult("projection/closed-form-roots", ok, worst, 1e-10,
                       note=f"min alpha {alpha_min:.3e}")


def check_jacobians_fd(flip_da_dmu2=False):
    rng = SeededRng(12, 1)
    worst = 0.0
    for _ in range(50):
        mu1 = float(rng.uniform(()) * 2.0 - 1.0)
        sig2 = float(rng.uniform(()) * 2.0 + 0.05)
        mu2 = mu1 * mu1 + sig2
        c1 = float(rng.uniform(()) - 0.5)
        c2 = c1 * c1 + float(rng.uniform(()) * 2.0 + 0.1)
        tg = TargetInvariants(lambda t, c1=c1: c1, lambda t, c2=c2: c2)
        mo = MomentEstimate(mu1=mu1, mu2=mu2, m=10, t=0.0)
        af = solve_affine(mo, tg)
        jac = projection_jacobians(mo, af)
        da2 = -jac.da_dmu2 if flip_da_dmu2 else jac.da_dmu2
        h = 1e-6

        def alpha_beta(m1, m2):
            a = solve_affine(MomentEstimate(mu1=m1, mu2=m2, m=10, t=0.0), tg)
            return a.alpha, a.beta

        fd = ((alpha_beta(mu1 + h, mu2)[0] - alpha_beta(mu1 - h, mu2)[0]) / (2 * h),
              (alpha_beta(mu1, mu2 + h)[0] - alpha_beta(mu1, mu2 - h)[0]) / (2 * h),
              (alpha_beta(mu1 + h, mu2)[1] - alpha_beta(mu1 - h, mu2)[1]) / (2 * h),
              (alpha_beta(mu1, mu2 + h)[1] - alpha_beta(mu1, mu2 - h)[1]) / (2 * h))
        an = (jac.da_dmu1, da2, jac.db_dmu1, jac.db_dmu2)
        for a, b in zip(an, fd):
            worst = max(worst, abs(a - b) / max(1e-6, abs(b)))
    return CheckResult("projection/jacobians-vs-fd", worst <= 1e-6, worst, 1e-6)


def check_variance_floor():
    cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=4, seed=0)
    flat = np.zeros(cfg.param_count())
    p = MLPParams(cfg, flat)
    cloud = sobol_points(64, 1, skip=0).points * 2.0
    mo = estimate_moments(p, cloud, 0.1)
    tg = TargetInvariants(lambda t: 0.0, lambda t: 1.0)
    af = solve_affine(mo, tg)
    jac = projection_jacobians(mo, af)
    finite = np.isfinite([af.alpha, af.beta, jac.da_dmu1, jac.da_dmu2,
                          jac.db_dmu1, jac.db_dmu2]).all()
    ok = finite and abs(af.alpha - 1e4) < 1e-6
    return CheckResult("projection/variance-floor", bool(ok), af.alpha, 1e4,
                       note="flat field engages the 1e-8 floor")


def check_exact_conservation():
    worst = 0.0
    for d in (1, 2):
        prob = pdemod.make_problem("sine_gordon_nd", dim=d)  # analytic targets
        tg = prob.domain_averaged_targets()
        cloud = spatial_cloud(4000, prob.domain, skip=0)
        for seed in range(6):
            cfg = NetworkConfig(in_dim=d + 1, hidden_layers=4, width=32, seed=seed)
            p = init_params(cfg)
            t = 0.18 * seed
            mo = estimate_moments(p, cloud.points, t)
            af = solve_affine(mo, tg)
            Xt = np.concatenate([cloud.points, np.full((cloud.size, 1), t)], axis=1)
            u = forward_array(p, Xt)
            ut = af.alpha * u + af.beta
            c1b, c2b, _ = tg.at(t)
            worst = max(worst,
                        abs(float(ut.mean()) - c1b) / (1 + abs(c1b)),
                        abs(float((ut * ut).mean()) - c2b) / (1 + abs(c2b)))
    return CheckResult("projection/exact-conservation", worst <= 1e-10, worst, 1e-10)


def check_same_batch_shift():
    rng = SeededRng(13, 1)
    worst = 0.0
    for _ in range(50):
        vals = rng.normal((100,)) * 3.0
        c1b = float(rng.uniform(()) * 2.0 - 1.0)
        _, shifted = same_batch_shift(vals, c1b)
        worst = max(worst, abs(float(shifted.mean()) - c1b) / (1 + abs(c1b)))
    return CheckResult("projection/same-batch-shift", worst <= 1e-14, worst, 1e-14)


def check_moment_detachment():
    calls = {"n": 0}
    orig = Tape._push

    def counting(self, *a, **k):
        calls["n"] += 1
        return orig(self, *a, **k)

    cfg, p = _small_net(1)
    cloud = sobol_points(128, 1, skip=0).points * 2.0
    Tape._push = counting
    try:
        estimate_moments(p, cloud, 0.3)
    finally:
        Tape._push = orig
    return CheckResult("projection/moments-allocate-no-tape", calls["n"] == 0,
                       calls["n"], 0)


def check_projected_grad_chain():
    prob = pdemod.make_problem("kdv1d")
    from .refsolve import invariant_table, solve_reference, suggest_dt
    ref = solve_reference(prob, nx=128, dt=suggest_dt(prob, 128))
    prob.attach_invariant_table(invariant_table(ref))
    tg = prob.domain_averaged_targets()
    cfg, p = _small_net(3, width=6)
    cloud = sobol_points(300, 1, skip=0).points * 2.0
    t = 0.37
    mo = estimate_moments(p, cloud, t)
    af = solve_affine(mo, tg)
    jac = projection_jacobians(mo, af)
    g1, g2 = moment_grad_estimates(p, cloud, t)
    x_pt = np.array([[0.77]])
    tape = Tape()
    tn = TapeNet(tape, p)
    u_node = tn.forward(np.array([[0.77, t]]))
    gu = tn.grad(tape.backward(tape.sum(u_node)))
    g_chain = projected_grad(af, jac, (g1, g2), float(u_node.value[0]), gu)

    def f(theta):
        pp = MLPParams(cfg.__class__(in_dim=2, hidden_layers=2, width=6, seed=3), theta.copy())
        m = estimate_moments(pp, cloud, t)
        a = solve_affine(m, tg)
        u = forward_array(pp, np.array([[0.77, t]]))
        return float(a.alpha * u[0] + a.beta)

    g_fd = finite_diff_gradient(f, p.flat)
    scale = np.maximum(np.abs(g_fd), 1e-6)
    err = float(np.max(np.abs(g_chain - g_fd) / scale))
    return CheckResult("projection/projected-grad-chain-fd", err <= 1e-5, err, 1e-5)


def check_baseline_projections():
    y = proj_linear(np.array([0.0, 0.0]), 1.0, 2.0)
    e1 = np.max(np.abs(y - 1.0))
    y2 = proj_quadratic(np.array([3.0, 4.0]), 1.0, 1.0)
    e2 = np.max(np.abs(y2 - np.array([0.6, 0.8])))
    y3 = proj_combined(np.array([0.0, 2.0]), 1.0, 2.0, 4.0)
    e3 = np.max(np.abs(y3 - np.array([0.0, 2.0])))
    err = max(e1, e2, e3)
    return CheckResult("baselines/projection-examples", err <= 1e-12, err, 1e-12)


def check_projection_idempotence():
    rng = SeededRng(14, 1)
    worst = 0.0
    for _ in range(30):
        u = rng.normal((7,))
        dv = 0.3
        c1 = float(rng.uniform(()) - 0.5)
        c2 = c1 * c1 / (7 * dv) * dv + float(rng.uniform(()) + 0.2)
        y1 = proj_linear(u, dv, c1)
        worst = max(worst, np.max(np.abs(proj_linear(y1, dv, c1) - y1)))
        y2 = proj_quadratic(u, dv, c2)
        worst = max(worst, np.max(np.abs(proj_quadratic(y2, dv, c2) - y2)))
        y3 = proj_combined(u, dv, c1, c2)
        worst = max(worst, np.max(np.abs(proj_combined(y3, dv, c1, c2) - y3)))
    return CheckResult("baselines/idempotence", worst <= 1e-12, worst, 1e-12)


def check_combined_vs_oracle():
    from scipy.optimize import minimize
    rng = SeededRng(15, 1)
    worst = 0.0
    for _ in range(8):
        n = 6
        u = rng.normal((n,))
        dv = 0.4
        c1 = float(rng.uniform(()) - 0.5)
        c2 = c1 * c1 / (n * dv) + float(rng.uniform(()) * 2.0 + 0.3)
        y = proj_combined(u, dv, c1, c2)
        cons = ({"type": "eq", "fun": lambda z: dv * z.sum() - c1},
                {"type": "eq", "fun": lambda z: dv * (z * z).sum() - c2})
        res = minimize(lambda z: ((z - u) ** 2).sum(), y + 1e-3,
                       constraints=cons, method="SLSQP",
                       options={"ftol": 1e-14, "maxiter": 400})
        worst = max(worst, float(np.max(np.abs(res.x - y))))
    return CheckResult("baselines/combined-vs-kkt-oracle", worst <= 1e-6, worst, 1e-6,
                       note="SLSQP refinement of the closed form")


def check_action_on_one():
    k = pdemod.make_problem("reaction_diffusion1d").constants["k"]
    expect = {"advection1d": [0.0, 0.0], "reaction_diffusion1d": [0.0, 0.0, -k],
              "kdv1d": [0.0, 0.0], "fokker_planck_linear_nd": [0.0] * 4}  # d = 2
    wrong = [name for name, want in expect.items()
             if [t.action_on_one() for t in pdemod.make_problem(name, dim=2).terms] != want]
    return CheckResult("pde/action-on-one", not wrong, float(len(wrong)), 0.0,
                       note=", ".join(wrong))


def check_affine_commutativity():
    rng = SeededRng(16, 1)
    t = 0.41
    alpha, beta = 1.7, -0.3
    worst = 0.0
    from .projection import AffineField
    for name in ("reaction_diffusion1d", "kdv1d", "fokker_planck_linear_nd"):
        prob = pdemod.make_problem(name, dim=2)
        an = ArrayNet(_small_net(6, in_dim=prob.d + 1)[1])
        X = rng.uniform((9, prob.d)) * 2.0
        for term in prob.terms:
            raw = pdemod.term_value(term, NetField(an, X, t))
            proj = pdemod.term_value(term, AffineField(NetField(an, X, t), alpha, beta))
            expect = alpha * raw + beta * term.action_on_one()
            worst = max(worst, float(np.max(np.abs(proj - expect))))
    return CheckResult("pde/affine-commutativity", worst <= 1e-12, worst, 1e-12)


def check_sampled_residual_unbiased():
    prob = pdemod.make_problem("fokker_planck_linear_nd", dim=2)  # 4 terms
    cfg, p = _small_net(7, in_dim=3)
    an = ArrayNet(p)
    X = SeededRng(17, 1).uniform((5, 2)) * 2.0
    t = 0.2
    full = pdemod.residual_full(prob, NetField(an, X, t))
    acc = []
    for S in itertools.combinations(range(4), 2):
        acc.append(pdemod.residual_sampled(prob, NetField(an, X, t), S))
    err = float(np.max(np.abs(np.mean(acc, axis=0) - full)))
    return CheckResult("pde/sampled-residual-enumeration", err <= 1e-12, err, 1e-12)


def check_refsolve_convergence():
    prob = pdemod.make_problem("advection1d")
    errs = []
    for nx in (256, 512):
        ref = refsolve.solve_reference(prob, nx=nx, dt=refsolve.suggest_dt(prob, 1024))
        k = np.argmin(np.abs(ref.ts - 0.25))
        x = ref.axes[0]
        exact = np.exp(-(((x - 1.0 - ref.ts[k]) / 0.25) ** 2))
        errs.append(np.linalg.norm(ref.snaps[k] - exact) / np.linalg.norm(exact))
    order = np.log2(errs[0] / errs[1])
    return CheckResult("refsolve/convergence-order", order >= 1.8, order, 1.8)


def check_rd_growth():
    prob = pdemod.make_problem("reaction_diffusion1d")
    ref = refsolve.solve_reference(prob, nx=256, dt=2e-4)
    err = abs(ref.c1[-1] / ref.c1[0] - np.exp(prob.constants["k"] * prob.t_final))
    return CheckResult("refsolve/rd-mass-growth", err <= 1e-4, err, 1e-4)


def check_adam():
    cfg, p = _small_net(8)
    st = OptimizerState.fresh(p.flat.size)
    p2 = adam_update(st, p, np.zeros_like(p.flat), 1e-3)
    no_move = np.array_equal(p2.flat, p.flat)
    err = 0.0
    for g, lr in ((0.5, 1e-3), (-0.25, 2e-3)):
        q = adam_update(OptimizerState.fresh(p.flat.size), p, np.full_like(p.flat, g), lr)
        # first bias-corrected step: lr * g / (|g| + eps)
        expect = p.flat - lr * g / (abs(g) + 1e-8)
        err = max(err, float(np.max(np.abs(q.flat - expect))))
    return CheckResult("trainer/adam-hand-step", no_move and err <= 1e-15, err, 1e-15)


def check_sdifp_fd():
    worst = 0.0
    for name, dt in (("reaction_diffusion1d", 5e-4), ("advection1d", 2e-3)):
        prob = pdemod.make_problem(name)
        ref = refsolve.solve_reference(prob, nx=128, dt=dt)
        prob.attach_invariant_table(refsolve.invariant_table(ref))
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem=name, method="sdifp", estimator="full",
                         batch_n=128, cloud_m=128, n_time_slices=1, n_ic=128, n_bc=8,
                         width=6, hidden_layers=2, seed=5).validate()
        net_cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=6, seed=5)
        p = init_params(net_cfg)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        plan = plan_step(prob, tc, RngSet(6))
        plan.slices = [cloud.points.copy()]
        plan.ic_X = cloud.points.copy()
        g, _, _ = step_sdifp(p, prob, tc, plan, cloud.points, targets)

        def f(theta):
            return sdifp_coupled_objective(MLPParams(net_cfg, theta.copy()),
                                           prob, tc, plan, cloud.points, targets)

        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(4):
            v = rng.standard_normal(p.flat.size)
            v /= np.linalg.norm(v)
            fd = (f(p.flat + h * v) - f(p.flat - h * v)) / (2 * h)
            worst = max(worst, abs(float(g @ v) - fd) / max(1e-9, abs(fd)))
    return CheckResult("trainer/sdifp-grad-vs-coupled-fd", worst <= 1e-5, worst, 1e-5)


def check_dsuge_enumeration():
    prob = pdemod.make_problem("fokker_planck_linear_nd", dim=2)  # 4 terms
    targets = prob.domain_averaged_targets()
    tc = TrainConfig(problem="fokker_planck_linear_nd", dim=2, method="sdifp",
                     estimator="ds_uge", size_i=2, size_j=2, batch_n=6,
                     cloud_m=256, n_time_slices=2, n_ic=6, n_bc=6,
                     width=6, hidden_layers=2, seed=7).validate()
    net_cfg = NetworkConfig(in_dim=3, hidden_layers=2, width=6, seed=7)
    p = init_params(net_cfg)
    cloud = spatial_cloud(256, prob.domain, skip=0)
    plan = plan_step(prob, tc, RngSet(8))
    full = copy.copy(plan)
    full.I = np.arange(4)
    full.J = np.arange(4)
    g_full, _, moments = step_sdifp(p, prob, tc, full, cloud.points, targets)
    acc = []
    for I in itertools.combinations(range(4), 2):
        for J in itertools.combinations(range(4), 2):
            pl = copy.copy(plan)
            pl.I = np.asarray(I)
            pl.J = np.asarray(J)
            g, _, _ = step_sdifp(p, prob, tc, pl, cloud.points, targets,
                                 moments_all=moments)
            acc.append(g)
    err = float(np.max(np.abs(np.mean(np.stack(acc), axis=0) - g_full)))
    scale = float(np.max(np.abs(g_full)))
    rel = err / max(scale, 1e-30)
    return CheckResult("trainer/dsuge-enumeration-unbiased", rel <= 1e-12, rel, 1e-12)


def check_training_determinism():
    from .trainer import run_training
    tc = TrainConfig(problem="advection1d", method="sdifp", estimator="full",
                     epochs=4, batch_n=16, cloud_m=256, n_time_slices=2,
                     n_ic=8, n_bc=8, width=6, hidden_layers=2, seed=3,
                     eval_every=2, eval_cloud=256, ref_nx=128)
    r1 = run_training(tc)
    r2 = run_training(tc)
    # epochs 0 and 2 evaluate on the cadence, 3 off it as the final epoch
    ok = np.array_equal(r1.params.flat, r2.params.flat) and r1.metrics == r2.metrics
    return CheckResult("trainer/run-determinism", ok, 0.0 if ok else 1.0, 0.0)


ALL_CHECKS = [
    check_primitive_values,
    check_backward_fd,
    check_value_pass_bitwise,
    check_jet_vs_fd,
    check_mixed_mode,
    check_tape_count_deterministic,
    check_sobol_reference,
    check_sobol_range,
    check_sobol_discrepancy,
    check_uniform_determinism,
    check_subset_frequencies,
    check_subset_independence,
    check_net_basics,
    check_net_third_derivative,
    check_segments_bitwise,
    check_affine_roots,
    check_jacobians_fd,
    check_variance_floor,
    check_exact_conservation,
    check_same_batch_shift,
    check_moment_detachment,
    check_projected_grad_chain,
    check_baseline_projections,
    check_projection_idempotence,
    check_combined_vs_oracle,
    check_action_on_one,
    check_affine_commutativity,
    check_sampled_residual_unbiased,
    check_refsolve_convergence,
    check_rd_growth,
    check_adam,
    check_sdifp_fd,
    check_dsuge_enumeration,
    check_training_determinism,
]


def run_all(log=print):
    results = []
    for fn in ALL_CHECKS:
        try:
            res = fn()
        except Exception as exc:  # a crashed check is a failed check
            res = CheckResult(fn.__name__, False, float("nan"), 0.0, note=repr(exc))
        results.append(res)
        if log:
            status = "PASS" if res.ok else "FAIL"
            extra = f"  ({res.note})" if res.note else ""
            log(f"[{status}] {res.name}: observed {res.observed:.3e} "
                f"tol {res.tolerance:.3e}{extra}")
    return results
