import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpl.autodiff import Tape, finite_diff_gradient
from cpl.errors import IllPosedTargets, NumericalAbort
from cpl.net import ArrayNet, MLPParams, NetworkConfig, forward_array, init_params
from cpl.projection import (EPS_FLOOR, AffineField, AffineParams, MomentEstimate,
                            TargetInvariants, estimate_moments,
                            fixed_set_shift, moment_grad_estimates, moments_at_times,
                            projected_grad, projection_jacobians, same_batch_shift,
                            solve_affine)
from cpl.sampler import Domain, SeededRng, sobol_points, spatial_cloud


def _targets(c1, c2):
    return TargetInvariants(lambda t: c1, lambda t: c2)


def _net(seed=0, width=8, hidden=2):
    cfg = NetworkConfig(in_dim=2, hidden_layers=hidden, width=width, seed=seed)
    return cfg, init_params(cfg)


DOM = Domain((0.0,), (2.0,), 1.0)


class TestEstimateMoments:
    def test_zero_params(self):
        cfg, p = _net()
        p = MLPParams(cfg, np.zeros_like(p.flat))
        cloud = sobol_points(64, 1, skip=0).points * 2.0
        mo = estimate_moments(p, cloud, 0.5)
        assert mo.mu1 == 0.0 and mo.mu2 == 0.0

    def test_constant_net(self):
        cfg, p = _net()
        flat = np.zeros_like(p.flat)
        p = MLPParams(cfg, flat)
        p.layers()[-1][1][0] = 0.7  # output bias only: u == 0.7
        cloud = sobol_points(128, 1, skip=0).points * 2.0
        mo = estimate_moments(p, cloud, 0.1)
        assert mo.mu1 == pytest.approx(0.7, abs=1e-15)
        assert mo.mu2 == pytest.approx(0.49, abs=1e-15)
        assert mo.variance == pytest.approx(0.0, abs=1e-15)

    def test_needs_two_points(self):
        cfg, p = _net()
        with pytest.raises(ValueError):
            estimate_moments(p, np.array([[0.5]]), 0.0)

    def test_qmc_self_consistency(self):
        cfg, p = _net(seed=4, width=16)
        a = estimate_moments(p, sobol_points(100_000, 1, skip=0).points * 2.0, 0.3)
        b = estimate_moments(p, sobol_points(1_000_000, 1, skip=0).points * 2.0, 0.3)
        assert abs(a.mu1 - b.mu1) <= 1e-4 * (1 + abs(b.mu1))
        assert abs(a.mu2 - b.mu2) <= 1e-4 * (1 + abs(b.mu2))

    def test_invariant_guard(self):
        with pytest.raises(ValueError):
            MomentEstimate(mu1=1.0, mu2=0.5, m=10, t=0.0)

    def test_allocates_no_tape(self):
        calls = {"n": 0}
        orig = Tape._push

        def counting(self, *a, **k):
            calls["n"] += 1
            return orig(self, *a, **k)

        cfg, p = _net()
        Tape._push = counting
        try:
            estimate_moments(p, sobol_points(256, 1, skip=0).points * 2.0, 0.2)
            moments_at_times(p, sobol_points(256, 1, skip=0).points * 2.0, [0.1, 0.5])
        finally:
            Tape._push = orig
        assert calls["n"] == 0


class TestSolveAffine:
    def test_identity(self):
        af = solve_affine(MomentEstimate(0.0, 1.0, 10, 0.0), _targets(0.0, 1.0))
        assert af.alpha == 1.0 and af.beta == 0.0

    def test_worked_example(self):
        af = solve_affine(MomentEstimate(2.0, 5.0, 10, 0.0), _targets(0.0, 4.0))
        assert af.alpha == pytest.approx(2.0, abs=1e-15)
        assert af.beta == pytest.approx(-4.0, abs=1e-15)
        r2 = af.alpha ** 2 * 5.0 + 2 * af.alpha * af.beta * 2.0 + af.beta ** 2
        assert r2 == pytest.approx(4.0, abs=1e-12)

    def test_floor_engages_on_flat_field(self):
        af = solve_affine(MomentEstimate(0.3, 0.09, 10, 0.0), _targets(0.0, 1.0))
        assert af.alpha == pytest.approx(1e4, rel=1e-12)
        assert np.isfinite(af.beta)

    def test_ill_posed_targets(self):
        with pytest.raises(IllPosedTargets):
            solve_affine(MomentEstimate(0.0, 1.0, 10, 0.0), _targets(2.0, 1.0))

    def test_non_finite_moments(self):
        mo = MomentEstimate(0.0, 1.0, 10, 0.0)
        object.__setattr__(mo, "mu1", float("nan"))
        with pytest.raises(NumericalAbort):
            solve_affine(mo, _targets(0.0, 1.0))

    def test_flat_field_with_large_mean_reaches_floor(self):
        # mean(u*u) often falls ulps of 1e6 below mean(u)**2 here; that is
        # roundoff, not a violated invariant, and the variance floor sets alpha
        for seed in range(200):
            u = 1000.0 + 1e-9 * np.random.default_rng(seed).standard_normal(10_000)
            mo = MomentEstimate(float(u.mean()), float((u * u).mean()), u.size, 0.0)
            af = solve_affine(mo, _targets(0.0, 1.0))
            assert af.alpha == np.sqrt(1.0 / EPS_FLOOR)


class TestJacobians:
    def test_worked_example(self):
        mo = MomentEstimate(0.0, 1.0, 10, 0.0)
        af = solve_affine(mo, _targets(0.0, 1.0))
        jac = projection_jacobians(mo, af)
        assert (jac.da_dmu1, jac.da_dmu2, jac.db_dmu1, jac.db_dmu2) == \
            (0.0, -0.5, -1.0, 0.0)

    def test_floor_active_jacobians_finite(self):
        mo = MomentEstimate(0.5, 0.25 + 1e-12, 10, 0.0)  # variance below the floor
        af = solve_affine(mo, _targets(0.0, 1.0))
        jac = projection_jacobians(mo, af)
        vals = [jac.da_dmu1, jac.da_dmu2, jac.db_dmu1, jac.db_dmu2]
        assert np.all(np.isfinite(vals))
        # consistent with the floored variance actually used forward
        assert jac.da_dmu2 == pytest.approx(-af.alpha / (2 * EPS_FLOOR), rel=1e-12)


class TestMomentGrads:
    def test_full_cloud_matches_fd(self):
        cfg, p = _net(seed=6, width=6)
        cloud = sobol_points(200, 1, skip=0).points * 2.0
        g1, g2 = moment_grad_estimates(p, cloud, 0.4)

        def f1(theta):
            return estimate_moments(MLPParams(cfg, theta.copy()), cloud, 0.4).mu1

        def f2(theta):
            return estimate_moments(MLPParams(cfg, theta.copy()), cloud, 0.4).mu2

        fd1 = finite_diff_gradient(f1, p.flat)
        fd2 = finite_diff_gradient(f2, p.flat)
        assert np.max(np.abs(g1 - fd1) / np.maximum(np.abs(fd1), 1e-4)) <= 1e-5
        assert np.max(np.abs(g2 - fd2) / np.maximum(np.abs(fd2), 1e-4)) <= 1e-5

    def test_unbiasedness_over_disjoint_batches(self):
        cfg, p = _net(seed=7, width=6)
        cloud = spatial_cloud(200 * 40, DOM, skip=0).points
        g_full, _ = moment_grad_estimates(p, cloud, 0.2)
        ests = []
        for k in range(40):
            batch = cloud[k * 200:(k + 1) * 200]
            g, _ = moment_grad_estimates(p, batch, 0.2)
            ests.append(g)
        ests = np.stack(ests)
        mean = ests.mean(axis=0)
        # the disjoint batches partition the cloud, so the batch mean is exact
        assert np.max(np.abs(mean - g_full)) <= 1e-12 * max(1.0, np.max(np.abs(g_full)))
        std = ests.std(axis=0) / np.sqrt(40)
        dev = np.abs(mean - g_full)
        assert np.all(dev <= 3.0 * std + 1e-12)

    def test_zero_params_second_moment_grad(self):
        cfg, p = _net()
        p = MLPParams(cfg, np.zeros_like(p.flat))
        cloud = sobol_points(50, 1, skip=0).points * 2.0
        _, g2 = moment_grad_estimates(p, cloud, 0.1)
        assert np.all(g2 == 0.0)

    def test_empty_batch(self):
        cfg, p = _net()
        with pytest.raises(ValueError):
            moment_grad_estimates(p, np.empty((0, 1)), 0.1)


class TestProjectedGrad:
    def test_identity_projection(self):
        af = AffineParams(1.0, 0.0, 0.0)
        jac = projection_jacobians(MomentEstimate(0.0, 1.0, 10, 0.0), af)
        g = np.array([1.0, -2.0, 3.0])
        out = projected_grad(af, jac, (np.zeros(3), np.zeros(3)), 0.5, g)
        assert np.array_equal(out, g)

    def test_zero_moment_grads(self):
        af = AffineParams(2.0, 1.0, 0.0)
        jac = projection_jacobians(MomentEstimate(0.3, 0.6, 10, 0.0), af)
        g = np.array([1.0, 2.0])
        out = projected_grad(af, jac, (np.zeros(2), np.zeros(2)), 1.5, g)
        assert np.array_equal(out, af.alpha * g)

    def test_fd_through_resolved_projection(self):
        cfg, p = _net(seed=9, width=6)
        cloud = sobol_points(300, 1, skip=0).points * 2.0
        tg = _targets(0.4, 0.4 ** 2 + 0.8)
        t = 0.6
        mo = estimate_moments(p, cloud, t)
        af = solve_affine(mo, tg)
        jac = projection_jacobians(mo, af)
        grads = moment_grad_estimates(p, cloud, t)
        x = np.array([[1.21, t]])
        tape = Tape()
        from cpl.net import TapeNet
        tn = TapeNet(tape, p)
        u = tn.forward(x)
        gu = tn.grad(tape.backward(tape.sum(u)))
        g = projected_grad(af, jac, grads, float(u.value[0]), gu)

        def f(theta):
            pp = MLPParams(cfg, theta.copy())
            m = estimate_moments(pp, cloud, t)
            a = solve_affine(m, tg)
            return float(a.alpha * forward_array(pp, x)[0] + a.beta)

        fd = finite_diff_gradient(f, p.flat)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(fd), 1e-4)) <= 1e-5


class TestApplyProjection:
    def test_scalar(self):
        from cpl.pde import AnalyticField
        base = AnalyticField(lambda X, t: np.full(X.shape[0], 3.0), None, np.zeros((2, 1)), 0.0)
        assert np.array_equal(AffineField(base, 2.0, -1.0).value(), [5.0, 5.0])

    def test_jet(self):
        # only the order-0 coefficient takes the shift
        from cpl.pde import AnalyticField
        base = AnalyticField(lambda X, t: np.full(X.shape[0], 1.0),
                             lambda X, t, coord, k: np.full(X.shape[0], (0.5, 0.4)[k - 1]),
                             np.zeros((1, 1)), 0.0)
        out = AffineField(base, 2.0, 1.0).jet(0, 2)
        got = [float(c[0]) for c in out.coeffs]
        assert got == pytest.approx([3.0, 1.0, 0.4], abs=1e-15)

    def test_neumann_scaling_of_derivatives(self):
        cfg, p = _net(seed=10, width=8)
        an = ArrayNet(p)
        X = np.random.default_rng(5).random((20, 1)) * 2.0
        from cpl.net import NetField
        base = NetField(an, X, 0.35)
        af = AffineParams(1.7, -0.4, 0.35)
        proj = AffineField(base, af.alpha, af.beta)
        for order in (1, 2, 3):
            jb = base.jet(0, order)
            jp = proj.jet(0, order)
            for k in range(1, order + 1):
                assert np.array_equal(np.asarray(jp.coeffs[k]),
                                      af.alpha * np.asarray(jb.coeffs[k]))


class TestSameBatchShift:
    def test_simple(self):
        delta, shifted = same_batch_shift(np.array([0.0, 0.0]), 1.0)
        assert delta == 1.0 and np.array_equal(shifted, np.array([1.0, 1.0]))

    def test_mean_exact_random(self):
        rng = SeededRng(23, 1)
        for _ in range(100):
            vals = rng.normal((64,)) * 5.0
            c1 = float(rng.uniform(()) * 4 - 2)
            _, shifted = same_batch_shift(vals, c1)
            assert abs(shifted.mean() - c1) <= 1e-14 * (1 + abs(c1))

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            same_batch_shift(np.array([]), 0.0)

    def test_fixed_set_variance_law(self):
        # u is a closed-form bump; sigma_u^2 under uniform sampling comes from
        # dense quadrature (the Monte-Carlo variance oracle)
        def u(x):
            return np.exp(-(((x - 1.0) / 0.25) ** 2))

        xs = np.linspace(0.0, 2.0, 2_000_001)
        mean_u = np.trapezoid(u(xs), xs) / 2.0
        mean_u2 = np.trapezoid(u(xs) ** 2, xs) / 2.0
        sigma2 = mean_u2 - mean_u ** 2

        rng = SeededRng(24, 1)
        n = 100
        trials = 5000
        eps = np.empty(trials)
        for k in range(trials):
            quad = u(rng.uniform((n,)) * 2.0)
            batch = u(rng.uniform((n,)) * 2.0)
            _, _, resid = fixed_set_shift(batch, quad, mean_u)
            eps[k] = resid
        var = eps.var()
        expect = 2.0 * sigma2 / n
        assert abs(var - expect) <= 0.3 * expect

    def test_same_batch_residual_tiny_always(self):
        rng = SeededRng(25, 1)
        for _ in range(200):
            vals = rng.normal((100,))
            c1 = float(rng.uniform(()))
            _, shifted = same_batch_shift(vals, c1)
            assert abs(shifted.mean() - c1) <= 1e-14


_MU1 = st.one_of(st.sampled_from([0.0, -0.0, 1e3, -1e3, 1e6, -1e6]),
                 st.floats(-1e6, 1e6, allow_nan=False))
# the floor itself, the next doubles above it, below it, and ordinary spreads
_VAR = st.one_of(st.sampled_from([EPS_FLOOR, np.nextafter(EPS_FLOOR, 1.0), EPS_FLOOR * (1 + 1e-9),
                                  2 * EPS_FLOOR, 0.0, 0.5 * EPS_FLOOR]),
                 st.floats(0.0, 10.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(mu1=_MU1, var=_VAR, c1=st.floats(-10.0, 10.0), v=st.floats(1e-3, 10.0))
def test_affine_roots_and_jacobians_at_edge_moments(mu1, var, c1, v):
    mo = MomentEstimate(mu1, mu1 * mu1 + var, 10, 0.0)
    c2 = c1 * c1 + v
    af = solve_affine(mo, _targets(c1, c2))
    jac = projection_jacobians(mo, af)
    a, b, mu2 = af.alpha, af.beta, mo.mu2
    assert a > 0
    assert np.all(np.isfinite([a, b, jac.da_dmu1, jac.da_dmu2, jac.db_dmu1, jac.db_dmu2]))
    sigma2 = max(mo.variance, EPS_FLOOR)
    assert jac.da_dmu2 == -a / (2 * sigma2)
    assert jac.db_dmu1 == -a - mu1 * jac.da_dmu1
    # roundoff scales with the cancelling terms (large at large |mu1|); below
    # the floor r2 is a^2 (variance - floor) by design
    eps = np.finfo(float).eps
    r1 = a * mu1 + b - c1
    assert abs(r1) <= 8 * eps * (abs(a * mu1) + abs(c1) + 1)
    r2 = a * a * mu2 + 2 * a * b * mu1 + b * b - c2
    expect = a * a * (mo.variance - sigma2)
    assert abs(r2 - expect) <= 32 * eps * (a * a * mu2 + abs(2 * a * b * mu1) + b * b + c2)
