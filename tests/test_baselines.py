import numpy as np
import pytest
from scipy.optimize import fsolve

from cpl.baselines import (GridSpec, mc_misuse_projection, preflight_grid,
                           proj_combined, proj_linear, proj_quadratic,
                           riemann_invariants, uniform_grid)
from cpl.errors import ConfigError, DegenerateField, InfeasibleTargets
from cpl.sampler import Domain, SeededRng


def kkt_linear_oracle(u, dv, c1):
    """Equality-constrained least squares via the assembled KKT system."""
    n = u.size
    A = np.zeros((n + 1, n + 1))
    A[:n, :n] = 2.0 * np.eye(n)
    A[:n, n] = dv
    A[n, :n] = dv
    rhs = np.concatenate([2.0 * u, [c1]])
    sol = np.linalg.solve(A, rhs)
    return sol[:n]


def kkt_combined_oracle(u, dv, c1, c2):
    """Sphere-and-hyperplane nearest point through the stationarity system.

    Unknowns (lam, mu) of 2(y-u) + lam dv 1 + 2 mu dv y = 0 solved numerically,
    then verified against both constraints.
    """
    n = u.size

    def y_of(lam, mu):
        return (u - lam * dv / 2.0) / (1.0 + mu * dv)

    def eqs(z):
        y = y_of(z[0], z[1])
        return [dv * y.sum() - c1, dv * (y * y).sum() - c2]

    z0 = np.array([0.0, 0.0])
    z = fsolve(eqs, z0, xtol=1e-13, full_output=False)
    y = y_of(z[0], z[1])
    assert abs(dv * y.sum() - c1) < 1e-9
    assert abs(dv * (y * y).sum() - c2) < 1e-9
    return y


class TestLinear:
    def test_simple(self):
        assert np.array_equal(proj_linear(np.array([0.0, 0.0]), 1.0, 2.0),
                              np.array([1.0, 1.0]))

    def test_already_feasible(self):
        u = np.array([0.2, 0.8, 0.5])
        c1 = 0.3 * u.sum()
        y = proj_linear(u, 0.3, c1)
        assert np.max(np.abs(y - u)) <= 1e-15

    def test_vs_kkt_oracle(self):
        rng = SeededRng(31, 1)
        for _ in range(10):
            u = rng.normal((7,))
            dv = 0.25
            c1 = float(rng.uniform(()) * 2 - 1)
            y = proj_linear(u, dv, c1)
            y_star = kkt_linear_oracle(u, dv, c1)
            assert np.max(np.abs(y - y_star)) <= 1e-10

    def test_translation_equivariance(self):
        rng = SeededRng(32, 1)
        u = rng.normal((9,))
        y1 = proj_linear(u, 0.5, 1.2)
        y2 = proj_linear(u + 3.7, 0.5, 1.2)
        assert np.max(np.abs(y1 - y2)) <= 1e-12


class TestQuadratic:
    def test_worked_example(self):
        y = proj_quadratic(np.array([3.0, 4.0]), 1.0, 1.0)
        assert y == pytest.approx([0.6, 0.8], abs=1e-15)
        assert (y * y).sum() == pytest.approx(1.0, abs=1e-15)

    def test_on_sphere_unchanged(self):
        u = np.array([0.6, 0.8])
        y = proj_quadratic(u, 1.0, 1.0)
        assert np.max(np.abs(y - u)) <= 1e-15

    def test_scale_invariance(self):
        rng = SeededRng(33, 1)
        u = rng.normal((6,))
        a = proj_quadratic(u, 0.4, 2.0)
        b = proj_quadratic(3.5 * u, 0.4, 2.0)
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_zero_field(self):
        with pytest.raises(DegenerateField):
            proj_quadratic(np.zeros(4), 1.0, 1.0)

    def test_bad_target(self):
        with pytest.raises(ConfigError):
            proj_quadratic(np.ones(4), 1.0, -1.0)


class TestCombined:
    def test_feasible_fixed_point(self):
        u = np.array([0.0, 2.0])
        # dv=1, c1=2, c2=4: u satisfies both constraints already
        assert riemann_invariants(u, 1.0) == (2.0, 4.0)
        y = proj_combined(u, 1.0, 2.0, 4.0)
        assert np.max(np.abs(y - u)) <= 1e-14

    def test_vs_numeric_oracle_30_instances(self):
        rng = SeededRng(34, 1)
        count = 0
        while count < 30:
            n = 4 + int(rng.integers(0, 7))
            u = rng.normal((n,))
            dv = float(rng.uniform(()) * 0.5 + 0.1)
            c1 = float(rng.uniform(()) * 2 - 1)
            c2 = c1 * c1 / (n * dv) + float(rng.uniform(()) * 2 + 0.2)
            y = proj_combined(u, dv, c1, c2)
            y_star = kkt_combined_oracle(u, dv, c1, c2)
            assert np.max(np.abs(y - y_star)) <= 1e-9
            count += 1

    def test_constraint_residuals(self):
        rng = SeededRng(35, 1)
        for _ in range(20):
            u = rng.normal((8,))
            dv = 0.3
            c1 = float(rng.uniform(()))
            c2 = c1 * c1 / (8 * dv) + float(rng.uniform(()) + 0.1)
            y = proj_combined(u, dv, c1, c2)
            g1, g2 = riemann_invariants(y, dv)
            assert abs(g1 - c1) <= 1e-12 * (1 + abs(c1))
            assert abs(g2 - c2) <= 1e-12 * (1 + abs(c2))

    def test_infeasible_targets(self):
        with pytest.raises(InfeasibleTargets):
            proj_combined(np.array([1.0, 2.0]), 1.0, 4.0, 1.0)

    def test_degenerate_field(self):
        with pytest.raises(DegenerateField):
            proj_combined(np.full(5, 0.7), 1.0, 1.0, 3.0)

    def test_idempotence_all_three(self):
        rng = SeededRng(36, 1)
        for _ in range(30):
            u = rng.normal((7,))
            dv = 0.35
            c1 = float(rng.uniform(()))
            c2 = c1 * c1 / (7 * dv) + float(rng.uniform(()) + 0.2)
            y = proj_linear(u, dv, c1)
            assert np.max(np.abs(proj_linear(y, dv, c1) - y)) <= 1e-12
            y = proj_quadratic(u, dv, c2)
            assert np.max(np.abs(proj_quadratic(y, dv, c2) - y)) <= 1e-12
            y = proj_combined(u, dv, c1, c2)
            assert np.max(np.abs(proj_combined(y, dv, c1, c2) - y)) <= 1e-12


class TestMisuse:
    def _field(self):
        def u(x):
            return np.exp(-(((x - 1.0) / 0.4) ** 2)) + 0.3
        return u

    def test_same_cloud_conserves(self):
        u = self._field()
        rng = SeededRng(37, 1)
        x = rng.uniform((200,)) * 2.0
        vals = u(x)
        vol = 2.0
        c1 = 1.1
        c2 = c1 * c1 / vol + 0.9
        y = mc_misuse_projection(vals, vol, c1, c2)
        dv = vol / vals.size
        g1, g2 = riemann_invariants(y, dv)
        assert abs(g1 - c1) <= 1e-12 * (1 + abs(c1))
        assert abs(g2 - c2) <= 1e-12 * (1 + abs(c2))

    def test_independent_cloud_deviation_scale(self):
        # projection scalars come from cloud 1, conservation is measured on an
        # independent cloud 2; the mean |deviation| matches the MC rate
        u = self._field()
        vol = 2.0
        xs = np.linspace(0.0, 2.0, 1_000_001)
        c1 = np.trapezoid(u(xs), xs)
        c2 = np.trapezoid(u(xs) ** 2, xs)
        sigma_u = float(np.std(u(np.linspace(0, 2, 1_000_001))))
        n = 100
        rng = SeededRng(38, 1)
        devs = np.empty(2000)
        for k in range(2000):
            v1 = u(rng.uniform((n,)) * 2.0)
            v2 = u(rng.uniform((n,)) * 2.0)
            y1 = mc_misuse_projection(v1, vol, c1, c2)
            # affine map implied by the cloud-1 projection, applied at cloud 2
            a = (y1[1] - y1[0]) / (v1[1] - v1[0])
            b = y1[0] - a * v1[0]
            y2 = a * v2 + b
            devs[k] = abs(vol * y2.mean() - c1)
        expect = sigma_u * vol / np.sqrt(n)
        assert abs(devs.mean() - expect) <= 0.5 * expect

    def test_deviation_shrinks_at_mc_rate(self):
        u = self._field()
        vol = 2.0
        xs = np.linspace(0.0, 2.0, 1_000_001)
        c1 = np.trapezoid(u(xs), xs)
        c2 = np.trapezoid(u(xs) ** 2, xs)
        rng = SeededRng(39, 1)
        sizes = [100, 1000, 10_000, 100_000]
        means = []
        for n in sizes:
            trials = max(20, 2000 // int(np.sqrt(n)))
            devs = np.empty(trials)
            for k in range(trials):
                v1 = u(rng.uniform((n,)) * 2.0)
                v2 = u(rng.uniform((n,)) * 2.0)
                y1 = mc_misuse_projection(v1, vol, c1, c2)
                a = (y1[1] - y1[0]) / (v1[1] - v1[0])
                b = y1[0] - a * v1[0]
                devs[k] = abs(vol * (a * v2 + b).mean() - c1)
            means.append(devs.mean())
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert -0.6 <= slope <= -0.4


class TestGrid:
    def test_preflight_cap(self):
        with pytest.raises(ConfigError, match="MB"):
            preflight_grid((2 ** 21,))

    def test_uniform_grid_2d(self):
        dom = Domain((0.0, 0.0), (2.0, 4.0), 1.0)
        pts, spec = uniform_grid(dom, (3, 5))
        assert pts.shape == (15, 2)
        assert spec.dv == pytest.approx(1.0 * 1.0)
        assert spec.n == 15

    def test_gridspec_validation(self):
        with pytest.raises(ConfigError):
            GridSpec(counts=(1,), spacings=(0.1,))
