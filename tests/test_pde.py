import itertools
import math

import numpy as np
import pytest

from cpl.errors import ConfigError
from cpl.net import TIME, ArrayNet, NetField, NetworkConfig, init_params
from cpl.pde import (AnalyticField, DerivAtom, _gauss_1d_integrals, boundary_groups, ic_loss,
                     make_problem, neumann_loss, residual_full, residual_sampled)
from cpl.sampler import SeededRng


def _arraynet(d, seed=0, width=8):
    cfg = NetworkConfig(in_dim=d + 1, hidden_layers=2, width=width, seed=seed)
    return ArrayNet(init_params(cfg))


class TestRegistry:
    def test_advection_ic(self):
        prob = make_problem("advection1d")
        u0 = prob.u0(np.array([[1.0], [0.0]]))
        assert u0[0] == pytest.approx(1.0)
        assert u0[1] == pytest.approx(math.exp(-16.0), rel=1e-12)

    def test_reaction_diffusion_constants(self):
        prob = make_problem("reaction_diffusion1d")
        assert prob.constants["D"] == 0.01
        assert prob.constants["k"] == 0.5

    def test_kdv_nonlinear_tag(self):
        prob = make_problem("kdv1d")
        assert prob.nonlinear == "conv_self"
        assert prob.nonlinear_coeff == prob.constants["a"] == 1.0

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            make_problem("heat9d")

    def test_nd_needs_dim(self):
        with pytest.raises(ConfigError):
            make_problem("sine_gordon_nd")
        with pytest.raises(ConfigError):
            make_problem("fokker_planck_linear_nd", dim=65)

    def test_drift_diffusion_pair_counts(self):
        assert make_problem("fokker_planck_linear_nd", dim=16).n_terms == 256
        assert make_problem("fokker_planck_linear_nd", dim=3,
                            fold_symmetric_pairs=True).n_terms == 6

    def test_folded_and_ordered_partitions_agree(self):
        net = _arraynet(3, seed=1)
        X = SeededRng(40, 1).uniform((6, 3)) * 2.0
        ordered = make_problem("fokker_planck_linear_nd", dim=3)
        folded = make_problem("fokker_planck_linear_nd", dim=3,
                              fold_symmetric_pairs=True)
        ra = residual_full(ordered, NetField(net, X, 0.3))
        rb = residual_full(folded, NetField(net, X, 0.3))
        assert np.max(np.abs(ra - rb)) <= 1e-12


class TestResiduals:
    def test_exact_traveling_solution(self):
        prob = make_problem("advection1d")
        w = 0.25

        def g(X, t):
            return np.exp(-(((X[:, 0] - 1.0 - t) / w) ** 2))

        def dg(X, t, coord, order):
            z = (X[:, 0] - 1.0 - t) / w
            base = np.exp(-z * z)
            d = {1: -2 * z / w * base,
                 2: (4 * z * z - 2) / w ** 2 * base,
                 3: (12 * z - 8 * z ** 3) / w ** 3 * base}[order]
            if coord == TIME:
                d = d * (-1.0) ** order
            return d

        X = np.linspace(0.3, 1.2, 9)[:, None]
        r = residual_full(prob, AnalyticField(g, dg, X, 0.15))
        assert np.max(np.abs(r)) <= 1e-9

    def test_kdv_zero_field(self):
        prob = make_problem("kdv1d")

        def zero(X, t):
            return np.zeros(X.shape[0])

        fld = AnalyticField(zero, lambda X, t, c, o: np.zeros(X.shape[0]),
                            np.array([[0.5], [1.5]]), 0.2)
        assert np.max(np.abs(residual_full(prob, fld))) == 0.0

    def test_reaction_diffusion_constant_field(self):
        prob = make_problem("reaction_diffusion1d")
        A = 1.7

        def const(X, t):
            return np.full(X.shape[0], A)

        fld = AnalyticField(const, lambda X, t, c, o: np.zeros(X.shape[0]),
                            np.array([[0.4], [1.1]]), 0.3)
        r = residual_full(prob, fld)
        assert np.max(np.abs(r - (-prob.constants["k"] * A))) <= 1e-15

    def test_sampled_full_equals_full(self):
        prob = make_problem("kdv1d")
        net = _arraynet(1, seed=3)
        X = np.linspace(0.2, 1.8, 5)[:, None]
        a = residual_full(prob, NetField(net, X, 0.4))
        b = residual_sampled(prob, NetField(net, X, 0.4), range(prob.n_terms))
        assert np.array_equal(a, b)

    def test_sampled_enumeration_identity(self):
        prob = make_problem("fokker_planck_linear_nd", dim=2)  # 4 terms
        net = _arraynet(2, seed=4)
        X = SeededRng(41, 1).uniform((5, 2)) * 2.0
        full = residual_full(prob, NetField(net, X, 0.1))
        subs = [residual_sampled(prob, NetField(net, X, 0.1), S)
                for S in itertools.combinations(range(4), 2)]
        assert np.max(np.abs(np.mean(subs, axis=0) - full)) <= 1e-13

    def test_sampled_singleton_single_term(self):
        prob = make_problem("sine_gordon_nd", dim=1)
        net = _arraynet(1, seed=5)
        X = np.array([[0.5], [1.0]])
        # two linear terms here; a singleton on a one-term problem is the
        # degenerate N_L/|S| = 1 case, exercised via the time term alone
        r1 = residual_sampled(prob, NetField(net, X, 0.2), [0])
        r2 = residual_sampled(prob, NetField(net, X, 0.2), [0])
        assert np.array_equal(r1, r2)

    def test_empty_index_set(self):
        prob = make_problem("advection1d")
        net = _arraynet(1)
        with pytest.raises(ConfigError):
            residual_sampled(prob, NetField(net, np.array([[1.0]]), 0.1), [])


class TestTargets:
    def test_advection_constant_mass(self):
        prob = make_problem("advection1d")
        c1a = prob.c1_exact(0.0)
        c1b = prob.c1_exact(0.33)
        assert c1a == c1b
        assert c1a == pytest.approx(0.25 * math.sqrt(math.pi) * math.erf(4.0), rel=1e-12)

    def test_reaction_diffusion_growth(self):
        prob = make_problem("reaction_diffusion1d")
        k = prob.constants["k"]
        T = prob.t_final
        assert prob.c1_exact(T) / prob.c1_exact(0.0) == pytest.approx(math.exp(k * T), rel=1e-12)

    @staticmethod
    def _erf_args(width):
        """The erf arguments of the Gaussian integrals over [0, 2] centred at 1."""
        a = (2.0 - 1.0) / width
        b = (1.0 - 0.0) / width
        return a, b, math.sqrt(2.0) * a, math.sqrt(2.0) * b

    @staticmethod
    def _scipy_integrals(width):
        """The same integrals with scipy.special.erf in place of math.erf."""
        from scipy.special import erf
        a, b, a2, b2 = TestTargets._erf_args(width)
        i1 = width * math.sqrt(math.pi) / 2.0 * (erf(a) + erf(b))
        i2 = width * math.sqrt(math.pi / 2.0) / 2.0 * (erf(a2) + erf(b2))
        return float(i1), float(i2)

    @pytest.mark.parametrize("name, width", [("advection1d", 0.25),
                                             ("reaction_diffusion1d", 0.5)])
    def test_gaussian_targets_bitwise_those_of_scipy_erf(self, name, width):
        assert _gauss_1d_integrals(width) == self._scipy_integrals(width)
        prob = make_problem(name)
        assert prob.constants["ic_width"] == width
        assert prob.c1_exact(0.0) == self._scipy_integrals(width)[0]

    def test_unit_width_integrals_within_one_erf_ulp_of_scipy(self):
        from scipy.special import erf
        for x in self._erf_args(1.0):
            assert abs(math.erf(x) - float(erf(x))) <= math.ulp(math.erf(x))
        a, b, a2, b2 = self._erf_args(1.0)
        coef1 = math.sqrt(math.pi) / 2.0
        coef2 = math.sqrt(math.pi / 2.0) / 2.0
        new = _gauss_1d_integrals(1.0)
        old = self._scipy_integrals(1.0)
        # one ulp in each erf term, and one rounding of the result
        tol1 = coef1 * (math.ulp(math.erf(a)) + math.ulp(math.erf(b))) + math.ulp(old[0])
        tol2 = coef2 * (math.ulp(math.erf(a2)) + math.ulp(math.erf(b2))) + math.ulp(old[1])
        assert abs(new[0] - old[0]) <= tol1
        assert abs(new[1] - old[1]) <= tol2

    def test_math_erf_correctly_rounded_at_the_target_arguments(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(200):
            for width in (0.25, 0.5, 1.0):
                for x in self._erf_args(width):
                    assert math.erf(x) == float(mpmath.erf(mpmath.mpf(x)))

    def test_kdv_targets_from_table(self, kdv_table):
        prob = make_problem("kdv1d")
        assert prob.needs_invariant_table()
        with pytest.raises(ConfigError):
            prob.invariant_targets(0.5)
        prob.attach_invariant_table(kdv_table)
        c1, c2 = prob.invariant_targets(0.5)
        # table-backed trajectories stay near the initial invariants
        assert abs(c1 - kdv_table.c1(0.0)) / kdv_table.c1(0.0) <= 0.05
        assert abs(c2 - kdv_table.c2(0.0)) / kdv_table.c2(0.0) <= 0.05

    def test_range_error(self):
        prob = make_problem("advection1d")
        with pytest.raises(ValueError):
            prob.invariant_targets(prob.t_final + 0.1)

    def test_target_variance_positive(self, kdv_table, rd_table, wave_table,
                                      advection_table):
        for name, table in [("advection1d", advection_table),
                            ("reaction_diffusion1d", rd_table),
                            ("wave1d", wave_table), ("kdv1d", kdv_table)]:
            prob = make_problem(name)
            if prob.needs_invariant_table():
                prob.attach_invariant_table(table)
            tg = prob.domain_averaged_targets()
            for t in np.linspace(0.0, prob.t_final, 9):
                c1b, c2b, v = tg.at(t)
                assert v > 0.0


class TestTermContract:
    def test_order_cap(self):
        with pytest.raises(ConfigError):
            DerivAtom(1.0, 0, 4)


class TestIcBc:
    def test_ic_zero_when_exact(self):
        prob = make_problem("advection1d")
        X = np.linspace(0.1, 1.9, 12)[:, None]

        def g(Xp, t):
            return prob.u0(Xp)

        fld = AnalyticField(g, lambda Xp, t, c, o: np.zeros(Xp.shape[0]), X, 0.0)
        assert ic_loss(prob, fld, X) == 0.0

    def test_wave_ic_includes_velocity(self):
        prob = make_problem("wave1d")
        X = np.linspace(0.1, 1.9, 8)[:, None]

        def g(Xp, t):
            return prob.u0(Xp)

        def dg(Xp, t, coord, order):
            return np.full(Xp.shape[0], 0.25 if coord == TIME else 0.0)

        fld = AnalyticField(g, dg, X, 0.0)
        # matching values but nonzero velocity: the loss is the velocity term
        assert ic_loss(prob, fld, X) == pytest.approx(0.25 ** 2)

    def test_even_symmetry_kills_neumann(self):
        def g(Xp, t):
            return np.cos(np.pi * Xp[:, 0])

        def dg(Xp, t, coord, order):
            if order == 1:
                return -np.pi * np.sin(np.pi * Xp[:, 0])
            raise AssertionError

        X = np.array([[0.0], [2.0]])
        fld = AnalyticField(g, dg, X, 0.1)
        assert neumann_loss(fld, 0) <= 1e-28

    def test_random_net_loss_positive(self):
        prob = make_problem("advection1d")
        net = _arraynet(1, seed=9)
        X = np.linspace(0.05, 1.95, 16)[:, None]
        fld = NetField(net, X, 0.0)
        loss = ic_loss(prob, fld, X)
        assert np.isfinite(loss) and loss > 0.0

    def test_boundary_groups_on_faces(self):
        from cpl.sampler import Domain
        dom = Domain((0.0, -1.0), (2.0, 3.0), 1.0)
        groups = boundary_groups(dom, 64, SeededRng(43, 1))
        for coord, pts in groups.items():
            face_vals = pts[:, coord]
            assert np.all((face_vals == dom.lower[coord]) | (face_vals == dom.upper[coord]))
            other = [c for c in range(2) if c != coord][0]
            assert np.all((pts[:, other] >= dom.lower[other]) &
                          (pts[:, other] <= dom.upper[other]))
