import copy
import dataclasses
import itertools

import numpy as np
import pytest

from cpl.errors import ConfigError
from cpl.net import ArrayNet, MLPParams, NetField, NetworkConfig, init_params
from cpl.pde import ic_loss, make_problem, neumann_loss, residual_sampled
from cpl.refsolve import ReferenceSolution
from cpl.sampler import spatial_cloud
from cpl.trainer import (MetricsRecord, OptimizerState, RngSet, TrainConfig,
                         adam_update, build_problem, ensure_reference, evaluate,
                         lr_schedule, plan_step, run_training,
                         sdifp_coupled_objective, step_baseline, step_sdifp)


def _prob_with_table(name, table=None):
    prob = make_problem(name)
    if table is not None and prob.needs_invariant_table():
        prob.attach_invariant_table(table)
    return prob


def _params(d, width=6, hidden=2, seed=5):
    cfg = NetworkConfig(in_dim=d + 1, hidden_layers=hidden, width=width, seed=seed)
    return cfg, init_params(cfg)


class TestAdam:
    def test_lr_schedule_hits_zero(self):
        assert lr_schedule(1e-3, 1000, 1000) == 0.0
        assert lr_schedule(1e-3, 0, 1000) == 1e-3

    def test_zero_lr_freezes(self):
        cfg, p = _params(1)
        st = OptimizerState.fresh(p.flat.size)
        q = adam_update(st, p, np.ones_like(p.flat), 0.0)
        assert np.array_equal(q.flat, p.flat)

    def test_shape_mismatch(self):
        cfg, p = _params(1)
        st = OptimizerState.fresh(p.flat.size)
        with pytest.raises(ConfigError):
            adam_update(st, p, np.zeros(3), 1e-3)


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="magic").validate()

    def test_estimator_on_baseline(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="vanilla", estimator="ds_uge").validate()

    def test_bad_proj_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(proj_mode="sphere").validate()


class TestSdifpStep:
    def test_single_term_problem_estimators_coincide(self, advection_table):
        # with the full index set, ds_uge sampling degenerates to the plain path
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        base = TrainConfig(problem="advection1d", method="sdifp", batch_n=12,
                           cloud_m=128, n_time_slices=2, n_ic=8, n_bc=8,
                           width=6, hidden_layers=2, seed=1)
        net_cfg, params = _params(1, seed=1)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        full = dataclasses.replace(base, estimator="full").validate()
        uge = dataclasses.replace(base, estimator="ds_uge", size_i=2, size_j=2).validate()
        plan_a = plan_step(prob, full, RngSet(2))
        plan_b = plan_step(prob, uge, RngSet(2))
        assert np.array_equal(plan_b.I, np.arange(2)) or len(plan_b.I) == 2
        ga, _, _ = step_sdifp(params, prob, full, plan_a, cloud.points, targets)
        plan_b.I = np.arange(2)
        plan_b.J = np.arange(2)
        gb, _, _ = step_sdifp(params, prob, uge, plan_b, cloud.points, targets)
        assert np.array_equal(ga, gb)

    def test_soo_full_set_equals_full(self):
        prob = make_problem("fokker_planck_linear_nd", dim=2)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="fokker_planck_linear_nd", dim=2, method="sdifp",
                         estimator="soo", size_i=4, size_j=4, batch_n=6,
                         cloud_m=128, n_time_slices=1, n_ic=6, n_bc=6,
                         width=6, hidden_layers=2, seed=9).validate()
        net_cfg, params = _params(2, seed=9)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        plan = plan_step(prob, tc, RngSet(4))
        assert np.array_equal(plan.I, plan.J)
        assert len(plan.I) == 4
        g_soo, _, moments = step_sdifp(params, prob, tc, plan, cloud.points, targets)
        full = copy.copy(plan)
        full.I = np.arange(4)
        full.J = np.arange(4)
        g_full, _, _ = step_sdifp(params, prob, tc, full, cloud.points, targets,
                                  moments_all=moments)
        assert np.array_equal(g_soo, g_full)

    def test_soo_bias_nonzero(self):
        prob = make_problem("fokker_planck_linear_nd", dim=2)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="fokker_planck_linear_nd", dim=2, method="sdifp",
                         estimator="soo", size_i=2, size_j=2, batch_n=6,
                         cloud_m=128, n_time_slices=1, n_ic=6, n_bc=6,
                         width=6, hidden_layers=2, seed=11).validate()
        net_cfg, params = _params(2, seed=11)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        plan = plan_step(prob, tc, RngSet(5))
        full = copy.copy(plan)
        full.I = np.arange(4)
        full.J = np.arange(4)
        g_full, _, moments = step_sdifp(params, prob, tc, full, cloud.points, targets)
        acc = []
        for I in itertools.combinations(range(4), 2):
            pl = copy.copy(plan)
            pl.I = np.asarray(I)
            pl.J = np.asarray(I)
            g, _, _ = step_sdifp(params, prob, tc, pl, cloud.points, targets,
                                 moments_all=moments)
            acc.append(g)
        bias = np.max(np.abs(np.mean(np.stack(acc), axis=0) - g_full))
        noise_floor = 1e-13 * max(1.0, np.max(np.abs(g_full)))
        assert bias > 10 * noise_floor

    def test_soo_does_less_forward_work(self):
        prob = make_problem("fokker_planck_linear_nd", dim=3)
        targets = prob.domain_averaged_targets()
        base = TrainConfig(problem="fokker_planck_linear_nd", dim=3, method="sdifp",
                           batch_n=8, cloud_m=128, n_time_slices=1, n_ic=8, n_bc=8,
                           width=6, hidden_layers=2, seed=13)
        net_cfg, params = _params(3, seed=13)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        tc = dataclasses.replace(base, estimator="ds_uge", size_i=3, size_j=3).validate()
        plan = plan_step(prob, tc, RngSet(6))
        plan.I = np.array([0, 1, 2])
        plan.J = np.array([3, 4, 5])
        _, d_uge, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
        pl = copy.copy(plan)
        pl.J = pl.I
        _, d_soo, _ = step_sdifp(params, prob, tc, pl, cloud.points, targets)
        assert d_soo.value_evals < d_uge.value_evals
        assert d_soo.tape_nodes == d_uge.tape_nodes


class TestBaselineSteps:
    def test_soft_lambda_zero_equals_vanilla(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        base = TrainConfig(problem="advection1d", batch_n=20, n_time_slices=2,
                           n_ic=8, n_bc=8, width=6, hidden_layers=2, seed=3)
        net_cfg, params = _params(1, seed=3)
        cfg_v = dataclasses.replace(base, method="vanilla").validate()
        cfg_s = dataclasses.replace(base, method="soft", lam_soft=0.0).validate()
        plan_v = plan_step(prob, cfg_v, RngSet(9))
        plan_s = plan_step(prob, cfg_s, RngSet(9))
        gv, _ = step_baseline(params, prob, cfg_v, plan_v, targets=targets)
        gs, _ = step_baseline(params, prob, cfg_s, plan_s, targets=targets)
        assert np.array_equal(gv, gs)

    def test_vanilla_gradient_fd(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="advection1d", method="vanilla", batch_n=30,
                         n_time_slices=2, n_ic=10, n_bc=8, width=6,
                         hidden_layers=2, seed=3).validate()
        net_cfg, params = _params(1, seed=3)
        plan = plan_step(prob, tc, RngSet(10))
        g, _ = step_baseline(params, prob, tc, plan, targets=targets)

        def f(theta):
            an = ArrayNet(MLPParams(net_cfg, theta.copy()))
            tot = tc.w_ic * ic_loss(prob, NetField(an, plan.ic_X, 0.0), plan.ic_X)
            for s, Xs in enumerate(plan.slices):
                ts = float(plan.ts[s])
                r = residual_sampled(prob, NetField(an, Xs, ts), range(prob.n_terms))
                tot += float((r * r).sum()) / tc.batch_n
                for coord, pts in plan.bc_assign.get(s, ()):
                    tot += tc.w_bc * neumann_loss(NetField(an, pts, ts), coord) \
                        * (pts.shape[0] / tc.n_bc)
            return float(tot)

        rng = np.random.default_rng(4)
        for _ in range(3):
            v = rng.standard_normal(params.flat.size)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (f(params.flat + h * v) - f(params.flat - h * v)) / (2 * h)
            assert abs(float(g @ v) - fd) / max(1e-9, abs(fd)) <= 1e-5

    def test_discrete_proj_grid_riemann_residuals(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="advection1d", method="discrete_proj",
                         proj_mode="grid", proj_support=64, batch_n=16,
                         n_time_slices=2, n_ic=8, n_bc=8, width=6,
                         hidden_layers=2, seed=3).validate()
        net_cfg, params = _params(1, seed=3)
        plan = plan_step(prob, tc, RngSet(11))
        _, diag = step_baseline(params, prob, tc, plan, targets=targets)
        assert diag.proj_residuals
        for r1, r2 in diag.proj_residuals:
            assert r1 <= 1e-12 * 10 and r2 <= 1e-12 * 10

    def test_discrete_proj_through_gradient_fd(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        vol = prob.domain.volume
        tc = TrainConfig(problem="advection1d", method="discrete_proj",
                         proj_mode="cloud", proj_support=40, batch_n=16,
                         n_time_slices=1, n_ic=8, n_bc=8, width=6,
                         hidden_layers=2, seed=3).validate()
        net_cfg, params = _params(1, seed=3)
        plan = plan_step(prob, tc, RngSet(12))
        g, _ = step_baseline(params, prob, tc, plan, targets=targets)

        def scalars(theta_net, t_s, support):
            pts, dv = support
            n = pts.shape[0]
            c1, c2, _ = targets.at(t_s)
            c1 *= vol
            c2 *= vol
            u = theta_net.forward(np.concatenate(
                [pts, np.full((n, 1), t_s)], axis=1))
            mu = u.mean()
            den = float(((u - mu) ** 2).sum())
            radius2 = c2 / dv - c1 * c1 / (n * dv * dv)
            a = np.sqrt(radius2 / den)
            return a, c1 / (n * dv) - a * mu

        def f(theta):
            from cpl.projection import AffineField
            an = ArrayNet(MLPParams(net_cfg, theta.copy()))
            a0, b0 = scalars(an, 0.0, plan.proj_support[0])
            tot = tc.w_ic * ic_loss(prob, AffineField(
                NetField(an, plan.ic_X, 0.0), a0, b0), plan.ic_X)
            for s, Xs in enumerate(plan.slices):
                ts = float(plan.ts[s])
                a, b = scalars(an, ts, plan.proj_support[s + 1])
                fld = AffineField(NetField(an, Xs, ts), a, b)
                r = residual_sampled(prob, fld, range(prob.n_terms))
                tot += float((r * r).sum()) / tc.batch_n
                for coord, pts in plan.bc_assign.get(s, ()):
                    tot += tc.w_bc * neumann_loss(AffineField(
                        NetField(an, pts, ts), a, b), coord) * (pts.shape[0] / tc.n_bc)
            return float(tot)

        rng = np.random.default_rng(5)
        for _ in range(3):
            v = rng.standard_normal(params.flat.size)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (f(params.flat + h * v) - f(params.flat - h * v)) / (2 * h)
            assert abs(float(g @ v) - fd) / max(1e-9, abs(fd)) <= 1e-5

    def test_posthoc_mode_differs(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        base = TrainConfig(problem="advection1d", method="discrete_proj",
                           proj_mode="cloud", proj_support=40, batch_n=16,
                           n_time_slices=1, n_ic=8, n_bc=8, width=6,
                           hidden_layers=2, seed=3)
        net_cfg, params = _params(1, seed=3)
        thr = dataclasses.replace(base, proj_backprop=True).validate()
        post = dataclasses.replace(base, proj_backprop=False).validate()
        g1, _ = step_baseline(params, prob, thr, plan_step(prob, thr, RngSet(13)),
                              targets=targets)
        g2, _ = step_baseline(params, prob, post, plan_step(prob, post, RngSet(13)),
                              targets=targets)
        assert not np.allclose(g1, g2)


class TestMemoryAccounting:
    def test_tape_independent_of_cloud_size(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="advection1d", method="sdifp", batch_n=16,
                         n_time_slices=2, n_ic=8, n_bc=8, width=6,
                         hidden_layers=2, seed=3).validate()
        net_cfg, params = _params(1, seed=3)
        nodes = []
        for m in (500, 5000):
            cloud = spatial_cloud(m, prob.domain, skip=0)
            plan = plan_step(prob, tc, RngSet(14))
            _, diag, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
            nodes.append(diag.tape_nodes)
        assert nodes[0] == nodes[1]

    def test_tape_linear_in_batch(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        net_cfg, params = _params(1, seed=3)
        cloud = spatial_cloud(256, prob.domain, skip=0)
        ns = np.array([16, 32, 64, 128])
        slots = []
        for n in ns:
            tc = TrainConfig(problem="advection1d", method="sdifp", batch_n=int(n),
                             n_time_slices=2, n_ic=8, n_bc=8, width=6,
                             hidden_layers=2, seed=3).validate()
            plan = plan_step(prob, tc, RngSet(15))
            _, diag, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
            slots.append(diag.tape_nodes)
        slots = np.asarray(slots, dtype=float)
        coef = np.polyfit(ns, slots, 1)
        fit = np.polyval(coef, ns)
        ss_res = float(((slots - fit) ** 2).sum())
        ss_tot = float(((slots - slots.mean()) ** 2).sum())
        assert 1.0 - ss_res / ss_tot >= 0.99

class TestEvaluate:
    def test_error_u_zero_against_own_field(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        net_cfg, params = _params(1, seed=6)
        from cpl.net import forward_array
        grid = np.linspace(0.0, 2.0, 65)
        ts = np.linspace(0.0, prob.t_final, 5)
        snaps = np.stack([forward_array(params, np.concatenate(
            [grid[:, None], np.full((65, 1), t)], axis=1)) for t in ts])
        ref = ReferenceSolution(problem_name="advection1d", axes=[grid], ts=ts,
                                snaps=snaps, c1=np.zeros(5), c2=np.zeros(5), dt=1e-3)
        tc = TrainConfig(problem="advection1d", method="vanilla", eval_cloud=512,
                         width=6, hidden_layers=2, seed=6).validate()
        cloud = spatial_cloud(256, prob.domain, skip=0)
        rec = evaluate(params, prob, tc, targets, cloud.points, RngSet(7),
                       reference=ref, n_time_grid=8)
        assert rec.error_u == 0.0

    def test_sdifp_error_c_tiny_on_training_cloud(self, advection_table):
        # pointing the held-out stream at the training cloud recovers the
        # same-set algebraic exactness
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        net_cfg, params = _params(1, seed=8)
        tc = TrainConfig(problem="advection1d", method="sdifp", eval_cloud=2048,
                         holdout_skip=0, width=6, hidden_layers=2, seed=8).validate()
        cloud = spatial_cloud(2048, prob.domain, skip=0)
        rec = evaluate(params, prob, tc, targets, cloud.points, RngSet(9),
                       n_time_grid=8)
        c1_scale = 1 + abs(prob.invariant_targets(0.2)[0])
        assert rec.error_c1 <= 1e-10 * c1_scale
        assert rec.error_c2 <= 1e-10 * c1_scale

    def test_independent_cloud_qmc_error_bound(self, advection_table):
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        net_cfg, params = _params(1, width=16, seed=10)
        tc = TrainConfig(problem="advection1d", method="sdifp", eval_cloud=100_000,
                         holdout_skip=5_000_000, width=16, hidden_layers=2,
                         seed=10).validate()
        cloud = spatial_cloud(10_000, prob.domain, skip=0)
        rec = evaluate(params, prob, tc, targets, cloud.points, RngSet(11),
                       n_time_grid=8)
        scale = 1 + abs(prob.invariant_targets(0.2)[0])
        assert rec.error_c1 <= 5e-3 * scale
        assert rec.error_c2 <= 5e-3 * scale


class TestRunTraining:
    @pytest.mark.parametrize("method", ["vanilla", "soft", "discrete_proj", "sdifp"])
    def test_final_table_is_the_last_evaluation(self, method):
        # the last epoch lies off the evaluation cadence, and it still evaluates
        tc = TrainConfig(problem="advection1d", method=method, epochs=3, batch_n=16,
                         cloud_m=256, n_time_slices=2, n_ic=8, n_bc=8, width=6,
                         hidden_layers=2, seed=3, eval_every=5, eval_cloud=256,
                         proj_support=16, ref_nx=128)
        result = run_training(tc)
        assert [rec.epoch for rec in result.metrics] == [0, 2]
        assert len(result.affine_table) == 64
        assert result.affine_table == result.metrics[-1].affine_table

    def test_conservation_at_every_step(self):
        # re-solving the projection on the training cloud must match targets
        # at every optimization state
        from cpl.projection import estimate_moments, solve_affine
        from cpl.net import forward_array
        tc = TrainConfig(problem="advection1d", method="sdifp", estimator="full",
                         epochs=6, batch_n=16, cloud_m=512, n_time_slices=2,
                         n_ic=8, n_bc=8, width=6, hidden_layers=2, seed=4,
                         eval_every=100, eval_cloud=256, ref_nx=128,
                         freeze_cloud=True)
        prob = build_problem(tc)
        ref = ensure_reference(prob, tc)
        targets = prob.domain_averaged_targets()
        net_cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=6, seed=4)
        params = init_params(net_cfg)
        rngs = RngSet(4)
        opt = OptimizerState.fresh(params.flat.size)
        cloud = spatial_cloud(512, prob.domain, skip=0)
        for epoch in range(tc.epochs):
            plan = plan_step(prob, tc, rngs)
            g, diag, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
            for t in (0.1, 0.3):
                mo = estimate_moments(params, cloud.points, t)
                af = solve_affine(mo, targets)
                u = forward_array(params, np.concatenate(
                    [cloud.points, np.full((512, 1), t)], axis=1))
                ut = af.alpha * u + af.beta
                c1b, c2b, _ = targets.at(t)
                assert abs(ut.mean() - c1b) <= 1e-10 * (1 + abs(c1b))
                assert abs((ut * ut).mean() - c2b) <= 1e-10 * (1 + abs(c2b))
            params = adam_update(opt, params, g, lr_schedule(tc.lr0, epoch, tc.epochs))

    def test_metrics_record_shape(self):
        tc = TrainConfig(problem="advection1d", method="vanilla", epochs=3,
                         batch_n=8, n_time_slices=2, n_ic=4, n_bc=4, width=6,
                         hidden_layers=2, seed=5, eval_every=1, eval_cloud=128,
                         ref_nx=128)
        res = run_training(tc)
        assert len(res.metrics) == 3
        for rec in res.metrics:
            assert isinstance(rec, MetricsRecord)
            assert np.isfinite(rec.loss)
            assert rec.tape_nodes > 0
            assert rec.seconds == 0.0  # deterministic timing off by default


class TestDetachedCloud:
    TINY = dict(problem="advection1d", epochs=5, batch_n=8, cloud_m=64,
                n_time_slices=2, n_ic=4, n_bc=4, width=6, hidden_layers=2,
                seed=6, eval_every=2, eval_cloud=64, ref_nx=128)

    @staticmethod
    def _training_clouds(monkeypatch, cfg, ref_cache):
        """Skips of every cloud run_training builds outside evaluate()."""
        import cpl.trainer as trainer_mod
        real_cloud, real_evaluate = trainer_mod.spatial_cloud, trainer_mod.evaluate
        skips = []
        in_eval = []

        def counting_cloud(m, domain, skip=0):
            if not in_eval:
                skips.append(skip)
            return real_cloud(m, domain, skip=skip)

        def flagged_evaluate(*args, **kwargs):
            in_eval.append(True)
            try:
                return real_evaluate(*args, **kwargs)
            finally:
                in_eval.pop()

        monkeypatch.setattr(trainer_mod, "spatial_cloud", counting_cloud)
        monkeypatch.setattr(trainer_mod, "evaluate", flagged_evaluate)
        run_training(cfg, cache_dir=ref_cache)
        return skips

    @pytest.mark.parametrize("method", ["vanilla", "soft", "discrete_proj"])
    def test_baselines_build_no_training_cloud(self, monkeypatch, ref_cache, method):
        cfg = TrainConfig(method=method, **self.TINY)
        assert self._training_clouds(monkeypatch, cfg, ref_cache) == []

    @pytest.mark.parametrize("refresh,advancing", [(1, [1, 2, 3, 4]), (2, [2, 4])])
    def test_sdifp_builds_one_cloud_per_refreshing_epoch(self, monkeypatch, ref_cache,
                                                         refresh, advancing):
        cfg = TrainConfig(method="sdifp", moment_refresh=refresh, **self.TINY)
        skips = self._training_clouds(monkeypatch, cfg, ref_cache)
        # the set-up cloud, then one advance per refreshing epoch after epoch 0
        assert skips == [0] + [k * cfg.cloud_m for k in range(1, len(advancing) + 1)]

    def test_frozen_sdifp_cloud_is_built_once(self, monkeypatch, ref_cache):
        cfg = TrainConfig(method="sdifp", freeze_cloud=True, **self.TINY)
        assert self._training_clouds(monkeypatch, cfg, ref_cache) == [0]

    def test_refuses_training_cloud_reaching_holdout(self):
        # 2000 epochs of 1e5 points reach the default holdout_skip=1e8 at epoch 1000
        with pytest.raises(ConfigError, match="held-out"):
            run_training(TrainConfig(method="sdifp", cloud_m=100_000, epochs=2000))

    def test_holdout_check_counts_only_advancing_epochs(self):
        from cpl.trainer import _check_holdout_disjoint
        base = dict(method="sdifp", cloud_m=100_000, holdout_skip=100_000_000)
        # the last of 1000 epochs ends exactly at index 1e8
        _check_holdout_disjoint(TrainConfig(epochs=1000, **base))
        with pytest.raises(ConfigError):
            _check_holdout_disjoint(TrainConfig(epochs=1001, **base))
        _check_holdout_disjoint(TrainConfig(epochs=2000, moment_refresh=2, **base))
        _check_holdout_disjoint(TrainConfig(epochs=2000, freeze_cloud=True, **base))
        for method in ("vanilla", "soft", "discrete_proj"):
            _check_holdout_disjoint(TrainConfig(epochs=2000, **{**base, "method": method}))
        with pytest.raises(ConfigError):
            _check_holdout_disjoint(TrainConfig(method="sdifp", holdout_skip=0))


class TestAdditionalContracts:
    def test_single_term_problem_dsuge_equals_full(self):
        # d=1 drift-diffusion has exactly one (i, j) pair, so subset sampling
        # cannot do anything
        prob = make_problem("fokker_planck_linear_nd", dim=1)
        assert prob.n_terms == 1
        targets = prob.domain_averaged_targets()
        net_cfg, params = _params(1, seed=21)
        cloud = spatial_cloud(128, prob.domain, skip=0)
        uge = TrainConfig(problem="fokker_planck_linear_nd", dim=1, method="sdifp",
                          estimator="ds_uge", size_i=1, size_j=1, batch_n=8,
                          cloud_m=128, n_time_slices=1, n_ic=8, n_bc=8, width=6,
                          hidden_layers=2, seed=21).validate()
        full = dataclasses.replace(uge, estimator="full").validate()
        g1, _, _ = step_sdifp(params, prob, uge, plan_step(prob, uge, RngSet(22)),
                              cloud.points, targets)
        g2, _, _ = step_sdifp(params, prob, full, plan_step(prob, full, RngSet(22)),
                              cloud.points, targets)
        assert np.array_equal(g1, g2)

    def test_gradients_pass_fd_after_50_steps(self, advection_table):
        # train briefly, then re-check the gradient of each method against
        # directional finite differences at the reached parameters
        prob = _prob_with_table("advection1d", advection_table)
        targets = prob.domain_averaged_targets()
        tc = TrainConfig(problem="advection1d", method="sdifp", estimator="full",
                         epochs=50, batch_n=64, cloud_m=64, n_time_slices=1,
                         n_ic=64, n_bc=8, width=6, hidden_layers=2, seed=17,
                         eval_every=1000, eval_cloud=128, ref_nx=128,
                         freeze_cloud=True)
        res = run_training(tc)
        params = res.params
        net_cfg = NetworkConfig(in_dim=2, hidden_layers=2, width=6, seed=17)
        cloud = spatial_cloud(64, prob.domain, skip=0)
        plan = plan_step(prob, tc, RngSet(23))
        plan.slices = [cloud.points.copy()]
        plan.ic_X = cloud.points.copy()
        g, _, _ = step_sdifp(params, prob, tc, plan, cloud.points, targets)
        rng = np.random.default_rng(8)
        for _ in range(2):
            v = rng.standard_normal(params.flat.size)
            v /= np.linalg.norm(v)
            h = 1e-6

            def f(theta):
                return sdifp_coupled_objective(MLPParams(net_cfg, theta.copy()),
                                               prob, tc, plan, cloud.points, targets)

            fd = (f(params.flat + h * v) - f(params.flat - h * v)) / (2 * h)
            assert abs(float(g @ v) - fd) / max(1e-9, abs(fd)) <= 1e-5
