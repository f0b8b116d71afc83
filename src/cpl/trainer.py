"""Training steps for all methods, the Adam loop, and metric evaluation.

The projected method treats its update in gradient form: the forward residual
factor is evaluated value-only on an index subset J, the backward factor is
tape-recorded on an independent subset I, and the two are combined per
collocation point.  The projection scalars (alpha, beta) of every time slice
enter the tape as leaves; their adjoints, weighted by the analytical
Jacobians, drive a second reverse sweep over the slice's mini-batch moment
nodes, which realizes the implicit gradient channel without ever recording
the detached quadrature cloud.

Every random draw of a step lives in a StepPlan, so a step is a
deterministic function of (parameters, plan) and oracle tests can replay it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dfield

import numpy as np

from . import pde as pdemod
from .autodiff import Tape
from .baselines import preflight_grid, uniform_grid
from .errors import ConfigError, NumericalAbort
from .net import (ArrayNet, MLPParams, NetField, NetworkConfig, TapeNet,
                  forward_array, init_params)
from .pde import PDEProblem, boundary_groups, neumann_loss, residual_sampled
from .projection import (AffineField, estimate_moments, moments_at_times,
                         projection_jacobians, solve_affine)
from .sampler import SeededRng, sample_subsets, spatial_cloud

METHODS = ("vanilla", "soft", "discrete_proj", "sdifp")
ESTIMATORS = ("full", "ds_uge", "soo")


@dataclass
class TrainConfig:
    problem: str = "advection1d"
    method: str = "sdifp"
    estimator: str = "full"
    epochs: int = 2000
    lr0: float = 1e-3
    batch_n: int = 100
    cloud_m: int = 10_000
    size_i: int = 0              # 0 means the full index set
    size_j: int = 0
    n_time_slices: int = 8
    lam_soft: float = 1.0
    seed: int = 0
    dim: int = 0                 # spatial dimension for the *_nd families
    fold_pairs: bool = False     # fold symmetric operator pairs (halves the term count)
    width: int = 128
    hidden_layers: int = 4
    n_ic: int = 64
    n_bc: int = 64
    w_ic: float = 10.0
    w_bc: float = 1.0
    freeze_cloud: bool = False   # keep one detached cloud for the whole run
    moment_refresh: int = 1      # re-estimate detached moments every k steps
    proj_mode: str = "cloud"     # discrete_proj support: "grid" | "cloud"
    proj_support: int = 100      # support points for the discrete projection
    proj_backprop: bool = True   # differentiate through the discrete projection
    eval_every: int = 100
    eval_cloud: int = 10_000
    holdout_skip: int = 100_000_000
    ref_nx: int = 0              # 0 picks the per-problem default
    timing: bool = False         # write wall-clock seconds into the metrics CSV

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"estimator must be one of {ESTIMATORS}")
        if self.method != "sdifp" and self.estimator != "full":
            raise ConfigError("index-subset estimators apply to the sdifp method only")
        if self.epochs < 1 or self.batch_n < 1:
            raise ConfigError("epochs and batch size must be positive")
        if self.proj_mode not in ("grid", "cloud"):
            raise ConfigError("proj_mode must be 'grid' or 'cloud'")
        return self


@dataclass
class OptimizerState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def fresh(cls, n):
        return cls(m=np.zeros(n), v=np.zeros(n), step=0)


def adam_update(state: OptimizerState, params: MLPParams, grad, lr,
                beta1=0.9, beta2=0.999, eps=1e-8) -> MLPParams:
    """One Adam step (bias-corrected); returns new parameters."""
    if grad.shape != params.flat.shape:
        raise ConfigError("gradient / parameter shape mismatch")
    state.step += 1
    state.m = beta1 * state.m + (1.0 - beta1) * grad
    state.v = beta2 * state.v + (1.0 - beta2) * (grad * grad)
    mhat = state.m / (1.0 - beta1 ** state.step)
    vhat = state.v / (1.0 - beta2 ** state.step)
    new_flat = params.flat - lr * mhat / (np.sqrt(vhat) + eps)
    return MLPParams(params.config, new_flat)


def lr_schedule(lr0, epoch, epochs):
    """Linear decay from lr0 to zero over the run."""
    return lr0 * (1.0 - epoch / epochs)


@dataclass
class MetricsRecord:
    epoch: int
    loss: float
    error_u: float
    error_c1: float
    error_c2: float
    tape_nodes: int
    seconds: float
    affine_table: list = None     # (t, alpha, beta) on the evaluation time grid


@dataclass
class StepDiagnostics:
    loss: float
    loss_pde: float
    loss_ic: float
    loss_bc: float
    tape_nodes: int
    slice_times: list
    affines: list = dfield(default_factory=list)
    proj_residuals: list = dfield(default_factory=list)
    value_evals: int = 0


class RngSet:
    """Named deterministic streams derived from one seed."""

    def __init__(self, seed):
        self.colloc = SeededRng(seed, 1)
        self.times = SeededRng(seed, 2)
        self.subsets = SeededRng(seed, 3)
        self.icbc = SeededRng(seed, 4)
        self.proj = SeededRng(seed, 5)
        self.eval = SeededRng(seed, 6)


def sample_interior(domain, n, rng):
    lo = np.asarray(domain.lower)
    hi = np.asarray(domain.upper)
    return lo + rng.uniform((n, domain.dim)) * (hi - lo)


def _slice_layout(n, n_slices):
    n_slices = max(1, min(n_slices, n))
    sizes = np.full(n_slices, n // n_slices)
    sizes[: n % n_slices] += 1
    return sizes


def _finite(vec, what):
    if not np.all(np.isfinite(vec)):
        raise NumericalAbort(f"non-finite {what}")
    return vec


@dataclass
class StepPlan:
    """Every random draw a step consumes, fixed up front."""

    ts: np.ndarray                # residual slice times
    slices: list                  # spatial point batch per slice
    ic_X: np.ndarray
    bc_assign: dict               # slice index -> [(coord, points)]
    I: np.ndarray
    J: np.ndarray
    proj_support: list = None     # per-slice support for discrete_proj (incl. t=0 first)
    batch_n: int = 0


def plan_step(problem: PDEProblem, cfg: TrainConfig, rngs: RngSet,
              fixed_ts=None) -> StepPlan:
    n_l = problem.n_terms
    size_i = cfg.size_i or n_l
    size_j = cfg.size_j or n_l
    if cfg.method != "sdifp" or cfg.estimator == "full":
        I = J = np.arange(n_l)
    elif cfg.estimator == "ds_uge":
        I, J = sample_subsets(n_l, size_i, size_j, rngs.subsets)
    else:  # soo reuses one draw for both factors
        I, _ = sample_subsets(n_l, size_i, size_i, rngs.subsets)
        J = I

    sizes = _slice_layout(cfg.batch_n, cfg.n_time_slices)
    if fixed_ts is not None:
        ts = np.asarray(fixed_ts)[: len(sizes)]
    else:
        ts = np.sort(rngs.times.uniform((len(sizes),))) * problem.t_final
    X = sample_interior(problem.domain, cfg.batch_n, rngs.colloc)
    slices = []
    off = 0
    for bs in sizes:
        slices.append(X[off:off + bs])
        off += bs
    ic_X = sample_interior(problem.domain, cfg.n_ic, rngs.icbc)
    bc_all = boundary_groups(problem.domain, cfg.n_bc, rngs.icbc)
    bc_assign = {s: [] for s in range(len(sizes))}
    for gi, (coord, pts) in enumerate(sorted(bc_all.items())):
        bc_assign[gi % len(sizes)].append((coord, pts))

    supports = None
    if cfg.method == "discrete_proj":
        supports = []
        vol = problem.domain.volume
        if cfg.proj_mode == "grid":
            per_dim = max(2, int(round(cfg.proj_support ** (1.0 / problem.d))))
            preflight_grid((per_dim,) * problem.d)
            pts, spec = uniform_grid(problem.domain, (per_dim,) * problem.d)
            supports = [(pts, spec.dv)] * (len(sizes) + 1)
        else:
            for _ in range(len(sizes) + 1):
                pts = sample_interior(problem.domain, cfg.proj_support, rngs.proj)
                supports.append((pts, vol / cfg.proj_support))
    return StepPlan(ts=ts, slices=slices, ic_X=ic_X, bc_assign=bc_assign,
                    I=np.asarray(I), J=np.asarray(J), proj_support=supports,
                    batch_n=cfg.batch_n)


# -- projected-method step -----------------------------------------------------


def step_sdifp(params, problem, cfg, plan: StepPlan, smc_points, targets,
               moments_all=None):
    """One gradient estimate of the projected method: (gradient, diagnostics)."""
    all_times = np.concatenate([[0.0], plan.ts])
    if moments_all is None:
        moments_all = moments_at_times(params, smc_points, all_times)
    affines = [solve_affine(mo, targets) for mo in moments_all]
    jacs = [projection_jacobians(mo, af) for mo, af in zip(moments_all, affines)]

    tape = Tape()
    tn = TapeNet(tape, params)
    anet = ArrayNet(params)

    slice_records = []
    loss_pde = 0.0
    value_evals = 0

    # initial-condition slice at t = 0
    a0 = tape.leaf(affines[0].alpha)
    b0 = tape.leaf(affines[0].beta)
    ic_base = NetField(tn, plan.ic_X, 0.0)
    ic_field = AffineField(ic_base, a0, b0)
    l_ic = pdemod.ic_loss(problem, ic_field, plan.ic_X)
    obj = cfg.w_ic * l_ic
    slice_records.append((a0, b0, tape.mean(ic_base.value()),
                          tape.mean(ic_base.value().pow2()), jacs[0]))

    l_bc_acc = None
    for s, Xs in enumerate(plan.slices):
        t_s = float(plan.ts[s])
        af = affines[s + 1]
        a_v = tape.leaf(af.alpha)
        b_v = tape.leaf(af.beta)

        base = NetField(tn, Xs, t_s)
        fld = AffineField(base, a_v, b_v)

        g_bwd = residual_sampled(problem, fld, plan.I, X=Xs, t=t_s)   # tape node (Bs,)
        if np.array_equal(plan.I, plan.J):
            # sampling-once: the forward factor reuses the recorded values
            f_fwd = np.array(g_bwd.value)
        else:
            vfld = AffineField(NetField(anet, Xs, t_s), af.alpha, af.beta)
            f_fwd = residual_sampled(problem, vfld, plan.J, X=Xs, t=t_s)  # detached
            value_evals += len(plan.J)
        _finite(f_fwd, "forward residual factor")
        obj = obj + tape.sum(g_bwd * f_fwd) * (1.0 / plan.batch_n)
        loss_pde += float((f_fwd * f_fwd).sum()) / plan.batch_n

        slice_records.append((a_v, b_v, tape.mean(base.value()),
                              tape.mean(base.value().pow2()), jacs[s + 1]))

        for coord, pts in plan.bc_assign.get(s, ()):
            bfld = AffineField(NetField(tn, pts, t_s), a_v, b_v)
            lb = neumann_loss(bfld, coord) * (pts.shape[0] / cfg.n_bc)
            l_bc_acc = lb if l_bc_acc is None else l_bc_acc + lb

    if l_bc_acc is not None:
        obj = obj + cfg.w_bc * l_bc_acc

    adj = tape.backward(obj)
    g_direct = tn.grad(adj)

    # implicit channel: adjoints of the projection scalars, pushed through the
    # analytical Jacobians onto the mini-batch moment nodes, one extra sweep
    obj2 = None
    for a_v, b_v, mu1_n, mu2_n, jac in slice_records:
        a_adj = adj[a_v.idx]
        b_adj = adj[b_v.idx]
        a_adj = 0.0 if a_adj is None else float(a_adj)
        b_adj = 0.0 if b_adj is None else float(b_adj)
        w1 = a_adj * jac.da_dmu1 + b_adj * jac.db_dmu1
        w2 = a_adj * jac.da_dmu2 + b_adj * jac.db_dmu2
        term = mu1_n * w1 + mu2_n * w2
        obj2 = term if obj2 is None else obj2 + term
    g_implicit = tn.grad(tape.backward(obj2))

    grad = _finite(g_direct + g_implicit, "sdifp gradient")
    l_ic_v = float(l_ic.value)
    l_bc_v = 0.0 if l_bc_acc is None else float(l_bc_acc.value)
    diag = StepDiagnostics(loss=loss_pde + cfg.w_ic * l_ic_v + cfg.w_bc * l_bc_v,
                           loss_pde=loss_pde, loss_ic=l_ic_v, loss_bc=l_bc_v,
                           tape_nodes=tape.num_slots, slice_times=list(all_times),
                           affines=affines, value_evals=value_evals)
    return grad, diag, moments_all


def step_soo(params, problem, cfg, plan, smc_points, targets, moments_all=None):
    """Sampling-once variant; the plan must carry I == J (estimator 'soo')."""
    return step_sdifp(params, problem, cfg, plan, smc_points, targets, moments_all)


def sdifp_coupled_objective(params, problem, cfg, plan, smc_points, targets):
    """Value of the fully-coupled scalar map: 0.5 mean r^2 + weighted IC/BC.

    Everything value-mode with the projection re-solved from the detached
    moments at the given parameters; finite differences of this map are the
    oracle for the step gradient when I = J = full and the slice batches
    coincide with the moment-gradient batches.
    """
    all_times = np.concatenate([[0.0], plan.ts])
    moments_all = moments_at_times(params, smc_points, all_times)
    affines = [solve_affine(mo, targets) for mo in moments_all]
    anet = ArrayNet(params)

    ic_field = AffineField(NetField(anet, plan.ic_X, 0.0), affines[0].alpha, affines[0].beta)
    total = cfg.w_ic * pdemod.ic_loss(problem, ic_field, plan.ic_X)
    for s, Xs in enumerate(plan.slices):
        t_s = float(plan.ts[s])
        af = affines[s + 1]
        vfld = AffineField(NetField(anet, Xs, t_s), af.alpha, af.beta)
        r = residual_sampled(problem, vfld, plan.J, X=Xs, t=t_s)
        total += 0.5 * float((r * r).sum()) / plan.batch_n
        for coord, pts in plan.bc_assign.get(s, ()):
            bfld = AffineField(NetField(anet, pts, t_s), af.alpha, af.beta)
            total += cfg.w_bc * neumann_loss(bfld, coord) * (pts.shape[0] / cfg.n_bc)
    return float(total)


# -- baseline steps --------------------------------------------------------------


def _discrete_projection_scalars(tape, tn, problem, targets, t_s, support, backprop):
    """(a, b) of the support-coupled combined projection, recorded on the tape."""
    pts, dv = support
    vol = problem.domain.volume
    n = pts.shape[0]
    c1, c2, _ = targets.at(t_s)
    c1 *= vol
    c2 *= vol
    radius2 = c2 / dv - c1 * c1 / (n * dv * dv)
    if radius2 <= 0.0:
        raise NumericalAbort("infeasible combined-projection targets during training")
    u_sup = NetField(tn, pts, t_s).value()
    mu = tape.mean(u_sup)
    centered = u_sup - mu
    den = tape.sum(centered.pow2())
    if float(den.value) <= 1e-300:
        raise NumericalAbort("degenerate (zero-variance) projection support")
    a_v = (radius2 / den).sqrt()
    b_v = c1 / (n * dv) - a_v * mu
    if not backprop:
        a_v = float(a_v.value)
        b_v = float(b_v.value)
    return a_v, b_v


def step_baseline(params, problem, cfg, plan: StepPlan, targets=None):
    """Full-tape gradient of the composite loss for vanilla / soft / discrete_proj."""
    method = cfg.method
    tape = Tape()
    tn = TapeNet(tape, params)
    vol = problem.domain.volume

    def field_at(pts, t_s, proj_ab):
        base = NetField(tn, pts, t_s)
        if proj_ab is None:
            return base
        return AffineField(base, proj_ab[0], proj_ab[1])

    proj0 = None
    if method == "discrete_proj":
        proj0 = _discrete_projection_scalars(tape, tn, problem, targets, 0.0,
                                             plan.proj_support[0], cfg.proj_backprop)
    ic_field = field_at(plan.ic_X, 0.0, proj0)
    l_ic = pdemod.ic_loss(problem, ic_field, plan.ic_X)
    obj = cfg.w_ic * l_ic

    loss_pde_node = None
    l_bc_acc = None
    soft_pen = None
    proj_residuals = []
    for s, Xs in enumerate(plan.slices):
        t_s = float(plan.ts[s])
        proj_ab = None
        if method == "discrete_proj":
            support = plan.proj_support[s + 1]
            proj_ab = _discrete_projection_scalars(tape, tn, problem, targets, t_s,
                                                   support, cfg.proj_backprop)
            av = proj_ab[0] if isinstance(proj_ab[0], float) else float(proj_ab[0].value)
            bv = proj_ab[1] if isinstance(proj_ab[1], float) else float(proj_ab[1].value)
            sup_pts, dv = support
            u_sup = forward_array(params, np.concatenate(
                [sup_pts, np.full((sup_pts.shape[0], 1), t_s)], axis=1))
            y = av * u_sup + bv
            c1t, c2t, _ = targets.at(t_s)
            proj_residuals.append((abs(dv * y.sum() - c1t * vol),
                                   abs(dv * (y * y).sum() - c2t * vol)))
        fld = field_at(Xs, t_s, proj_ab)
        r = residual_sampled(problem, fld, range(problem.n_terms), X=Xs, t=t_s)
        chunk = tape.sum(r.pow2()) * (1.0 / plan.batch_n)
        loss_pde_node = chunk if loss_pde_node is None else loss_pde_node + chunk

        if method == "soft":
            raw = NetField(tn, Xs, t_s)
            u = raw.value()
            c1_hat = tape.mean(u) * vol
            c2_hat = tape.mean(u.pow2()) * vol
            c1t, c2t, _ = targets.at(t_s)
            pen = (c1_hat - c1t * vol).pow2() + (c2_hat - c2t * vol).pow2()
            soft_pen = pen if soft_pen is None else soft_pen + pen

        for coord, pts in plan.bc_assign.get(s, ()):
            bfld = field_at(pts, t_s, proj_ab)
            lb = neumann_loss(bfld, coord) * (pts.shape[0] / cfg.n_bc)
            l_bc_acc = lb if l_bc_acc is None else l_bc_acc + lb

    obj = obj + loss_pde_node
    if l_bc_acc is not None:
        obj = obj + cfg.w_bc * l_bc_acc
    if soft_pen is not None:
        obj = obj + soft_pen * (cfg.lam_soft / len(plan.slices))

    adj = tape.backward(obj)
    grad = _finite(tn.grad(adj), f"{method} gradient")
    diag = StepDiagnostics(loss=float(obj.value), loss_pde=float(loss_pde_node.value),
                           loss_ic=float(l_ic.value),
                           loss_bc=0.0 if l_bc_acc is None else float(l_bc_acc.value),
                           tape_nodes=tape.num_slots,
                           slice_times=[0.0] + list(plan.ts),
                           proj_residuals=proj_residuals)
    return grad, diag


def memory_account(diagnostics) -> int:
    """Peak tape slots over the step diagnostics collected so far."""
    if isinstance(diagnostics, StepDiagnostics):
        return diagnostics.tape_nodes
    return max(d.tape_nodes for d in diagnostics)


# -- evaluation -------------------------------------------------------------------


def projection_provider(params, problem, cfg, targets, smc_points, rngs):
    """Per-method map t -> (alpha, beta) used at evaluation time.

    The projected method solves the closed form from detached moments over
    the training cloud; discrete_proj recomputes its support-coupled scalars
    the way training does (fresh random support in cloud mode); the
    unprojected methods return the identity.
    """
    vol = problem.domain.volume
    if cfg.method == "sdifp":
        def provide(t):
            af = solve_affine(estimate_moments(params, smc_points, t), targets)
            return af.alpha, af.beta
        return provide
    if cfg.method == "discrete_proj":
        grid_support = None
        if cfg.proj_mode == "grid":
            per_dim = max(2, int(round(cfg.proj_support ** (1.0 / problem.d))))
            pts, spec = uniform_grid(problem.domain, (per_dim,) * problem.d)
            grid_support = (pts, spec.dv)

        def provide(t):
            if grid_support is not None:
                sup, sup_dv = grid_support
            else:
                sup = sample_interior(problem.domain, cfg.proj_support, rngs.eval)
                sup_dv = vol / cfg.proj_support
            u = forward_array(params, np.concatenate(
                [sup, np.full((sup.shape[0], 1), float(t))], axis=1))
            n = u.size
            c1, c2, _ = targets.at(t)
            c1 *= vol
            c2 *= vol
            mu = u.mean()
            den = float(((u - mu) ** 2).sum())
            radius2 = c2 / sup_dv - c1 * c1 / (n * sup_dv * sup_dv)
            if radius2 <= 0.0 or den <= 0.0:
                raise NumericalAbort("projection degenerate at evaluation")
            a = np.sqrt(radius2 / den)
            return a, c1 / (n * sup_dv) - a * mu
        return provide

    return lambda t: (1.0, 0.0)


def evaluate(params, problem, cfg, targets, smc_points, rngs, reference=None,
             epoch=0, tape_nodes=0, seconds=0.0, n_time_grid=64) -> MetricsRecord:
    """Error metrics on a held-out cloud and, when available, a reference grid."""
    provide = projection_provider(params, problem, cfg, targets, smc_points, rngs)
    vol = problem.domain.volume
    holdout = spatial_cloud(cfg.eval_cloud, problem.domain, kind="sobol",
                            skip=cfg.holdout_skip)
    tgrid = np.linspace(0.0, problem.t_final, n_time_grid)
    e1 = 0.0
    e2 = 0.0
    m = holdout.points.shape[0]
    table = []
    for t in tgrid:
        a, b = provide(t)
        table.append((float(t), float(a), float(b)))
        u = forward_array(params, np.concatenate(
            [holdout.points, np.full((m, 1), t)], axis=1))
        ut = a * u + b
        c1_hat = vol * ut.mean()
        c2_hat = vol * (ut * ut).mean()
        c1, c2 = problem.invariant_targets(t)
        e1 += abs(c1_hat - c1)
        e2 += abs(c2_hat - c2)
    error_c1 = e1 / len(tgrid)
    error_c2 = e2 / len(tgrid)

    error_u = float("nan")
    if reference is not None:
        times_idx = np.unique(np.linspace(0, len(reference.ts) - 1, 9).astype(int))
        G = reference.grid_points
        num = 0.0
        den = 0.0
        for k in times_idx:
            t = reference.ts[k]
            a, b = provide(t)
            u = forward_array(params, np.concatenate(
                [G, np.full((G.shape[0], 1), t)], axis=1))
            ut = a * u + b
            truth = reference.snaps[k].reshape(-1)
            num += float(((ut - truth) ** 2).sum())
            den += float((truth ** 2).sum())
        error_u = float(np.sqrt(num / den))

    return MetricsRecord(epoch=epoch, loss=0.0, error_u=error_u,
                         error_c1=error_c1, error_c2=error_c2,
                         tape_nodes=tape_nodes, seconds=seconds, affine_table=table)


# -- run orchestration --------------------------------------------------------------


DEFAULT_REFERENCE_NX = {"advection1d": 1024, "advection2d": 96,
                        "reaction_diffusion1d": 512, "wave1d": 512, "kdv1d": 256}


def build_problem(cfg: TrainConfig) -> PDEProblem:
    kwargs = {}
    if cfg.problem.endswith("_nd"):
        if cfg.dim < 1:
            raise ConfigError(f"problem {cfg.problem} needs --dim")
        kwargs["dim"] = cfg.dim
        if cfg.problem == "fokker_planck_linear_nd":
            kwargs["fold_symmetric_pairs"] = cfg.fold_pairs
    return pdemod.make_problem(cfg.problem, **kwargs)


def ensure_reference(problem, cfg, cache_dir=None):
    """Solve (or load) the reference the problem's targets and Error_u need."""
    from . import refsolve
    if problem.name not in DEFAULT_REFERENCE_NX:
        if problem.needs_invariant_table():
            raise ConfigError(f"no reference solver available for {problem.name}")
        return None
    nx = cfg.ref_nx or DEFAULT_REFERENCE_NX[problem.name]
    dt = refsolve.suggest_dt(problem, nx)
    ref = refsolve.solve_reference(problem, nx=nx, dt=dt, cache_dir=cache_dir)
    if problem.needs_invariant_table():
        problem.attach_invariant_table(refsolve.invariant_table(ref))
    return ref


@dataclass
class TrainResult:
    params: MLPParams
    metrics: list
    affine_table: list            # rows (t, alpha, beta)
    config: TrainConfig
    max_tape_nodes: int
    problem: PDEProblem = None


def run_training(cfg: TrainConfig, reference="auto", cache_dir=None,
                 log=None) -> TrainResult:
    cfg.validate()
    problem = build_problem(cfg)
    if reference == "auto":
        reference = ensure_reference(problem, cfg, cache_dir=cache_dir)
    targets = problem.domain_averaged_targets()
    net_cfg = NetworkConfig(in_dim=problem.d + 1, hidden_layers=cfg.hidden_layers,
                            width=cfg.width, seed=cfg.seed)
    params = init_params(net_cfg)
    rngs = RngSet(cfg.seed)
    opt = OptimizerState.fresh(params.flat.size)

    smc_skip = 0
    smc = spatial_cloud(cfg.cloud_m, problem.domain, kind="sobol", skip=smc_skip)

    metrics = []
    max_nodes = 0
    moments_cache = None
    fixed_ts = None
    t_start = time.perf_counter()
    for epoch in range(cfg.epochs):
        refresh = (epoch % max(1, cfg.moment_refresh) == 0)
        # the cloud only advances when moments are re-estimated, so cached
        # moments always describe the cloud in use
        if (not cfg.freeze_cloud and epoch > 0
                and (cfg.method != "sdifp" or refresh)):
            smc_skip += cfg.cloud_m
            smc = spatial_cloud(cfg.cloud_m, problem.domain, kind="sobol", skip=smc_skip)
        if cfg.method == "sdifp":
            plan = plan_step(problem, cfg, rngs,
                             fixed_ts=None if refresh else fixed_ts)
            grad, diag, moments = step_sdifp(
                params, problem, cfg, plan, smc.points, targets,
                moments_all=None if refresh else moments_cache)
            if refresh:
                moments_cache = moments
                fixed_ts = plan.ts
        else:
            plan = plan_step(problem, cfg, rngs)
            grad, diag = step_baseline(params, problem, cfg, plan, targets=targets)
        max_nodes = max(max_nodes, diag.tape_nodes)
        lr = lr_schedule(cfg.lr0, epoch, cfg.epochs)
        params = adam_update(opt, params, grad, lr)

        last = epoch == cfg.epochs - 1
        if (epoch % cfg.eval_every == 0) or last:
            elapsed = time.perf_counter() - t_start
            rec = evaluate(params, problem, cfg, targets, smc.points, rngs,
                           reference=reference, epoch=epoch,
                           tape_nodes=diag.tape_nodes,
                           seconds=elapsed if cfg.timing else 0.0)
            rec.loss = diag.loss
            metrics.append(rec)
            if log:
                log(f"epoch {epoch:6d}  loss {rec.loss:.3e}  err_u {rec.error_u:.3e}  "
                    f"err_c1 {rec.error_c1:.3e}  err_c2 {rec.error_c2:.3e}  "
                    f"tape {rec.tape_nodes}  [{elapsed:.1f}s]")

    # the last evaluate() solved this table at the final parameters and cloud;
    # only discrete_proj draws fresh supports per solve, so it solves again
    affine_table = metrics[-1].affine_table
    if cfg.method == "discrete_proj":
        tgrid = np.linspace(0.0, problem.t_final, 64)
        provide = projection_provider(params, problem, cfg, targets, smc.points, rngs)
        affine_table = [(float(t),) + tuple(map(float, provide(t))) for t in tgrid]
    return TrainResult(params=params, metrics=metrics, affine_table=affine_table,
                       config=cfg, max_tape_nodes=max_nodes, problem=problem)
