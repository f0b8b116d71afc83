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

import functools
import time
from dataclasses import dataclass, field as dfield

import numpy as np

from . import pde as pdemod
from .autodiff import Tape
from .baselines import combined_scalars, riemann_invariants, uniform_grid
from .errors import ConfigError, IllPosedTargets, NumericalAbort
# forward_array and estimate_moments stay names of this module, which
# bench/probe.py wraps in its traced runs
from .net import (ArrayNet, MLPParams, NetField, NetworkConfig, TapeNet,  # noqa: F401
                  forward_array, forward_segments, init_params)
from .pde import PDEProblem, boundary_groups, neumann_loss, residual_sampled, scaled
from .projection import (AffineField, estimate_moments, moments_at_times,  # noqa: F401
                         moments_of, projection_jacobians, solve_affine)
from .sampler import SeededRng, sample_interior, sample_subsets, spatial_cloud

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
        if min(self.epochs, self.batch_n, self.eval_every, self.n_ic, self.eval_cloud,
               self.n_time_slices, self.moment_refresh) < 1:
            raise ConfigError("epochs, batch_n, eval_every, n_ic, eval_cloud, n_time_slices "
                              "and moment_refresh must be positive")
        if min(self.cloud_m, self.proj_support) < 2:
            raise ConfigError("cloud_m and proj_support must be at least 2")
        if min(self.size_i, self.size_j) < 0:
            raise ConfigError("size_i and size_j must not be negative")
        if self.proj_mode not in ("grid", "cloud"):
            raise ConfigError("proj_mode must be 'grid' or 'cloud'")
        if self.ref_nx != 0 and self.ref_nx < 2:
            raise ConfigError("ref_nx must be 0 (the per-problem default) or at least 2")
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
    tape_nodes: int
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


def _slice_layout(n, n_slices):
    n_slices = min(n_slices, n)
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


def _grid_support(problem: PDEProblem, cfg: TrainConfig):
    """(points, dv) of the uniform grid closest to cfg.proj_support points."""
    per_dim = max(2, int(round(cfg.proj_support ** (1.0 / problem.d))))
    pts, spec = uniform_grid(problem.domain, (per_dim,) * problem.d)
    return pts, spec.dv


def _cloud_support(problem: PDEProblem, cfg: TrainConfig, rng):
    """(points, dv) of a fresh random support of cfg.proj_support points."""
    pts = sample_interior(problem.domain, cfg.proj_support, rng)
    return pts, problem.domain.volume / cfg.proj_support


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
        if cfg.proj_mode == "grid":
            supports = [_grid_support(problem, cfg)] * (len(sizes) + 1)
        else:
            supports = [_cloud_support(problem, cfg, rngs.proj)
                        for _ in range(len(sizes) + 1)]
    return StepPlan(ts=ts, slices=slices, ic_X=ic_X, bc_assign=bc_assign,
                    I=np.asarray(I), J=np.asarray(J), proj_support=supports)


# -- plan walk shared by every step ------------------------------------------------


def record_plan(tn, problem, cfg, plan: StepPlan, project, slice_loss):
    """Record one plan's losses on tn's tape: (objective, l_ic, l_bc, raw).

    ``project(k, t)`` gives the (alpha, beta) of slice k, or None for the raw
    field; slice 0 is the IC slice at t = 0, slice k >= 1 is plan slice k - 1,
    and the projection applies to every field of its slice.  ``slice_loss(s,
    field, X, t)`` records plan slice s's residual loss.  The objective is
    w_ic * l_ic + l_pde + w_bc * l_bc (l_bc is None without boundary points),
    and raw holds each slice's raw field, the IC slice first.
    """
    def field(base, ab):
        return base if ab is None else AffineField(base, *ab)

    ab = project(0, 0.0)
    # a first-order-in-time IC loss reads only the value
    raw = [NetField(tn, plan.ic_X, 0.0, value_only=problem.time_order == 1)]
    l_ic = pdemod.ic_loss(problem, field(raw[0], ab), plan.ic_X)
    l_pde = l_bc = None
    for s, Xs in enumerate(plan.slices):
        t_s = float(plan.ts[s])
        ab = project(s + 1, t_s)
        raw.append(NetField(tn, Xs, t_s))
        chunk = slice_loss(s, field(raw[-1], ab), Xs, t_s)
        l_pde = chunk if l_pde is None else l_pde + chunk
        for coord, pts in plan.bc_assign.get(s, ()):
            lb = scaled(pts.shape[0] / cfg.n_bc,
                        neumann_loss(field(NetField(tn, pts, t_s), ab), coord))
            l_bc = lb if l_bc is None else l_bc + lb
    obj = scaled(cfg.w_ic, l_ic) + l_pde
    if l_bc is not None:
        obj = obj + scaled(cfg.w_bc, l_bc)
    return obj, l_ic, l_bc, raw


# -- projected-method step -----------------------------------------------------


def step_sdifp(params, problem, cfg, plan: StepPlan, smc_points, targets,
               moments_all=None):
    """One gradient estimate of the projected method: (gradient, diagnostics, moments)."""
    if moments_all is None:
        moments_all = moments_at_times(params, smc_points, np.concatenate([[0.0], plan.ts]))
    affines = [solve_affine(mo, targets) for mo in moments_all]
    tape = Tape()
    tn = TapeNet(tape, params)
    anet = ArrayNet(params)
    leaves = []                   # (alpha, beta) leaves per slice, the IC slice first
    loss_pde, value_evals = 0.0, 0

    def project(k, t):
        # beta is recorded on its first read, in the place held for it here
        alpha, at = tape.leaf(affines[k].alpha), tape.hold()
        leaves.append((alpha, at))
        return alpha, functools.cache(lambda: tape.leaf(affines[k].beta, at=at))

    def slice_loss(s, fld, X, t):
        nonlocal loss_pde, value_evals
        g_bwd = residual_sampled(problem, fld, plan.I)  # tape node (Bs,)
        if np.array_equal(plan.I, plan.J):
            # sampling-once: the forward factor reuses the recorded values
            f_fwd = np.array(g_bwd.value)
        else:
            af = affines[s + 1]
            vfld = AffineField(NetField(anet, X, t), af.alpha, af.beta)
            f_fwd = residual_sampled(problem, vfld, plan.J)  # detached
            value_evals += len(plan.J)
        _finite(f_fwd, "forward residual factor")
        loss_pde += float((f_fwd * f_fwd).sum()) / cfg.batch_n
        return scaled(1.0 / cfg.batch_n, tape.sum(g_bwd * f_fwd))

    obj, l_ic, l_bc, raw = record_plan(tn, problem, cfg, plan, project, slice_loss)
    adj = tape.backward(obj)
    grad = tn.grad(adj)

    # implicit channel: adjoints of the projection scalars, pushed through the
    # analytical Jacobians onto the mini-batch moment nodes, one extra sweep;
    # the first sweep never reaches these nodes, so they are recorded after it
    obj2 = None
    for (a_v, b_v), base, mo, af in zip(leaves, raw, moments_all, affines):
        jac = projection_jacobians(mo, af)
        a_adj, b_adj = (0.0 if adj[v.idx] is None else float(adj[v.idx]) for v in (a_v, b_v))
        mu1 = tape.mean(base.value())
        mu2 = tape.mean(base.value().pow2())
        term = (mu1 * (a_adj * jac.da_dmu1 + b_adj * jac.db_dmu1)
                + mu2 * (a_adj * jac.da_dmu2 + b_adj * jac.db_dmu2))
        obj2 = term if obj2 is None else obj2 + term
    grad += tn.grad(tape.backward(obj2))

    l_bc = 0.0 if l_bc is None else float(l_bc.value)
    diag = StepDiagnostics(loss=loss_pde + cfg.w_ic * float(l_ic.value) + cfg.w_bc * l_bc,
                           tape_nodes=tape.num_slots, value_evals=value_evals)
    return _finite(grad, "sdifp gradient"), diag, moments_all


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
        r = residual_sampled(problem, vfld, plan.J)
        total += 0.5 * float((r * r).sum()) / cfg.batch_n
        for coord, pts in plan.bc_assign.get(s, ()):
            bfld = AffineField(NetField(anet, pts, t_s), af.alpha, af.beta)
            total += cfg.w_bc * neumann_loss(bfld, coord) * (pts.shape[0] / cfg.n_bc)
    return float(total)


# -- baseline steps --------------------------------------------------------------


def _discrete_projection(net, problem, targets, t_s, support):
    """(a, b) of the support-coupled combined projection of net's values, and
    the constraint residuals of the projected support values.  Over a TapeNet
    (a, b) are tape nodes, over an ArrayNet plain numbers."""
    pts, dv = support
    vol = problem.domain.volume
    c1, c2, _ = targets.at(t_s)
    u = NetField(net, pts, t_s, value_only=True).value()
    ab = combined_scalars(u, dv, c1 * vol, c2 * vol)
    uv = getattr(u, "value", u)
    # on a tape b is recorded only when read; the values' own scalars have
    # the recorded bits
    av, bv = ab if uv is u else combined_scalars(uv, dv, c1 * vol, c2 * vol)
    r1, r2 = riemann_invariants(av * uv + bv, dv)
    return ab, (abs(r1 - c1 * vol), abs(r2 - c2 * vol))


def step_baseline(params, problem, cfg, plan: StepPlan, targets=None):
    """Full-tape gradient of the composite loss for vanilla / soft / discrete_proj."""
    tape = Tape()
    tn = TapeNet(tape, params)
    proj_net = tn if cfg.proj_backprop else ArrayNet(params)
    vol = problem.domain.volume
    proj_residuals = []           # per plan slice, not the IC slice
    soft_pen = None

    def project(k, t):
        if cfg.method != "discrete_proj":
            return None
        ab, res = _discrete_projection(proj_net, problem, targets, t, plan.proj_support[k])
        if k:
            proj_residuals.append(res)
        return ab

    def slice_loss(s, fld, X, t):
        nonlocal soft_pen
        r = residual_sampled(problem, fld, range(problem.n_terms))
        chunk = scaled(1.0 / cfg.batch_n, tape.sum(r.pow2()))
        if cfg.method == "soft":
            u = fld.value()
            c1_hat = tape.mean(u) * vol
            c2_hat = tape.mean(u.pow2()) * vol
            c1t, c2t, _ = targets.at(t)
            pen = (c1_hat - c1t * vol).pow2() + (c2_hat - c2t * vol).pow2()
            soft_pen = pen if soft_pen is None else soft_pen + pen
        return chunk

    obj, *_ = record_plan(tn, problem, cfg, plan, project, slice_loss)
    if soft_pen is not None:
        obj = obj + scaled(cfg.lam_soft / len(plan.slices), soft_pen)
    grad = _finite(tn.grad(tape.backward(obj)), f"{cfg.method} gradient")
    return grad, StepDiagnostics(loss=float(obj.value), tape_nodes=tape.num_slots,
                                 proj_residuals=proj_residuals)


# -- evaluation -------------------------------------------------------------------


# segments per block queue in evaluate(): at desk scale 80,000 rows, whose
# 640 KB of output leave the peak memory as it was; all 64 grid times in one
# queue would hold about 10 MiB more
_GROUP_SEGMENTS = 8


def projection_provider(params, problem, cfg, targets, rngs):
    """Map t -> (alpha, beta) at evaluation time of a method that does not
    solve from the detached cloud.

    discrete_proj recomputes its support-coupled scalars the way training
    does, and solves every call anew, since its cloud mode draws each support
    from rngs.eval; the unprojected methods return the identity.
    """
    if cfg.method == "discrete_proj":
        grid = _grid_support(problem, cfg) if cfg.proj_mode == "grid" else None
        anet = ArrayNet(params)

        def provide(t):
            support = grid or _cloud_support(problem, cfg, rngs.eval)
            return _discrete_projection(anet, problem, targets, t, support)[0]
        return provide

    return lambda t: (1.0, 0.0)


def _grouped(params, segments):
    """The output of each segment, in order, from block queues of at most
    _GROUP_SEGMENTS segments each, run as the outputs are read."""
    for g in range(0, len(segments), _GROUP_SEGMENTS):
        yield from forward_segments(params, segments[g:g + _GROUP_SEGMENTS])


def evaluate(params, problem, cfg, targets, smc_points, rngs, reference=None,
             epoch=0, tape_nodes=0, seconds=0.0, n_time_grid=64) -> MetricsRecord:
    """Error metrics on a held-out cloud and, when available, a reference grid.

    The held-out cloud at each grid time, then the reference grid at each
    reference time, go through block queues in time order.  The projected
    method solves the closed form from detached moments over the training
    cloud, once per time, from a segment placed just before the time's first
    use: a reference time that equals a grid time (0 and T) reuses its
    (alpha, beta).
    """
    vol = problem.domain.volume
    holdout = spatial_cloud(cfg.eval_cloud, problem.domain,
                            skip=cfg.holdout_skip).points
    tgrid = np.linspace(0.0, problem.t_final, n_time_grid)
    # ascending like np.unique, which would import numpy.ma
    times_idx = [] if reference is None else sorted(
        set(np.linspace(0, len(reference.ts) - 1, 9).astype(int).tolist()))
    segments, solved = [], set()
    for t, points in [(t, holdout) for t in tgrid] + [
            (reference.ts[k], reference.grid_points) for k in times_idx]:
        if cfg.method == "sdifp" and t not in solved:
            solved.add(t)
            segments.append((smc_points, t))
        segments.append((points, t))
    outputs = _grouped(params, segments)
    if cfg.method == "sdifp":
        @functools.cache
        def provide(t):
            af = solve_affine(moments_of(next(outputs), [t])[0], targets)
            return af.alpha, af.beta
    else:
        provide = projection_provider(params, problem, cfg, targets, rngs)

    e1 = 0.0
    e2 = 0.0
    table = []
    for t in tgrid:
        a, b = provide(t)
        table.append((float(t), float(a), float(b)))
        ut = a * next(outputs) + b
        c1_hat = vol * ut.mean()
        c2_hat = vol * (ut * ut).mean()
        c1, c2 = problem.invariant_targets(t)
        e1 += abs(c1_hat - c1)
        e2 += abs(c2_hat - c2)
    error_c1 = e1 / len(tgrid)
    error_c2 = e2 / len(tgrid)

    error_u = float("nan")
    if reference is not None:
        num = 0.0
        den = 0.0
        for k in times_idx:
            a, b = provide(reference.ts[k])
            ut = a * next(outputs) + b
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
        # the table interpolates linearly, so between two snapshots
        # c2 - c1^2 is linear minus convex: its minimum lies at a snapshot
        targets = problem.domain_averaged_targets()
        try:
            for t in ref.ts:
                targets.at(float(t))
        except IllPosedTargets as exc:
            raise ConfigError(f"--ref-nx {nx} is too coarse a reference grid for "
                              f"{problem.name}: {exc}") from exc
    return ref


@dataclass
class TrainResult:
    params: MLPParams
    metrics: list
    affine_table: list            # rows (t, alpha, beta)
    config: TrainConfig
    max_tape_nodes: int
    problem: PDEProblem = None


def _check_holdout_disjoint(cfg: TrainConfig):
    """Refuse an sdifp run whose advancing cloud would reach the held-out indices.

    The training cloud covers Sobol' indices 1 .. (advances + 1) * cloud_m and
    advances once per refreshing epoch after the first unless frozen; the
    held-out cloud covers holdout_skip + 1 .. holdout_skip + eval_cloud.
    """
    if cfg.method != "sdifp":
        return
    advances = 0 if cfg.freeze_cloud else (cfg.epochs - 1) // cfg.moment_refresh
    last = (advances + 1) * cfg.cloud_m
    if last > cfg.holdout_skip:
        raise ConfigError(
            f"the training cloud reaches Sobol' index {last}, which overlaps the "
            f"held-out cloud at indices {cfg.holdout_skip + 1}.."
            f"{cfg.holdout_skip + cfg.eval_cloud}; raise --holdout-skip")


def run_training(cfg: TrainConfig, reference="auto", cache_dir=None,
                 log=None) -> TrainResult:
    cfg.validate()
    _check_holdout_disjoint(cfg)
    problem = build_problem(cfg)
    if reference == "auto":
        reference = ensure_reference(problem, cfg, cache_dir=cache_dir)
    targets = problem.domain_averaged_targets()
    net_cfg = NetworkConfig(in_dim=problem.d + 1, hidden_layers=cfg.hidden_layers,
                            width=cfg.width, seed=cfg.seed)
    params = init_params(net_cfg)
    rngs = RngSet(cfg.seed)
    opt = OptimizerState.fresh(params.flat.size)

    # only sdifp reads the detached cloud, so the other methods build none
    smc_skip = 0
    smc_points = (spatial_cloud(cfg.cloud_m, problem.domain, skip=0).points
                  if cfg.method == "sdifp" else None)

    metrics = []
    max_nodes = 0
    moments_cache = None
    fixed_ts = None
    t_start = time.perf_counter()
    for epoch in range(cfg.epochs):
        if cfg.method == "sdifp":
            refresh = (epoch % cfg.moment_refresh == 0)
            # the cloud only advances when moments are re-estimated, so cached
            # moments always describe the cloud in use
            if refresh and epoch > 0 and not cfg.freeze_cloud:
                smc_skip += cfg.cloud_m
                smc_points = spatial_cloud(cfg.cloud_m, problem.domain,
                                           skip=smc_skip).points
            plan = plan_step(problem, cfg, rngs,
                             fixed_ts=None if refresh else fixed_ts)
            grad, diag, moments = step_sdifp(
                params, problem, cfg, plan, smc_points, targets,
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
            rec = evaluate(params, problem, cfg, targets, smc_points, rngs,
                           reference=reference, epoch=epoch,
                           tape_nodes=diag.tape_nodes,
                           seconds=elapsed if cfg.timing else 0.0)
            rec.loss = diag.loss
            metrics.append(rec)
            if log:
                log(f"epoch {epoch:6d}  loss {rec.loss:.3e}  err_u {rec.error_u:.3e}  "
                    f"err_c1 {rec.error_c1:.3e}  err_c2 {rec.error_c2:.3e}  "
                    f"tape {rec.tape_nodes}  [{elapsed:.1f}s]")

    # the final epoch always evaluates, at the final parameters and cloud
    return TrainResult(params=params, metrics=metrics, affine_table=metrics[-1].affine_table,
                       config=cfg, max_tape_nodes=max_nodes, problem=problem)
