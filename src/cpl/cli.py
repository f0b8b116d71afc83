"""Experiment driver: train, verify, sweep, reference.

Configuration values resolve with precedence: command-line flags over the
optional sectioned key=value config file over built-in defaults.  Every run
writes a ``config.resolved`` file with the effective settings.  The output
directory comes from --out, falling back to the CPL_OUT_DIR environment
variable, falling back to ./runs.

Exit codes: 0 success, 2 configuration error, 3 numerical abort,
4 verification failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

from .errors import ConfigError, NumericalAbort
from .net import set_blas_threads
from .trainer import (RngSet, TrainConfig, build_problem, ensure_reference,
                      plan_step, run_training, step_baseline, step_sdifp)

METRICS_HEADER = "epoch,loss,error_u,error_c1,error_c2,tape_nodes,seconds"
SWEEP_HEADER = "axis,value,error_c1,error_c2,tape_nodes,seconds,status"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_BOOL_FIELDS = {f.name for f in dataclasses.fields(TrainConfig) if f.type == "bool"}
_INT_FIELDS = {f.name for f in dataclasses.fields(TrainConfig) if f.type == "int"}
_FLOAT_FIELDS = {f.name for f in dataclasses.fields(TrainConfig) if f.type == "float"}
_STR_FIELDS = {f.name for f in dataclasses.fields(TrainConfig) if f.type == "str"}
_ALL_FIELDS = _BOOL_FIELDS | _INT_FIELDS | _FLOAT_FIELDS | _STR_FIELDS


def _coerce(key, raw):
    if key in _BOOL_FIELDS:
        if str(raw).lower() in ("1", "true", "yes", "on"):
            return True
        if str(raw).lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"boolean expected for {key}, got {raw!r}")
    if key in _INT_FIELDS:
        return int(raw)
    if key in _FLOAT_FIELDS:
        return float(raw)
    return str(raw)


def load_config_file(path) -> dict:
    """Sectioned key=value file; unknown keys are rejected."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    out = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if key not in _ALL_FIELDS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            out[key] = _coerce(key, raw)
    return out


def build_train_config(args) -> TrainConfig:
    values = {}
    if args.config:
        values.update(load_config_file(args.config))
    for key in _ALL_FIELDS:
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            values[key] = cli_val
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def out_dir(args):
    base = args.out or os.environ.get("CPL_OUT_DIR") or "runs"
    os.makedirs(base, exist_ok=True)
    return base


def write_resolved_config(path, cfg: TrainConfig):
    with open(path, "w") as fh:
        for f in sorted(dataclasses.fields(TrainConfig), key=lambda f: f.name):
            fh.write(f"{f.name} = {getattr(cfg, f.name)}\n")


def _fmt(x):
    if isinstance(x, float):
        return f"{x:.12e}"
    return str(x)


def write_metrics_csv(path, records):
    with open(path, "w") as fh:
        fh.write(METRICS_HEADER + "\n")
        for r in records:
            fh.write(",".join([str(r.epoch), _fmt(r.loss), _fmt(r.error_u),
                               _fmt(r.error_c1), _fmt(r.error_c2),
                               str(r.tape_nodes), _fmt(r.seconds)]) + "\n")


def cmd_train(args) -> int:
    cfg = build_train_config(args)
    base = out_dir(args)
    write_resolved_config(os.path.join(base, "config.resolved"), cfg)
    cache = os.path.join(base, "refcache")
    result = run_training(cfg, cache_dir=cache,
                          log=(lambda msg: print(msg, file=sys.stderr)))
    write_metrics_csv(os.path.join(base, "metrics.csv"), result.metrics)
    from .net import save_checkpoint
    save_checkpoint(os.path.join(base, "checkpoint.bin"), result.params)
    with open(os.path.join(base, "affine_table.csv"), "w") as fh:
        fh.write("t,alpha,beta\n")
        for t, a, b in result.affine_table:
            fh.write(f"{_fmt(t)},{_fmt(a)},{_fmt(b)}\n")
    print(f"run complete: {os.path.join(base, 'metrics.csv')}")
    return 0


def cmd_verify(args) -> int:
    from . import checks
    results = checks.run_all(log=print)
    n_fail = sum(1 for r in results if not r.ok)
    print(f"checks run: {len(results)}  failed: {n_fail}")
    return 4 if n_fail else 0


def cmd_reference(args) -> int:
    from . import refsolve
    cfg = TrainConfig(problem=args.problem, dim=args.dim or 0)
    problem = build_problem(cfg)
    nx = args.nx
    dt = args.dt if args.dt else refsolve.suggest_dt(problem, nx)
    base = out_dir(args)
    cache = os.path.join(base, "refcache")
    path = refsolve._cache_path(problem, nx, dt, 65, cache)
    if os.path.exists(path):
        print(f"cache hit: {path}", file=sys.stderr)
    ref = refsolve.solve_reference(problem, nx=nx, dt=dt, cache_dir=cache)
    csv_path = os.path.join(base, f"invariants_{problem.name}.csv")
    with open(csv_path, "w") as fh:
        fh.write("t,c1,c2\n")
        for t, c1, c2 in zip(ref.ts, ref.c1, ref.c2):
            fh.write(f"{_fmt(float(t))},{_fmt(float(c1))},{_fmt(float(c2))}\n")
    print(f"reference written: {csv_path}")
    return 0


def _sweep_one(axis, raw, cfg: TrainConfig):
    """One sweep row; refused values carry the reason in the status column."""
    from .sampler import spatial_cloud
    from .net import NetworkConfig, init_params
    from .trainer import evaluate, run_training

    v = int(raw) if float(raw).is_integer() else float(raw)
    status = "ok"
    e1 = e2 = float("nan")
    nodes = 0
    secs = 0.0
    try:
        if axis == "dimension":
            if v > 64:
                raise ConfigError(f"dimension {v} beyond the Sobol table cap 64")
            c = dataclasses.replace(cfg, dim=int(v), epochs=max(1, cfg.epochs),
                                    eval_every=max(1, cfg.epochs))
            r = run_training(c, reference=None)
            last = r.metrics[-1]
            e1, e2, nodes = last.error_c1, last.error_c2, r.max_tape_nodes
        elif axis == "batch":
            c = dataclasses.replace(cfg, batch_n=int(v))
            problem = build_problem(c)
            if problem.needs_invariant_table():
                ensure_reference(problem, c)
            targets = problem.domain_averaged_targets()
            rngs = RngSet(c.seed)
            cloud = spatial_cloud(c.cloud_m, problem.domain, kind="sobol", skip=0)
            plan = plan_step(problem, c, rngs)
            params = init_params(NetworkConfig(in_dim=problem.d + 1,
                                               hidden_layers=c.hidden_layers,
                                               width=c.width, seed=c.seed))
            if c.method == "sdifp":
                _, diag, _ = step_sdifp(params, problem, c, plan, cloud.points, targets)
            else:
                _, diag = step_baseline(params, problem, c, plan, targets=targets)
            nodes = diag.tape_nodes
        elif axis == "subset_size":
            c = dataclasses.replace(cfg, size_i=int(v), size_j=int(v),
                                    estimator="ds_uge")
            problem = build_problem(c)
            targets = problem.domain_averaged_targets()
            rngs = RngSet(c.seed)
            cloud = spatial_cloud(c.cloud_m, problem.domain, kind="sobol", skip=0)
            plan = plan_step(problem, c, rngs)
            params = init_params(NetworkConfig(in_dim=problem.d + 1,
                                               hidden_layers=c.hidden_layers,
                                               width=c.width, seed=c.seed))
            _, diag, _ = step_sdifp(params, problem, c, plan, cloud.points, targets)
            nodes = diag.tape_nodes
        elif axis == "cloud_size":
            c = dataclasses.replace(cfg, cloud_m=int(v))
            problem = build_problem(c)
            if problem.needs_invariant_table():
                ensure_reference(problem, c)
            targets = problem.domain_averaged_targets()
            params = init_params(NetworkConfig(in_dim=problem.d + 1,
                                               hidden_layers=c.hidden_layers,
                                               width=c.width, seed=c.seed))
            cloud = spatial_cloud(int(v), problem.domain, kind="sobol", skip=0)
            rngs = RngSet(c.seed)
            rec = evaluate(params, problem, c, targets, cloud.points, rngs)
            e1, e2 = rec.error_c1, rec.error_c2
        else:
            raise ConfigError(f"unknown sweep axis {axis}")
    except ConfigError as exc:
        status = f"refused: {exc}"
    return (axis, v, e1, e2, nodes, secs, status)


def _sweep_rows(args, cfg: TrainConfig, values):
    workers = getattr(args, "parallel", 1) or 1
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, [args.axis] * len(values), values,
                                 [cfg] * len(values)))
    return [_sweep_one(args.axis, v, cfg) for v in values]


def cmd_sweep(args) -> int:
    cfg = build_train_config(args)
    base = out_dir(args)
    write_resolved_config(os.path.join(base, "config.resolved"), cfg)
    values = [float(v) for v in args.values.split(",")]
    rows = _sweep_rows(args, cfg, values)
    path = os.path.join(base, f"sweep_{args.axis}.csv")
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for axis, v, e1, e2, nodes, secs, status in rows:
            fh.write(f"{axis},{v},{_fmt(float(e1))},{_fmt(float(e2))},"
                     f"{nodes},{_fmt(secs)},\"{status}\"\n")
    print(f"sweep written: {path}")
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="cpl",
                                description="mesh-free conservative PINN experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None, help="sectioned key=value file")
        sp.add_argument("--out", default=None, help="output directory")
        for f in dataclasses.fields(TrainConfig):
            flag = "--" + f.name.replace("_", "-")
            if f.name in _BOOL_FIELDS:
                sp.add_argument(flag, default=None, type=lambda s: _coerce(f.name, s),
                                metavar="BOOL")
            elif f.name in _INT_FIELDS:
                sp.add_argument(flag, default=None, type=int)
            elif f.name in _FLOAT_FIELDS:
                sp.add_argument(flag, default=None, type=float)
            else:
                sp.add_argument(flag, default=None)

    sp_train = sub.add_parser("train", help="run one training experiment")
    add_common(sp_train)
    sp_train.set_defaults(fn=cmd_train)

    sp_verify = sub.add_parser("verify", help="run the invariant check battery")
    sp_verify.set_defaults(fn=cmd_verify)

    sp_sweep = sub.add_parser("sweep", help="sweep one axis and emit CSV")
    add_common(sp_sweep)
    sp_sweep.add_argument("--axis", required=True,
                          choices=("dimension", "batch", "cloud_size", "subset_size"))
    sp_sweep.add_argument("--values", required=True, help="comma-separated values")
    sp_sweep.add_argument("--parallel", type=int, default=1,
                          help="independent worker processes for the sweep")
    sp_sweep.set_defaults(fn=cmd_sweep)

    sp_ref = sub.add_parser("reference", help="solve and cache a reference solution")
    sp_ref.add_argument("--problem", required=True)
    sp_ref.add_argument("--nx", type=int, required=True)
    sp_ref.add_argument("--dt", type=float, default=None)
    sp_ref.add_argument("--dim", type=int, default=None)
    sp_ref.add_argument("--out", default=None)
    sp_ref.set_defaults(fn=cmd_reference)
    return p


def main(argv=None) -> int:
    # The detached forward pass runs its chunks on two threads only while BLAS
    # runs on one (net.forward_array).  numpy is loaded by now, so the count is
    # set through the library; a count the environment sets is left alone.
    if not any(os.environ.get(v) for v in _BLAS_THREAD_VARS):
        set_blas_threads(1)
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
