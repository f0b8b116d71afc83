"""Experiment driver: train, verify, sweep, reference.

Configuration values resolve with precedence: command-line flags over the
optional key = value config file (sectioned, or a run's own
``config.resolved``) over built-in defaults.  Every run writes a
``config.resolved`` file with the effective settings.  The output
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
from .net import NetworkConfig, init_params, save_checkpoint, set_blas_threads
from .sampler import spatial_cloud
from .trainer import (RngSet, TrainConfig, build_problem, ensure_reference, evaluate,
                      plan_step, run_training, step_baseline, step_sdifp)

METRICS_HEADER = "epoch,loss,error_u,error_c1,error_c2,tape_nodes,seconds"
SWEEP_HEADER = "axis,value,error_c1,error_c2,tape_nodes,status"

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# the TrainConfig count each sweep axis sets (subset_size sets size_j to the same value)
SWEEP_AXES = {"dimension": "dim", "batch": "batch_n", "cloud_size": "cloud_m",
              "subset_size": "size_i"}


def _coerce(key, text):
    """The one parser from text to a TrainConfig value: flags, config files and
    sweep values all go through it.  Malformed text is a ConfigError."""
    kind = _FIELD_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown config key {key!r}")
    if kind == "str":
        return text
    if kind == "bool":
        if text.lower() in ("1", "true", "yes", "on"):
            return True
        if text.lower() in ("0", "false", "no", "off"):
            return False
    else:
        try:
            return int(text) if kind == "int" else float(text)
        except ValueError:
            pass
    raise ConfigError(f"{kind} expected for {key}, got {text!r}")


def load_config_file(path) -> dict:
    """key = value lines, in sections or in none (as write_resolved_config
    writes them); an unreadable file, an unknown key or a malformed value is
    a ConfigError.  A repeated key takes its last value, as a repeated flag does."""
    parser = configparser.ConfigParser(strict=False)
    try:
        with open(path) as fh:
            # lines before any section header go to the default section
            parser.read_string(f"[{parser.default_section}]\n" + fh.read(), source=str(path))
        sections = [parser.default_section] + parser.sections()
        return {key: _coerce(key, text) for s in sections for key, text in parser.items(s)}
    except configparser.ParsingError as exc:
        # the parser counted the header line added above
        bad = "; ".join(f"line {n - 1}: {line}" for n, line in exc.errors)
        raise ConfigError(f"cannot read config file {path}: not key = value at {bad}") from None
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def build_train_config(args) -> TrainConfig:
    values = load_config_file(args.config) if args.config else {}
    for key in _FIELD_TYPES:
        text = getattr(args, key)
        if text is not None:
            values[key] = _coerce(key, text)
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
    dt = args.dt if args.dt is not None else refsolve.suggest_dt(problem, nx)
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


def _sweep_setup(c: TrainConfig):
    """Problem, targets, detached cloud points, initial parameters and streams."""
    c.validate()
    problem = build_problem(c)
    if problem.needs_invariant_table():
        ensure_reference(problem, c)
    cloud = spatial_cloud(c.cloud_m, problem.domain, skip=0)
    params = init_params(NetworkConfig(in_dim=problem.d + 1, hidden_layers=c.hidden_layers,
                                       width=c.width, seed=c.seed))
    return problem, problem.domain_averaged_targets(), cloud.points, params, RngSet(c.seed)


def _sweep_one(axis, v, cfg: TrainConfig):
    """One sweep row; refused or aborted values carry the reason in the status column."""
    status = "ok"
    e1 = e2 = float("nan")
    nodes = 0
    c = dataclasses.replace(cfg, **{SWEEP_AXES[axis]: v})
    try:
        if axis == "dimension":
            r = run_training(dataclasses.replace(c, eval_every=c.epochs), reference=None)
            last = r.metrics[-1]
            e1, e2, nodes = last.error_c1, last.error_c2, r.max_tape_nodes
        elif axis == "cloud_size":
            problem, targets, cloud, params, rngs = _sweep_setup(c)
            rec = evaluate(params, problem, c, targets, cloud, rngs)
            e1, e2 = rec.error_c1, rec.error_c2
        else:
            if axis == "subset_size":
                c = dataclasses.replace(c, size_j=v, estimator="ds_uge")
            problem, targets, cloud, params, rngs = _sweep_setup(c)
            plan = plan_step(problem, c, rngs)
            if c.method == "sdifp":
                _, diag, _ = step_sdifp(params, problem, c, plan, cloud, targets)
            else:
                _, diag = step_baseline(params, problem, c, plan, targets=targets)
            nodes = diag.tape_nodes
    except ConfigError as exc:
        status = f"refused: {exc}"
    except NumericalAbort as exc:
        status = f"aborted: {exc}"
    return (axis, v, e1, e2, nodes, status)


def _sweep_rows(args, cfg: TrainConfig, values):
    # a pool starts all its workers at its first task, so start no more
    # than there are values
    workers = min(args.parallel, len(values))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_sweep_one, [args.axis] * len(values), values,
                                 [cfg] * len(values)))
    return [_sweep_one(args.axis, v, cfg) for v in values]


def cmd_sweep(args) -> int:
    cfg = build_train_config(args)
    values = [_coerce(SWEEP_AXES[args.axis], v) for v in args.values.split(",")]
    if args.parallel < 1:
        raise ConfigError(f"--parallel must be at least 1, got {args.parallel}")
    base = out_dir(args)
    write_resolved_config(os.path.join(base, "config.resolved"), cfg)
    rows = _sweep_rows(args, cfg, values)
    path = os.path.join(base, f"sweep_{args.axis}.csv")
    with open(path, "w") as fh:
        fh.write(SWEEP_HEADER + "\n")
        for axis, v, e1, e2, nodes, status in rows:
            fh.write(f"{axis},{v},{_fmt(float(e1))},{_fmt(float(e2))},"
                     f"{nodes},\"{status}\"\n")
    print(f"sweep written: {path}")
    return 0


def make_parser():
    p = argparse.ArgumentParser(prog="cpl",
                                description="mesh-free conservative PINN experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", default=None,
                        help="key = value file, sectioned or a run's config.resolved")
        sp.add_argument("--out", default=None, help="output directory")
        for name, kind in _FIELD_TYPES.items():
            sp.add_argument("--" + name.replace("_", "-"), metavar=kind.upper())

    sp_train = sub.add_parser("train", help="run one training experiment")
    add_common(sp_train)
    sp_train.set_defaults(fn=cmd_train)

    sp_verify = sub.add_parser("verify", help="run the invariant check battery")
    sp_verify.set_defaults(fn=cmd_verify)

    sp_sweep = sub.add_parser("sweep", help="sweep one axis and emit CSV")
    add_common(sp_sweep)
    sp_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sp_sweep.add_argument("--values", required=True, help="comma-separated integers")
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
