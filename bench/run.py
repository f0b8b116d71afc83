"""Benchmark of `cpl train`: end-to-end metrics, or a per-layer trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The command is a single-process closed
loop: it starts one fresh `worker.py` process per fixed-length training run,
one after another, until S seconds are used (at least two runs).  Every run
trains with seed N, so their `metrics.csv` files must be byte-identical.

--trace 0 prints the end-to-end metrics, measured with tracing off; each
training run follows a fresh process that stops at the first step, to sample
set-up time.
--trace 1 alternates traced and untraced runs and prints the per-layer
metrics of the traced ones, plus the tracing overhead.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit code
is 0 only when every correctness check passed.  README.md in this directory
says why each workload exists and which end-to-end metric each layer metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
HARD_LIMIT_S = 170.0    # the whole command must end within 180 s
MIN_RUNS = 2           # so that every invocation compares two metrics.csv files
BLAS_THREADS = 1       # never more than nproc; see child_env


@dataclass(frozen=True)
class Workload:
    flags: tuple        # `cpl train` flags; epochs and seed are added per run
    epochs: int         # steps per fixed-length run; evaluation keeps the CLI cadence


DESK = ("--problem", "advection1d", "--width", "64", "--hidden-layers", "4",
        "--n-time-slices", "4", "--batch-n", "100", "--cloud-m", "10000",
        "--eval-cloud", "10000")

WORKLOADS = {
    "desk_sdifp": Workload(DESK + ("--method", "sdifp", "--estimator", "full"), 60),
    "desk_discrete": Workload(DESK + ("--method", "discrete_proj", "--proj-mode", "cloud"),
                              200),
    # not in BENCHMARK.json: one run costs about 26 s at one BLAS thread, so a
    # 60-s invocation holds two runs of 12 steps, too few to be steady
    "fp16_dsuge": Workload(("--problem", "fokker_planck_linear_nd", "--dim", "16",
                            "--method", "sdifp", "--estimator", "ds_uge",
                            "--size-i", "4", "--size-j", "4", "--width", "128",
                            "--hidden-layers", "4", "--batch-n", "100",
                            "--cloud-m", "10000"), 12),
    # a few seconds per run; exercises the harness itself (test_harness.py)
    "smoke": Workload(("--problem", "advection1d", "--width", "8", "--hidden-layers", "2",
                       "--n-time-slices", "2", "--batch-n", "16", "--cloud-m", "256",
                       "--eval-cloud", "256", "--ref-nx", "128",
                       "--method", "sdifp"), 3),
}

E2E_UNITS = {"setup_s": "s", "run_s": "s", "step_ms_mean": "ms", "step_ms_p90": "ms",
             "eval_ms_p50": "ms", "peak_rss_mb": "MB", "tape_slots_max": "count"}
# printed with the end-to-end metrics but left out of the result line: the host
# flips between a fast and a slow state, step times are bimodal, and their
# median jumps between the two modes from one invocation to the next
E2E_PRINTED = {"step_ms_p50": "ms"}

LAYER_UNITS = {
    "sampler.cloud_ms": "ms", "trainer.plan_ms": "ms", "projection.moments_ms": "ms",
    "pde.residual_ms": "ms", "autodiff.backward_ms": "ms", "trainer.adam_ms": "ms",
    "trainer.gradient_ms": "ms", "trainer.gradient_self_ms": "ms",
    "trainer.step_ms": "ms", "trainer.step_self_ms": "ms", "trainer.steps": "count",
    "projection.moment_rows": "count", "autodiff.backward_calls": "count",
    "autodiff.tape_slots": "count", "autodiff.live_slot_frac": "fraction",
    "autodiff.tape_bytes_peak": "B", "trainer.value_evals": "count",
    "trainer.evaluate_ms": "ms", "trainer.evaluate_self_ms": "ms",
    "trainer.evaluate_rows": "count", "trainer.affine_table_ms": "ms",
    "refsolve.solve_ms": "ms", "net.detached_flops": "flop",
    "net.detached_gflops": "GFLOP/s", "trace.overhead_s": "s",
}

# in-step layers whose self times add up to the step (trace output)
SELF_TIMES = ("projection.moments_ms", "pde.residual_ms", "autodiff.backward_ms",
              "trainer.gradient_self_ms", "sampler.cloud_ms", "trainer.plan_ms",
              "trainer.adam_ms", "trainer.step_self_ms")


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # One BLAS thread.  On a shared host a second thread is fast only while the
    # second core happens to be free, which makes step times bimodal from run to run.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(workload, seed, mode, env, timeout):
    out = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    t0 = time.perf_counter()
    try:
        with open(out / "log.txt", "w") as log:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "worker.py"), workload, str(seed),
                 mode, str(out)],
                stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT, timeout=timeout)
        result_file = out / "result.json"
        if proc.returncode == 0 and result_file.is_file():
            res = json.loads(result_file.read_text())
        else:
            tail = (out / "log.txt").read_text()[-2000:]
            print(f"worker exited with code {proc.returncode}:\n{tail}", file=sys.stderr)
            res = {"attempted": 1, "failures": {"worker": f"exit code {proc.returncode}"}}
    except subprocess.TimeoutExpired:
        res = {"attempted": 1, "failures": {"worker": f"timed out after {timeout:.0f} s"}}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    res["traced"] = mode == "traced"
    res["wall_s"] = time.perf_counter() - t0
    return res


def collect(args, env):
    """Training runs until the time is used.

    Untraced, every training run follows a run that stops at the first step, so
    the set-up samples spread over the whole invocation like the steps do.
    """
    start = time.perf_counter()
    setups, runs = [], []
    while True:
        mode = "traced" if args.trace and len(runs) % 2 == 0 else "plain"
        if not args.trace:
            setups.append(run_child(args.workload, args.seed, "setup", env, HARD_LIMIT_S / 4))
        elapsed = time.perf_counter() - start
        runs.append(run_child(args.workload, args.seed, mode, env,
                              max(5.0, HARD_LIMIT_S - elapsed)))
        if runs[-1]["failures"]:
            break
        elapsed = time.perf_counter() - start
        traced_next = bool(args.trace) and len(runs) % 2 == 0
        next_s = max([r["wall_s"] for r in runs if r["traced"] == traced_next]
                     or [r["wall_s"] for r in runs])
        next_s += max([r["wall_s"] for r in setups], default=0.0)
        if elapsed + next_s > HARD_LIMIT_S:
            break
        if len(runs) >= MIN_RUNS and elapsed + next_s > args.seconds:
            break
    return setups, runs, time.perf_counter() - start


def end_to_end(runs, setups) -> dict:
    steps = [x for r in runs for x in r["step_ms"]]
    evals = [x for r in runs for x in r["eval_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs + setups),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "step_ms_mean": statistics.fmean(steps),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p90": statistics.quantiles(steps, n=10, method="inclusive")[8],
        "eval_ms_p50": statistics.median(evals),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "tape_slots_max": max(r["tape_slots_max"] for r in runs),
    }


def per_layer(traced, plain) -> dict:
    out = {k: statistics.median(r["layers"][k] for r in traced)
           for k in LAYER_UNITS if k != "trace.overhead_s"}
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in plain))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cpl" / "__init__.py").is_file():
        print(f"no cpl sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORK.mkdir(exist_ok=True)
    mach = machine()
    env = child_env()

    setups, runs, wall = collect(args, env)
    attempted = sum(r["attempted"] for r in setups + runs) + 1   # + the digest check
    failures = [f"{op}: {msg}" for r in setups + runs for op, msg in r["failures"].items()]
    ok_runs = [r for r in runs if not r["failures"]]
    digests = sorted({r["digest"] for r in ok_runs})
    if len(digests) > 1:
        failures.append(f"metrics.csv differs between runs of seed {args.seed}: {digests}")
    correct = not failures

    print(f"machine: nproc {mach['nproc']}, cpu {mach['cpu']}")
    if ok_runs:
        m = ok_runs[0]["machine"]
        print(f"numpy {m['numpy']}, BLAS {m['blas']}, BLAS threads {m['blas_threads']}"
              f" (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']})")
    print(f"workload {args.workload}, seed {args.seed}: {len(runs)} runs "
          f"({sum(r['traced'] for r in runs)} traced) of "
          f"{WORKLOADS[args.workload].epochs} steps and {len(setups)} set-up-only runs "
          f"in {wall:.1f} s; single-process closed loop")
    for f in failures:
        print(f"FAILED {f}")

    metrics = {}
    plain = [r for r in ok_runs if not r["traced"]]
    traced_runs = [r for r in ok_runs if r["traced"]]
    if plain:
        final = plain[0]["final"]
        print(f"metrics.csv sha256 {', '.join(digests)} over {len(ok_runs)} runs")
        error_u = "" if math.isnan(final["error_u"]) else f"  error_u {final['error_u']:.6e}"
        print(f"final row: heldout_error_c1 {final['error_c1']:.6e}  heldout_error_c2 "
              f"{final['error_c2']:.6e}{error_u}")
        if "conservation_residual" in plain[0]:
            print(f"conservation on the training cloud: worst relative residual "
                  f"{max(r['conservation_residual'] for r in ok_runs):.2e} (tol 1e-10)")
        e2e = end_to_end(plain, [r for r in setups if not r["failures"]])
        n_steps = sum(len(r["step_ms"]) for r in plain)
        n_evals = sum(len(r["eval_ms"]) for r in plain)
        print(f"samples: {n_steps} steps, {n_evals} evaluations, {len(plain)} untraced runs")
        for k, v in e2e.items():
            print(f"  {k:<16} {v:14.4f} {(E2E_UNITS | E2E_PRINTED)[k]}")
        if not args.trace:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    print(f"  ops_failed_frac  {len(failures) / attempted:14.4f} of {attempted} "
          f"steps, evaluations and checks")
    if args.trace and traced_runs and plain:
        layers = per_layer(traced_runs, plain)
        step = sum(layers[k] for k in SELF_TIMES)
        print("per-layer (traced runs; times per step unless named otherwise):")
        for k, v in layers.items():
            share = f"  {100 * v / step:5.1f}% of the step" if k in SELF_TIMES else ""
            print(f"  {k:<26} {v:16.4f} {LAYER_UNITS[k]}{share}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
        spans = WORK / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps(traced_runs[-1]["spans"]))
        print(f"spans of the last traced run: {spans.relative_to(ROOT)}")
    if not metrics:
        correct = False
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
