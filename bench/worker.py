"""One training run of a benchmark workload in a fresh process.

    python3 bench/worker.py WORKLOAD SEED MODE OUT_DIR

Runs `cpl train` in-process through `cpl.cli.main` with the workload's flags,
under the wrappers of `probe.py`, then checks the outputs and writes
OUT_DIR/result.json.  MODE is `plain` (tracing off), `traced`, or `setup`,
which stops the run at its first step and reports only the set-up time.  `run.py` starts one of these per training run, so every
run pays its own set-up (cold reference cache, first cloud) and reports the
peak resident memory of a process that did nothing else.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_info() -> dict:
    """Name, version and live thread count of the BLAS numpy is linked against."""
    import ctypes

    import numpy as np

    info = {"numpy": np.__version__, "blas": "unknown", "blas_threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["blas_threads"] = int(fn())
                return info
    return info


def conservation_residual(result, cloud) -> float:
    """Worst relative residual of the projected moments on the training cloud.

    Every row of the final affine table must reproduce both targets on the
    cloud it was solved on (criterion 1 of the acceptance gate).
    """
    import numpy as np

    from cpl.net import forward_array

    targets = result.problem.domain_averaged_targets()
    worst = 0.0
    for t, alpha, beta in result.affine_table:
        u = forward_array(result.params, np.concatenate(
            [cloud, np.full((cloud.shape[0], 1), t)], axis=1))
        ut = alpha * u + beta
        c1, c2, _ = targets.at(t)
        worst = max(worst, abs(float(ut.mean()) - c1) / (1.0 + abs(c1)),
                    abs(float((ut * ut).mean()) - c2) / (1.0 + abs(c2)))
    return worst


def final_row(path) -> dict:
    lines = Path(path).read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    return {k: float(v) for k, v in row.items()}


def main(argv) -> int:
    workload, seed, mode, out = argv[0], int(argv[1]), argv[2], Path(argv[3])
    import cpl
    if not Path(cpl.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cpl imported from {cpl.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from cpl import cli

    from probe import CONSERVATION_TOL, Recorder, SetupDone, instrumented, layer_metrics
    from run import WORKLOADS

    wl = WORKLOADS[workload]
    flags = [*wl.flags, "--epochs", str(wl.epochs), "--seed", str(seed),
             "--timing", "false", "--out", str(out)]
    trace = mode == "traced"
    rec = Recorder(trace, setup_only=mode == "setup")
    try:
        with instrumented(rec):
            code = cli.main(["train", *flags])
    except SetupDone:
        out.joinpath("result.json").write_text(json.dumps(
            {"attempted": 0, "failures": {}, "setup_s": rec.first_step - rec.run_enter}))
        return 0

    res = {"attempted": rec.attempted, "failures": dict(rec.failures),
           "step_ms": rec.step_ms, "eval_ms": rec.eval_ms,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "machine": blas_info()}
    if code != 0 or rec.result is None:
        if not rec.failures:
            res["attempted"] += 1
            res["failures"]["run"] = f"cpl train exited with code {code}"
    else:
        res["run_s"] = rec.run_exit - rec.run_enter
        res["setup_s"] = rec.first_step - rec.run_enter
        res["tape_slots_max"] = rec.result.max_tape_nodes
        metrics_csv = out / "metrics.csv"
        res["digest"] = hashlib.sha256(metrics_csv.read_bytes()).hexdigest()[:16]
        res["final"] = final_row(metrics_csv)
        if rec.result.config.method == "sdifp":
            res["attempted"] += 1
            worst = conservation_residual(rec.result, rec.last_cloud)
            res["conservation_residual"] = worst
            if not worst <= CONSERVATION_TOL:
                res["failures"]["conservation"] = (
                    f"projected moments miss the targets by {worst:.2e} "
                    f"on the training cloud (tol {CONSERVATION_TOL:g})")
        if trace:
            shapes = rec.result.params.config.layer_shapes()
            res["layers"] = layer_metrics(rec, 2 * sum(r * c for r, c in shapes))
            res["spans"] = rec.spans
    (out / "result.json").write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
