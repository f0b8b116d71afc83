import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cpl.cli import main, METRICS_HEADER


FAST_TRAIN = ["--problem", "advection1d", "--method", "sdifp", "--epochs", "4",
              "--batch-n", "12", "--cloud-m", "256", "--n-time-slices", "2",
              "--width", "6", "--hidden-layers", "2", "--n-ic", "8", "--n-bc", "8",
              "--eval-every", "2", "--eval-cloud", "256", "--ref-nx", "128",
              "--seed", "7"]


def _run_train(out, *flags):
    return main(["train", "--out", str(out)] + FAST_TRAIN + list(flags))


def test_train_writes_artifacts(tmp_path):
    assert _run_train(tmp_path / "a") == 0
    base = tmp_path / "a"
    metrics = (base / "metrics.csv").read_text().splitlines()
    assert metrics[0] == METRICS_HEADER
    assert len(metrics) == 1 + 2 + 1  # header + cadence rows + final epoch
    assert (base / "config.resolved").exists()
    assert (base / "checkpoint.bin").exists()
    affine = (base / "affine_table.csv").read_text().splitlines()
    assert affine[0] == "t,alpha,beta"
    assert len(affine) == 65


# discrete_proj's cloud supports are drawn from the proj and eval streams
@pytest.mark.parametrize("method", ["sdifp", "soft", "discrete_proj"])
def test_train_determinism_byte_identical(tmp_path, method):
    assert _run_train(tmp_path / "a", "--method", method) == 0
    assert _run_train(tmp_path / "b", "--method", method) == 0
    for name in ("metrics.csv", "affine_table.csv", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_env_var_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("CPL_OUT_DIR", str(tmp_path / "env"))
    assert main(["train"] + FAST_TRAIN) == 0
    assert (tmp_path / "env" / "metrics.csv").exists()


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[train]\nproblem = advection1d\nmethod = vanilla\n"
                   "epochs = 3\nbatch_n = 10\nwidth = 6\nhidden_layers = 2\n"
                   "n_time_slices = 2\nn_ic = 4\nn_bc = 4\neval_every = 1\n"
                   "eval_cloud = 128\nref_nx = 128\nseed = 1\n")
    out = tmp_path / "o"
    assert main(["train", "--config", str(cfg), "--out", str(out),
                 "--epochs", "2"]) == 0
    resolved = (out / "config.resolved").read_text()
    assert "epochs = 2" in resolved       # flag beats file
    assert "method = vanilla" in resolved  # file beats default


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[train]\nwarp_speed = 9\n")
    assert main(["train", "--config", str(cfg)]) == 2


def test_resolved_config_reproduces_its_run(tmp_path):
    assert _run_train(tmp_path / "run") == 0
    assert main(["train", "--config", str(tmp_path / "run" / "config.resolved"),
                 "--out", str(tmp_path / "again")]) == 0
    for name in ("config.resolved", "metrics.csv", "affine_table.csv", "checkpoint.bin"):
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "run" / name).read_bytes()


TINY_SWEEP = ["sweep", "--axis", "batch", "--problem", "advection1d", "--method", "sdifp",
              "--cloud-m", "128", "--n-time-slices", "2", "--width", "6",
              "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4", "--ref-nx", "128"]


@pytest.mark.parametrize("config,args", [
    ("[train]\nepochs = abc\n", ["train"]),
    ("[train]\nepochs 3\n", ["train"]),
    (None, TINY_SWEEP + ["--values", "4,abc"]),
    (None, TINY_SWEEP + ["--values", "1.5"]),
    (None, TINY_SWEEP + ["--values", "inf"]),
    (None, ["train", "--epochs", "abc"]),
    (None, TINY_SWEEP + ["--values", "4", "--parallel", "0"]),
    (None, TINY_SWEEP + ["--values", "4", "--parallel", "-3"]),
], ids=["file-value", "file-syntax", "sweep-word", "sweep-fraction", "sweep-inf", "flag-value",
        "sweep-parallel-0", "sweep-parallel-negative"])
def test_malformed_setting_exits_2_and_writes_nothing(tmp_path, capsys, config, args):
    out = tmp_path / "out"
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args = args + ["--config", str(tmp_path / "run.cfg")]
    assert main(args + ["--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ")
    assert list(out.rglob("*")) == []


@pytest.mark.parametrize("flags", [
    ["--method", "warp"],
    ["--eval-every", "0"],
    ["--n-ic", "0"],
    ["--eval-cloud", "0"],
    ["--cloud-m", "1"],
    ["--proj-support", "0", "--method", "discrete_proj"],
    ["--size-i", "-1", "--estimator", "ds_uge"],
    ["--n-time-slices", "0"],
    ["--moment-refresh", "0"],
    ["--ref-nx", "1"],
    # grids this coarse give the invariant table a negative target variance
    ["--ref-nx", "2"],
    ["--ref-nx", "4"],
], ids=lambda flags: "_".join(f.lstrip("-") for f in flags))
def test_bad_method_exit_code(tmp_path, flags):
    assert main(["train", "--out", str(tmp_path)] + flags) == 2


def test_training_cloud_overlapping_holdout_exit_code(tmp_path):
    # at the default --holdout-skip 1e8 the advancing cloud reaches the
    # held-out indices from epoch 1000 on
    assert main(["train", "--out", str(tmp_path), "--method", "sdifp",
                 "--cloud-m", "100000", "--epochs", "2000"]) == 2


def test_grid_preflight_refusal(tmp_path):
    args = ["train", "--out", str(tmp_path), "--problem", "advection1d",
            "--method", "discrete_proj", "--proj-mode", "grid",
            "--proj-support", str(2 ** 21), "--epochs", "1", "--batch-n", "8",
            "--width", "6", "--hidden-layers", "2", "--ref-nx", "128"]
    assert main(args) == 2


def test_reference_command_and_cache_hit(tmp_path, capsys):
    args = ["reference", "--problem", "advection1d", "--nx", "128",
            "--out", str(tmp_path)]
    assert main(args) == 0
    csv = (tmp_path / "invariants_advection1d.csv").read_text().splitlines()
    assert csv[0] == "t,c1,c2"
    c1 = np.array([float(line.split(",")[1]) for line in csv[1:]])
    assert np.max(np.abs(c1 - c1[0])) / abs(c1[0]) <= 1e-3
    capsys.readouterr()
    assert main(args) == 0
    err = capsys.readouterr().err
    assert "cache hit" in err


def test_reference_cfl_refused(tmp_path):
    args = ["reference", "--problem", "kdv1d", "--nx", "128", "--dt", "0.01",
            "--out", str(tmp_path)]
    assert main(args) == 2


@pytest.mark.parametrize("grid,why", [
    (["--nx", "1"], "at least 2 points"),
    (["--nx", "0"], "at least 2 points"),
    (["--nx", "128", "--dt", "-0.001"], "must be positive"),
    (["--nx", "128", "--dt", "0"], "must be positive"),
], ids=["nx1", "nx0", "dt-negative", "dt0"])
def test_reference_bad_grid_or_step_refused(grid, why, tmp_path, capsys):
    args = ["reference", "--problem", "advection1d", *grid, "--out", str(tmp_path)]
    assert main(args) == 2
    assert why in capsys.readouterr().err
    assert list(tmp_path.rglob("*")) == []  # no CSV, no cache


def test_sweep_subset_size_monotone(tmp_path):
    args = ["sweep", "--axis", "subset_size", "--values", "1,2,4",
            "--out", str(tmp_path), "--problem", "fokker_planck_linear_nd",
            "--dim", "2", "--method", "sdifp", "--estimator", "ds_uge",
            "--batch-n", "8", "--cloud-m", "128", "--n-time-slices", "1",
            "--width", "6", "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4"]
    assert main(args) == 0
    lines = (tmp_path / "sweep_subset_size.csv").read_text().splitlines()
    assert lines[0].startswith("axis,value")
    nodes = [int(line.split(",")[4]) for line in lines[1:]]
    assert nodes[0] < nodes[1] < nodes[2]


def test_sweep_parallel_matches_serial(tmp_path):
    args = ["sweep", "--axis", "batch", "--values", "8,16", "--problem", "advection1d",
            "--method", "sdifp", "--cloud-m", "128", "--n-time-slices", "2", "--width", "6",
            "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4", "--ref-nx", "128"]
    assert main(args + ["--out", str(tmp_path / "serial"), "--parallel", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "pool"), "--parallel", "2"]) == 0
    serial = (tmp_path / "serial" / "sweep_batch.csv").read_bytes()
    assert (tmp_path / "pool" / "sweep_batch.csv").read_bytes() == serial
    assert serial.count(b'"ok"') == 2


@pytest.mark.parametrize("parallel,values,workers", [(64, "8,16", 2), (2, "8,16,24", 2),
                                                     (8, "8", None), (1, "8,16", None)])
def test_sweep_starts_at_most_one_worker_per_value(tmp_path, monkeypatch, parallel, values,
                                                   workers):
    """A stub executor records the pool size it is asked for and runs the
    rows in this process; one value or --parallel 1 starts no pool."""
    import concurrent.futures
    asked = []

    class StubExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StubExecutor)
    args = TINY_SWEEP + ["--values", values, "--parallel", str(parallel)]
    assert main(args + ["--out", str(tmp_path)]) == 0
    assert asked == ([] if workers is None else [workers])
    rows = (tmp_path / "sweep_batch.csv").read_text().splitlines()[1:]
    assert len(rows) == len(values.split(",")) and all(r.endswith('"ok"') for r in rows)


def test_sweep_dimension_refuses_above_cap(tmp_path):
    args = ["sweep", "--axis", "dimension", "--values", "2,100",
            "--out", str(tmp_path), "--problem", "sine_gordon_nd",
            "--method", "sdifp", "--epochs", "2", "--batch-n", "8",
            "--cloud-m", "128", "--n-time-slices", "1", "--width", "6",
            "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4",
            "--eval-cloud", "128"]
    assert main(args) == 0
    lines = (tmp_path / "sweep_dimension.csv").read_text().splitlines()
    assert "refused" in lines[2]
    assert "refused" not in lines[1]


def test_sweep_records_numerical_abort_as_status_row(tmp_path, monkeypatch):
    import cpl.cli as climod
    from cpl.errors import NumericalAbort

    real = climod.run_training

    def flaky(cfg, **kwargs):
        if cfg.dim == 3:
            raise NumericalAbort("injected divergence")
        return real(cfg, **kwargs)

    monkeypatch.setattr(climod, "run_training", flaky)
    args = ["sweep", "--axis", "dimension", "--values", "2,3,4",
            "--out", str(tmp_path), "--problem", "sine_gordon_nd",
            "--method", "sdifp", "--epochs", "1", "--batch-n", "8",
            "--cloud-m", "128", "--n-time-slices", "1", "--width", "6",
            "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4",
            "--eval-cloud", "128"]
    assert main(args) == 0
    lines = (tmp_path / "sweep_dimension.csv").read_text().splitlines()
    assert lines[0] == "axis,value,error_c1,error_c2,tape_nodes,status"
    assert [line.split(",")[-1] for line in lines[1:]] == [
        '"ok"', '"aborted: injected divergence"', '"ok"']


def test_sweep_cloud_size_error_decreases(tmp_path):
    args = ["sweep", "--axis", "cloud_size", "--values", "100,10000",
            "--out", str(tmp_path), "--problem", "sine_gordon_nd", "--dim", "1",
            "--method", "sdifp", "--width", "8", "--hidden-layers", "2",
            "--eval-cloud", "4096", "--seed", "2"]
    assert main(args) == 0
    lines = (tmp_path / "sweep_cloud_size.csv").read_text().splitlines()
    errs = [float(line.split(",")[2]) for line in lines[1:]]
    assert errs[-1] < errs[0]


def test_numerical_abort_exit_code(monkeypatch, tmp_path):
    import cpl.cli as climod
    from cpl.errors import NumericalAbort

    def exploding(*a, **k):
        raise NumericalAbort("injected divergence")

    monkeypatch.setattr(climod, "run_training", exploding)
    assert main(["train", "--out", str(tmp_path)] + FAST_TRAIN) == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_train_exits_3(tmp_path, capsys):
    # an Adam step of 1e300 overflows the network; the moments of the next
    # evaluation are then non-finite, and reported once, by the abort alone
    args = ["train", "--out", str(tmp_path), "--problem", "advection1d", "--method", "sdifp",
            "--epochs", "3", "--batch-n", "16", "--cloud-m", "256", "--n-time-slices", "2",
            "--width", "8", "--hidden-layers", "2", "--eval-every", "1",
            "--eval-cloud", "256", "--ref-nx", "128", "--lr0", "1e300"]
    with np.errstate(over="warn", invalid="warn"):
        assert main(args) == 3
    assert "numerical abort: non-finite moments" in capsys.readouterr().err.splitlines()


def test_sweep_records_real_divergence_as_status_row(tmp_path):
    # after one Adam step of 6e152 every unit saturates and u is an odd
    # multiple of the step; mean(u*u) overflows at d = 2 only (there from
    # 3e152-4e152 on, at d = 1 and 3 from 8e152-1.5e153 on)
    args = ["sweep", "--axis", "dimension", "--values", "1,2,3",
            "--out", str(tmp_path), "--problem", "sine_gordon_nd",
            "--method", "sdifp", "--epochs", "1", "--batch-n", "8",
            "--cloud-m", "128", "--n-time-slices", "1", "--width", "6",
            "--hidden-layers", "2", "--n-ic", "4", "--n-bc", "4",
            "--eval-cloud", "128", "--lr0", "6e152"]
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(args) == 0
    lines = (tmp_path / "sweep_dimension.csv").read_text().splitlines()
    assert [line.split(",")[-1] for line in lines[1:]] == [
        '"ok"', '"aborted: non-finite moments"', '"ok"']
    assert all(np.isfinite(float(line.split(",")[2])) for line in (lines[1], lines[3]))


def test_sweep_dimension_conservation_column(tmp_path):
    # desk-scale slice of the dimension-scaling study: held-out conservation
    # error stays small as d grows
    args = ["sweep", "--axis", "dimension", "--values", "2,4,8",
            "--out", str(tmp_path), "--problem", "sine_gordon_nd",
            "--method", "sdifp", "--epochs", "3", "--batch-n", "16",
            "--cloud-m", "4096", "--n-time-slices", "2", "--width", "8",
            "--hidden-layers", "2", "--n-ic", "8", "--n-bc", "8",
            "--eval-cloud", "4096", "--seed", "3"]
    assert main(args) == 0
    lines = (tmp_path / "sweep_dimension.csv").read_text().splitlines()
    rel_errs = []
    for line in lines[1:]:
        parts = line.split(",")
        d = int(float(parts[1]))
        from cpl.pde import make_problem
        c1 = make_problem("sine_gordon_nd", dim=d).invariant_targets(0.0)[0]
        rel_errs.append(float(parts[2]) / (1 + abs(c1)))
    assert all(e <= 1e-2 for e in rel_errs)


# the real battery runs once, check by check, in tests/test_checks.py; these
# tests cover only how `cpl verify` reports and exits
def _verify_with(monkeypatch, capsys, *outcomes):
    """Run `cpl verify` over stub checks: True passes, False fails, None raises."""
    from cpl import checks
    calls = []

    def stub(i, ok):
        def check():
            calls.append(i)
            if ok is None:
                raise RuntimeError(f"check {i} crashed")
            return checks.CheckResult(f"c{i}", ok, 0.0, 0.0)
        return check
    monkeypatch.setattr(checks, "ALL_CHECKS", [stub(i, ok) for i, ok in enumerate(outcomes)])
    return main(["verify"]), capsys.readouterr().out, calls


def test_verify_command_passes(monkeypatch, capsys):
    code, out, _ = _verify_with(monkeypatch, capsys, True, True)
    assert code == 0 and out.count("[PASS]") == 2
    assert "checks run: 2  failed: 0" in out


def test_verify_failing_check_exit_code(monkeypatch, capsys):
    code, out, _ = _verify_with(monkeypatch, capsys, True, False)
    assert code == 4 and "[FAIL] c1:" in out
    assert "checks run: 2  failed: 1" in out


def test_verify_crashed_check_fails_and_the_rest_still_run(monkeypatch, capsys):
    code, out, calls = _verify_with(monkeypatch, capsys, None, True)
    assert code == 4 and calls == [0, 1]
    assert "[FAIL] check:" in out and "RuntimeError('check 0 crashed')" in out
    assert "checks run: 2  failed: 1" in out


def test_verify_reports_at_least_25_checks():
    from cpl import checks
    names = [fn.__name__ for fn in checks.ALL_CHECKS]
    assert len(names) >= 25
    assert len(set(names)) == len(names)


# a fresh interpreter, so modules that other tests imported do not count
_IMPORTS_AFTER_TRAIN = """
import json, sys
from cpl.cli import main
code = main(sys.argv[1:])
heavy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
               or m == "numpy.ma" or m.startswith("numpy.ma."))
print(json.dumps({"code": code, "heavy": heavy}))
"""


@pytest.mark.parametrize("method", ["sdifp", "discrete_proj"])
def test_train_imports_neither_scipy_nor_numpy_ma(tmp_path, method):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = ["train", "--out", str(tmp_path), "--problem", "advection1d", "--method", method,
            "--epochs", "3", "--width", "8", "--hidden-layers", "2", "--batch-n", "12",
            "--cloud-m", "256", "--proj-support", "64", "--n-time-slices", "2",
            "--n-ic", "8", "--n-bc", "8", "--eval-every", "2", "--eval-cloud", "256",
            "--ref-nx", "128", "--seed", "7"]
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_AFTER_TRAIN, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "heavy": []}
