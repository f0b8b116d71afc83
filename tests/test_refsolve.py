import dataclasses

import numpy as np
import pytest

from cpl import refsolve
from cpl.errors import CflViolation, ConfigError, DivergenceError
from cpl.pde import make_problem
from cpl.refsolve import invariant_table, solve_reference, suggest_dt


def test_advection_matches_shifted_ic(advection_ref):
    ref = advection_ref
    k = int(np.argmin(np.abs(ref.ts - 0.25)))
    t = ref.ts[k]
    exact = np.exp(-(((ref.axes[0] - 1.0 - t) / 0.25) ** 2))
    rel = np.linalg.norm(ref.snaps[k] - exact) / np.linalg.norm(exact)
    assert rel <= 1e-3


def test_advection_second_order_convergence(ref_cache):
    prob = make_problem("advection1d")
    dt = suggest_dt(prob, 2048)  # one small dt so the time error never leads
    errs = []
    for nx in (256, 512):
        ref = solve_reference(prob, nx=nx, dt=dt, cache_dir=ref_cache)
        k = int(np.argmin(np.abs(ref.ts - 0.25)))
        exact = np.exp(-(((ref.axes[0] - 1.0 - ref.ts[k]) / 0.25) ** 2))
        errs.append(np.linalg.norm(ref.snaps[k] - exact) / np.linalg.norm(exact))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_wave_mass_constant(wave_table):
    ts = np.linspace(0.0, 1.0, 11)
    c10 = wave_table.c1(0.0)
    drift = max(abs(wave_table.c1(t) - c10) for t in ts) / abs(c10)
    assert drift <= 1e-3


@pytest.mark.slow
def test_kdv_invariants_grid_consistent(ref_cache):
    # physical boundary flux makes c(t) drift, so the oracle is agreement of
    # the tabulated trajectories across grid refinement
    prob = make_problem("kdv1d")
    ra = solve_reference(prob, nx=128, dt=suggest_dt(prob, 128), cache_dir=ref_cache)
    rb = solve_reference(prob, nx=256, dt=suggest_dt(prob, 256), cache_dir=ref_cache)
    c1a = np.interp(rb.ts, ra.ts, ra.c1)
    c2a = np.interp(rb.ts, ra.ts, ra.c2)
    assert np.max(np.abs(c1a - rb.c1)) / abs(rb.c1[0]) <= 2e-3
    assert np.max(np.abs(c2a - rb.c2)) / abs(rb.c2[0]) <= 6e-3


def test_advection_mass_balance_with_flux(advection_ref):
    balance = advection_ref.c1 + advection_ref.c1_flux
    assert np.max(np.abs(balance - advection_ref.c1[0])) / advection_ref.c1[0] <= 1e-3


def test_invariant_table_exact_at_stamp(advection_ref):
    table = invariant_table(advection_ref)
    k = len(advection_ref.ts) // 2
    assert table.c1(float(advection_ref.ts[k])) == float(advection_ref.c1[k])


def test_invariant_table_interpolates(advection_ref):
    table = invariant_table(advection_ref)
    t0, t1 = advection_ref.ts[3], advection_ref.ts[4]
    mid = 0.5 * (t0 + t1)
    expect = 0.5 * (advection_ref.c1[3] + advection_ref.c1[4])
    assert table.c1(float(mid)) == pytest.approx(expect, rel=1e-12)


def test_invariant_table_range_error(advection_ref):
    table = invariant_table(advection_ref)
    with pytest.raises(ValueError):
        table.c1(advection_ref.ts[-1] + 1.0)


def test_cfl_violation():
    prob = make_problem("advection1d")
    with pytest.raises(CflViolation):
        solve_reference(prob, nx=256, dt=1.0)


def test_kdv_dispersive_cfl():
    prob = make_problem("kdv1d")
    limit = refsolve.cfl_limit(prob, 2.0 / 255)
    with pytest.raises(CflViolation):
        solve_reference(prob, nx=256, dt=limit * 2.0)


def test_divergence_detected():
    prob = make_problem("reaction_diffusion1d")
    blown = dataclasses.replace(prob, u0=lambda X: 1e7 * np.ones(X.shape[0]))
    with pytest.raises(DivergenceError):
        solve_reference(blown, nx=64, dt=1e-3)


def test_no_reference_for_high_d():
    prob = make_problem("sine_gordon_nd", dim=3)
    with pytest.raises(ConfigError):
        solve_reference(prob, nx=32, dt=1e-4)


def test_cache_roundtrip_and_hit(tmp_path, monkeypatch):
    prob = make_problem("advection1d")
    dt = suggest_dt(prob, 128)
    ref1 = solve_reference(prob, nx=128, dt=dt, cache_dir=str(tmp_path))
    calls = {"n": 0}
    orig = refsolve._rhs_factory

    def counting(*a, **k):
        calls["n"] += 1
        return orig(*a, **k)

    monkeypatch.setattr(refsolve, "_rhs_factory", counting)
    ref2 = solve_reference(prob, nx=128, dt=dt, cache_dir=str(tmp_path))
    assert calls["n"] == 0  # pure cache hit, no re-march
    assert np.array_equal(ref1.snaps, ref2.snaps)
    assert np.array_equal(ref1.c1, ref2.c1)


def test_all_1d_problems_converge_at_order(ref_cache, advection_ref):
    # Richardson order on nested grids against the finest solve.  The wave
    # displacement data has nonzero wall slope, so its Neumann reflection
    # seeds derivative kinks at the corners; order is therefore measured at
    # t = 0.2 inside the window those kinks have not yet reached.  KdV is
    # covered by its own table-consistency test (its dispersive CFL makes a
    # three-grid ladder needlessly slow here).
    cases = [("reaction_diffusion1d", None, None),
             ("wave1d", 0.2, (0.25, 1.75))]
    for name, t_probe, window in cases:
        prob = make_problem(name)
        grids = (65, 129, 257)
        dt = suggest_dt(prob, grids[-1])
        sols = [solve_reference(prob, nx=nx, dt=dt, n_snapshots=21,
                                cache_dir=ref_cache) for nx in grids]
        fine = sols[-1]
        k = -1 if t_probe is None else int(np.argmin(np.abs(fine.ts - t_probe)))
        errs = []
        for s, stride in zip(sols[:-1], (4, 2)):
            diff = s.snaps[k] - fine.snaps[k][::stride]
            x = s.axes[0]
            if window is not None:
                sel = (x >= window[0]) & (x <= window[1])
                diff = diff[sel]
            errs.append(np.linalg.norm(diff))
        order = np.log2(errs[0] / errs[1])
        assert order >= 1.8, (name, order)


def test_advection2d_reference(ref_cache):
    prob = make_problem("advection2d")
    ref = solve_reference(prob, nx=48, dt=suggest_dt(prob, 48), cache_dir=ref_cache)
    assert ref.snaps.shape[1:] == (48, 48)
    assert np.all(np.isfinite(ref.c1)) and np.all(np.isfinite(ref.c2))
    # mass decreases monotonically-ish as the wide pulse leaves the box
    assert ref.c1[-1] < ref.c1[0]


def test_cache_regenerated_on_mismatch(tmp_path):
    import glob
    prob = make_problem("advection1d")
    dt = suggest_dt(prob, 128)
    ref1 = solve_reference(prob, nx=128, dt=dt, cache_dir=str(tmp_path))
    path = glob.glob(str(tmp_path / "ref_advection1d_128_*.npz"))[0]
    data = dict(np.load(path, allow_pickle=False))
    data["key"] = np.str_("corrupted")
    np.savez(path, **data)
    ref2 = solve_reference(prob, nx=128, dt=dt, cache_dir=str(tmp_path))
    assert np.array_equal(ref1.snaps, ref2.snaps)


def test_cache_save_failing_partway_leaves_no_file(tmp_path, monkeypatch):
    import os
    prob = make_problem("advection1d")
    dt = suggest_dt(prob, 128)
    ref = solve_reference(prob, nx=128, dt=dt)
    path = refsolve._cache_path(prob, 128, dt, 65, str(tmp_path))

    def failing_savez(file, **payload):
        fh = open(file, "wb") if isinstance(file, str) else file
        fh.write(b"PK\x03\x04 partial archive")
        fh.flush()
        raise OSError("disk full")

    monkeypatch.setattr(refsolve.np, "savez", failing_savez)
    with pytest.raises(OSError):
        refsolve._save_cache(ref, prob, 128, dt, 65, str(tmp_path))
    assert not os.path.exists(path)
    assert os.listdir(tmp_path) == []
    monkeypatch.undo()
    refsolve._save_cache(ref, prob, 128, dt, 65, str(tmp_path))
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    assert np.array_equal(solve_reference(prob, nx=128, dt=dt, cache_dir=str(tmp_path)).snaps,
                          ref.snaps)
