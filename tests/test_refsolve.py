import dataclasses
import math
import tracemalloc

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


# -- the allocating np.pad march, kept as the in-place solver's bitwise oracle --

def _padded_rhs(problem, dx):
    c = problem.constants
    name = problem.name

    def pad(u, width):
        return np.pad(u, width, mode="reflect")

    if name == "advection1d":
        def rhs(u):
            p = pad(u, 1)
            return -c["c"] * ((p[2:] - p[:-2]) / (2 * dx))
    elif name == "reaction_diffusion1d":
        def rhs(u):
            p = pad(u, 1)
            return c["D"] * ((p[2:] - 2 * u + p[:-2]) / (dx * dx)) + c["k"] * u
    elif name == "wave1d":
        def rhs(state):
            u, v = state
            p = pad(u, 1)
            return np.stack([v, c["c"] ** 2 * ((p[2:] - 2 * u + p[:-2]) / (dx * dx))])
    elif name == "kdv1d":
        def rhs(u):
            p = pad(u, 2)
            ux = (p[3:-1] - p[1:-3]) / (2 * dx)
            uxxx = (p[4:] - 2 * p[3:-1] + 2 * p[1:-3] - p[:-4]) / (2 * dx ** 3)
            return -c["a"] * u * ux - c["b"] * uxxx
    else:
        def rhs(u):
            p = pad(u, 1)
            ux = (p[2:, 1:-1] - p[:-2, 1:-1]) / (2 * dx)
            uy = (p[1:-1, 2:] - p[1:-1, :-2]) / (2 * dx)
            return -c["c"] * (ux + uy)
    return rhs


def _padded_march(problem, nx, dt, n_snapshots):
    """The solver as it was before the in-place march: one new array per operation."""
    dx = (problem.domain.upper[0] - problem.domain.lower[0]) / (nx - 1)
    axes = [np.linspace(problem.domain.lower[i], problem.domain.upper[i], nx)
            for i in range(problem.d)]
    w = refsolve._trapz_weights(nx, dx)
    if problem.d == 1:
        X = axes[0][:, None]
        u = problem.u0(X)

        def integrals(u):
            return float(w @ u), float(w @ (u * u))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.reshape(-1) for m in mesh], axis=1)
        u = problem.u0(X).reshape(nx, nx)

        def integrals(u):
            return float(w @ u @ w), float(w @ (u * u) @ w)

    rhs = _padded_rhs(problem, dx)
    is_system = problem.name == "wave1d"
    flux = refsolve._boundary_flux_factory(problem, dx) if problem.d == 1 else None
    state = np.stack([u, problem.v0(X)]) if is_system else u
    T = problem.t_final
    n_steps = int(np.ceil(T / dt))
    snap_steps = set(np.unique(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int)))
    ts, snaps, c1s, c2s, fluxes = [], [], [], [], []
    flux_int = 0.0

    def record(step, state):
        uu = state[0] if is_system else state
        ts.append(min(step * dt, T))
        snaps.append(uu.copy())
        a, b = integrals(uu)
        c1s.append(a)
        c2s.append(b)
        fluxes.append(flux_int)

    record(0, state)
    for step in range(1, n_steps + 1):
        h = dt if step * dt <= T else T - (step - 1) * dt
        if flux is not None:
            f_prev = flux(state[0] if is_system else state)
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(state)) or np.max(np.abs(state)) > 1e6:
            raise DivergenceError(f"{problem.name} reference blew up at step {step}")
        if flux is not None:
            f_new = flux(state[0] if is_system else state)
            flux_int += 0.5 * h * (f_prev + f_new)
        if step in snap_steps:
            record(step, state)
    return dict(ts=np.asarray(ts), snaps=np.asarray(snaps), c1=np.asarray(c1s),
                c2=np.asarray(c2s), c1_flux=np.asarray(fluxes) if flux is not None else None)


def _short_final_step_dt(problem, nx):
    """A stable dt after whose last full step only half a step is left."""
    n = math.ceil(problem.t_final / suggest_dt(problem, nx))
    return problem.t_final / (n + 0.5)


_FIVE = ("advection1d", "reaction_diffusion1d", "wave1d", "kdv1d", "advection2d")
_DEFAULT_NX = {"advection1d": 1024, "reaction_diffusion1d": 512, "wave1d": 512,
               "advection2d": 96}   # kdv1d at 256: about 10 s for the padded march alone
_SMALL_NX = {"kdv1d": (3, 33, 65), "advection2d": (3, 33, 65)}


def _assert_bitwise(ref, oracle):
    for field, want in oracle.items():
        got = getattr(ref, field)
        if want is None:
            assert got is None, field
            continue
        assert got.shape == want.shape, field
        assert np.array_equal(got, want), field
        assert np.array_equal(np.signbit(got), np.signbit(want)), field


@pytest.mark.parametrize("name, nx", [(n, nx) for n in _FIVE
                                      for nx in _SMALL_NX.get(n, (3, 33, 65, 127))])
@pytest.mark.parametrize("short_final", [False, True])
@pytest.mark.parametrize("n_snapshots", [21, 65])
def test_in_place_march_bitwise_equals_padded_march(name, nx, short_final, n_snapshots):
    prob = make_problem(name)
    dt = _short_final_step_dt(prob, nx) if short_final else suggest_dt(prob, nx)
    if short_final:
        assert math.ceil(prob.t_final / dt) * dt > prob.t_final
    ref = solve_reference(prob, nx=nx, dt=dt, n_snapshots=n_snapshots)
    _assert_bitwise(ref, _padded_march(prob, nx, dt, n_snapshots))


@pytest.mark.parametrize("name", sorted(_DEFAULT_NX))
def test_in_place_march_bitwise_at_default_grid(name):
    prob = make_problem(name)
    nx = _DEFAULT_NX[name]
    dt = suggest_dt(prob, nx)
    _assert_bitwise(solve_reference(prob, nx=nx, dt=dt), _padded_march(prob, nx, dt, 65))


def test_neumann_edge_derivative_keeps_its_negative_zero():
    # the reflected stencil at the wall is (u1 - u1) / (2 dx) * (-c) = -0.0
    prob = make_problem("advection1d")
    rhs, _ = refsolve._rhs_factory(prob, 0.5, 5)
    out = np.full(5, np.nan)
    rhs(np.array([0.0, 1.0, 2.0, 3.0, 4.0]), out)
    assert out[0] == 0.0 and np.signbit(out[0])
    assert out[-1] == 0.0 and np.signbit(out[-1])


@pytest.mark.parametrize("name", _FIVE)
def test_rhs_writes_into_out_without_allocating(name):
    prob = make_problem(name)
    nx = 2048 if prob.d == 1 else _DEFAULT_NX[name]
    shape = (2, nx) if name == "wave1d" else (nx,) * prob.d
    rhs, is_system = refsolve._rhs_factory(prob, 2.0 / (nx - 1), nx)
    assert is_system == (name == "wave1d")
    state = np.random.default_rng(0).random(shape)
    out = np.empty(shape)
    rhs(state, out)
    first = out.copy()
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        for _ in range(5):
            assert rhs(state, out) is None
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - base < out.nbytes // 8  # no array-sized temporary
    assert np.array_equal(out, first)


def test_kdv_refuses_a_grid_too_small_for_its_stencil():
    prob = make_problem("kdv1d")
    with pytest.raises(ConfigError, match="at least 3 points"):
        suggest_dt(prob, 2)
    with pytest.raises(ConfigError, match="at least 3 points"):
        solve_reference(prob, nx=2, dt=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", _FIVE)
def test_nonfinite_initial_data_diverges_at_step_one(name, bad):
    # the blow-up check is one NaN-aware reduction: a bare max(|u|) > 1e6
    # would let a NaN through
    prob = make_problem(name)

    def u0(X):
        u = np.ones(X.shape[0])
        u[X.shape[0] // 2] = bad
        return u

    nx = 17
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError, match=r"at step 1$"):
        solve_reference(dataclasses.replace(prob, u0=u0), nx=nx, dt=suggest_dt(prob, nx))
