"""Independent finite-difference reference solutions.

Method of lines with central stencils and ghost-cell reflection for the
Neumann boundaries, marched by classic RK4.  This module shares no numerical
code with the network pipeline beyond primitive arithmetic, so its solution
snapshots and invariant tables can serve as an oracle for error metrics.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import CflViolation, ConfigError, DivergenceError
from .pde import PDEProblem

_BLOWUP = 1e6
_VERSION = 1


@dataclass
class ReferenceSolution:
    problem_name: str
    axes: list            # grid axis per spatial dimension
    ts: np.ndarray        # snapshot times
    snaps: np.ndarray     # (nt, nx) or (nt, nx, ny)
    c1: np.ndarray
    c2: np.ndarray
    dt: float
    c1_flux: np.ndarray = None  # time-integrated boundary outflux of c1, when tracked

    @property
    def grid_points(self):
        if len(self.axes) == 1:
            return self.axes[0][:, None]
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)


class InvariantTable:
    """Linear interpolation accessor over the reference c(t) tables."""

    def __init__(self, ts, c1, c2):
        self.ts = np.asarray(ts)
        self._c1 = np.asarray(c1)
        self._c2 = np.asarray(c2)

    def _interp(self, t, ys):
        if t < self.ts[0] - 1e-12 or t > self.ts[-1] + 1e-12:
            raise ValueError(f"t={t} outside the tabulated range "
                             f"[{self.ts[0]}, {self.ts[-1]}]")
        return float(np.interp(t, self.ts, ys))

    def c1(self, t):
        return self._interp(t, self._c1)

    def c2(self, t):
        return self._interp(t, self._c2)


def invariant_table(ref: ReferenceSolution) -> InvariantTable:
    return InvariantTable(ref.ts, ref.c1, ref.c2)


def cfl_limit(problem: PDEProblem, dx):
    """Stability bound on dt for the problem's stiffest term (with safety factor)."""
    c = problem.constants
    name = problem.name
    if name in ("advection1d", "advection2d"):
        return 0.4 * dx / abs(c["c"]) / (1 if name == "advection1d" else 2)
    if name == "reaction_diffusion1d":
        return min(0.2 * dx * dx / c["D"], 0.5 / c["k"])
    if name == "wave1d":
        return 0.4 * dx / abs(c["c"])
    if name == "kdv1d":
        return min(0.08 * dx ** 3 / c["b"], 0.4 * dx / (abs(c["a"]) * 1.5))
    raise ConfigError(f"no reference solver for problem {name!r}")


def _grid_step(problem: PDEProblem, nx):
    """Spacing of the nx-point reference grid; fewer than two points is no grid.

    KdV's five-point stencil needs a third point: its reflected ghost cells
    at each wall are the two nearest interior points.
    """
    least = 3 if problem.name == "kdv1d" else 2
    if nx < least:
        raise ConfigError(f"a {problem.name} reference grid needs at least {least} "
                          f"points per axis, got nx={nx}")
    return (problem.domain.upper[0] - problem.domain.lower[0]) / (nx - 1)


def suggest_dt(problem: PDEProblem, nx):
    return 0.9 * cfl_limit(problem, _grid_step(problem, nx))


def _reflect_edges(g, u, w):
    """Copy u into the ghost array g and fill its w ghost cells per side.

    The edges follow ``np.pad(u, w, mode="reflect")``: the mirror image about
    the end point, which is itself not repeated.
    """
    g[w:-w] = u
    g[:w] = u[w:0:-1]
    g[-w:] = u[-2:-w - 2:-1]


def _rhs_factory(problem: PDEProblem, dx, nx):
    """Return ``(rhs, is_system)``; ``rhs(state, out)`` writes d(state)/dt into out.

    Stencils read one preallocated ghost-cell array per problem, so a call
    allocates nothing.  Each expression keeps the operation order of the
    plain array formula in its comment, so the values are the same bits.
    """
    name = problem.name
    c = problem.constants
    two_dx, dx2 = 2 * dx, dx * dx

    if name == "advection1d":
        # -c * (p[2:] - p[:-2]) / (2 dx)
        neg_speed = -c["c"]
        g = np.empty(nx + 2)
        lo, hi = g[:-2], g[2:]

        def rhs(u, out):
            _reflect_edges(g, u, 1)
            np.subtract(hi, lo, out=out)
            out /= two_dx
            out *= neg_speed
        return rhs, False

    if name in ("reaction_diffusion1d", "wave1d"):
        # D * (p[2:] - 2 u + p[:-2]) / dx^2 + k u, or (v, c^2 * uxx) for the wave
        g = np.empty(nx + 2)
        lo, hi = g[:-2], g[2:]

        def uxx_times(u, scale, out):
            _reflect_edges(g, u, 1)
            np.multiply(u, 2.0, out=out)
            np.subtract(hi, out, out=out)
            out += lo
            out /= dx2
            out *= scale

        if name == "wave1d":
            speed2 = c["c"] ** 2

            def rhs(state, out):
                np.copyto(out[0], state[1])
                uxx_times(state[0], speed2, out[1])
            return rhs, True

        D, k = c["D"], c["k"]
        ku = np.empty(nx)

        def rhs(u, out):
            uxx_times(u, D, out)
            np.multiply(u, k, out=ku)
            out += ku
        return rhs, False

    if name == "kdv1d":
        # -a u (p[3:-1] - p[1:-3]) / (2 dx)
        #   - b (p[4:] - 2 p[3:-1] + 2 p[1:-3] - p[:-4]) / (2 dx^3)
        neg_a, b = -c["a"], c["b"]
        two_dx3 = 2 * dx ** 3
        g, twice = np.empty(nx + 4), np.empty(nx + 4)
        m2, m1, p1, p2 = g[:-4], g[1:-3], g[3:-1], g[4:]
        twice_m1, twice_p1 = twice[1:-3], twice[3:-1]
        scratch = np.empty(nx), np.empty(nx)

        def rhs(u, out):
            uxxx, ux = scratch
            _reflect_edges(g, u, 2)
            np.multiply(g, 2.0, out=twice)
            np.subtract(p2, twice_p1, out=uxxx)
            uxxx += twice_m1
            uxxx -= m2
            uxxx /= two_dx3
            uxxx *= b
            np.subtract(p1, m1, out=ux)
            ux /= two_dx
            np.multiply(u, neg_a, out=out)
            out *= ux
            out -= uxxx
        return rhs, False

    if name == "advection2d":
        # -c * (ux + uy); the stencils read edge rows and columns, never corners.
        # Both differences run over rows 1..nx of the ghost array whole, as
        # flat (nx, nx+2) slices, so every ufunc is one contiguous 1-D loop
        # (on 2-D strided views each takes numpy's 64 KiB iterator buffer);
        # columns 0 and nx+1 of the result are discarded.
        neg_speed = -c["c"]
        w = nx + 2
        g = np.zeros((w, w))
        flat = g.reshape(-1)
        inner = g[1:-1, 1:-1]
        west, east = flat[:nx * w], flat[2 * w:]
        south, north = flat[w - 1:(nx + 1) * w - 1], flat[w + 1:(nx + 1) * w + 1]
        scratch = np.empty(nx * w), np.empty(nx * w)
        ux_inner = scratch[0].reshape(nx, w)[:, 1:-1]

        def rhs(u, out):
            ux, uy = scratch
            inner[...] = u
            g[0, 1:-1] = u[1]
            g[-1, 1:-1] = u[-2]
            g[1:-1, 0] = u[:, 1]
            g[1:-1, -1] = u[:, -2]
            np.subtract(east, west, out=ux)
            ux /= two_dx
            np.subtract(north, south, out=uy)
            uy /= two_dx
            ux += uy
            ux *= neg_speed
            np.copyto(out, ux_inner)
        return rhs, False

    raise ConfigError(f"no reference solver for problem {name!r}")


def _trapz_weights(n, dx):
    w = np.full(n, dx)
    w[0] = w[-1] = dx / 2
    return w


def _boundary_flux_factory(problem: PDEProblem, dx):
    """Net boundary outflux d(c1)/dt = F(right) - F(left), where available.

    Lets the mass balance c1(t) = c1(0) - integral of the outflux be checked
    even when the physical flux through the walls is not negligible.
    """
    c = problem.constants
    if problem.name == "advection1d":
        speed = c["c"]

        def flux(u):
            return speed * (u[-1] - u[0])
        return flux
    return None


def solve_reference(problem: PDEProblem, nx, dt, n_snapshots=65,
                    cache_dir=None) -> ReferenceSolution:
    """March the problem to its final time, storing snapshots and invariant tables.

    dt must respect the CFL bound of the stiffest term; the solution is
    declared divergent if any value exceeds 1e6 in magnitude.
    """
    d = problem.d
    if d > 2:
        raise ConfigError("reference solves support one or two spatial dimensions")
    dx = _grid_step(problem, nx)
    if not dt > 0.0:
        raise ConfigError(f"the reference time step must be positive, got dt={dt}")
    limit = cfl_limit(problem, dx)
    if dt > limit:
        raise CflViolation(f"dt={dt:.3e} exceeds the stability bound {limit:.3e} "
                           f"for {problem.name} at nx={nx}")
    if cache_dir is not None:
        cached = _load_cache(problem, nx, dt, n_snapshots, cache_dir)
        if cached is not None:
            return cached

    axes = [np.linspace(problem.domain.lower[i], problem.domain.upper[i], nx)
            for i in range(d)]
    if d == 1:
        X = axes[0][:, None]
        u = problem.u0(X)
        w = _trapz_weights(nx, dx)

        def integrals(u):
            return float(w @ u), float(w @ (u * u))
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        X = np.stack([m.reshape(-1) for m in mesh], axis=1)
        u = problem.u0(X).reshape(nx, nx)
        w1 = _trapz_weights(nx, dx)

        def integrals(u):
            return float(w1 @ u @ w1), float(w1 @ (u * u) @ w1)

    rhs, is_system = _rhs_factory(problem, dx, nx)
    flux = _boundary_flux_factory(problem, dx) if d == 1 else None
    if is_system:
        v = problem.v0(X) if problem.v0 is not None else np.zeros_like(u)
        state = np.stack([u, v])
    else:
        state = np.array(u, dtype=float)
    uu = state[0] if is_system else state   # a view: state is updated in place

    T = problem.t_final
    n_steps = int(np.ceil(T / dt))
    # a set of ints, not np.unique, which imports numpy.ma
    snap_steps = set(np.round(np.linspace(0, n_steps, n_snapshots)).astype(int).tolist())

    ts, snaps, c1s, c2s, fluxes = [], [], [], [], []
    flux_int = 0.0

    def record(step):
        ts.append(min(step * dt, T))
        snaps.append(uu.copy())
        a, b = integrals(uu)
        c1s.append(a)
        c2s.append(b)
        fluxes.append(flux_int)

    # classic RK4 in six buffers: state, the stage argument and k1..k4, with
    # the operation order of state + (h/6) * (((k1 + 2 k2) + 2 k3) + k4)
    stage, k1, k2, k3, k4 = (np.empty_like(state) for _ in range(5))
    f_prev = flux(uu) if flux is not None else None
    record(0)
    for step in range(1, n_steps + 1):
        h = dt if step * dt <= T else T - (step - 1) * dt
        rhs(state, k1)
        np.multiply(k1, 0.5 * h, out=stage)
        stage += state
        rhs(stage, k2)
        np.multiply(k2, 0.5 * h, out=stage)
        stage += state
        rhs(stage, k3)
        np.multiply(k3, h, out=stage)
        stage += state
        rhs(stage, k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= h / 6.0
        state += k1
        # one reduction for both checks: a NaN or an inf fails the comparison
        if not np.abs(state, out=k1).max() <= _BLOWUP:
            raise DivergenceError(f"{problem.name} reference blew up at step {step}")
        if flux is not None:
            f_new = flux(uu)
            flux_int += 0.5 * h * (f_prev + f_new)
            f_prev = f_new
        if step in snap_steps:
            record(step)

    ref = ReferenceSolution(problem_name=problem.name, axes=axes,
                            ts=np.asarray(ts), snaps=np.asarray(snaps),
                            c1=np.asarray(c1s), c2=np.asarray(c2s), dt=dt,
                            c1_flux=np.asarray(fluxes) if flux is not None else None)
    if cache_dir is not None:
        _save_cache(ref, problem, nx, dt, n_snapshots, cache_dir)
    return ref


def _cache_key(problem, nx, dt, n_snapshots):
    consts = ",".join(f"{k}={v}" for k, v in sorted(problem.constants.items()))
    key = f"v{_VERSION}:{problem.name}:{problem.d}:{nx}:{dt:.6e}:{problem.t_final}:" \
          f"{n_snapshots}:{consts}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def _cache_path(problem, nx, dt, n_snapshots, cache_dir):
    return os.path.join(cache_dir, f"ref_{problem.name}_{nx}_"
                                   f"{_cache_key(problem, nx, dt, n_snapshots)}.npz")


def _load_cache(problem, nx, dt, n_snapshots, cache_dir):
    path = _cache_path(problem, nx, dt, n_snapshots, cache_dir)
    if not os.path.exists(path):
        return None
    data = np.load(path, allow_pickle=False)
    if str(data["key"]) != _cache_key(problem, nx, dt, n_snapshots):
        return None
    axes = [data[f"axis{i}"] for i in range(problem.d)]
    return ReferenceSolution(problem_name=problem.name, axes=axes, ts=data["ts"],
                             snaps=data["snaps"], c1=data["c1"], c2=data["c2"],
                             dt=float(data["dt"]),
                             c1_flux=data["c1_flux"] if "c1_flux" in data else None)


def _save_cache(ref, problem, nx, dt, n_snapshots, cache_dir):
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(problem, nx, dt, n_snapshots, cache_dir)
    payload = {"key": _cache_key(problem, nx, dt, n_snapshots), "ts": ref.ts,
               "snaps": ref.snaps, "c1": ref.c1, "c2": ref.c2, "dt": ref.dt}
    if ref.c1_flux is not None:
        payload["c1_flux"] = ref.c1_flux
    for i, ax in enumerate(ref.axes):
        payload[f"axis{i}"] = ax
    # renamed into place only once complete: never read half-written
    fd, tmp = tempfile.mkstemp(suffix=".npz", dir=cache_dir)
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
