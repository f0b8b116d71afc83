"""Instrumentation of one `cpl train` run, installed from outside the package.

The benchmark never edits `cpl`.  It replaces module attributes that
`cpl.trainer` and `cpl.cli` look up at call time (and `Tape.backward`) with
thin wrappers defined here, runs the real training loop, and restores the
originals afterwards.

Two modes share the same wrappers:

* untraced: the only clock reads are one at the end of every optimizer step
  (the return of `adam_update`), one at the start of the first step, two
  around every `evaluate` call, and two around the whole run.  These give the
  end-to-end numbers.
* traced: every wrapper also records a span (name, start, end, parent, step)
  in memory.  Step spans are synthesised from the same boundaries the
  untraced mode uses, so both modes define a step identically: from the end
  of the previous step or evaluation to the return of `adam_update`.

Both modes run the same correctness checks: every loss, gradient and metric
row must be finite, and the discrete projection must meet its constraints on
its own support.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from cpl import autodiff, cli, net, refsolve, trainer
from cpl.errors import NumericalAbort

clock = time.perf_counter

# criterion 1 of the acceptance gate: relative residual of a projected moment
CONSERVATION_TOL = 1e-10

# spans inside a step; each is reported as ms per step
STEP_LAYERS = ("sampler.cloud", "trainer.plan", "projection.moments", "pde.residual",
               "autodiff.backward", "trainer.adam", "trainer.gradient")


class SetupDone(Exception):
    """Raised at the first step of a run that measures set-up only."""


class Recorder:
    """Boundary times, spans, counts and check failures of one training run."""

    def __init__(self, trace: bool, setup_only: bool = False, memory_step: int = 1):
        self.trace = trace
        self.setup_only = setup_only
        self.memory_step = memory_step  # step whose gradient runs under tracemalloc
        self.run_enter = self.run_exit = self.first_step = None
        self.boundary = None            # end of the last step or evaluation
        self.step_ms = []
        self.eval_ms = []
        self.steps = 0
        self.evals = 0
        self.attempted = 0              # steps and evaluations started
        self.failures = {}              # failed operation -> message
        self.tape_slots = []
        self.value_evals = []
        self.result = None              # TrainResult of the run
        self.last_cloud = None          # detached cloud of the last step
        self.in_eval = False
        # traced mode only
        self.spans = []                 # [name, start, end, parent, step]
        self.stack = []
        self.setup_span = None
        self.step_span = None
        self.reached = {}               # id(tape) -> (tape, bool array of reached nodes)
        self.live_frac = []
        self.rows = {"all": 0, "moments_in_steps": 0}
        self.eval_rows = []
        self.tape_bytes_peak = 0

    # -- spans ----------------------------------------------------------------

    def open(self, name, start=None):
        """Start a span; untraced, this is a no-op that reads no clock."""
        if not self.trace:
            return None
        parent = self.stack[-1] if self.stack else None
        step = self.steps if self.step_span is not None else None
        self.spans.append([name, clock() if start is None else start, None, parent, step])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx, end=None):
        if idx is None:
            return
        self.spans[idx][2] = clock() if end is None else end
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    # -- boundaries -----------------------------------------------------------

    def enter_step(self):
        """First call inside a step: the cloud advance or `plan_step`."""
        if self.first_step is None:
            self.first_step = self.boundary = clock()
            if self.setup_only:
                raise SetupDone
            self.close(self.setup_span, self.first_step)
        if self.trace and self.step_span is None:
            # no clock read: the step starts where the last step or evaluation ended
            self.step_span = self.open("trainer.step", self.boundary)
            self.spans[self.step_span][4] = self.steps

    def end_step(self, t):
        self.step_ms.append((t - self.boundary) * 1e3)
        self.boundary = t
        if self.trace:
            self.close(self.step_span, t)
            self.step_span = None
            for tape, reached in self.reached.values():
                live = sum(v.size for v, r in zip(tape.values, reached) if r)
                self.live_frac.append(live / tape.num_slots)
            self.reached.clear()
            # the next step starts after the bookkeeping, which is not its work
            self.boundary = clock()
        self.steps += 1

    def fail(self, op, what):
        self.failures.setdefault(op, what)


def _check_step(rec, args, kwargs, diag):
    """Finite loss; discrete projection exact on its own support."""
    if not math.isfinite(diag.loss):
        rec.fail(f"step {rec.steps}", "non-finite loss")
    if diag.proj_residuals:
        problem, plan = args[1], args[3]
        targets = kwargs["targets"] if "targets" in kwargs else args[4]
        vol = problem.domain.volume
        for t, (r1, r2) in zip(plan.ts, diag.proj_residuals):
            c1, c2, _ = targets.at(float(t))
            worst = max(r1 / (1.0 + abs(c1 * vol)), r2 / (1.0 + abs(c2 * vol)))
            if worst > CONSERVATION_TOL:
                rec.fail(f"step {rec.steps}", f"discrete projection residual {worst:.2e} "
                                              f"on its support (tol {CONSERVATION_TOL:g})")
    rec.tape_slots.append(diag.tape_nodes)
    rec.value_evals.append(diag.value_evals)


def _patch(table, obj, attr, make):
    table.append((obj, attr, getattr(obj, attr)))
    setattr(obj, attr, make(getattr(obj, attr)))


@contextmanager
def instrumented(rec: Recorder):
    """Install the wrappers for one run; restore the originals on exit."""
    saved = []
    try:
        _install(rec, saved)
        yield rec
    finally:
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)


def _spanned(rec, name):
    def make(fn):
        def wrapper(*args, **kwargs):
            idx = rec.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper
    return make


def _install(rec: Recorder, saved):
    trace = rec.trace

    def run_training(fn):
        def wrapper(*args, **kwargs):
            rec.run_enter = clock()
            rec.open("trainer.run", rec.run_enter)
            rec.setup_span = rec.open("trainer.setup", rec.run_enter)
            try:
                rec.result = fn(*args, **kwargs)
            finally:
                rec.run_exit = clock()
                while rec.stack:
                    rec.close(rec.stack[-1], rec.run_exit)
            return rec.result
        return wrapper

    def plan_step(fn):
        def wrapper(*args, **kwargs):
            rec.enter_step()
            idx = rec.open("trainer.plan")
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return wrapper

    def adam_update(fn):
        def wrapper(state, params, grad, lr, *args, **kwargs):
            if not np.all(np.isfinite(grad)):
                rec.fail(f"step {rec.steps}", "non-finite gradient")
            idx = rec.open("trainer.adam")
            try:
                out = fn(state, params, grad, lr, *args, **kwargs)
            finally:
                rec.close(idx)
            rec.end_step(clock())
            return out
        return wrapper

    def gradient(fn):
        def wrapper(*args, **kwargs):
            rec.attempted += 1
            probe = trace and rec.steps == rec.memory_step
            idx = rec.open("trainer.gradient")
            if probe:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
            except NumericalAbort:
                rec.fail(f"step {rec.steps}", "NumericalAbort")
                raise
            finally:
                if probe:
                    rec.tape_bytes_peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                rec.close(idx)
            _check_step(rec, args, kwargs, out[1])
            return out
        return wrapper

    def evaluate(fn):
        def wrapper(*args, **kwargs):
            rec.attempted += 1
            t0 = clock()
            rec.in_eval = True
            idx = rec.open("trainer.evaluate", t0)
            rows0 = rec.rows["all"]
            try:
                out = fn(*args, **kwargs)
            except NumericalAbort:
                rec.fail(f"evaluation {rec.evals}", "NumericalAbort")
                raise
            finally:
                t1 = clock()
                rec.in_eval = False
                rec.close(idx, t1)
            rec.eval_rows.append(rec.rows["all"] - rows0)
            rec.eval_ms.append((t1 - t0) * 1e3)
            rec.boundary = t1
            rec.evals += 1
            values = [out.error_c1, out.error_c2]
            if not math.isnan(out.error_u):
                values.append(out.error_u)
            if not all(math.isfinite(v) for v in values):
                rec.fail(f"evaluation {rec.evals - 1}", "non-finite metrics row")
            return out
        return wrapper

    def spatial_cloud(fn):
        def wrapper(*args, **kwargs):
            if not rec.in_eval and rec.first_step is not None:
                rec.enter_step()        # the cloud advance opens a step
            idx = rec.open("sampler.cloud")
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if not rec.in_eval:
                rec.last_cloud = out.points
            return out
        return wrapper

    def moments(rows_of):
        def make(fn):
            def wrapper(params, cloud_points, t, *args, **kwargs):
                rows = rows_of(cloud_points, t)
                if rec.step_span is not None:
                    rec.rows["moments_in_steps"] += rows
                idx = rec.open("projection.moments")
                try:
                    return fn(params, cloud_points, t, *args, **kwargs)
                finally:
                    rec.close(idx)
            return wrapper
        return make

    def forward_array(fn):
        def wrapper(params, X, *args, **kwargs):
            rec.rows["all"] += X.shape[0]
            return fn(params, X, *args, **kwargs)
        return wrapper

    def backward(fn):
        def wrapper(tape, root):
            idx = rec.open("autodiff.backward")
            try:
                adj = fn(tape, root)
            finally:
                rec.close(idx)
            idx = rec.open("trace.bookkeeping")
            reached = np.fromiter((a is not None for a in adj), bool, len(adj))
            if id(tape) in rec.reached:     # the tape may have grown since
                prev = rec.reached[id(tape)][1]
                reached[:prev.size] |= prev
            rec.reached[id(tape)] = (tape, reached)
            rec.close(idx)
            return adj
        return wrapper

    def projection_provider(fn):
        def wrapper(*args, **kwargs):
            # called outside evaluate only for the final (t, alpha, beta) table
            if not rec.in_eval and not rec.inside("trainer.affine_table"):
                rec.open("trainer.affine_table")
            return fn(*args, **kwargs)
        return wrapper

    _patch(saved, cli, "run_training", run_training)
    _patch(saved, trainer, "plan_step", plan_step)
    _patch(saved, trainer, "adam_update", adam_update)
    _patch(saved, trainer, "step_sdifp", gradient)
    _patch(saved, trainer, "step_baseline", gradient)
    _patch(saved, trainer, "evaluate", evaluate)
    _patch(saved, trainer, "spatial_cloud", spatial_cloud)
    if not trace:
        return
    _patch(saved, trainer, "moments_at_times",
           moments(lambda pts, times: pts.shape[0] * len(times)))
    _patch(saved, trainer, "estimate_moments", moments(lambda pts, t: pts.shape[0]))
    _patch(saved, trainer, "residual_sampled", _spanned(rec, "pde.residual"))
    _patch(saved, trainer, "init_params", _spanned(rec, "net.init"))
    _patch(saved, trainer, "projection_provider", projection_provider)
    _patch(saved, refsolve, "solve_reference", _spanned(rec, "refsolve.solve"))
    _patch(saved, trainer, "forward_array", forward_array)
    _patch(saved, net, "forward_array", forward_array)
    _patch(saved, autodiff.Tape, "backward", backward)


def layer_metrics(rec: Recorder, flops_per_row: int) -> dict:
    """Per-layer numbers of one traced run.

    Times inside a step are ms per step: their total over every step except
    the one whose gradient ran under tracemalloc, divided by the number of
    those steps.  Only `trainer.gradient`, `trainer.step` and
    `trainer.evaluate` have child spans; their `_self_ms` is the span minus
    its children.  Every other layer's time is its self time.
    """
    spans = rec.spans
    dur = [end - start for _, start, end, _, _ in spans]
    self_t = list(dur)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent is not None:
            self_t[parent] -= dur[i]
    steps = [s for s in spans if s[0] == "trainer.step" and s[4] != rec.memory_step]
    n_steps = max(1, len(steps))

    def step_total(name, times):
        return 1e3 * sum(times[i] for i, s in enumerate(spans)
                         if s[0] == name and s[4] is not None
                         and s[4] != rec.memory_step) / n_steps

    def named(name, times=dur):
        return [1e3 * times[i] for i, s in enumerate(spans) if s[0] == name]

    out = {}
    for name in STEP_LAYERS:
        out[name + "_ms"] = step_total(name, dur)
    out["trainer.gradient_self_ms"] = step_total("trainer.gradient", self_t)
    out["trainer.step_self_ms"] = step_total("trainer.step", self_t)
    out["trainer.step_ms"] = float(np.median(named("trainer.step") or [0.0]))
    out["trainer.steps"] = len(steps)
    out["projection.moment_rows"] = rec.rows["moments_in_steps"] / max(1, rec.steps)
    calls = sum(1 for s in spans if s[0] == "autodiff.backward" and s[4] is not None)
    out["autodiff.backward_calls"] = calls / max(1, rec.steps)
    out["autodiff.tape_slots"] = max(rec.tape_slots, default=0)
    out["autodiff.live_slot_frac"] = float(np.mean(rec.live_frac)) if rec.live_frac else 0.0
    out["autodiff.tape_bytes_peak"] = rec.tape_bytes_peak
    out["trainer.value_evals"] = float(np.mean(rec.value_evals)) if rec.value_evals else 0.0
    out["trainer.evaluate_ms"] = float(np.median(named("trainer.evaluate") or [0.0]))
    out["trainer.evaluate_self_ms"] = float(np.median(
        named("trainer.evaluate", self_t) or [0.0]))
    out["trainer.evaluate_rows"] = float(np.median(rec.eval_rows)) if rec.eval_rows else 0.0
    out["trainer.affine_table_ms"] = sum(named("trainer.affine_table"))
    out["refsolve.solve_ms"] = sum(named("refsolve.solve"))
    # detached forward: rows counted at net.forward_array, flops computed from
    # the layer shapes; the time base is every span whose work it is
    flops = rec.rows["all"] * flops_per_row
    detached_s = (sum(dur[i] for i, s in enumerate(spans)
                      if s[0] == "projection.moments" and s[4] is not None)
                  + sum(dur[i] for i, s in enumerate(spans)
                        if s[0] in ("trainer.evaluate", "trainer.affine_table")))
    out["net.detached_flops"] = flops
    out["net.detached_gflops"] = flops / detached_s / 1e9 if detached_s > 0 else 0.0
    return out
