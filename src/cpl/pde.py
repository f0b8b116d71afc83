"""PDE problem definitions with the residual split into linear terms plus a
nonlinear remainder.

Each linear term is a small sum of derivative atoms (coefficient, coordinate,
order); the action of a term on the constant function is the sum of its
zeroth-order coefficients, which is exactly the quantity the projection's
shift channel needs.  Residuals are evaluated against a *field* object that
supplies values and directional jets, so the same code runs on raw network
output, projected output, or analytic test fields, recorded or not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .net import TIME
from .sampler import Domain, SeededRng, sample_interior

PROBLEM_NAMES = ("advection1d", "advection2d", "reaction_diffusion1d", "wave1d",
                 "kdv1d", "sine_gordon_nd", "fokker_planck_linear_nd")

_FACT = (1.0, 1.0, 2.0, 6.0)


@dataclass(frozen=True)
class DerivAtom:
    coeff: float
    coord: int   # spatial index 0..d-1, or TIME
    order: int   # 0 marks an identity (zeroth-order) atom

    def __post_init__(self):
        if self.order < 0 or self.order > 3:
            raise ConfigError("derivative order must be within 0..3")


@dataclass(frozen=True)
class LinearTerm:
    atoms: tuple

    def action_on_one(self):
        """L_k[1]: nonzero only when the term carries identity atoms."""
        return float(sum(a.coeff for a in self.atoms if a.order == 0))


@dataclass
class PDEProblem:
    name: str
    d: int
    domain: Domain
    terms: tuple                      # tuple[LinearTerm]
    nonlinear: str                    # "none" | "conv_self" | "sin"
    nonlinear_coeff: float
    u0: Callable[[np.ndarray], np.ndarray]
    v0: Optional[Callable] = None     # initial velocity for second-order-in-time problems
    time_order: int = 1
    constants: dict = dfield(default_factory=dict)
    c1_exact: Optional[Callable] = None
    c2_exact: Optional[Callable] = None
    _c1_table: Optional[Callable] = None
    _c2_table: Optional[Callable] = None

    @property
    def n_terms(self):
        return len(self.terms)

    @property
    def t_final(self):
        return self.domain.t_final

    def needs_invariant_table(self):
        return self.c1_exact is None or self.c2_exact is None

    def attach_invariant_table(self, table):
        """Fill missing invariant trajectories from a reference c(t) table."""
        if self.c1_exact is None:
            self._c1_table = table.c1
        if self.c2_exact is None:
            self._c2_table = table.c2

    def invariant_targets(self, t):
        """(c1(t), c2(t)); analytic where known, interpolated table otherwise."""
        if t < -1e-12 or t > self.t_final + 1e-12:
            raise ValueError(f"t={t} outside [0, {self.t_final}]")
        c1 = self.c1_exact(t) if self.c1_exact is not None else _require(self._c1_table, self.name)(t)
        c2 = self.c2_exact(t) if self.c2_exact is not None else _require(self._c2_table, self.name)(t)
        return float(c1), float(c2)

    def domain_averaged_targets(self):
        from .projection import TargetInvariants
        vol = self.domain.volume
        return TargetInvariants(c1_bar=lambda t: self.invariant_targets(t)[0] / vol,
                                c2_bar=lambda t: self.invariant_targets(t)[1] / vol)


def _require(table, name):
    if table is None:
        raise ConfigError(f"problem {name} needs a reference invariant table; "
                          "attach one with attach_invariant_table()")
    return table


# -- residual evaluation -------------------------------------------------------

def scaled(w, x):
    """w * x, or x itself when w is exactly 1.0: x * 1.0 == x bit for bit, so a
    tape records no node for it."""
    return x if w == 1.0 else w * x


def term_value(term: LinearTerm, field):
    """Evaluate one linear term on a field batch.

    Atoms sharing a coordinate reuse one jet of the maximal order; atoms on
    different coordinates (or identity atoms) accumulate independently.
    """
    acc = None
    by_coord = {}
    for atom in term.atoms:
        if atom.order == 0:
            contrib = atom.coeff * field.value()
            acc = contrib if acc is None else acc + contrib
        else:
            by_coord.setdefault(atom.coord, []).append(atom)
    for coord, atoms in by_coord.items():
        order = max(a.order for a in atoms)
        jet = field.jet(coord, order)
        for a in atoms:
            c = jet.coeff(a.order)
            if c is None:
                continue
            contrib = scaled(a.coeff * _FACT[a.order], c)
            acc = contrib if acc is None else acc + contrib
    return acc


def nonlinear_value(problem: PDEProblem, field):
    if problem.nonlinear == "none":
        return None
    if problem.nonlinear == "conv_self":
        du = field.jet(0, 1).coeff(1)
        return scaled(problem.nonlinear_coeff, field.value() * du)
    if problem.nonlinear == "sin":
        v = field.value()
        s = v.sin() if hasattr(v, "sin") else np.sin(v)
        return scaled(problem.nonlinear_coeff, s)
    raise ConfigError(f"unknown nonlinear tag {problem.nonlinear!r}")


def residual_full(problem: PDEProblem, field):
    """Sum of all linear terms plus the nonlinear remainder."""
    return residual_sampled(problem, field, range(problem.n_terms))


def residual_sampled(problem: PDEProblem, field, index_set):
    """(N_L/|S|) * sum of the sampled linear terms, plus the full nonlinear part."""
    idx = list(index_set)
    if len(idx) == 0:
        raise ConfigError("empty operator index set")
    scale = problem.n_terms / len(idx)
    acc = None
    for k in idx:
        tv = term_value(problem.terms[k], field)
        if tv is None:
            continue
        acc = tv if acc is None else acc + tv
    if acc is not None:
        acc = scaled(scale, acc)
    nl = nonlinear_value(problem, field)
    if nl is not None:
        acc = nl if acc is None else acc + nl
    return acc


# -- initial / boundary data ---------------------------------------------------

def ic_loss(problem: PDEProblem, field0, ic_points):
    """Mean squared initial-condition mismatch at t = 0."""
    target = problem.u0(ic_points)
    diff = field0.value() - target
    loss = _mean_sq(diff)
    if problem.time_order == 2:
        v_target = problem.v0(ic_points) if problem.v0 is not None else 0.0
        dt = field0.jet(TIME, 1).coeff(1)
        loss = loss + _mean_sq(dt - v_target)
    return loss


def neumann_loss(field, coord):
    """Mean squared normal derivative over boundary points on faces normal to coord."""
    du = field.jet(coord, 1).coeff(1)
    return _mean_sq(du)


def _mean_sq(x):
    if hasattr(x, "tape"):
        return x.tape.mean(x.pow2())
    x = np.asarray(x)
    return float((x * x).mean())


def boundary_groups(domain: Domain, n, rng: SeededRng):
    """Boundary sample grouped by face-normal coordinate: {coord: (m, d) points}."""
    d = domain.dim
    lo = np.asarray(domain.lower)
    hi = np.asarray(domain.upper)
    X = sample_interior(domain, n, rng)
    coords = rng.integers(0, d, size=n)
    sides = rng.integers(0, 2, size=n)
    groups = {}
    for c in range(d):
        sel = coords == c
        if not np.any(sel):
            continue
        pts = X[sel].copy()
        pts[:, c] = np.where(sides[sel] == 0, lo[c], hi[c])
        groups[c] = pts
    return groups


# -- problem registry -----------------------------------------------------------

def _gauss_1d_integrals(width, lo=0.0, hi=2.0, center=1.0):
    """Exact integrals of exp(-((x-c)/w)^2) and its square over [lo, hi].

    math.erf, not scipy's, so that a training process never imports scipy.
    """
    a = (hi - center) / width
    b = (center - lo) / width
    i1 = width * math.sqrt(math.pi) / 2.0 * (math.erf(a) + math.erf(b))
    s2 = math.sqrt(2.0)
    i2 = width * math.sqrt(math.pi / 2.0) / 2.0 * (math.erf(s2 * a) + math.erf(s2 * b))
    return i1, i2


def _product_gaussian(widths):
    def u0(X):
        z = (X - 1.0) / np.asarray(widths)
        return np.exp(-(z * z).sum(axis=1))
    return u0


def make_problem(name, dim=None, fold_symmetric_pairs=False) -> PDEProblem:
    """Problem registry addressed by name.

    ``dim`` parameterizes the n-dimensional families (capped at 64);
    ``fold_symmetric_pairs`` merges the (i, j)/(j, i) operator terms of the
    drift-diffusion family, halving the term count without changing the
    operator.
    """
    if name == "advection1d":
        # T capped at 0.4 so the pulse never reaches the outflow wall; beyond
        # t ~ 0.6 the boundary flux destroys the constant-mass property.
        c = 1.0
        domain = Domain((0.0,), (2.0,), 0.4)
        terms = (LinearTerm((DerivAtom(1.0, TIME, 1),)),
                 LinearTerm((DerivAtom(c, 0, 1),)))
        i1, _ = _gauss_1d_integrals(0.25)
        return PDEProblem(
            name=name, d=1, domain=domain, terms=terms, nonlinear="none",
            nonlinear_coeff=0.0, u0=_product_gaussian([0.25]),
            constants={"c": c, "ic_width": 0.25},
            c1_exact=lambda t, v=i1: v, c2_exact=None)

    if name == "advection2d":
        # the wide 2d pulse loses mass through the walls from t = 0 on, so both
        # invariant trajectories come from the reference table
        c = 1.0
        domain = Domain((0.0, 0.0), (2.0, 2.0), 0.4)
        terms = (LinearTerm((DerivAtom(1.0, TIME, 1),)),
                 LinearTerm((DerivAtom(c, 0, 1),)),
                 LinearTerm((DerivAtom(c, 1, 1),)))
        return PDEProblem(
            name=name, d=2, domain=domain, terms=terms, nonlinear="none",
            nonlinear_coeff=0.0, u0=_product_gaussian([1.0, 1.0]),
            constants={"c": c, "ic_width": 1.0},
            c1_exact=None, c2_exact=None)

    if name == "reaction_diffusion1d":
        D, k = 0.01, 0.5
        domain = Domain((0.0,), (2.0,), 1.0)
        terms = (LinearTerm((DerivAtom(1.0, TIME, 1),)),
                 LinearTerm((DerivAtom(-D, 0, 2),)),
                 LinearTerm((DerivAtom(-k, 0, 0),)))
        i1, _ = _gauss_1d_integrals(0.5)
        return PDEProblem(
            name=name, d=1, domain=domain, terms=terms, nonlinear="none",
            nonlinear_coeff=0.0, u0=_product_gaussian([0.5]),
            constants={"D": D, "k": k, "ic_width": 0.5},
            c1_exact=lambda t, v=i1, k_=k: v * math.exp(k_ * t), c2_exact=None)

    if name == "wave1d":
        c = 1.0
        domain = Domain((0.0,), (2.0,), 1.0)
        terms = (LinearTerm((DerivAtom(1.0, TIME, 2),)),
                 LinearTerm((DerivAtom(-c * c, 0, 2),)))
        i1, _ = _gauss_1d_integrals(1.0)
        return PDEProblem(
            name=name, d=1, domain=domain, terms=terms, nonlinear="none",
            nonlinear_coeff=0.0, u0=_product_gaussian([1.0]),
            v0=lambda X: np.zeros(X.shape[0]), time_order=2,
            constants={"c": c, "ic_width": 1.0},
            c1_exact=lambda t, v=i1: v, c2_exact=None)

    if name == "kdv1d":
        # the Gaussian tails at the walls (e^-1) leak flux at the percent level
        # over the horizon, so both invariants follow the reference table
        a, b = 1.0, 0.0025
        domain = Domain((0.0,), (2.0,), 1.0)
        terms = (LinearTerm((DerivAtom(1.0, TIME, 1),)),
                 LinearTerm((DerivAtom(b, 0, 3),)))
        return PDEProblem(
            name=name, d=1, domain=domain, terms=terms, nonlinear="conv_self",
            nonlinear_coeff=a, u0=_product_gaussian([1.0]),
            constants={"a": a, "b": b, "ic_width": 1.0},
            c1_exact=None, c2_exact=None)

    if name == "sine_gordon_nd":
        d = _check_dim(dim)
        domain = Domain((0.0,) * d, (2.0,) * d, 1.0)
        terms = [LinearTerm((DerivAtom(1.0, TIME, 2),))]
        terms += [LinearTerm((DerivAtom(-1.0, i, 2),)) for i in range(d)]
        i1, i2 = _gauss_1d_integrals(1.0)
        return PDEProblem(
            name=name, d=d, domain=domain, terms=tuple(terms), nonlinear="sin",
            nonlinear_coeff=1.0, u0=_product_gaussian([1.0] * d),
            v0=lambda X: np.zeros(X.shape[0]), time_order=2,
            constants={"ic_width": 1.0},
            c1_exact=lambda t, v=i1 ** d: v, c2_exact=lambda t, v=i2 ** d: v)

    if name == "fokker_planck_linear_nd":
        d = _check_dim(dim)
        F = 0.1
        domain = Domain((0.0,) * d, (2.0,) * d, 1.0)
        terms = _drift_diffusion_terms(d, F, fold_symmetric_pairs)
        i1, i2 = _gauss_1d_integrals(1.0)
        return PDEProblem(
            name=name, d=d, domain=domain, terms=terms, nonlinear="none",
            nonlinear_coeff=0.0, u0=_product_gaussian([1.0] * d),
            constants={"F": F, "ic_width": 1.0,
                       "fold_symmetric_pairs": fold_symmetric_pairs},
            c1_exact=lambda t, v=i1 ** d: v, c2_exact=lambda t, v=i2 ** d: v)

    raise ConfigError(f"unknown problem {name!r}; choose one of {PROBLEM_NAMES}")


def _check_dim(dim):
    if dim is None:
        raise ConfigError("n-dimensional problems need an explicit dim")
    d = int(dim)
    if d < 1 or d > 64:
        raise ConfigError("dim must be within 1..64")
    return d


def _drift_diffusion_terms(d, F, fold):
    """One term per (i, j) index pair of the drift-diffusion operator.

    Ordered pairs give d^2 terms; folding merges (i, j) with (j, i), giving
    d(d+1)/2 terms.  Both partitions sum to the same operator
    du/dt + sum_i F d/dx_i u - 1/2 sum_i d^2/dx_i^2 u (isotropic unit diffusion).
    """
    terms = []
    inv_d2 = 1.0 / (d * d)
    if not fold:
        for i in range(d):
            for j in range(d):
                atoms = [DerivAtom(inv_d2, TIME, 1), DerivAtom(F / d, i, 1)]
                if i == j:
                    atoms.append(DerivAtom(-0.5, i, 2))
                terms.append(LinearTerm(tuple(atoms)))
    else:
        for i in range(d):
            for j in range(i, d):
                if i == j:
                    atoms = [DerivAtom(inv_d2, TIME, 1), DerivAtom(F / d, i, 1),
                             DerivAtom(-0.5, i, 2)]
                else:
                    atoms = [DerivAtom(2.0 * inv_d2, TIME, 1),
                             DerivAtom(F / d, i, 1), DerivAtom(F / d, j, 1)]
                terms.append(LinearTerm(tuple(atoms)))
    return tuple(terms)


class AnalyticField:
    """Field built from a closed-form function; used by tests and demos.

    ``fn`` maps (X, t) to values; ``dfn`` maps (X, t, coord, order) to the raw
    derivative of that order along the coordinate (TIME included).
    """

    def __init__(self, fn, dfn, X, t):
        self.fn = fn
        self.dfn = dfn
        self.X = X
        self.t = t

    def value(self):
        return self.fn(self.X, self.t)

    def jet(self, coord, order):
        from .jets import Jet
        coeffs = [self.fn(self.X, self.t)]
        for k in range(1, order + 1):
            coeffs.append(self.dfn(self.X, self.t, coord, k) / _FACT[k])
        return Jet(coeffs)
