"""Deterministic point generation over hyper-rectangles.

Two generators: a Sobol' low-discrepancy sequence built from the Joe-Kuo
direction numbers shipped as package data (dimensions up to 64), and a
counter-based pseudo-random stream (Philox) for i.i.d. uniform draws and
index-subset sampling.  Everything is reproducible bit-exactly from
(seed, stream) or (skip,) respectively.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np
from numpy.random import Generator, Philox  # at import, not in a timed first draw

from .errors import ConfigError

_SOBOL_BITS = 30  # resolution of the generated points: multiples of 2^-30
_MAX_SOBOL_DIM = 64


@dataclass(frozen=True)
class Domain:
    """Axis-aligned spatial box [lower, upper]^d with a time interval [0, T]."""

    lower: tuple
    upper: tuple
    t_final: float = 1.0

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=np.float64)
        hi = np.asarray(self.upper, dtype=np.float64)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigError("domain bounds must be 1-d and of equal length")
        if not np.all(hi > lo):
            raise ConfigError("domain requires upper > lower in every dimension")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))

    @property
    def dim(self):
        return len(self.lower)

    @property
    def volume(self):
        return float(np.prod(np.asarray(self.upper) - np.asarray(self.lower)))


class SeededRng:
    """Counter-based deterministic stream; clones with distinct sub-streams are independent."""

    def __init__(self, seed, stream=0):
        self.seed = int(seed)
        self.stream = int(stream)
        self.gen = Generator(Philox(key=np.array(
            [self.seed & 0xFFFFFFFFFFFFFFFF, self.stream & 0xFFFFFFFFFFFFFFFF],
            dtype=np.uint64)))

    def uniform(self, shape):
        return self.gen.random(shape, dtype=np.float64)

    def normal(self, shape):
        return self.gen.standard_normal(shape, dtype=np.float64)

    def choice_without_replacement(self, n, k):
        return np.sort(self.gen.choice(n, size=k, replace=False))

    def integers(self, low, high, size=None):
        return self.gen.integers(low, high, size=size)


@dataclass
class PointCloud:
    points: np.ndarray            # (m, d)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dim(self):
        return self.points.shape[1]


@functools.lru_cache(maxsize=1)
def _direction_table():
    """Parse the Joe-Kuo data file into (s, a, m-list) per dimension 2..64."""
    text = resources.files("cpl.data").joinpath("joe_kuo_d64.txt").read_text()
    table = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
        m = tuple(int(v) for v in parts[3:3 + s])
        table[d] = (s, a, m)
    return table


@functools.lru_cache(maxsize=8)
def _direction_integers(d):
    """Direction integers v_j (scaled to _SOBOL_BITS) for dimensions 1..d."""
    if d > _MAX_SOBOL_DIM:
        raise ConfigError(f"Sobol table supports up to {_MAX_SOBOL_DIM} dimensions, got {d}")
    table = _direction_table()
    V = np.zeros((d, _SOBOL_BITS), dtype=np.uint64)
    # dimension 1: van der Corput in base 2 (all m_j = 1)
    for j in range(_SOBOL_BITS):
        V[0, j] = np.uint64(1) << np.uint64(_SOBOL_BITS - 1 - j)
    for dim in range(2, d + 1):
        s, a, m = table[dim]
        v = np.zeros(_SOBOL_BITS, dtype=np.uint64)
        for j in range(min(s, _SOBOL_BITS)):
            v[j] = np.uint64(m[j]) << np.uint64(_SOBOL_BITS - 1 - j)
        for j in range(s, _SOBOL_BITS):
            prev = v[j - s]
            acc = prev ^ (prev >> np.uint64(s))
            for i in range(1, s):
                if (a >> (s - 1 - i)) & 1:
                    acc ^= v[j - i]
            v[j] = acc
        V[dim - 1] = v
    return V


def sobol_points(m, d, skip=0):
    """m consecutive Sobol' points in [0,1)^d starting at sequence index skip+1.

    Index 0 (the all-zeros point) is skipped on purpose: it sits on the domain
    corner and degrades moment estimates.  Points are emitted in the standard
    Gray-code order, by the recurrence x_n = x_{n-1} ^ V[ctz(n)]: the point at
    index skip+1 is formed bit by bit, and each later point XORs in the
    direction integer picked by the trailing-zero count of its index, so the
    cost is O(m d).  The 30-bit table covers indices below 2^30 only, and
    skip must be >= 0.
    """
    if d < 1:
        raise ConfigError("dimension must be >= 1")
    if skip < 0 or skip + m >= 2 ** _SOBOL_BITS:
        raise ConfigError(f"Sobol' indices {skip + 1}..{skip + m} fall outside "
                          f"1..2^{_SOBOL_BITS}-1, the range the {_SOBOL_BITS}-bit table covers")
    V = _direction_integers(d)
    if m == 0:
        return PointCloud(np.empty((0, d)))
    first = skip + 1
    gray = first ^ (first >> 1)
    x = np.empty((m, d), dtype=np.uint64)
    x[0] = 0
    for bit in range(_SOBOL_BITS):
        if (gray >> bit) & 1:
            x[0] ^= V[:, bit]
    # ctz(n) for n = skip+2 .. skip+m: each multiple of 2^bit gets bit, and
    # higher bits overwrite lower ones
    ctz = np.zeros(m - 1, dtype=np.uint8)
    for bit in range(1, _SOBOL_BITS):
        ctz[-(first + 1) % (1 << bit)::1 << bit] = bit
    np.take(V.T, ctz, axis=0, out=x[1:])
    np.bitwise_xor.accumulate(x, axis=0, out=x)
    pts = x.astype(np.float64)
    pts *= 2.0 ** -_SOBOL_BITS
    return PointCloud(pts)


def uniform_points(m, d, rng: SeededRng):
    """i.i.d. uniform points over [0,1)^d from a seeded stream."""
    return PointCloud(rng.uniform((m, d)))


def map_to_domain(cloud: PointCloud, domain: Domain) -> PointCloud:
    """Affine per-coordinate rescale of a unit-cube cloud into the domain box."""
    lo = np.asarray(domain.lower)
    hi = np.asarray(domain.upper)
    pts = lo + cloud.points * (hi - lo)
    return PointCloud(pts)


def sample_interior(domain: Domain, n, rng: SeededRng):
    """n i.i.d. uniform points in the domain box, as an (n, d) array."""
    return map_to_domain(uniform_points(n, domain.dim, rng), domain).points


def spatial_cloud(m, domain: Domain, skip=0):
    """Convenience: a Sobol' cloud of spatial points mapped into the domain.

    A domain beyond the direction table (d > 64) is refused as a
    configuration error.
    """
    return map_to_domain(sobol_points(m, domain.dim, skip=skip), domain)


def sample_subsets(n_total, size_i, size_j, rng: SeededRng):
    """Two independent uniform without-replacement index subsets of {0..n_total-1}.

    Each call advances the parent stream and draws I and J from two one-shot
    sub-seeded streams, so the subsets are mutually independent and every call
    produces a fresh pair.
    """
    if size_i > n_total or size_j > n_total:
        raise ConfigError("subset size exceeds the number of operator terms")
    key_i = int(rng.integers(0, 2 ** 62))
    key_j = int(rng.integers(0, 2 ** 62))
    I = SeededRng(key_i, 11).choice_without_replacement(n_total, size_i)
    J = SeededRng(key_j, 12).choice_without_replacement(n_total, size_j)
    return I, J
