import numpy as np
import pytest
from scipy.stats import qmc

from cpl.errors import ConfigError
from cpl.sampler import (_SOBOL_BITS, Domain, SeededRng, _direction_integers,
                         map_to_domain, sample_subsets, sobol_points, spatial_cloud,
                         uniform_points)


@pytest.mark.parametrize("d,skip", [(1, 0), (2, 0), (5, 0), (8, 37), (64, 5)])
def test_sobol_matches_reference_generator(d, skip):
    m = 256
    mine = sobol_points(m, d, skip=skip).points
    ref = qmc.Sobol(d=d, scramble=False)
    ref_pts = ref.random(m + skip + 1)[skip + 1:]
    assert np.max(np.abs(mine - ref_pts)) <= 2.0 ** -30


def test_sobol_dimension_cap():
    with pytest.raises(ConfigError):
        sobol_points(4, 65)


def _sobol_per_bit(m, d, skip):
    """Reference: XOR the direction integers of every set Gray-code bit per point."""
    V = _direction_integers(d)
    idx = np.arange(skip + 1, skip + m + 1, dtype=np.uint64)
    gray = idx ^ (idx >> np.uint64(1))
    x = np.zeros((m, d), dtype=np.uint64)
    for bit in range(_SOBOL_BITS):
        sel = ((gray >> np.uint64(bit)) & np.uint64(1)).astype(bool)
        if sel.any():
            x[sel] ^= V[:, bit][None, :]
    return x.astype(np.float64) * (2.0 ** -_SOBOL_BITS)


# 2^k - 2 puts index 2^k second in the block, so the recurrence itself XORs in
# the direction integer of every trailing-zero count up to 29
_RECURRENCE_SKIPS = sorted({0, 1, 2, 3, 10 ** 8}
                           | {2 ** k + o for k in range(1, 30) for o in (-2, -1, 0, 1)})


@pytest.mark.parametrize("d", [1, 2, 16, 64])
def test_sobol_recurrence_bitwise_equals_per_bit_loop(d):
    for skip in _RECURRENCE_SKIPS:
        for m in (0, 1, 2, 100, 4097):
            mine = sobol_points(m, d, skip=skip).points
            ref = _sobol_per_bit(m, d, skip)
            assert mine.shape == (m, d)
            assert np.array_equal(mine, ref), (d, skip, m)


def test_sobol_refuses_indices_outside_table():
    last = 2 ** _SOBOL_BITS - 1           # the highest index the table covers
    assert sobol_points(1, 2, skip=last - 1).points.shape == (1, 2)
    for m, skip in ((1, last), (2, last - 1), (10, 2 ** _SOBOL_BITS), (0, 2 ** _SOBOL_BITS),
                    (2, -1)):
        with pytest.raises(ConfigError):
            sobol_points(m, 2, skip=skip)


def test_sobol_reproducible_per_skip():
    a = sobol_points(64, 3, skip=11).points
    b = sobol_points(64, 3, skip=11).points
    assert np.array_equal(a, b)
    c = sobol_points(64, 3, skip=12).points
    assert not np.array_equal(a, c)


def test_uniform_empty():
    cloud = uniform_points(0, 4, SeededRng(1, 1))
    assert cloud.points.shape == (0, 4)


def test_map_to_domain_midpoint():
    dom = Domain((0.0,), (2.0,), 1.0)
    cloud = uniform_points(1, 1, SeededRng(1, 1))
    cloud.points[0, 0] = 0.5
    assert map_to_domain(cloud, dom).points[0, 0] == 1.0


def test_map_to_domain_endpoints():
    dom = Domain((-1.0, 3.0), (1.0, 7.0), 1.0)
    cloud = uniform_points(2, 2, SeededRng(1, 1))
    cloud.points[0] = (0.0, 0.0)
    cloud.points[1] = (1.0 - 1e-12, 1.0 - 1e-12)
    mapped = map_to_domain(cloud, dom).points
    assert tuple(mapped[0]) == (-1.0, 3.0)
    assert mapped[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert mapped[1, 1] == pytest.approx(7.0, abs=1e-9)


def test_mapped_sobol_mean():
    dom = Domain((0.0,), (2.0,), 1.0)
    cloud = spatial_cloud(4096, dom, skip=0)
    assert abs(cloud.points.mean() - 1.0) <= 1e-3


def test_domain_validation():
    with pytest.raises(ConfigError):
        Domain((0.0,), (0.0,), 1.0)
    dom = Domain((0.0, 1.0), (2.0, 4.0), 1.0)
    assert dom.volume == pytest.approx(6.0)


def test_sample_subsets_full_set():
    I, J = sample_subsets(3, 3, 3, SeededRng(0, 1))
    assert list(I) == [0, 1, 2]
    assert list(J) == [0, 1, 2]


def test_sample_subsets_size_error():
    with pytest.raises(ConfigError):
        sample_subsets(3, 4, 2, SeededRng(0, 1))


def test_spatial_cloud_refuses_dims_beyond_the_table():
    with pytest.raises(ConfigError):
        spatial_cloud(16, Domain((0.0,) * 65, (1.0,) * 65, 1.0))
