import numpy as np
import pytest

from gausstent.families import random_bump
from gausstent.grid import HalfSpaceGrid


def _bump_on_the_first_axis(grid, rng):
    """random_bump before the bumps were radial: a profile of y - y0 on the
    first axis, y0 a scalar draw."""
    y = grid.points[:, 0]
    t = grid.t
    vals = np.zeros((grid.n_spatial, grid.nt))
    for _ in range(rng.integers(1, 4)):
        y0 = rng.uniform(-3.0, 3.0)
        t0 = np.exp(rng.uniform(np.log(grid.t_min * 10), np.log(1.0)))
        amp = rng.uniform(0.3, 3.0)
        wy = rng.uniform(0.2, 1.0)
        prof = amp * np.exp(-((y[:, None] - y0) / wy) ** 2) \
            * np.exp(-np.log(t[None, :] / t0) ** 2)
        prof[np.abs(y - y0) > 2.5 * wy, :] = 0.0
        vals += prof
    return vals


@pytest.mark.parametrize("nx, nt", [(512, 128), (1024, 256), (300, 16)])
def test_random_bump_1d_keeps_its_values_and_stream(nx, nt):
    # a size-1 center draw takes the same value and stream as a scalar draw
    g = HalfSpaceGrid(((-8.0, 8.0),), (nx,), 1e-3, 8.0, nt)
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_bump(g, rng).values.tobytes() == _bump_on_the_first_axis(g, ref).tobytes()
        assert rng.bytes(16) == ref.bytes(16)


def test_random_bump_2d_is_radial():
    # each bump is a profile of |y - y0| about a 2-D center, 0 past 2.5 widths
    g = HalfSpaceGrid(((-4.0, 4.0), (-3.0, 5.0)), (48, 40), 1e-3, 8.0, 8)
    for seed in range(10):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = np.zeros((g.n_spatial, g.nt))
        for _ in range(ref.integers(1, 4)):
            y0 = ref.uniform(-3.0, 3.0, size=2)
            t0 = np.exp(ref.uniform(np.log(g.t_min * 10), np.log(1.0)))
            amp = ref.uniform(0.3, 3.0)
            wy = ref.uniform(0.2, 1.0)
            d = np.linalg.norm(g.points - y0, axis=1)
            prof = amp * np.exp(-(d[:, None] / wy) ** 2) \
                * np.exp(-np.log(g.t[None, :] / t0) ** 2)
            prof[d > 2.5 * wy, :] = 0.0
            want += prof
        assert random_bump(g, rng).values.tobytes() == want.tobytes()
        assert rng.bytes(16) == ref.bytes(16)
