import numpy as np
import pytest

from tensor_topk import cp, generators
from tensor_topk.generators import (GRIEWANK_BOUNDS, SCHWEFEL_BOUNDS,
                                    SCHWEFEL_OPTIMUM, RandomSpec,
                                    gen_griewank, gen_random_cp, gen_schwefel,
                                    griewank, schwefel, uniform_grid)


def test_random_spec_validation():
    with pytest.raises(ValueError):
        RandomSpec(distribution="gauss")
    # the fixed draw protocol has non-empty ranges, mode sizes at every order
    assert generators.D_RANGE[0] <= generators.D_RANGE[1]
    assert generators.R_RANGE[0] <= generators.R_RANGE[1]
    assert generators.N_MIN <= generators.N_CAP - generators.D_RANGE[1]


def test_random_draw_ranges():
    spec = RandomSpec()
    for trial in range(60):
        A = gen_random_cp(spec, np.random.default_rng(trial))
        assert 3 <= A.order <= 10
        assert 2 <= A.rank <= 10
        for n in A.dims:
            assert 2 <= n <= 15 - A.order
        for f in A.factors:
            assert f.min() >= 0.0 and f.max() <= 1.0  # default dist


def test_random_draw_signed_dist():
    spec = RandomSpec(distribution="um11")
    A = gen_random_cp(spec, np.random.default_rng(5))
    lo = min(f.min() for f in A.factors)
    assert lo < 0.0
    assert all(f.max() <= 1.0 and f.min() >= -1.0 for f in A.factors)


def test_uniform_grid_shape_and_snap():
    g = uniform_grid(-1.0, 1.0, 5)
    np.testing.assert_allclose(g, [-1.0, -0.5, 0.0, 0.5, 1.0])
    g2 = uniform_grid(0.0, 10.0, 4, include=3.4)
    assert g2.shape == (4,)
    assert 3.4 in g2  # nearest grid point replaced
    assert g2[0] == 0.0 and g2[-1] == 10.0


def test_uniform_grid_degenerate():
    with pytest.raises(ValueError):
        uniform_grid(0.0, 1.0, 1)


def test_direct_evaluators():
    assert griewank(np.zeros(7)) == pytest.approx(0.0, abs=1e-15)
    z = np.full(4, SCHWEFEL_OPTIMUM)
    assert schwefel(z) == pytest.approx(0.0, abs=1e-3 * 4)


def test_griewank_tensor_matches_function(rng):
    d = 5
    grids = [uniform_grid(*GRIEWANK_BOUNDS, int(rng.integers(3, 12)))
             for _ in range(d)]
    A = gen_griewank(grids)
    assert A.order == d
    assert A.rank == d + 2
    for _ in range(30):
        idx = tuple(int(rng.integers(len(g))) for g in grids)
        z = np.array([g[i] for g, i in zip(grids, idx)])
        assert cp.element(A, idx) == pytest.approx(griewank(z), rel=1e-10, abs=1e-10)


def test_schwefel_tensor_matches_function(rng):
    d = 6
    grids = [uniform_grid(*SCHWEFEL_BOUNDS, int(rng.integers(3, 12)))
             for _ in range(d)]
    A = gen_schwefel(grids)
    assert A.rank == d + 1
    for _ in range(30):
        idx = tuple(int(rng.integers(len(g))) for g in grids)
        z = np.array([g[i] for g, i in zip(grids, idx)])
        assert cp.element(A, idx) == pytest.approx(schwefel(z), rel=1e-10, abs=1e-8)


def test_griewank_zero_grid_minimum_is_exact_zero(rng):
    grids = [uniform_grid(*GRIEWANK_BOUNDS, int(rng.integers(3, 9)), include=0.0)
             for _ in range(4)]
    A = gen_griewank(grids)
    idx = tuple(int(np.argmin(np.abs(g))) for g in grids)
    assert cp.element(A, idx) == 0.0  # bit-exact, not just small


def test_grid_helpers(rng):
    gs = generators.griewank_grids([4, 5, 6], include_zero=True)
    assert [len(g) for g in gs] == [4, 5, 6]
    assert all(0.0 in g for g in gs)
    ss = generators.schwefel_grids([7, 7], include_optimum=True)
    assert all(SCHWEFEL_OPTIMUM in g for g in ss)
