"""Experiment tensor constructors: random CP draws and separable test functions.

The Griewank and Schwefel grid tensors are exact CP forms of the classic
benchmark functions sampled on per-mode grids: every entry equals the direct
function value at the corresponding grid point up to float evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cp import CpTensor

DISTRIBUTIONS = {
    "um11": (-1.0, 1.0),
    "u075": (0.0, 0.75),
    "u01": (0.0, 1.0),
}

GRIEWANK_BOUNDS = (-600.0, 600.0)
SCHWEFEL_BOUNDS = (-500.0, 500.0)
SCHWEFEL_OPTIMUM = 420.9687

# the random-draw protocol: order uniform over D_RANGE, mode sizes over
# [N_MIN, N_CAP - d], rank over R_RANGE (all inclusive)
D_RANGE = (3, 10)
N_MIN = 2
N_CAP = 15
R_RANGE = (2, 10)


@dataclass(frozen=True)
class RandomSpec:
    """Protocol for random CP draws.

    Factor entries are iid from the named uniform distribution; order, mode
    sizes and rank follow the module constants.
    """

    distribution: str = "u01"

    def __post_init__(self):
        if self.distribution not in DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; "
                f"choose from {sorted(DISTRIBUTIONS)}"
            )


def gen_random_cp(spec, rng):
    """Draw one random CpTensor following ``spec``; deterministic given rng."""
    lo, hi = DISTRIBUTIONS[spec.distribution]
    d = int(rng.integers(D_RANGE[0], D_RANGE[1] + 1))
    dims = [int(rng.integers(N_MIN, N_CAP - d + 1)) for _ in range(d)]
    rank = int(rng.integers(R_RANGE[0], R_RANGE[1] + 1))
    return CpTensor([rng.uniform(lo, hi, size=(n, rank)) for n in dims])


def griewank(z):
    """Direct Griewank value at a point z of any dimension."""
    z = np.asarray(z, dtype=np.float64)
    scale = np.sqrt(np.arange(1, z.shape[-1] + 1))
    return (np.sum(z * z, axis=-1) / 4000.0
            - np.prod(np.cos(z / scale), axis=-1) + 1.0)


def schwefel(z):
    """Direct Schwefel value at a point z of any dimension."""
    z = np.asarray(z, dtype=np.float64)
    d = z.shape[-1]
    return 418.9829 * d - np.sum(z * np.sin(np.sqrt(np.abs(z))), axis=-1)


def uniform_grid(lo, hi, size, include=None):
    """Inclusive uniform grid; optionally snap the nearest point to ``include``."""
    if size < 2:
        raise ValueError(f"grid size must be >= 2, got {size}")
    grid = np.linspace(lo, hi, size)
    if include is not None:
        grid[int(np.argmin(np.abs(grid - include)))] = include
    return grid


def griewank_grids(sizes, include_zero=False):
    lo, hi = GRIEWANK_BOUNDS
    return [uniform_grid(lo, hi, n, include=0.0 if include_zero else None)
            for n in sizes]


def schwefel_grids(sizes, include_optimum=False):
    lo, hi = SCHWEFEL_BOUNDS
    return [uniform_grid(lo, hi, n,
                         include=SCHWEFEL_OPTIMUM if include_optimum else None)
            for n in sizes]


def gen_griewank(grids):
    """Exact rank d+2 CP tensor of the Griewank function on per-mode grids.

    Columns: d quadratic terms (mode p carries z_p^2/4000, others ones), the
    cosine product (negated via mode 0), and the all-ones constant.
    """
    d = len(grids)
    factors = []
    for p, grid in enumerate(grids):
        z = np.asarray(grid, dtype=np.float64)
        cols = np.ones((z.shape[0], d + 2))
        cols[:, p] = z * z / 4000.0
        cols[:, d] = np.cos(z / np.sqrt(p + 1))
        if p == 0:
            cols[:, d] = -cols[:, d]
        factors.append(cols)
    return CpTensor(factors)


def gen_schwefel(grids):
    """Exact rank d+1 CP tensor of the Schwefel function on per-mode grids.

    Columns: the constant 418.9829*d (via mode 0) plus d single-mode terms
    carrying -z_p*sin(sqrt(|z_p|)).
    """
    d = len(grids)
    factors = []
    for p, grid in enumerate(grids):
        z = np.asarray(grid, dtype=np.float64)
        cols = np.ones((z.shape[0], d + 1))
        if p == 0:
            cols[:, 0] = 418.9829 * d
        cols[:, p + 1] = -z * np.sin(np.sqrt(np.abs(z)))
        factors.append(cols)
    return CpTensor(factors)
