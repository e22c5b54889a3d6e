"""Shared test helpers.

The dense reference here is deliberately independent of the package: tensors
are rebuilt term by term with np.multiply.outer, and top-k selection is done
on the dense array with numpy sorting.  Package results are checked against
these, never against other package code.
"""

import numpy as np
import pytest


def dense_from_factors(factors):
    """Sum of outer products, accumulated term by term."""
    rank = factors[0].shape[1]
    dims = tuple(f.shape[0] for f in factors)
    dtype = np.result_type(*(f.dtype for f in factors))
    out = np.zeros(dims, dtype=dtype)
    for r in range(rank):
        term = np.asarray(factors[0][:, r])
        for f in factors[1:]:
            term = np.multiply.outer(term, f[:, r])
        out += term
    return out


def random_factors(rng, dims, rank, lo=-1.0, hi=1.0, complex_=False):
    out = []
    for n in dims:
        f = rng.uniform(lo, hi, size=(n, rank))
        if complex_:
            f = f + 1j * rng.uniform(lo, hi, size=(n, rank))
        out.append(f)
    return out


def keyed_dense(dense, key_name):
    if key_name == "min":
        return -dense.real
    if key_name == "max":
        return dense.real
    if key_name == "maxabs":
        return np.abs(dense)
    if key_name == "maxreal":
        return dense.real
    if key_name == "maximag":
        return dense.imag
    raise ValueError(key_name)


def dense_topk(dense, k, key_name="max"):
    """Top-k index tuples: key descending, ties to smallest F-order index."""
    keyed = keyed_dense(dense, key_name).ravel(order="F")
    order = np.lexsort((np.arange(keyed.size), -keyed))[:k]
    return [tuple(int(v) for v in np.unravel_index(lin, dense.shape, order="F"))
            for lin in order]


@pytest.fixture
def rng():
    return np.random.default_rng(987654321)


# Factor lists whose products overflow float64 inside the solver, though
# every factor entry is finite.  The first is 1x2x4x4 of rank 3 with entries
# near 1e300, built from +-1e150 factors; the second is 2x2x2 of rank 1,
# and its products of two 1e200 entries alone overflow.
OVERFLOW_FACTORS = (
    [[[0.0, -1e150, 1e150]],
     [[-0.0, -1e150, 1e150], [-1e150, -2.0, -0.0]],
     [[0.0, -2.0, 1.0], [-0.0, 1.0, 1.0], [1e150, 2.0, -1e150], [-1e150, 1.0, 0.0]],
     [[-1e150, 0.0, 2.0], [-1e150, 1.0, -1e150], [1e150, 1.0, 2.0],
      [-1e150, -1e150, 1e150]]],
    [[[1e200], [1.0]], [[1e200], [-1e200]], [[-1.0], [1.0]]],
)
