"""CP-format tensors and their factorized algebra.

A tensor of order d is stored as d factor matrices of a shared rank R; entry
(i_1, ..., i_d) is sum_r prod_p factors[p][i_p, r].  All indices in this API
are 0-based; the CLI and the CPT file docs speak 1-based.  Whenever a dense
view is linearized, mode 0 runs fastest (Fortran order), so the linear index
of a tuple is i_1 + i_2*n_1 + i_3*n_1*n_2 + ...
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .errors import CapacityError, ShapeMismatchError

DENSE_CAP_DEFAULT = 1 << 22

# scalar budget for the (cells x rank) scratch used by materialize
_EXPAND_SCRATCH = 1 << 24


class CpTensor:
    """Immutable CP-format tensor over float64 or complex128.

    Parameters
    ----------
    factors:
        Sequence of d arrays, each n_p x R.  If any factor is complex the
        whole tensor is stored as complex128, otherwise float64.
    """

    __slots__ = ("_factors",)

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ShapeMismatchError("a tensor needs at least one mode")
        is_complex = any(np.iscomplexobj(np.asarray(f)) for f in factors)
        dtype = np.complex128 if is_complex else np.float64
        rank = None
        frozen = []
        for p, f in enumerate(factors):
            a = np.array(f, dtype=dtype, order="C", copy=True)
            if a.ndim != 2:
                raise ShapeMismatchError(f"factor {p} must be 2-D, got shape {a.shape}")
            if a.shape[0] < 1 or a.shape[1] < 1:
                raise ShapeMismatchError(f"factor {p} has empty shape {a.shape}")
            if rank is None:
                rank = a.shape[1]
            elif a.shape[1] != rank:
                raise ShapeMismatchError(
                    f"factor {p} has {a.shape[1]} columns, expected {rank}"
                )
            a.flags.writeable = False
            frozen.append(a)
        self._factors = tuple(frozen)

    @property
    def factors(self):
        return self._factors

    @property
    def order(self):
        return len(self._factors)

    @property
    def dims(self):
        return tuple(f.shape[0] for f in self._factors)

    @property
    def rank(self):
        return self._factors[0].shape[1]

    @property
    def is_complex(self):
        return self._factors[0].dtype == np.complex128

    @property
    def dtype(self):
        return self._factors[0].dtype

    def size(self):
        """Number of entries of the dense tensor, as an exact Python int."""
        return math.prod(self.dims)

    def __repr__(self):
        kind = "complex" if self.is_complex else "real"
        return f"CpTensor(dims={self.dims}, rank={self.rank}, {kind})"


def _wrap(factors):
    """CpTensor over factor arrays the package has just computed.

    Unlike the public constructor it neither copies nor validates: the
    arrays must be fresh results (or factors of an existing CpTensor) of
    one shared rank, and they are frozen in place.  A factor is converted
    only when its dtype differs from the tensor's (the complex upcast) or
    it is not C-contiguous, so the stored values are those ``CpTensor``
    would store.
    """
    dtype = (np.complex128 if any(np.iscomplexobj(f) for f in factors)
             else np.float64)
    frozen = []
    for f in factors:
        f = np.ascontiguousarray(f, dtype=dtype)
        f.flags.writeable = False
        frozen.append(f)
    A = CpTensor.__new__(CpTensor)
    A._factors = tuple(frozen)
    return A


def element(A, idx):
    """Entry of A at a 0-based index tuple.

    The arithmetic order is fixed (product over modes, then sum over rank
    columns), so repeated calls return bit-identical scalars.  Raises like
    `elements_at`.
    """
    val = elements_at(A, [idx])[0]
    return complex(val) if A.is_complex else float(val)


def elements_at(A, tuples):
    """Vectorized `element` over an (m, d) array of index tuples.

    Raises ShapeMismatchError unless tuples is (m, A.order), and IndexError
    naming the mode, the coordinate and its range when a coordinate lies
    outside [0, n_p).
    """
    tuples = np.ascontiguousarray(tuples, dtype=np.int64)
    if tuples.ndim != 2 or tuples.shape[1] != A.order:
        raise ShapeMismatchError(f"expected an (m, {A.order}) index array")
    dims = np.array(A.dims, dtype=np.int64)
    outside = (tuples < 0) | (tuples >= dims)
    if outside.any():
        row, p = np.argwhere(outside)[0]
        raise IndexError(
            f"coordinate {tuples[row, p]} out of range [0, {dims[p]}) in mode {p}"
        )
    stacked, offsets = kernels.stack_factors(A.factors)
    return kernels.eval_elements(stacked, offsets, tuples)


def materialize(A, max_elems=DENSE_CAP_DEFAULT):
    """Dense ndarray of A, shape A.dims.

    Raises CapacityError when the dense size exceeds ``max_elems``.  Rank
    columns are summed in chunks of at most ``_EXPAND_SCRATCH`` scalars.  A
    real tensor with size x rank <= ``_EXPAND_SCRATCH`` (2^24) is one chunk,
    and its entries are then bit-equal to `elements_at`'s, which the dense
    oracle's exact agreement with solver values rests on.  Complex tensors
    and larger real ones can differ in the last bits.
    """
    total = A.size()
    if total > max_elems:
        raise CapacityError(f"dense size {total} exceeds the cap of {max_elems} entries")
    stacked, offsets = kernels.stack_factors(A.factors)
    modes = np.arange(A.order, dtype=np.int64)
    dims = np.array(A.dims, dtype=np.int64)
    rank = A.rank
    chunk = max(1, min(rank, _EXPAND_SCRATCH // max(total, 1)))
    flat = np.zeros(total, dtype=A.dtype)
    for c0 in range(0, rank, chunk):
        cols = np.ascontiguousarray(stacked[:, c0:c0 + chunk])
        flat += kernels.block_expand(cols, offsets, modes, dims).sum(axis=1)
    return flat.reshape(A.dims, order="F")


def hadamard(A, B):
    """Elementwise product; rank multiplies (column r of A outer, s of B inner)."""
    if A.dims != B.dims:
        raise ShapeMismatchError(f"dims {A.dims} != {B.dims}")
    out = []
    for fa, fb in zip(A.factors, B.factors):
        n = fa.shape[0]
        out.append((fa[:, :, None] * fb[:, None, :]).reshape(n, -1))
    return _wrap(out)


def inner(A, B):
    """Frobenius inner product; the left argument is conjugated."""
    if A.dims != B.dims:
        raise ShapeMismatchError(f"dims {A.dims} != {B.dims}")
    gram = np.ones((A.rank, B.rank), dtype=np.result_type(A.dtype, B.dtype))
    for fa, fb in zip(A.factors, B.factors):
        gram *= np.conj(fa).T @ fb
    val = gram.sum()
    return complex(val) if np.iscomplexobj(val) else float(val)


def frob_norm(A):
    """Frobenius norm, computed without densifying."""
    return math.sqrt(max(float(np.real(inner(A, A))), 0.0))


def ttm(A, mat, mode):
    """Multiply mode ``mode`` by a matrix: factor U_p becomes mat @ U_p."""
    mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[1] != A.dims[mode]:
        raise ShapeMismatchError(
            f"matrix shape {mat.shape} does not act on mode {mode} of size {A.dims[mode]}"
        )
    out = list(A.factors)
    out[mode] = mat @ A.factors[mode]
    return _wrap(out)


def scale(A, c):
    """Multiply every entry by the scalar c (absorbed into mode 0)."""
    out = list(A.factors)
    out[0] = A.factors[0] * c
    return _wrap(out)


def negate(A):
    """Exact elementwise sign flip."""
    return scale(A, -1.0)


def add(A, B):
    """Elementwise sum; ranks add by column concatenation."""
    if A.dims != B.dims:
        raise ShapeMismatchError(f"dims {A.dims} != {B.dims}")
    return _wrap([np.hstack([fa, fb]) for fa, fb in zip(A.factors, B.factors)])


def shift(A, s):
    """Add the constant s to every entry; rank grows by one.

    The appended column is all-ones in every factor except mode 0, which
    carries s itself.
    """
    out = []
    for p, f in enumerate(A.factors):
        col = np.full((f.shape[0], 1), s if p == 0 else 1.0)
        out.append(np.hstack([f, col]))
    return _wrap(out)


def cp_ones(dims):
    """Rank-one all-ones tensor."""
    return CpTensor([np.ones((n, 1)) for n in dims])


def drop_zero_columns(A):
    """Remove rank-one terms that are exactly zero.

    A term is exactly zero when some factor column is all zeros; dropping it
    leaves every entry bit-identical.  A tensor whose terms are all zero
    collapses to a rank-one zero tensor.
    """
    keep = np.ones(A.rank, dtype=bool)
    for f in A.factors:
        keep &= np.any(f != 0, axis=0)
    if keep.all():
        return A
    if not keep.any():
        return _wrap([np.zeros((n, 1), dtype=A.dtype) for n in A.dims])
    cols = np.flatnonzero(keep)
    return _wrap([f.take(cols, axis=1) for f in A.factors])
