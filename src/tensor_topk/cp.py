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

    Raises ShapeMismatchError unless tuples is (m, A.order), IndexError
    naming the dtype unless it is an integer one, and IndexError naming the
    mode, the coordinate and its range when one lies outside [0, n_p).
    """
    tuples = np.asarray(tuples)
    if tuples.ndim != 2 or tuples.shape[1] != A.order:
        raise ShapeMismatchError(f"expected an (m, {A.order}) index array")
    if tuples.dtype.kind not in "iu":  # a float or bool index would truncate
        raise IndexError(f"index tuples must be integers, got dtype {tuples.dtype}")
    dims = np.array(A.dims, dtype=np.int64)
    outside = (tuples < 0) | (tuples >= dims)
    if outside.any():
        row, p = np.argwhere(outside)[0]
        raise IndexError(
            f"coordinate {tuples[row, p]} out of range [0, {dims[p]}) in mode {p}"
        )
    stacked, offsets = kernels.stack_factors(A.factors)
    return kernels.eval_elements(stacked, offsets, np.ascontiguousarray(tuples, np.int64))


def materialize(A, max_elems=DENSE_CAP_DEFAULT):
    """Dense ndarray of A, shape A.dims, as a Fortran-order view.

    Raises CapacityError when the dense size exceeds ``max_elems``.
    `kernels.expand_halves` splits the modes into a leading and a trailing
    half and expands each, and the dense tensor is one GEMM, ``trail @
    lead.T``, whose C-order rows run over the leading cells fastest.  The
    rank columns go through in chunks of ``max(1, size // (n_lead +
    n_trail))``, each chunk's product added to the result, so the
    two halves hold no more scalars than the result unless one rank column
    alone does.  The rounding is the GEMM's: entries can differ from
    `elements_at`'s in the last bits, so callers that report values read
    them through `elements_at`.
    """
    total = A.size()
    if total > max_elems:
        raise CapacityError(f"dense size {total} exceeds the cap of {max_elems} entries")
    stacked, offsets = kernels.stack_factors(A.factors)
    n_lead = math.prod(A.dims[:kernels.half_split(A.dims)])
    chunk = max(1, total // (n_lead + total // n_lead))
    dense = None
    for c0 in range(0, A.rank, chunk):
        cols = np.ascontiguousarray(stacked[:, c0:c0 + chunk])
        lead, trail = kernels.expand_halves(cols, offsets, range(A.order), A.dims)
        part = trail @ lead.T
        if dense is None:
            dense = part
        else:
            dense += part
    return dense.reshape(-1).reshape(A.dims, order="F")


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


def finite_frob_norm(A):
    """`frob_norm`, raising ValueError unless it is finite.

    NaN or infinite factors give a NaN or infinite norm, and so do finite
    factors whose norm overflows; the warnings numpy raises on the way are
    silenced, as the error reports them.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        norm = frob_norm(A)
    if not math.isfinite(norm):
        raise ValueError(f"factors and their Frobenius norm must be finite, got norm {norm}")
    return norm


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
