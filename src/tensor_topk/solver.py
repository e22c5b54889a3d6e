"""Block-alternating search for the k best entries of a CP tensor.

The state is a set of k + extra candidate index tuples.  Each sweep visits a
cyclic schedule of mode blocks; for every block, each candidate's block
coordinates are re-optimized against a small dense subproblem tensor whose
cells are exact tensor entries (the candidate's out-of-block coordinates stay
fixed).  Candidates are processed in order and may not land on a cell already
taken by an earlier candidate with the same out-of-block coordinates, which
keeps the tuples pairwise distinct.  A sweep that changes no tuple is a fixed
point and stops the restart early.  A block holds at most ``SUBPROBLEM_CAP``
cells.

`solve` accepts only factors whose `_magnitude_bound` is at most
``MAGNITUDE_LIMIT``, half the largest float64.  That bound covers every
product and sum the search forms, so every key is finite: a candidate always
has an allowed cell, and the first sweep pools all k + extra distinct tuples.

Column j of a block's subproblem (``expand @ alpha``) depends only on the
window and on candidate j's out-of-block coordinates, its context.  Each
restart therefore keeps, per window and candidate slot, the context seen on
the window's last visit with that column's argmax.  A block contracts only
its dirty columns: every column on the window's first visit, columns whose
context changed, and dependent candidates, whose masked selection needs the
whole column.  A block with no dirty column skips the expansion and the
contraction.  A narrower contraction must give the same bits as the full
one, and the BLAS guarantees that only on its regular blocked path, so
`_contraction_width` pads the dirty set and falls back to all m columns
outside a measured rule (see ``SUBSET_MIN_WORK``).

A block's expansion depends only on the window and the factors, not on the
candidates or the restart.  So `solve` runs its restarts in lockstep: it
draws every restart's candidates first, and each sweep visits a window once
for all live restarts.  The first live restart with a dirty column there
builds the expansion into the one shared buffer, and every later restart
contracts against it.  Each restart keeps its own candidates, cache and
counters, and runs the same operations on the same bits as it would alone,
so the output does not depend on the lockstep.  The contraction and key
buffers stay one per solve: a restart's block pass uses up its columns
before the next restart overwrites them.  A restart leaves the live set at
its fixed point or after ``max_sweeps`` sweeps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import cp, kernels
from .errors import CapacityError, InfeasibleKError


class OrderingKey(enum.Enum):
    """What 'best' means: the solver maximizes the key-mapped value."""

    MAX = "max"
    MIN = "min"
    MAX_ABS = "maxabs"
    MAX_REAL = "maxreal"
    MAX_IMAG = "maximag"

    @classmethod
    def from_name(cls, name):
        for member in cls:
            if member.value == name.lower():
                return member
        raise ValueError(f"unknown ordering key {name!r}")


def key_values(values, key, out=None):
    """Map raw entries to the real scores the solver maximizes.

    With ``out``, a float64 array of the same shape, the scores are written
    there and ``out`` is returned; otherwise a new contiguous array is.
    """
    values = np.asarray(values)
    if key is OrderingKey.MIN:
        mapped = np.negative(np.real(values), out=out)
    elif key is OrderingKey.MAX_ABS:
        mapped = np.abs(values, out=out)
    elif key in (OrderingKey.MAX, OrderingKey.MAX_REAL):
        mapped = np.real(values)
    elif key is OrderingKey.MAX_IMAG:
        mapped = np.imag(values)
    else:
        raise ValueError(f"unknown key {key!r}")
    if out is None:
        return np.ascontiguousarray(mapped, dtype=np.float64)
    if mapped is not out:
        np.copyto(out, mapped)
    return out


def _check_key_field(key, is_complex):
    if is_complex and key in (OrderingKey.MAX, OrderingKey.MIN):
        raise ValueError(
            f"key {key.value!r} orders real values; use maxabs/maxreal/maximag "
            "for complex tensors"
        )


SUBPROBLEM_CAP = 1 << 20  # largest block volume, in cells, `solve` accepts


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for `solve`.

    block_size may be an integer s (clamped to the tensor order) or "auto",
    which picks the largest s whose block volumes stay within
    ``SUBPROBLEM_CAP``.  Restart r uses seed + r.
    """

    k: int
    extra: int = 0
    block_size: int | str = 2
    key: OrderingKey = OrderingKey.MAX
    max_sweeps: int = 50
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")
        if self.max_sweeps < 1 or self.restarts < 1:
            raise ValueError("max_sweeps and restarts must be >= 1")
        if isinstance(self.block_size, str):
            if self.block_size != "auto":
                raise ValueError(f"block_size must be an int or 'auto', got {self.block_size!r}")
        elif self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")


@dataclass
class CandidateSet:
    """Candidate tuples (rows, 0-based) and their exact entry values."""

    tuples: np.ndarray
    values: np.ndarray


@dataclass
class TopKResult:
    """Solver output: the k best entries found, best first by the key."""

    values: np.ndarray
    indices: np.ndarray
    objective: float
    sweeps_used: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def block_schedule(order, block_size):
    """Cyclic contiguous mode windows covering all modes.

    One window starts at every mode and wraps around the end, so for
    block_size < order a sweep visits `order` overlapping windows
    (0,1),(1,2),...,(order-1,0).  Overlap matters: each mode is then
    re-optimized jointly with both neighbors within a single sweep, which
    measurably improves top-k accuracy over disjoint strided windows.
    block_size == order collapses to one whole-tensor window.
    """
    if not 1 <= block_size <= order:
        raise ValueError(f"block_size must be in [1, {order}], got {block_size}")
    if block_size == order:
        return [tuple(range(order))]
    return [tuple((start + t) % order for t in range(block_size))
            for start in range(order)]


def auto_block_size(dims, cap):
    """Largest block size whose schedule keeps every block volume <= cap."""
    for s in range(len(dims), 0, -1):
        vols = [math.prod(dims[q] for q in w) for w in block_schedule(len(dims), s)]
        if max(vols) <= cap:
            return s
    raise CapacityError(
        f"no feasible block size: a single mode already exceeds the cap of {cap} cells"
    )


def init_candidates(A, cfg, rng):
    """Draw k + extra distinct uniform index tuples.

    extra is silently reduced when the tensor holds fewer entries; k itself
    infeasible raises InfeasibleKError.
    """
    total = A.size()
    if total < cfg.k:
        raise InfeasibleKError(f"k={cfg.k} exceeds the tensor size of {total} entries")
    m = min(cfg.k + cfg.extra, total)
    dims = A.dims
    if total <= max(1024, 4 * m):
        lins = rng.permutation(total)[:m]
        strides = np.cumprod([1] + list(dims[:-1]))
        tuples = lins[:, None] // strides % dims
    else:
        seen = set()
        rows = []
        while len(rows) < m:
            draw = np.column_stack([rng.integers(0, n, size=2 * m) for n in dims])
            for row in draw:
                key = tuple(int(v) for v in row)
                if key not in seen:
                    seen.add(key)
                    rows.append(key)
                    if len(rows) == m:
                        break
        tuples = np.array(rows, dtype=np.int64)
    return CandidateSet(tuples, cp.elements_at(A, tuples))


def compute_alpha(A, tuples, block):
    """Per-candidate rank weights for one block.

    alpha[r, j] is the product of factor entries at candidate j's coordinates
    over the modes outside the block (indicator vectors collapse inner
    products to single factor entries); with an all-mode block the product
    is empty and alpha is all ones.
    """
    alpha = np.ones((A.rank, tuples.shape[0]), dtype=A.dtype)
    for q in range(A.order):
        if q not in block:
            alpha *= A.factors[q][tuples[:, q], :].T
    return alpha


def _collision_mask(context):
    """beta[i, j]: candidates i and j agree on every out-of-block coordinate,
    from each candidate's ``context`` (one row per candidate, possibly no
    columns, so all True for an all-mode block)."""
    return np.all(context[:, None, :] == context[None, :, :], axis=-1)


# A column subset of the real contraction, E @ alpha[:, sel], is bit-equal to
# (E @ alpha)[:, sel] only when both products take the BLAS's regular
# blocked dgemm path.  Measured with OpenBLAS 0.3.31 (SkylakeX, one and two
# threads): width 1 goes to gemv, and every width-1 product differed;
# products with M*N*K <= 10**6 run the small-matrix kernel, whose columns
# depend on the width, e.g. (vol, R, m) = (100, 20, 6) and (400, 256, 50),
# and solve_large's (10**4, 20, 50) differed at widths 2-4.  zgemm differed
# at every width not a multiple of 4 on every complex shape probed, qft16's
# (256, 4096) among them.  So a subset contraction needs a real tensor,
# width >= 2 and vol * R * width above this constant;
# tests/test_solver.py::test_subset_contraction_matches_full pins the rule.
SUBSET_MIN_WORK = 10**6


def _contraction_width(n_dirty, vol, rank, m, is_complex):
    """Columns a block contracts: its n_dirty dirty ones padded up to the
    narrowest width the subset rule admits, or all m where it admits none
    narrower than m."""
    if is_complex:
        return m
    width = max(n_dirty, 2, SUBSET_MIN_WORK // (vol * rank) + 1)
    return min(width, m)


class _ContractionCache:
    """One restart's record of every window's last visit.

    ``windows[b]`` is None until window b is first visited, then
    (context, lins): each candidate slot's out-of-block coordinates and its
    column's argmax.  The counters add up the contracted columns, padding
    included, the blocks that skipped expansion and contraction, and the
    window expansions this restart built for every live restart.  Its size
    is O(windows x m x order).
    """

    def __init__(self, n_windows):
        self.windows = [None] * n_windows
        self.contracted_columns = 0
        self.clean_blocks = 0
        self.expansions = 0


def _dependent(beta):
    """Candidates with an earlier candidate in their context.

    beta's diagonal is True, so a column's first True row is below the
    diagonal exactly when an earlier candidate shares the context.
    """
    return beta.argmax(axis=0) < np.arange(beta.shape[0])


def _block_pass(tuples, values, block, keyed, beta, block_dims, key,
                stacked, offsets, picks):
    """Update every candidate's block coordinates against one block.

    keyed is the (vol, m) key-mapped subproblem for the entering candidate
    state: column j scores every cell of the block for candidate j.  The
    rule is sequential greedy: in candidate order, each candidate takes its
    best cell not already taken by an earlier candidate with the same
    out-of-block coordinates (beta), and a roundoff recheck keeps the
    incumbent unless the move truly beats it.  It runs in two phases that
    give exactly the sequential result:

    1. Free candidates, those with no earlier candidate in their context,
       have an empty forbidden set whatever the others pick, so each takes
       its column's argmax.  All are picked at once and rechecked in one
       batched ``eval_elements`` call.
    2. The remaining (dependent) candidates are walked in order with
       ``masked_argmax``.  Every earlier candidate's final cell is known by
       then (free ones from phase 1, dependent ones from earlier steps), so
       each forbidden set is the one the sequential rule sees.

    Keys are finite (`solve` bounds the factors) and the entering tuples
    are pairwise distinct, so at most vol - 1 earlier candidates share a
    dependent candidate's context: ``masked_argmax`` always finds an allowed
    cell, and the tuples stay pairwise distinct.

    picks is (lins, slot, dependent): every column's argmax, for candidate
    j the column of keyed that holds it, and the `_dependent` mask of beta.
    Only dependent candidates read keyed, so it may hold just a subset of
    the columns, or be None when no candidate is dependent.
    """
    block = list(block)
    strides = np.cumprod([1] + list(block_dims[:-1]))
    inc_lins = (tuples[:, block] * strides).sum(axis=1)
    lins, slot, dependent = picks
    new_lins = lins.copy()
    moved = np.flatnonzero(~dependent & (new_lins != inc_lins))
    if moved.size:
        # Guard against reduction-order roundoff in the batched subproblem
        # values: re-evaluate the contenders through the element kernel and
        # keep each incumbent unless truly beaten.
        trial = tuples[moved]
        trial[:, block] = new_lins[moved, None] // strides % block_dims
        tv = kernels.eval_elements(stacked, offsets, trial)
        worse = moved[key_values(tv, key) < key_values(values[moved], key)]
        new_lins[worse] = inc_lins[worse]

    for j in np.flatnonzero(dependent):
        forbidden = new_lins[:j][beta[:j, j]]
        lin = kernels.masked_argmax(keyed[:, slot[j]], forbidden)
        if lin != inc_lins[j] and int(inc_lins[j]) not in forbidden:
            trial = tuples[j].copy()
            trial[block] = lin // strides % block_dims
            tv = kernels.eval_elements(stacked, offsets, trial[None, :])
            if key_values(tv, key)[0] < key_values(values[j:j + 1], key)[0]:
                lin = int(inc_lins[j])
        new_lins[j] = lin
    tuples[:, block] = new_lins[:, None] // strides % block_dims
    values[:] = kernels.eval_elements(stacked, offsets, tuples)


def _sweep(A, restarts, key, schedule, stacked, offsets, work):
    """One sweep of every live restart in lockstep; mutates their candidates.

    restarts holds one (cands, cache) pair per live restart, cache being the
    restart's `_ContractionCache`.  At each window the restarts run in
    order: each contracts only its dirty columns (see the module docstring)
    and updates its cache with their argmaxes.  The window's expansion
    depends on neither the candidates nor the restart, so the first restart
    with a dirty column builds it and every later one contracts against the
    same one.  work holds the flat expansion, contraction and key buffers
    that `solve` allocates once; each block uses a prefix of each, so no
    block allocates an array proportional to its volume.  A restart's
    contracted columns are used up by its block pass before the next
    restart overwrites them.
    """
    expand_buf, cells_buf, keyed_buf = work
    m = restarts[0][0].tuples.shape[0]
    cols = np.arange(m)
    for b, block in enumerate(schedule):
        block_dims = [A.dims[q] for q in block]
        vol = math.prod(block_dims)
        rest = [q for q in range(A.order) if q not in block]
        expand = None
        for cands, cache in restarts:
            context = cands.tuples[:, rest]
            beta = _collision_mask(context)
            dependent = _dependent(beta)
            # dependent candidates need their whole column for masked_argmax
            dirty = dependent.copy()
            if cache.windows[b] is None:
                lins = np.empty(m, dtype=np.int64)
                dirty[:] = True
            else:
                seen, lins = cache.windows[b]
                dirty |= (context != seen).any(axis=1)
            cache.windows[b] = (context, lins)
            n_dirty = int(np.count_nonzero(dirty))
            keyed, slot = None, cols
            if n_dirty:
                # compute_alpha comes right before the expansion it pairs
                # with, so a tracer wrapping both can pair them
                alpha = compute_alpha(A, cands.tuples, block)
                if expand is None:
                    expand = kernels.block_expand(
                        stacked, offsets, np.array(block), np.array(block_dims),
                        out=expand_buf[:vol * A.rank].reshape(vol, A.rank),
                    )
                    cache.expansions += 1
                width = _contraction_width(n_dirty, vol, A.rank, m, A.is_complex)
                if width < m:
                    # pad with the lowest-index clean columns
                    dirty[np.flatnonzero(~dirty)[:width - n_dirty]] = True
                    sel = np.flatnonzero(dirty)
                    alpha = alpha[:, sel]
                    slot = np.empty(m, dtype=np.int64)
                    slot[sel] = cols[:width]
                else:
                    sel = cols
                shape = (vol, width)
                cells = np.matmul(expand, alpha,
                                  out=cells_buf[:vol * width].reshape(shape))
                keyed = key_values(cells, key,
                                   out=keyed_buf[:vol * width].reshape(shape))
                lins[sel] = kernels.column_argmax(keyed)
                cache.contracted_columns += width
            else:
                cache.clean_blocks += 1
            _block_pass(
                cands.tuples, cands.values, block, keyed, beta, block_dims,
                key, stacked, offsets, picks=(lins, slot, dependent),
            )


# Largest accepted `_magnitude_bound`; the factor of 2 leaves headroom for
# rounding in the products and sums it bounds.
MAGNITUDE_LIMIT = np.finfo(np.float64).max / 2


def _magnitude_bound(stacked, offsets):
    """B = sum_r prod_p max(1, max_i |U_p[i, r]|).

    B bounds the magnitude of every product of factor entries over any
    subset of the modes, taken in any order, and of every sum of such
    products over the rank: the entries, alpha, the block expansions and
    their contraction.  NaN or infinite factors give a NaN or infinite B.
    """
    with np.errstate(over="ignore"):
        peaks = np.maximum.reduceat(np.abs(stacked), offsets[:-1], axis=0)
        return float(np.maximum(peaks, 1.0).prod(axis=0).sum())


def _resolve_block_size(A, cfg):
    if cfg.block_size == "auto":
        return auto_block_size(A.dims, SUBPROBLEM_CAP)
    return min(int(cfg.block_size), A.order)


def solve(A, cfg):
    """Run the block-alternating search and return the best k entries found.

    Restart r draws its own candidates from seed + r, and the restarts
    sweep in lockstep (see the module docstring).  Every candidate
    state visited after each sweep of each restart is pooled; the pooled
    set is deduplicated, ordered by the key (ties to the smallest linear
    index), and truncated to k, so entries abandoned mid-run still count.
    Deterministic for a fixed (A, cfg).  Raises ValueError when the factors'
    `_magnitude_bound` exceeds ``MAGNITUDE_LIMIT`` (see the module docstring).
    """
    _check_key_field(cfg.key, A.is_complex)
    s = _resolve_block_size(A, cfg)
    schedule = block_schedule(A.order, s)
    max_vol = max(math.prod(A.dims[q] for q in w) for w in schedule)
    if max_vol > SUBPROBLEM_CAP:
        raise CapacityError(
            f"block volume {max_vol} exceeds the subproblem cap of {SUBPROBLEM_CAP}"
        )
    stacked, offsets = kernels.stack_factors(A.factors)
    bound = _magnitude_bound(stacked, offsets)
    if not bound <= MAGNITUDE_LIMIT:
        raise ValueError(
            f"factor magnitude bound {bound:.6g} is not at most {MAGNITUDE_LIMIT:.6g}:"
            " the factors hold NaN or infinite entries, or entries large enough"
            " that products of them could overflow float64"
        )
    # sized for the k + extra candidates (fewer on tiny tensors) that
    # init_candidates draws; a real tensor maps its keys in place in the
    # contraction buffer
    m = min(cfg.k + cfg.extra, A.size())
    cells_buf = np.empty(max_vol * m, dtype=A.dtype)
    keyed_buf = np.empty(max_vol * m) if A.is_complex else cells_buf
    work = (np.empty(max_vol * A.rank, dtype=A.dtype), cells_buf, keyed_buf)
    n = cfg.restarts
    cands = [init_candidates(A, cfg, np.random.default_rng(cfg.seed + r))
             for r in range(n)]
    caches = [_ContractionCache(len(schedule)) for _ in range(n)]
    traces = [[float(np.max(key_values(c.values, cfg.key)))] for c in cands]
    restart_sweeps = [0] * n
    restart_converged = [False] * n
    pool = {}
    # every restart starts at sweep 0, so the live ones share a sweep count
    # and one that reaches max_sweeps leaves with the loop
    live = list(range(n))
    for _ in range(cfg.max_sweeps):
        before = [cands[r].tuples.copy() for r in live]
        _sweep(A, [(cands[r], caches[r]) for r in live], cfg.key, schedule,
               stacked, offsets, work)
        for r, prev in zip(live, before):
            restart_sweeps[r] += 1
            best = float(np.max(key_values(cands[r].values, cfg.key)))
            if cfg.k == 1 and best < traces[r][-1]:
                raise RuntimeError(f"best key value decreased from {traces[r][-1]} to {best}")
            traces[r].append(best)
            for row, val in zip(cands[r].tuples, cands[r].values):
                pool[tuple(int(v) for v in row)] = val
            restart_converged[r] = np.array_equal(prev, cands[r].tuples)
        live = [r for r in live if not restart_converged[r]]
        if not live:
            break
    ptuples = np.array(list(pool.keys()), dtype=np.int64)
    pvalues = np.array(list(pool.values()))
    keyed = key_values(pvalues, cfg.key)
    # order: key descending, then smallest linear index (mode 0 fastest, so
    # later modes are more significant in the comparison)
    sort_keys = tuple(ptuples[:, q] for q in range(A.order)) + (-keyed,)
    order = np.lexsort(sort_keys)[:cfg.k]
    chosen_vals = pvalues[order]
    if not A.is_complex:
        chosen_vals = chosen_vals.real
    return TopKResult(
        values=chosen_vals,
        indices=ptuples[order],
        objective=float(keyed[order].sum()),
        sweeps_used=sum(restart_sweeps),
        converged=any(restart_converged),
        diagnostics={
            "block_size": s,
            "schedule": schedule,
            "objective_trace": traces,
            # no candidate can exhaust its cells (see _block_pass); kept for
            # readers of the diagnostics
            "exhausted": 0,
            "pool_size": len(pool),
            "contracted_columns": sum(c.contracted_columns for c in caches),
            "clean_blocks": sum(c.clean_blocks for c in caches),
            "expansions": sum(c.expansions for c in caches),
            "restart_sweeps": restart_sweeps,
            "restart_converged": restart_converged,
        },
    )
