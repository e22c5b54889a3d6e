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

With a candidate's out-of-block coordinates fixed, its subproblem is the
CP tensor sum_r alpha[r] * (x)_{q in block} U_q[:, r] on the window's modes.
`kernels.expand_halves` splits the window's modes as `cp.materialize` splits
a tensor's, into a leading and a trailing half, and expands each, so a
candidate's subproblem is one small GEMM of the two halves, one of them
scaled by its rank weights (see `_subproblems`).  The candidates of a
restart go through one stacked matmul, one BLAS call per candidate on
slices of one shape, so a candidate's keys do not depend on which other
candidates share the call.

A candidate's subproblem depends only on the window and on its
out-of-block coordinates, its context, and so does its argmax.  So each
`_Window` records the distinct contexts of its last visit and their
argmaxes.  A visit forms only the subproblems of contexts that a dependent
candidate needs whole (its masked selection reads every cell) and of
contexts with no argmax yet; a block pass that forms none skips the
contraction, and a visit where no live restart forms one skips building
the halves too.

The halves depend only on the window and the factors, not on the candidates
or the restart.  So `solve` runs its restarts in lockstep: each sweep
visits a window once for all live restarts.  The restarts' state is two
arrays with one row per restart, the tuples (restarts, m, order) and their
values (restarts, m).  At each window the live rows of the tuples are
gathered once; their contexts are numbered together with the window's
record (`_context_ids`), and the collision masks (equal numbers) and the
dependent masks come from those numbers.  The window's rank weights and
its halves are built once, before the restarts run, and dropped when the
sweep moves to the next window: one `compute_alpha` weighs each context
that some restart forms at the visit, once, from the first candidate that
holds it.  Each restart then, in order, forms the contexts it needs from
their columns of those weights, and runs its block pass on its own rows.
A subproblem's cells depend only on the window and the context, whatever
candidates share the `compute_alpha` and matmul calls, so every restart
sees the same bits as it would alone, and the output does not depend on
the lockstep or the record.  The cell and key buffers stay one per solve:
a restart's block pass uses up its subproblems before the next restart
overwrites them.  A block pass evaluates an entry only where a candidate
moves: a rechecked move keeps the recheck's value, and a forced move (the
incumbent cell taken by an earlier candidate) is evaluated once.  A
restart leaves the live set at its fixed point or after ``max_sweeps``
sweeps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import CapacityError, InfeasibleKError


class OrderingKey(enum.Enum):
    """What 'best' means: the solver maximizes the key-mapped value."""

    MAX = "max"
    MIN = "min"
    MAX_ABS = "maxabs"
    MAX_REAL = "maxreal"
    MAX_IMAG = "maximag"


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


def _check_integer(name, value):
    # bool is an int subclass, but True is no count or seed
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


SUBPROBLEM_CAP = 1 << 20  # largest block volume, in cells, `solve` accepts


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for `solve`.

    block_size may be an integer s (clamped to the tensor order) or "auto",
    which picks the largest s whose block volumes stay within
    ``SUBPROBLEM_CAP``.  Restart r uses seed + r.  The key must be an
    `OrderingKey`, the counts and the seed integers (numpy integers too,
    bools not), and the seed >= 0.
    """

    k: int
    extra: int = 0
    block_size: int | str = 2
    key: OrderingKey = OrderingKey.MAX
    max_sweeps: int = 50
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        auto = self.block_size == "auto"
        if isinstance(self.block_size, str) and not auto:
            raise ValueError(f"block_size must be an int or 'auto', got {self.block_size!r}")
        ints = ("k", "extra", "max_sweeps", "restarts", "seed") + (() if auto else ("block_size",))
        for name in ints:
            _check_integer(name, getattr(self, name))
        # solve would reject it only after every restart is drawn
        if not isinstance(self.key, OrderingKey):
            raise ValueError(f"key must be an OrderingKey, got {self.key!r}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.extra < 0:
            raise ValueError(f"extra must be >= 0, got {self.extra}")
        for name in ("max_sweeps", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not auto and self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size}")


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


class _Window:
    """One schedule window of a solve: its constants and its argmax record.

    The constants are the block tuple, its modes and their sizes (int64
    arrays), the strides of its cells (first block mode fastest), the
    out-of-block modes and the volume.  The record holds the distinct
    contexts of the window's last visit, ``contexts`` (n, |rest|), and each
    one's subproblem argmax, ``argmaxes`` (n,).
    """

    def __init__(self, dims, block):
        self.block = block
        self.modes = np.array(block, dtype=np.int64)
        self.sizes = np.array([dims[q] for q in block], dtype=np.int64)
        self.strides = np.cumprod([1] + [dims[q] for q in block[:-1]])
        self.rest = np.array([q for q in range(len(dims)) if q not in block],
                             dtype=np.int64)
        self.vol = math.prod(dims[q] for q in block)
        self.contexts = np.empty((0, self.rest.size), dtype=np.int64)
        self.argmaxes = np.empty(0, dtype=np.int64)


def init_candidates(dims, m, rng):
    """Draw m distinct uniform index tuples of a tensor of shape dims.

    Returns an (m, len(dims)) int64 array; m must not exceed the tensor's
    size, which `solve` ensures.
    """
    total = math.prod(dims)
    if total <= max(1024, 4 * m):
        lins = rng.permutation(total)[:m]
        strides = np.cumprod([1] + list(dims[:-1]))
        return lins[:, None] // strides % dims
    rows = {}  # the distinct draws, in the order first drawn
    while len(rows) < m:
        draw = np.column_stack([rng.integers(0, n, size=2 * m) for n in dims])
        for row in draw.tolist():
            rows[tuple(row)] = None
            if len(rows) == m:
                break
    return np.array(list(rows), dtype=np.int64)


def compute_alpha(A, tuples, block):
    """Per-candidate rank weights for one block.

    alpha[r, j] is the product of factor entries at candidate j's coordinates
    over the modes outside the block (indicator vectors collapse inner
    products to single factor entries); with an all-mode block the product
    is empty and alpha is all ones.  A column's bits do not depend on the
    other candidates in the call: numpy rounds a one-element in-place complex
    product (a lone rank-1 candidate) apart from its vector loop, so a lone
    candidate is weighed as two copies of itself.
    """
    n = tuples.shape[0]
    if n == 1:
        tuples = np.repeat(tuples, 2, axis=0)
    alpha = np.ones((A.rank, tuples.shape[0]), dtype=A.dtype)
    for q in range(A.order):
        if q not in block:
            alpha *= A.factors[q][tuples[:, q], :].T
    return alpha[:, :n]


def _collision_mask(context):
    """beta[i, j]: candidates i and j agree on every out-of-block coordinate,
    from each candidate's ``context`` (one row per candidate, possibly no
    columns, so all True for an all-mode block).  A stack of contexts,
    (n, m, c), gives a stack of masks, (n, m, m).  `_sweep` gets the same
    masks by comparing `_context_ids` numbers."""
    return np.all(context[..., :, None, :] == context[..., None, :, :], axis=-1)


_PASS_COUNTS = ("moves", "rechecks", "reverted", "forced_moves")


def _context_ids(contexts):
    """Group the rows of ``contexts``, (n, c), into distinct contexts.

    Returns (ids, firsts): ids[j] numbers row j's context, and firsts[d] is
    the first row that holds context d.  The sort is stable, so equal rows
    keep their order; the row number, the least significant key, keeps the
    key list non-empty when c is 0 and every row holds the one empty context.
    """
    n = contexts.shape[0]
    order = np.lexsort((np.arange(n),) + tuple(contexts.T))
    ordered = contexts[order]
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(n, dtype=np.int64)
    ids[order] = starts.cumsum() - 1
    return ids, order[starts]


def _dependent(beta):
    """Candidates with an earlier candidate in their context; for a stack of
    `_collision_mask` masks, one row per mask.

    beta's diagonal is True, so a column's first True row is below the
    diagonal exactly when an earlier candidate shares the context.
    """
    return beta.argmax(axis=-2) < np.arange(beta.shape[-1])


def _block_pass(tuples, values, window, keyed, beta, key, stacked, offsets,
                picks):
    """Update every candidate's block coordinates against one `_Window`.

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
    Only dependent candidates read keyed and slot, so keyed may hold just a
    subset of the columns, and both may be None when no candidate is
    dependent.

    Only a candidate that moves gets a new value: a move that survives its
    recheck keeps the recheck's value, and a forced move, a dependent
    candidate whose incumbent cell an earlier candidate took, is evaluated
    once.  ``eval_elements`` gives each row the same bits whatever rows
    share the call, so every value equals a fresh evaluation of its tuple.
    Returns the counts (moves, rechecks, reverted, forced_moves): the
    candidates that moved, the moves rechecked, the rechecked moves undone
    and the forced moves, so moves == rechecks - reverted + forced_moves.
    """
    modes, sizes, strides = window.modes, window.sizes, window.strides
    inc_lins = (tuples[:, modes] * strides).sum(axis=1)
    lins, slot, dependent = picks
    new_lins = lins.copy()
    moved = np.flatnonzero(~dependent & (new_lins != inc_lins))
    rechecks, reverted, forced = moved.size, 0, 0
    if moved.size:
        # Guard against reduction-order roundoff in the batched subproblem
        # values: re-evaluate the contenders through the element kernel and
        # keep each incumbent unless truly beaten.
        trial = tuples[moved]
        trial[:, modes] = new_lins[moved, None] // strides % sizes
        tv = kernels.eval_elements(stacked, offsets, trial)
        worse = key_values(tv, key) < key_values(values[moved], key)
        new_lins[moved[worse]] = inc_lins[moved[worse]]
        values[moved[~worse]] = tv[~worse]
        reverted = int(np.count_nonzero(worse))

    for j in np.flatnonzero(dependent):
        forbidden = new_lins[:j][beta[:j, j]]
        lin = kernels.masked_argmax(keyed[:, slot[j]], forbidden)
        if lin != inc_lins[j]:
            trial = tuples[j].copy()
            trial[modes] = lin // strides % sizes
            tv = kernels.eval_elements(stacked, offsets, trial[None, :])
            forced_move = int(inc_lins[j]) in forbidden
            forced += forced_move
            rechecks += not forced_move
            if (not forced_move
                    and key_values(tv, key)[0] < key_values(values[j:j + 1], key)[0]):
                reverted += 1
                lin = int(inc_lins[j])
            else:
                values[j] = tv[0]
        new_lins[j] = lin
    tuples[:, modes] = new_lins[:, None] // strides % sizes
    return int(np.count_nonzero(new_lins != inc_lins)), rechecks, reverted, forced


def _subproblems(lead_t, trail, alpha, out):
    """The dense subproblems of the candidates whose rank weights are alpha's
    columns, (R, w): row c of the (w, vol) result holds every cell of
    candidate c's subproblem, sum_r alpha[r, c] * lead[:, r] (x) trail[:, r],
    the leading half's cells fastest.  lead_t is the leading half transposed,
    a C-contiguous (R, vol_lead) array, and trail the trailing half.

    The half with fewer cells, the trailing one on a tie, is scaled by each
    candidate's weights, and one stacked matmul forms all w subproblems into
    a prefix of the flat buffer out.  numpy makes one BLAS call per stacked
    slice, and every slice has the same shape, so a candidate's cells do not
    depend on which or how many columns share the call.
    """
    n = alpha.shape[1]
    shape = (n, trail.shape[0], lead_t.shape[1])
    cells = out[:math.prod(shape)].reshape(shape)
    scale_lead = lead_t.shape[1] < trail.shape[0]
    if scale_lead:
        half, weights = lead_t, alpha.T[:, :, None]
    else:
        half, weights = trail, alpha.T[:, None, :]
    if half.size == 1 == n:
        # a one-cell half of rank 1 is scaled in one loop over the
        # candidates, and numpy rounds a lone complex product apart from
        # that loop: a lone candidate is scaled as two copies of itself
        weights = np.repeat(weights, 2, axis=0)
    scaled = (half * weights)[:n]
    if scale_lead:
        np.matmul(trail, scaled, out=cells)
    else:
        np.matmul(scaled, lead_t, out=cells)
    return cells.reshape(n, -1)


def _sweep(A, tuples, values, live, key, windows, counts, stacked, offsets, work):
    """One sweep of the live restarts in lockstep; mutates their candidates.

    tuples (restarts, m, order) and values (restarts, m) hold one row per
    restart, live the indices of the restarts still sweeping, in order,
    windows the solve's `_Window` list, and counts the solve's counts, to
    which the sweep adds.  At each window the live tuples are gathered once,
    ``tuples[live]``, and one `_context_ids` call numbers their contexts
    together with the window's record; the collision and dependent masks
    come from those numbers, and each context's argmax starts from the
    record, -1 for one not seen before.  A restart's rows of the copy are
    its tuples as it enters the window, since only its own block pass
    changes them.  The contexts some restart forms at the visit are those
    of the dependents and those with no argmax; when there are any, one
    `compute_alpha` over their first holders, one row per context, and the
    window's two halves (`kernels.expand_halves`) are built before the
    restarts run.

    Then each live restart r, in order, forms (`_subproblems`) the contexts
    of its dependents and those of its free candidates that still have no
    argmax, each from its context's column of alpha, stores their row
    argmaxes, and runs its block pass on the row views ``tuples[r]`` and
    ``values[r]``, where a dependent reads its context's subproblem through
    ``slot``.  A block pass changes only the window's modes, so the visit's
    contexts and their argmaxes become the window's record.
    ``contracted_columns`` counts the subproblems formed and
    ``clean_blocks`` the block passes that formed none.  work holds the flat
    cell and key buffers that `solve` allocates once, m times the largest
    window's volume each; a restart uses a prefix of each, so no block
    allocates an array proportional to its volume.
    """
    cells_buf, keyed_buf = work
    m = tuples.shape[1]
    for w in windows:
        # drop the last window's rank weights and halves before this one
        # builds its own
        alphas = lead = lead_t = trail = None
        stack = tuples[live]
        rows = len(live) * m
        contexts = stack[:, :, w.rest].reshape(rows, -1)
        # the live rows first: a context's first holder is a live candidate
        # whenever one holds it
        ids, firsts = _context_ids(np.concatenate((contexts, w.contexts)))
        argmaxes = np.full(firsts.size, -1, dtype=np.int64)
        argmaxes[ids[rows:]] = w.argmaxes
        ids = ids[:rows].reshape(len(live), m)
        # two candidates collide exactly when their contexts share a number
        betas = ids[:, :, None] == ids[:, None, :]
        dependents = _dependent(betas)
        n_dependent = int(np.count_nonzero(dependents))
        counts["dependent_picks"] += n_dependent
        counts["free_picks"] += dependents.size - n_dependent
        # the contexts some restart forms at this visit, each weighed once,
        # from its first holder
        weighed = np.zeros(firsts.size, dtype=bool)
        weighed[ids[dependents | (argmaxes[ids] < 0)]] = True
        if weighed.any():
            # compute_alpha comes right before the expansions it pairs with,
            # so a tracer wrapping both can pair them
            alphas = compute_alpha(A, stack.reshape(-1, A.order)[firsts[weighed]], w.block)
            column = weighed.cumsum() - 1
            lead, trail = kernels.expand_halves(stacked, offsets, w.modes, w.sizes)
            lead_t = np.ascontiguousarray(lead.T)
            counts["expansions"] += 1
        for i, r in enumerate(live):
            # a dependent needs its context's whole subproblem; a free
            # candidate needs only its context's argmax
            need = ids[i, dependents[i] | (argmaxes[ids[i]] < 0)]
            keyed = slot = None
            if need.size:
                formed = np.zeros(firsts.size, dtype=bool)
                formed[need] = True
                sel = formed.nonzero()[0]
                cells = _subproblems(lead_t, trail, alphas[:, column[sel]], cells_buf)
                keyed = key_values(cells, key,
                                   out=keyed_buf[:cells.size].reshape(cells.shape))
                argmaxes[sel] = keyed.argmax(axis=1)
                keyed, slot = keyed.T, (formed.cumsum() - 1)[ids[i]]
                counts["contracted_columns"] += sel.size
            else:
                counts["clean_blocks"] += 1
            passed = _block_pass(tuples[r], values[r], w, keyed, betas[i], key,
                                 stacked, offsets, picks=(argmaxes[ids[i]], slot, dependents[i]))
            for name, n in zip(_PASS_COUNTS, passed):
                counts[name] += n
        # the live contexts are those whose first holder is a live row
        held = firsts < rows
        w.contexts, w.argmaxes = contexts[firsts[held]], argmaxes[held]


# Largest accepted `_magnitude_bound`; the factor of 2 leaves headroom for
# rounding in the products and sums it bounds.
MAGNITUDE_LIMIT = np.finfo(np.float64).max / 2


def _magnitude_bound(stacked, offsets):
    """B = sum_r prod_p max(1, max_i |U_p[i, r]|).

    B bounds the magnitude of every product of factor entries over any
    subset of the modes, taken in any order, and of every sum of such
    products over the rank: the entries, alpha, the window halves, their
    scaled copies and the subproblems formed from them.  NaN or infinite factors give a NaN or infinite B.
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
    `_magnitude_bound` exceeds ``MAGNITUDE_LIMIT`` (see the module docstring),
    then InfeasibleKError when k exceeds the tensor's size.
    """
    _check_key_field(cfg.key, A.is_complex)
    s = _resolve_block_size(A, cfg)
    schedule = block_schedule(A.order, s)
    total = A.size()
    # k + extra candidates, fewer on tiny tensors
    m = min(cfg.k + cfg.extra, total)
    n = cfg.restarts
    windows = [_Window(A.dims, block) for block in schedule]
    max_vol = max(w.vol for w in windows)
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
    if total < cfg.k:
        raise InfeasibleKError(f"k={cfg.k} exceeds the tensor size of {total} entries")
    # a real tensor maps its keys in place in the cell buffer
    cells_buf = np.empty(max_vol * m, dtype=A.dtype)
    work = (cells_buf, np.empty(max_vol * m) if A.is_complex else cells_buf)
    tuples = np.stack([init_candidates(A.dims, m, np.random.default_rng(cfg.seed + r))
                       for r in range(n)])
    values = kernels.eval_elements(stacked, offsets, tuples.reshape(n * m, -1)).reshape(n, m)
    counts = dict.fromkeys(
        ("contracted_columns", "clean_blocks", "expansions",
         "free_picks", "dependent_picks") + _PASS_COUNTS, 0)
    traces = [[b] for b in key_values(values, cfg.key).max(axis=1).tolist()]
    restart_sweeps = np.zeros(n, dtype=np.int64)
    restart_converged = np.zeros(n, dtype=bool)
    pool = {}
    # every restart starts at sweep 0, so the live ones share a sweep count
    # and one that reaches max_sweeps leaves with the loop
    live = np.arange(n)
    for _ in range(cfg.max_sweeps):
        before = tuples[live]
        _sweep(A, tuples, values, live, cfg.key, windows, counts, stacked, offsets, work)
        restart_sweeps[live] += 1
        bests = key_values(values[live], cfg.key).max(axis=1)
        for r, best in zip(live.tolist(), bests.tolist()):
            if best < traces[r][-1]:
                raise RuntimeError(f"best key value decreased from {traces[r][-1]} to {best}")
            traces[r].append(best)
        after = tuples[live]
        pool.update(zip(map(tuple, after.reshape(-1, A.order).tolist()),
                        values[live].ravel().tolist()))
        moved = (after != before).any(axis=(1, 2))
        restart_converged[live] = ~moved
        live = live[moved]
        if not live.size:
            break
    ptuples = np.array(list(pool.keys()), dtype=np.int64)
    pvalues = np.array(list(pool.values()))
    keyed = key_values(pvalues, cfg.key)
    # order: key descending, then smallest linear index (mode 0 fastest, so
    # later modes are more significant in the comparison)
    sort_keys = tuple(ptuples[:, q] for q in range(A.order)) + (-keyed,)
    order = np.lexsort(sort_keys)[:cfg.k]
    return TopKResult(
        values=pvalues[order],
        indices=ptuples[order],
        objective=float(keyed[order].sum()),
        sweeps_used=int(restart_sweeps.sum()),
        converged=bool(restart_converged.any()),
        diagnostics={
            "block_size": s,
            "schedule": schedule,
            "objective_trace": traces,
            # no candidate can exhaust its cells (see _block_pass); kept for
            # readers of the diagnostics
            "exhausted": 0,
            "pool_size": len(pool),
            **counts,
            "restart_sweeps": restart_sweeps.tolist(),
            "restart_converged": restart_converged.tolist(),
        },
    )
