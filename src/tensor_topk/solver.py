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
scaled by its rank weights (see `_subproblems`).  A batch of subproblems
goes through one stacked matmul, one BLAS call per subproblem on slices of
one shape, so a subproblem's keys do not depend on which others share the
call.

A candidate's subproblem depends only on the window and on its
out-of-block coordinates, its context.  A candidate may not take a cell
that an earlier candidate of its restart and context holds, so it takes the
first of its context's cells, in key order with ties to the smaller index,
that none of them holds: with c earlier holders, one of the context's top
c + 1 cells.  So each `_Window` records the distinct contexts of its last
visit and each one's list of top cells, and a visit forms only the contexts
whose recorded list is shorter than their most holders in a live restart.
A visit that forms none builds neither rank weights nor halves.

The halves depend only on the window and the factors, not on the candidates
or the restart.  So `solve` runs its restarts in lockstep: each sweep
visits a window once for all live restarts.  The restarts' state is two
arrays with one row per restart, the tuples (restarts, m, order) and their
values (restarts, m).  At each window the live rows are gathered once,
flat, one row per candidate; their contexts are numbered together with the
window's record (`_context_ids`).  A group is one context's holders in one
live restart, and each context's need, its most holders in one group, comes
from one count of the groups.  The contexts to form are formed once, before
the block pass: one `compute_alpha` weighs each from its first holder, the
window's halves are built, and the subproblems are formed in batches in one
cell buffer per solve.  The weights and halves are dropped as soon as the
lists are made.  A subproblem's cells depend only on the window and the
context, whatever contexts share the `compute_alpha` and matmul calls, so a
context's list is the same at every visit, and the output does not depend
on the lockstep or the record.  Then one block pass runs over every live
row, with the groups as its context numbers: candidates of different
restarts never collide, so rows of different groups never interact, and
each candidate reads its cell from its context's list.  A block pass
evaluates an entry only where a candidate moves: a rechecked move keeps the
recheck's value, and a forced move (the incumbent cell taken by an earlier
candidate) is evaluated once.  ``eval_elements`` gives each row the same
bits whatever rows share its call, so the one pass gives every restart the
bits it would get alone.  A restart leaves the live set at its fixed point
or after ``max_sweeps`` sweeps.
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
FORM_CELLS = 1 << 17  # most cells one `_subproblems` batch of a visit forms


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
    """One schedule window of a solve: its constants and its record.

    The constants are the block tuple, its modes and their sizes (int64
    arrays), the strides of its cells (first block mode fastest), the
    out-of-block modes, the volume, and ``batch``, the most contexts one
    `_subproblems` batch forms: at most m of them and ``FORM_CELLS``
    cells, but at least one.  The record holds the distinct
    contexts of the window's last visit, ``contexts`` (n, |rest|), and each
    one's top cells, ``tops`` (n, L): row d lists the first cells of
    context d's subproblem in key order, ties to the smaller index (the
    order `kernels.masked_argmax` breaks ties in), and is padded with -1
    past its length.
    """

    def __init__(self, dims, block, m):
        self.block = block
        self.modes = np.array(block, dtype=np.int64)
        self.sizes = np.array([dims[q] for q in block], dtype=np.int64)
        self.strides = np.cumprod([1] + [dims[q] for q in block[:-1]])
        self.rest = np.array([q for q in range(len(dims)) if q not in block],
                             dtype=np.int64)
        self.vol = math.prod(dims[q] for q in block)
        self.batch = max(1, min(m, FORM_CELLS // self.vol))
        self.contexts = np.empty((0, self.rest.size), dtype=np.int64)
        self.tops = np.empty((0, 0), dtype=np.int64)


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
    starts = np.concatenate(([True], (ordered[1:] != ordered[:-1]).any(axis=1)))
    ids = np.empty(n, dtype=np.int64)
    ids[order] = starts.cumsum() - 1
    return ids, order[starts]


def _block_pass(tuples, values, window, ids, tops, key, stacked, offsets):
    """Update every candidate's block coordinates against one `_Window`.

    ids[j] numbers candidate j's group, from 0 to len(tops) - 1.  The
    candidates of a group share their context, their out-of-block
    coordinates, and rows of different groups never interact: `_sweep`
    passes every live restart's rows in one call, each group one restart's
    holders of one context.  Row g of tops lists the top cells of group g's
    subproblem in key order, ties to the smaller index, padded with -1: at
    least as many as the group has candidates.  So tops has one row per
    group, not per candidate.  The rule is sequential greedy: in candidate
    order, each candidate takes its best cell not already taken by an
    earlier candidate of its group, and a roundoff recheck keeps the
    incumbent unless the move truly beats it.  It runs in two phases that
    give exactly the sequential result:

    1. Free candidates, the first of their group, with no earlier candidate,
       have an empty forbidden set whatever the others pick, so each takes
       its list's first cell, its subproblem's argmax.  All are picked at
       once and rechecked in one batched ``eval_elements`` call.
    2. The remaining (dependent) candidates are walked in order.  Every
       earlier candidate's final cell is known by then (free ones from
       phase 1, dependent ones from earlier steps), and each group keeps
       the set of its candidates' cells so far, so each forbidden set is
       the one the sequential rule sees.  With c earlier candidates it
       holds c cells, so the first of the list's top c + 1 cells outside
       it is the best allowed cell, the one ``masked_argmax`` would pick
       from the whole subproblem.

    Keys are finite (`solve` bounds the factors) and the entering tuples
    of a group are pairwise distinct, so at most vol - 1 earlier candidates
    share a dependent candidate's group: its list always holds an allowed
    cell, and each group's tuples stay pairwise distinct.

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
    new_lins = tops[ids, 0]
    # a candidate is dependent unless it is the first row of its group
    first = np.full(tops.shape[0], ids.size)
    np.minimum.at(first, ids, np.arange(ids.size))
    dependent = first[ids] != np.arange(ids.size)
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

    taken = {}  # the cells of each group with dependents, so far
    for j, g in zip(np.flatnonzero(dependent).tolist(), ids[dependent].tolist()):
        forbidden = taken.setdefault(g, {int(new_lins[first[g]])})
        lin = next(cell for cell in tops[g, :len(forbidden) + 1].tolist() if cell not in forbidden)
        if lin != inc_lins[j]:
            trial = tuples[j].copy()
            trial[modes] = lin // strides % sizes
            tv = kernels.eval_elements(stacked, offsets, trial[None, :])
            forced_move = int(inc_lins[j]) in forbidden
            forced += forced_move
            rechecks += not forced_move
            if not forced_move and key_values(tv, key)[0] < key_values(values[j:j + 1], key)[0]:
                reverted += 1
                lin = int(inc_lins[j])
            else:
                values[j] = tv[0]
        new_lins[j] = lin
        forbidden.add(lin)
    tuples[:, modes] = new_lins[:, None] // strides % sizes
    return int(np.count_nonzero(new_lins != inc_lins)), rechecks, reverted, forced


def _subproblems(lead_t, trail, alpha, out):
    """The dense subproblems of the contexts whose rank weights are alpha's
    columns, (R, w): row c of the (w, vol) result holds every cell of
    context c's subproblem, sum_r alpha[r, c] * lead[:, r] (x) trail[:, r],
    the leading half's cells fastest.  lead_t is the leading half transposed,
    a C-contiguous (R, vol_lead) array, and trail the trailing half.

    The half with fewer cells, the trailing one on a tie, is scaled by each
    context's weights, and one stacked matmul forms all w subproblems into
    a prefix of the flat buffer out.  numpy makes one BLAS call per stacked
    slice, and every slice has the same shape, so a context's cells do not
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
        # contexts, and numpy rounds a lone complex product apart from
        # that loop: a lone context is scaled as two copies of itself
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
    which the sweep adds.  At each window the live tuples and values are
    gathered once into flat copies, one row per candidate, restart by
    restart, and one `_context_ids` call numbers the rows' contexts together
    with the window's record, so each context's list of top cells starts
    from the record, empty for one not seen before.  A group is one
    context's holders in one live restart; its first holder is a free pick
    and the others are dependent picks.  One ``np.unique`` over the rows'
    (restart position, context) keys numbers the groups and counts each
    one's holders, and a context needs a list as long as its largest group.

    The contexts whose list is shorter than that are formed once, before the
    block pass: one `compute_alpha` over their first holders, one row per
    context, the window's two halves (`kernels.expand_halves`), and
    `_subproblems` in batches of the window's ``batch`` contexts.  A list's
    entry 0 is its row's argmax, and each later entry the
    `kernels.masked_argmax` of the row outside the entries before it.  The
    weights and halves are dropped then, before the pass's recheck.  One
    block pass runs over every live row, with the group numbers as its
    ``ids`` and one list per group, its context's, so the lists it reads
    grow with the groups, not the rows.  Its rows are written back to
    ``tuples`` and ``values``.  A block pass changes only the window's modes, so the
    visit's contexts and their lists become the window's record.
    ``contracted_columns`` counts the subproblems formed and ``expansions``
    the visits that form any.  work holds the flat cell and key buffers that
    `solve` allocates once, each as large as the windows' largest ``batch``
    times ``vol``; a batch uses a prefix of each, so no block allocates an
    array proportional to its volume, and no buffer grows with m past one
    batch.
    """
    cells_buf, keyed_buf = work
    m = tuples.shape[1]
    for w in windows:
        stack = tuples[live].reshape(-1, A.order)
        vals = values[live].reshape(-1)
        rows = stack.shape[0]
        contexts = stack[:, w.rest]
        # the live rows first: a context's first holder is a live candidate
        # whenever one holds it
        ids, firsts = _context_ids(np.concatenate((contexts, w.contexts)))
        recorded, ids = ids[rows:], ids[:rows]
        # a group: the holders of one context in one live restart; held
        # lists the groups, (restart position, context) in order, and
        # groups numbers each row's group by its place in held
        groups = np.arange(rows) // m * firsts.size + ids
        held, holders = np.unique(groups, return_counts=True)
        groups = np.searchsorted(held, groups)
        # a context's need: its most holders in one live restart
        need = np.zeros(firsts.size, dtype=np.int64)
        np.maximum.at(need, held % firsts.size, holders)
        tops = np.full((firsts.size, max(need.max(), w.tops.shape[1])), -1, dtype=np.int64)
        tops[recorded, :w.tops.shape[1]] = w.tops
        short = np.flatnonzero((tops >= 0).sum(axis=1) < need)
        if short.size:
            # compute_alpha comes right before the expansions it pairs with,
            # so a tracer wrapping both can pair them
            alphas = compute_alpha(A, stack[firsts[short]], w.block)
            lead, trail = kernels.expand_halves(stacked, offsets, w.modes, w.sizes)
            lead_t = np.ascontiguousarray(lead.T)
            counts["expansions"] += 1
            counts["contracted_columns"] += short.size
            for start in range(0, short.size, w.batch):
                # a fancy index copies the batch's weights into one
                # contiguous block, as the batch-independence tests take them
                part = np.arange(start, min(start + w.batch, short.size))
                cells = _subproblems(lead_t, trail, alphas[:, part], cells_buf)
                keyed = key_values(cells, key, out=keyed_buf[:cells.size].reshape(cells.shape))
                formed = short[part]
                tops[formed, 0] = keyed.argmax(axis=1)
                for j in np.flatnonzero(need[formed] > 1):
                    d = formed[j]
                    for n in range(1, need[d]):
                        tops[d, n] = kernels.masked_argmax(keyed[j], tops[d, :n])
            # drop the rank weights and halves before the pass's recheck
            # evaluates its moves
            alphas = lead = lead_t = trail = None
        # each group's first holder is a free pick and the others dependent
        passed = (held.size, rows - held.size) + _block_pass(
            stack, vals, w, groups, tops[held % firsts.size], key, stacked, offsets)
        for name, n in zip(("free_picks", "dependent_picks") + _PASS_COUNTS, passed):
            counts[name] += n
        tuples[live], values[live] = stack.reshape(-1, m, A.order), vals.reshape(-1, m)
        # the live contexts are those whose first holder is a live row
        alive = firsts < rows
        w.contexts, w.tops = contexts[firsts[alive]], tops[alive]


# Largest accepted `_magnitude_bound`; the factor of 2 leaves headroom for
# rounding in the products and sums it bounds.
MAGNITUDE_LIMIT = np.finfo(np.float64).max / 2


def _magnitude_bound(stacked, offsets):
    """B = sum_r prod_p max(1, max_i |U_p[i, r]|).

    B bounds the magnitude of every product of factor entries over any
    subset of the modes, taken in any order, and of every sum of such
    products over the rank: the entries, alpha, the window halves, their
    scaled copies and the subproblems formed from them.  NaN or infinite
    factors give a NaN or infinite B.
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
    windows = [_Window(A.dims, block, m) for block in schedule]
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
    # one formation batch's cells; a real tensor maps its keys in place
    cells_buf = np.empty(max(w.batch * w.vol for w in windows), dtype=A.dtype)
    work = (cells_buf, np.empty(cells_buf.size) if A.is_complex else cells_buf)
    tuples = np.stack([init_candidates(A.dims, m, np.random.default_rng(cfg.seed + r))
                       for r in range(n)])
    values = kernels.eval_elements(stacked, offsets, tuples.reshape(n * m, -1)).reshape(n, m)
    counts = dict.fromkeys(
        ("contracted_columns", "expansions", "free_picks", "dependent_picks")
        + _PASS_COUNTS, 0)
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
    order = np.lexsort(tuple(ptuples.T) + (-keyed,))[:cfg.k]
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
