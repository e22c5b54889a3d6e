"""Block search unit tests and small end-to-end cases.

End-to-end answers are checked against the dense reference from conftest;
internal pieces (schedule, alpha/beta, subproblem cells, collision handling)
get direct hand-computed cases.
"""

import math
import unittest
from dataclasses import replace
from unittest import mock

import numpy as np

from conftest import (
    OVERFLOW_FACTORS,
    dense_from_factors,
    dense_topk,
    keyed_dense,
    random_factors,
)
from tensor_topk import cp, kernels, solver
from tensor_topk.baselines import oracle_topk
from tensor_topk.errors import CapacityError, InfeasibleKError
from tensor_topk.solver import OrderingKey, SolverConfig


class TestSchedule(unittest.TestCase):

    def test_full_block_is_single_window(self):
        self.assertEqual(solver.block_schedule(3, 3), [(0, 1, 2)])

    def test_pairs_overlap_and_wrap(self):
        self.assertEqual(solver.block_schedule(4, 2),
                         [(0, 1), (1, 2), (2, 3), (3, 0)])
        self.assertEqual(solver.block_schedule(5, 2),
                         [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])

    def test_single_mode_windows(self):
        self.assertEqual(solver.block_schedule(3, 1), [(0,), (1,), (2,)])

    def test_every_mode_covered(self):
        for d in range(2, 9):
            for s in range(1, d + 1):
                sched = solver.block_schedule(d, s)
                covered = set()
                for w in sched:
                    self.assertEqual(len(w), s)
                    covered.update(w)
                self.assertEqual(covered, set(range(d)))

    def test_bad_block_size(self):
        with self.assertRaises(ValueError):
            solver.block_schedule(4, 0)
        with self.assertRaises(ValueError):
            solver.block_schedule(4, 5)

    def test_auto_block_size(self):
        self.assertEqual(solver.auto_block_size((4, 4, 4), 64), 3)
        self.assertEqual(solver.auto_block_size((4, 4, 4), 16), 2)
        self.assertEqual(solver.auto_block_size((4, 4, 4), 4), 1)
        self.assertEqual(solver.auto_block_size((6, 5, 4, 3), 120), 3)
        with self.assertRaises(CapacityError):
            solver.auto_block_size((4, 4, 4), 3)


class TestConfig(unittest.TestCase):

    def test_validation(self):
        with self.assertRaises(ValueError):
            SolverConfig(k=0)
        with self.assertRaises(ValueError):
            SolverConfig(k=1, extra=-1)
        with self.assertRaises(ValueError):
            SolverConfig(k=1, block_size=0)
        with self.assertRaises(ValueError):
            SolverConfig(k=1, restarts=0)
        with self.assertRaises(ValueError):
            SolverConfig(k=1, block_size="wide")

    def test_key_lookup(self):
        self.assertIs(OrderingKey.from_name("maxabs"), OrderingKey.MAX_ABS)
        self.assertIs(OrderingKey.from_name("min"), OrderingKey.MIN)
        with self.assertRaises(ValueError):
            OrderingKey.from_name("median")

    def test_complex_needs_complex_key(self):
        fs = random_factors(np.random.default_rng(0), (3, 3), 2, complex_=True)
        A = cp.CpTensor(fs)
        with self.assertRaises(ValueError):
            solver.solve(A, SolverConfig(k=1, key=OrderingKey.MAX))


class TestCandidates(unittest.TestCase):

    def setUp(self):
        self.rng = np.random.default_rng(7)
        self.A = cp.CpTensor(random_factors(self.rng, (4, 3, 5), 3))

    def test_distinct_and_sized(self):
        cfg = SolverConfig(k=5, extra=5)
        cands = solver.init_candidates(self.A, cfg, self.rng)
        self.assertEqual(cands.tuples.shape, (10, 3))
        seen = {tuple(t) for t in cands.tuples.tolist()}
        self.assertEqual(len(seen), 10)
        for t, v in zip(cands.tuples, cands.values):
            self.assertEqual(v, cp.element(self.A, tuple(t)))

    def test_extra_clamped_to_tensor_size(self):
        tiny = cp.CpTensor(random_factors(self.rng, (2, 2), 2))
        cands = solver.init_candidates(tiny, SolverConfig(k=2, extra=50), self.rng)
        self.assertEqual(cands.tuples.shape[0], 4)

    def test_infeasible_k(self):
        tiny = cp.CpTensor(random_factors(self.rng, (2, 2), 1))
        with self.assertRaises(InfeasibleKError):
            solver.init_candidates(tiny, SolverConfig(k=5), self.rng)
        with self.assertRaises(InfeasibleKError):
            solver.solve(tiny, SolverConfig(k=5))


class TestAlphaBeta(unittest.TestCase):

    def test_hand_case(self):
        # d=3, R=1, block={0}; alpha collapses to U2(i2)*U3(i3)
        fs = [np.array([[1.0], [2.0]]),
              np.array([[3.0], [4.0]]),
              np.array([[5.0], [6.0]])]
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 1, 0]])
        alpha = solver.compute_alpha(A, tuples, (0,))
        beta = solver._collision_mask(tuples[:, [1, 2]])
        self.assertEqual(alpha.shape, (1, 1))
        self.assertEqual(alpha[0, 0], 4.0 * 5.0)
        self.assertTrue(beta[0, 0])

    def test_consistency_with_element(self):
        rng = np.random.default_rng(3)
        fs = random_factors(rng, (4, 3, 5, 2), 4)
        A = cp.CpTensor(fs)
        tuples = np.stack([rng.integers(0, n, size=6) for n in A.dims], axis=1)
        block = (1, 3)
        alpha = solver.compute_alpha(A, tuples, block)
        for j, t in enumerate(tuples):
            # completing the block coords with the candidate's own entries
            # must reproduce the exact tensor entry
            prod = alpha[:, j].copy()
            for q in block:
                prod = prod * A.factors[q][t[q], :]
            self.assertAlmostEqual(prod.sum(), cp.element(A, tuple(t)), places=11)

    def test_beta_tracks_outside_agreement(self):
        tuples = np.array([[0, 1, 2], [0, 2, 2], [1, 1, 2]])
        # outside coords are modes 0 and 2
        beta = solver._collision_mask(tuples[:, [0, 2]])
        self.assertTrue(beta[0, 1])
        self.assertFalse(beta[0, 2])
        self.assertFalse(beta[1, 2])

    def test_all_mode_block(self):
        fs = random_factors(np.random.default_rng(2), (3, 4), 5)
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 0], [1, 2]])
        alpha = solver.compute_alpha(A, tuples, (0, 1))
        beta = solver._collision_mask(tuples[:, []])
        self.assertTrue(np.all(alpha == 1.0))
        self.assertTrue(np.all(beta))


class TestSubproblem(unittest.TestCase):
    """The block subproblem as ``solve`` builds it: expand @ alpha, then select."""

    def test_cells_are_tensor_entries(self):
        rng = np.random.default_rng(5)
        fs = random_factors(rng, (3, 4, 2), 3)
        A = cp.CpTensor(fs)
        dense = dense_from_factors(fs)
        tuples = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 1]])
        block = (0, 2)
        stacked, offsets = kernels.stack_factors(A.factors)
        expand = kernels.block_expand(stacked, offsets, block, (3, 2))
        cells = expand @ solver.compute_alpha(A, tuples, block)
        self.assertEqual(cells.shape, (6, 3))
        for j, t in enumerate(tuples):
            for lin in range(6):
                i0, i2 = lin % 3, lin // 3
                self.assertAlmostEqual(cells[lin, j], dense[i0, t[1], i2], places=11)

    def test_cap(self):
        # a 1025 x 1025 block passes the 2^20-cell cap
        A = cp.CpTensor(random_factors(np.random.default_rng(0), (1025, 1025), 2))
        with self.assertRaisesRegex(CapacityError, "1050625 exceeds the subproblem cap"):
            solver.solve(A, SolverConfig(k=1, block_size=2))

    @staticmethod
    def _select(vals, dims, forbidden, key):
        # the selection step of solve's block pass: key-map, masked argmax, decode
        keyed = solver.key_values(vals, key)
        lin = kernels.masked_argmax(keyed, np.asarray(forbidden, dtype=np.int64))
        return vals[lin], np.unravel_index(lin, dims, order="F")

    def test_selection_skips_forbidden(self):
        vals = np.array([3.0, 6.0, 4.0, 8.0])  # 2x2, mode-0 fastest
        self.assertEqual(self._select(vals, (2, 2), [], OrderingKey.MAX), (8.0, (1, 1)))
        self.assertEqual(self._select(vals, (2, 2), [3], OrderingKey.MAX), (6.0, (1, 0)))
        self.assertEqual(self._select(vals, (2, 2), [3, 1], OrderingKey.MAX),
                         (4.0, (0, 1)))

    def test_matches_bruteforce_with_collisions(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            vals = np.round(rng.uniform(-2, 2, size=12), 1)
            forbidden = rng.choice(12, size=int(rng.integers(0, 12)),
                                   replace=False).tolist()
            got_v, got_idx = self._select(vals, (3, 4), forbidden, OrderingKey.MAX)
            allowed = [i for i in range(12) if i not in forbidden]
            best = max(allowed, key=lambda i: (vals[i], -i))
            self.assertEqual(got_v, vals[best])
            self.assertEqual(got_idx, (best % 3, best // 3))

    def test_selection_min_key(self):
        vals = np.array([3.0, 6.0, 4.0, 8.0])
        keyed = solver.key_values(vals, OrderingKey.MIN)
        np.testing.assert_array_equal(keyed, -vals)
        self.assertEqual(kernels.masked_argmax(keyed, np.array([], dtype=np.int64)), 0)
        self.assertEqual(kernels.masked_argmax(keyed, np.array([0])), 2)

    def test_non_finite_factors_rejected(self):
        # a NaN entry would otherwise be ranked among the best values
        A = cp.CpTensor([np.array([[1.0], [np.nan], [2.0]]), np.array([[1.0], [3.0]])])
        with self.assertRaises(ValueError):
            solver.solve(A, SolverConfig(k=3, block_size=1))

    def test_overflowing_products_rejected(self):
        # finite factors whose products overflow: the first used to raise
        # "best key value decreased from inf", the second returned inf and
        # -inf values after exhaustion fallbacks
        first, second = (cp.CpTensor([np.array(f) for f in fs]) for fs in OVERFLOW_FACTORS)
        for A, cfg in ((first, SolverConfig(k=1, extra=2, block_size=1, restarts=2,
                                            seed=3084)),
                       (second, SolverConfig(k=8, block_size=1, restarts=1))):
            with self.assertRaisesRegex(ValueError, "magnitude bound inf"):
                solver.solve(A, cfg)

    def test_entries_near_1e300_under_the_bound_solve(self):
        # B is about 1e300, under the limit of about 9e307: entries reach
        # 1e300 and every key stays finite
        fs = [np.array([[1e150, 1.0], [-1.0, 2.0], [0.5, 1.0]]),
              np.array([[1e150, 3.0], [2.0, -1.0]]),
              np.array([[1.0, 1.0], [-1.0, 0.5]])]
        A = cp.CpTensor(fs)
        dense = dense_from_factors(fs)
        self.assertGreater(np.abs(dense).max(), 9e299)
        self.assertLessEqual(solver._magnitude_bound(*kernels.stack_factors(fs)),
                             solver.MAGNITUDE_LIMIT)
        for key, name in ((OrderingKey.MAX, "max"), (OrderingKey.MIN, "min")):
            res = solver.solve(A, SolverConfig(k=4, extra=3, block_size=1, key=key,
                                               seed=5))
            self.assertTrue(np.all(np.isfinite(res.values)))
            self.assertEqual([tuple(t) for t in res.indices], dense_topk(dense, 4, name))
            self.assertEqual(res.values.tobytes(),
                             cp.elements_at(A, res.indices).tobytes())
            self.assertEqual(res.diagnostics["exhausted"], 0)


def _reference_block_pass(A, tuples, values, block, keyed, key_name):
    """PAPER.md's greedy rule, one candidate at a time.

    In candidate order, each candidate takes its best block cell (ties to
    the smallest linear index, first block mode fastest) that no earlier
    candidate with the same out-of-block coordinates has taken.  A move is
    rechecked against the exact entry and undone unless it beats the
    entering value.  Also returns how many candidates found no finite
    allowed cell (each then keeps its own), which finite keys and distinct
    entering tuples rule out.
    """
    block = list(block)
    rest = [q for q in range(A.order) if q not in block]
    dims = [A.dims[q] for q in block]
    vol = keyed.shape[0]

    def lin_of(t):
        lin = 0
        for q in reversed(block):
            lin = lin * A.dims[q] + int(t[q])
        return lin

    def key(v):
        return keyed_dense(np.array([v]), key_name)[0]

    out = tuples.copy()
    taken = []  # (context, final cell) of every earlier candidate
    exhausted = 0
    for j, t in enumerate(tuples):
        ctx = tuple(int(v) for v in t[rest])
        inc = lin_of(t)
        forbidden = {cell for c, cell in taken if c == ctx}
        allowed = [c for c in range(vol) if c not in forbidden]
        best = max(allowed, key=lambda c: (keyed[c, j], -c), default=None)
        if best is None or keyed[best, j] == -np.inf:
            exhausted += 1
            best = inc
        elif best != inc and inc not in forbidden:
            trial = t.copy()
            trial[block] = np.unravel_index(best, dims, order="F")
            if key(cp.element(A, tuple(trial))) < key(values[j]):
                best = inc
        taken.append((ctx, best))
        out[j, block] = np.unravel_index(best, dims, order="F")
    return out, cp.elements_at(A, out), exhausted


def _full_picks(keyed, beta):
    # every column of keyed contracted: the argmaxes, identity slots and the
    # dependent mask
    return (kernels.column_argmax(keyed), np.arange(keyed.shape[1]),
            solver._dependent(beta))


class TestBlockPassReference(unittest.TestCase):
    """The two-phase block pass against the one-at-a-time greedy rule."""

    # (dims, block, how candidates share out-of-block coordinates)
    PATTERNS = (
        ((4, 5, 3), (0,), "none"),   # context (i1, i2): all distinct
        ((4, 5, 3), (0, 1), "one"),  # context i2: one shared value
        ((4, 5, 3), (2, 0), "mixed"),  # context i1: five values
    )

    @staticmethod
    def _tuples(rng, dims, block, pattern, m):
        if pattern == "none":
            rows = [(int(rng.integers(0, dims[0])), i1, i2)
                    for i1 in range(dims[1]) for i2 in range(dims[2])]
        elif pattern == "one":
            i2 = int(rng.integers(0, dims[2]))
            rows = [(i0, i1, i2) for i0 in range(dims[0]) for i1 in range(dims[1])]
        else:
            rows = [(i0, i1, i2) for i0 in range(dims[0]) for i1 in range(dims[1])
                    for i2 in range(dims[2])]
        pick = rng.permutation(len(rows))[:m]
        return np.array([rows[i] for i in pick], dtype=np.int64)

    def _run(self, rng, complex_, key, key_name, make_keyed):
        """Compare both on every pattern."""
        for dims, block, pattern in self.PATTERNS:
            A = cp.CpTensor(random_factors(rng, dims, 3, complex_=complex_))
            stacked, offsets = kernels.stack_factors(A.factors)
            tuples = self._tuples(rng, dims, block, pattern, 12)
            values = cp.elements_at(A, tuples)
            alpha = solver.compute_alpha(A, tuples, block)
            beta = solver._collision_mask(
                tuples[:, [q for q in range(A.order) if q not in block]])
            keyed = make_keyed(A, block, alpha, key)
            want_t, want_v, want_x = _reference_block_pass(
                A, tuples, values, block, keyed, key_name)
            got_t, got_v = tuples.copy(), values.copy()
            solver._block_pass(got_t, got_v, block, keyed, beta,
                               [dims[q] for q in block], key, stacked, offsets,
                               _full_picks(keyed, beta))
            msg = f"{pattern} {key_name}"
            np.testing.assert_array_equal(got_t, want_t, err_msg=msg)
            self.assertEqual(got_v.tobytes(), want_v.tobytes(), msg=msg)
            # distinct entering tuples: at most vol of them share a context
            self.assertEqual(want_x, 0, msg=msg)
            self.assertEqual(len(set(map(tuple, got_t))), len(got_t), msg=msg)

    @staticmethod
    def _random_keyed(rng):
        def make(A, block, alpha, key):
            # rounded so that ties are common; unrelated to the tensor, so
            # the recheck often undoes a move
            vol = math.prod(A.dims[q] for q in block)
            return np.round(rng.uniform(-2, 2, size=(vol, alpha.shape[1])), 0)
        return make

    @staticmethod
    def _exact_keyed(A, block, alpha, key):
        expand = kernels.block_expand(*kernels.stack_factors(A.factors), block,
                                      [A.dims[q] for q in block])
        return solver.key_values(expand @ alpha, key)

    def test_random_keyed_real(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            for key, name in ((OrderingKey.MAX, "max"), (OrderingKey.MIN, "min")):
                self._run(rng, False, key, name, self._random_keyed(rng))

    def test_random_keyed_complex(self):
        rng = np.random.default_rng(2025)
        for _ in range(5):
            self._run(rng, True, OrderingKey.MAX_ABS, "maxabs", self._random_keyed(rng))

    def test_exact_subproblem(self):
        rng = np.random.default_rng(2026)
        for _ in range(5):
            self._run(rng, False, OrderingKey.MAX, "max", self._exact_keyed)
            self._run(rng, True, OrderingKey.MAX_REAL, "maxreal", self._exact_keyed)


def _reference_sweep(A, cands, key, schedule, stacked, offsets, work):
    """The sweep as it was before the contraction cache: every block expands
    and contracts all m columns, then runs the two-phase block pass."""
    expand_buf, cells_buf, keyed_buf = work
    m = cands.tuples.shape[0]
    for block in schedule:
        block_dims = [A.dims[q] for q in block]
        vol = math.prod(block_dims)
        alpha = solver.compute_alpha(A, cands.tuples, block)
        beta = solver._collision_mask(
            cands.tuples[:, [q for q in range(A.order) if q not in block]])
        expand = kernels.block_expand(
            stacked, offsets, np.array(block), np.array(block_dims),
            out=expand_buf[:vol * A.rank].reshape(vol, A.rank),
        )
        cells = np.matmul(expand, alpha, out=cells_buf[:vol * m].reshape(vol, m))
        keyed = solver.key_values(cells, key, out=keyed_buf[:vol * m].reshape(vol, m))
        solver._block_pass(
            cands.tuples, cands.values, block, keyed, beta, block_dims,
            key, stacked, offsets, _full_picks(keyed, beta),
        )


def _work_buffers(A, schedule, m):
    # the same flat buffers solve allocates, one set per caller
    max_vol = max(math.prod(A.dims[q] for q in w) for w in schedule)
    cells = np.empty(max_vol * m, dtype=A.dtype)
    keyed = np.empty(max_vol * m) if A.is_complex else cells
    return np.empty(max_vol * A.rank, dtype=A.dtype), cells, keyed


class TestSweepReference(unittest.TestCase):
    """The cached lockstep sweep against the full-contraction sweep, bit for
    bit after every sweep of every restart.

    The reference runs one restart at a time; the package sweeps every live
    restart at once, and a restart leaves the live set at its fixed point.
    """

    def _compare(self, A, cfg):
        """Returns the contracted columns, clean blocks, blocks and
        expansions summed over restarts, and each restart's sweep count."""
        s = solver._resolve_block_size(A, cfg)
        schedule = solver.block_schedule(A.order, s)
        stacked, offsets = kernels.stack_factors(A.factors)
        m = min(cfg.k + cfg.extra, A.size())
        work_ref = _work_buffers(A, schedule, m)
        work = _work_buffers(A, schedule, m)
        refs = [solver.init_candidates(A, cfg, np.random.default_rng(cfg.seed + r))
                for r in range(cfg.restarts)]
        gots = [solver.CandidateSet(ref.tuples.copy(), ref.values.copy())
                for ref in refs]
        caches = [solver._ContractionCache(len(schedule)) for _ in refs]
        live = list(range(cfg.restarts))
        blocks = 0
        sweeps = [0] * cfg.restarts
        for sweep in range(cfg.max_sweeps):
            solver._sweep(A, [(gots[r], caches[r]) for r in live], cfg.key,
                          schedule, stacked, offsets, work)
            converged = []
            for r in live:
                before = refs[r].tuples.copy()
                _reference_sweep(A, refs[r], cfg.key, schedule, stacked, offsets,
                                 work_ref)
                msg = f"restart {r} sweep {sweep}"
                np.testing.assert_array_equal(gots[r].tuples, refs[r].tuples,
                                              err_msg=msg)
                self.assertEqual(gots[r].values.tobytes(), refs[r].values.tobytes(),
                                 msg=msg)
                blocks += len(schedule)
                sweeps[r] += 1
                if np.array_equal(before, refs[r].tuples):
                    converged.append(r)
            live = [r for r in live if r not in converged]
            if not live:
                break
        return (sum(c.contracted_columns for c in caches),
                sum(c.clean_blocks for c in caches), blocks,
                sum(c.expansions for c in caches), sweeps)

    def test_real_subset_path(self):
        # window (0, 1) has 25,600 cells: vol * R * w passes SUBSET_MIN_WORK
        # from w = 2, so narrow contractions run there
        A = cp.CpTensor(random_factors(np.random.default_rng(201), (160, 160, 4, 4), 20))
        cfg = SolverConfig(k=10, extra=40, block_size=2, restarts=2, seed=11)
        contracted, clean, blocks, _, _ = self._compare(A, cfg)
        self.assertLess(contracted, 50 * (blocks - clean))

    def test_real_clean_blocks_only(self):
        # too small for a narrow contraction: a block contracts all 8 columns
        # or, when none is dirty, none
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        for s in (1, 2):
            cfg = SolverConfig(k=3, extra=5, block_size=s, restarts=3, seed=12)
            contracted, clean, blocks, _, _ = self._compare(A, cfg)
            self.assertGreater(clean, 0)
            self.assertEqual(contracted, 8 * (blocks - clean))

    def test_restarts_leave_at_different_sweeps(self):
        # the live set shrinks mid-run, and the live restarts still share
        # each window's expansion
        A = cp.CpTensor(random_factors(np.random.default_rng(205), (6, 5, 7, 6, 5, 6), 3))
        cfg = SolverConfig(k=3, extra=5, block_size=2, restarts=4, seed=15)
        _, clean, blocks, expansions, sweeps = self._compare(A, cfg)
        self.assertGreater(len(set(sweeps)), 1)
        self.assertLess(expansions, blocks - clean)
        self.assertLessEqual(expansions, len(A.dims) * max(sweeps))

    def test_complex_maxabs(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(203), (4, 3, 5, 3), 3,
                                       complex_=True))
        for s in (1, 2, 4):
            cfg = SolverConfig(k=3, extra=6, block_size=s, key=OrderingKey.MAX_ABS,
                               restarts=2, seed=13)
            contracted, clean, blocks, _, _ = self._compare(A, cfg)
            self.assertEqual(contracted, 9 * (blocks - clean))

    def test_min_key_and_block_sizes(self):
        rng = np.random.default_rng(204)
        for dims in ((5, 4, 6, 3), (3, 3, 3)):
            A = cp.CpTensor(random_factors(rng, dims, 3))
            for s in (1, 2, len(dims)):
                for key in (OrderingKey.MIN, OrderingKey.MAX):
                    cfg = SolverConfig(k=3, extra=12, block_size=s, key=key,
                                       restarts=2, seed=14)
                    self._compare(A, cfg)


def test_subset_contraction_matches_full():
    """Every width the subset rule admits gives the full product's bits.

    Shapes are the real (vol, R, m) contractions of the benchmarks and tests:
    solve_large's 100x100 windows, the sweep reference test's 160x160 window,
    the largest bench solver rows (13x13 blocks, R = 10, m = 2 and 6) and the
    pinned configs.  A BLAS that changes its kernels fails here first.
    """
    rng = np.random.default_rng(301)
    shapes = [(10**4, 20, 50), (25600, 20, 50), (169, 10, 6), (169, 10, 2)]
    for tseed, dims, rank, complex_, kw in PINNED_CONFIGS.values():
        if not complex_:
            s = solver._resolve_block_size(_pinned_tensor(tseed, dims, rank, False),
                                           SolverConfig(**kw))
            vol = max(math.prod(dims[q] for q in w)
                      for w in solver.block_schedule(len(dims), s))
            shapes.append((vol, rank, min(kw["k"] + kw["extra"], math.prod(dims))))
    admitted = 0
    for vol, rank, m in shapes:
        E = rng.uniform(-1, 1, size=(vol, rank))
        alpha = rng.uniform(-1, 1, size=(rank, m))
        full = E @ alpha
        buf = np.empty(vol * m)
        widths = {solver._contraction_width(n, vol, rank, m, False)
                  for n in range(1, m + 1)}
        if vol * rank * m <= solver.SUBSET_MIN_WORK:
            assert widths == {m}, (vol, rank, m)
        for w in sorted(widths - {m}):
            assert 2 <= w < m and vol * rank * w > solver.SUBSET_MIN_WORK
            admitted += 1
            subsets = [np.arange(w), np.arange(m - w, m)]
            subsets += [np.sort(rng.choice(m, w, replace=False)) for _ in range(2)]
            for sel in subsets:
                got = np.matmul(E, alpha[:, sel], out=buf[:vol * w].reshape(vol, w))
                assert got.tobytes() == np.ascontiguousarray(full[:, sel]).tobytes(), \
                    (vol, rank, m, sel.tolist())
    assert admitted > 0
    # complex tensors always contract every column (qft16: 256 cells, R 4096)
    for n in range(1, 11):
        assert solver._contraction_width(n, 256, 4096, 10, True) == 10


class TestDiagnostics(unittest.TestCase):

    def _check(self, A, cfg):
        res = solver.solve(A, cfg)
        d = res.diagnostics
        m = min(cfg.k + cfg.extra, A.size())
        blocks = res.sweeps_used * len(d["schedule"])
        self.assertEqual(len(d["restart_sweeps"]), cfg.restarts)
        self.assertEqual(sum(d["restart_sweeps"]), res.sweeps_used)
        self.assertEqual(any(d["restart_converged"]), res.converged)
        self.assertLessEqual(d["contracted_columns"], m * blocks)
        self.assertLessEqual(d["clean_blocks"], blocks)
        # a window builds at most one expansion per lockstep sweep
        self.assertLessEqual(d["expansions"],
                             len(d["schedule"]) * max(d["restart_sweeps"]))
        return res, m, blocks

    def test_real_counts(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        res, m, blocks = self._check(A, SolverConfig(k=3, extra=5, block_size=1,
                                                     seed=12))
        d = res.diagnostics
        self.assertGreater(d["clean_blocks"], 0)
        self.assertEqual(d["contracted_columns"], m * (blocks - d["clean_blocks"]))

    def test_complex_without_clean_blocks_contracts_every_column(self):
        # a whole-tensor window puts every candidate but the first in one
        # context, so each block has dependent columns and none is clean
        A = _pinned_tensor(108, (3, 4, 3), 3, True)
        res, m, blocks = self._check(A, SolverConfig(
            k=2, extra=5, block_size=3, key=OrderingKey.MAX_REAL, seed=8))
        self.assertEqual(res.diagnostics["clean_blocks"], 0)
        self.assertEqual(res.diagnostics["contracted_columns"], m * blocks)

    def test_restart_lists(self):
        A = _pinned_tensor(103, (6, 5, 4, 3), 3, False)
        cfg = SolverConfig(k=2, extra=8, block_size=2, restarts=4, max_sweeps=2, seed=3)
        res, _, _ = self._check(A, cfg)
        self.assertTrue(all(1 <= n <= 2 for n in res.diagnostics["restart_sweeps"]))

    def test_one_restart_expands_every_dirty_block(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        for s in (1, 2):
            res, _, blocks = self._check(A, SolverConfig(k=3, extra=5, block_size=s,
                                                         restarts=1, seed=12))
            d = res.diagnostics
            self.assertEqual(d["expansions"], blocks - d["clean_blocks"])

    def test_restarts_share_expansions(self):
        # restarts that would each expand a window alone share one expansion
        real = cp.CpTensor(random_factors(np.random.default_rng(206), (6, 5, 7, 6), 3))
        complex_ = _pinned_tensor(108, (3, 4, 3, 4), 3, True)
        for A, cfg in ((real, SolverConfig(k=3, extra=5, block_size=2, seed=16)),
                       (complex_, SolverConfig(k=2, extra=4, block_size=2,
                                               key=OrderingKey.MAX_ABS, seed=17))):
            res, _, blocks = self._check(A, cfg)
            singles = [solver.solve(A, replace(cfg, restarts=1, seed=cfg.seed + r))
                       for r in range(cfg.restarts)]
            alone = sum(one.diagnostics["expansions"] for one in singles)
            self.assertEqual(alone, blocks - res.diagnostics["clean_blocks"])
            self.assertLess(res.diagnostics["expansions"], alone)

    def test_monotonicity_check_raises(self):
        # a sweep that lowers the best value breaks the k=1 invariant; the
        # check raises rather than asserting, so it also holds under -O
        real_sweep = solver._sweep

        def lowering_sweep(A, restarts, *args):
            out = real_sweep(A, restarts, *args)
            for cands, _ in restarts:
                cands.values[:] -= 1.0
            return out

        with mock.patch.object(solver, "_sweep", lowering_sweep):
            with self.assertRaisesRegex(RuntimeError, "best key value decreased"):
                solver.solve(_tiny_rank1(), SolverConfig(k=1, extra=1, block_size=1))


def _tiny_rank1():
    # u=[1,2], v=[3,4]: entries [[3,4],[6,8]], max 8 at (1,1)
    return cp.CpTensor([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])


class TestSolveSmall(unittest.TestCase):

    def test_rank1_single_mode_blocks(self):
        res = solver.solve(_tiny_rank1(), SolverConfig(k=1, block_size=1, seed=4))
        self.assertEqual(res.values[0], 8.0)
        self.assertEqual(tuple(res.indices[0]), (1, 1))
        self.assertTrue(res.converged)

    def test_rank1_k2(self):
        res = solver.solve(_tiny_rank1(), SolverConfig(k=2, extra=2, block_size=1))
        self.assertEqual(res.values.tolist(), [8.0, 6.0])
        self.assertEqual([tuple(t) for t in res.indices], [(1, 1), (1, 0)])

    def test_min_key(self):
        res = solver.solve(_tiny_rank1(), SolverConfig(k=1, key=OrderingKey.MIN))
        self.assertEqual(res.values[0], 3.0)
        self.assertEqual(tuple(res.indices[0]), (0, 0))

    def test_distinct_output_and_exact_values(self):
        rng = np.random.default_rng(21)
        fs = random_factors(rng, (4, 5, 3), 4)
        A = cp.CpTensor(fs)
        res = solver.solve(A, SolverConfig(k=6, extra=3, seed=2))
        seen = {tuple(t) for t in res.indices.tolist()}
        self.assertEqual(len(seen), 6)
        for t, v in zip(res.indices, res.values):
            self.assertEqual(v, cp.element(A, tuple(t)))

    def test_deterministic(self):
        fs = random_factors(np.random.default_rng(9), (5, 4, 3), 3)
        A = cp.CpTensor(fs)
        cfg = SolverConfig(k=3, extra=4, seed=123)
        a, b = solver.solve(A, cfg), solver.solve(A, cfg)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.values, b.values)
        self.assertEqual(a.sweeps_used, b.sweeps_used)


class TestSolveAgainstDense(unittest.TestCase):

    def test_exhaustive_block_equals_dense_topk(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            dims = tuple(int(rng.integers(2, 7)) for _ in range(3))
            fs = random_factors(rng, dims, int(rng.integers(1, 6)))
            A = cp.CpTensor(fs)
            dense = dense_from_factors(fs)
            for k in (1, 3):
                cfg = SolverConfig(k=k, extra=0, block_size=len(dims),
                                   restarts=1, seed=trial)
                res = solver.solve(A, cfg)
                want = dense_topk(dense, k)
                self.assertEqual([tuple(t) for t in res.indices], want,
                                 msg=f"trial {trial} k={k}")

    def test_partial_blocks_find_max_on_easy_tensors(self):
        # positive factors make the landscape benign for s=2
        rng = np.random.default_rng(41)
        hits = 0
        for trial in range(30):
            fs = random_factors(rng, (5, 4, 6, 3), 3, lo=0.0, hi=1.0)
            A = cp.CpTensor(fs)
            dense = dense_from_factors(fs)
            res = solver.solve(A, SolverConfig(k=1, extra=5, block_size=2,
                                               restarts=5, seed=trial))
            hits += tuple(res.indices[0]) == dense_topk(dense, 1)[0]
        self.assertGreaterEqual(hits, 27)

    def test_duality_exact(self):
        rng = np.random.default_rng(51)
        for trial in range(20):
            fs = random_factors(rng, (4, 3, 5), 3)
            A = cp.CpTensor(fs)
            lo = solver.solve(A, SolverConfig(k=3, extra=3, seed=trial,
                                              key=OrderingKey.MIN))
            hi = solver.solve(cp.negate(A), SolverConfig(k=3, extra=3, seed=trial,
                                                         key=OrderingKey.MAX))
            np.testing.assert_array_equal(lo.values, -hi.values)
            np.testing.assert_array_equal(lo.indices, hi.indices)

    def test_shift_invariance_exhaustive(self):
        rng = np.random.default_rng(61)
        fs = random_factors(rng, (3, 4, 2), 3)
        A = cp.CpTensor(fs)
        B = cp.shift(A, 7.5)
        ra = solver.solve(A, SolverConfig(k=3, extra=0, block_size=3))
        rb = solver.solve(B, SolverConfig(k=3, extra=0, block_size=3))
        np.testing.assert_array_equal(ra.indices, rb.indices)

    def test_k1_trace_monotone(self):
        rng = np.random.default_rng(71)
        for trial in range(15):
            fs = random_factors(rng, (5, 6, 4, 3), 4)
            A = cp.CpTensor(fs)
            res = solver.solve(A, SolverConfig(k=1, extra=5, block_size=2,
                                               restarts=3, seed=trial))
            for trace in res.diagnostics["objective_trace"]:
                diffs = np.diff(np.array(trace))
                self.assertTrue(np.all(diffs >= 0), msg=str(trace))

    def test_complex_maxabs(self):
        rng = np.random.default_rng(81)
        fs = random_factors(rng, (3, 4, 3), 3, complex_=True)
        A = cp.CpTensor(fs)
        dense = dense_from_factors(fs)
        res = solver.solve(A, SolverConfig(k=2, extra=0, block_size=3,
                                           key=OrderingKey.MAX_ABS))
        self.assertEqual([tuple(t) for t in res.indices],
                         dense_topk(dense, 2, "maxabs"))

    def test_complex_maximag_matches_oracle(self):
        rng = np.random.default_rng(82)
        A = cp.CpTensor(random_factors(rng, (3, 4, 3), 3, complex_=True))
        want = oracle_topk(A, 4, key=OrderingKey.MAX_IMAG)
        for s in (1, 3):
            res = solver.solve(A, SolverConfig(k=4, extra=8, block_size=s,
                                               key=OrderingKey.MAX_IMAG, seed=2))
            np.testing.assert_array_equal(res.indices, want.indices, err_msg=f"s={s}")
            np.testing.assert_allclose(res.values, want.values, rtol=0, atol=1e-14)
            self.assertEqual(res.values.tobytes(),
                             cp.elements_at(A, res.indices).tobytes())

    def test_sweep_archive_retains_displaced_entries(self):
        # pooled output must be at least as good as the final state alone,
        # checked via the reported objective being the pool's best
        rng = np.random.default_rng(91)
        fs = random_factors(rng, (6, 5, 4), 5)
        A = cp.CpTensor(fs)
        res = solver.solve(A, SolverConfig(k=4, extra=4, block_size=2,
                                           restarts=2, seed=17))
        self.assertGreaterEqual(res.diagnostics["pool_size"], 8)


def _pinned_tensor(tseed, dims, rank, complex_):
    return cp.CpTensor(random_factors(np.random.default_rng(tseed), dims, rank,
                                      complex_=complex_))


# name: (tensor seed, dims, rank, complex, SolverConfig keywords)
PINNED_CONFIGS = {
    "real_max_s2": (101, (5, 4, 6, 3), 3, False,
                    dict(k=3, extra=5, block_size=2, seed=1)),
    "real_min_s1": (102, (4, 5, 3, 4), 4, False,
                    dict(k=4, extra=6, block_size=1, key=OrderingKey.MIN, seed=2)),
    # auto_block_size((6, 5, 4, 3), 120) is 3
    "real_max_s3": (103, (6, 5, 4, 3), 3, False,
                    dict(k=2, extra=8, block_size=3, seed=3)),
    "real_max_full": (104, (4, 3, 5), 2, False,
                      dict(k=3, extra=10, block_size=3, seed=4)),
    "collide_max_s1": (105, (3, 3, 3), 3, False,
                       dict(k=3, extra=20, block_size=1, seed=5)),
    "collide_min_s2": (106, (3, 3, 3), 2, False,
                       dict(k=3, extra=20, block_size=2, key=OrderingKey.MIN, seed=6)),
    "complex_maxabs_s2": (107, (4, 3, 5, 3), 3, True,
                          dict(k=3, extra=6, block_size=2, key=OrderingKey.MAX_ABS,
                               seed=7)),
    "complex_maxreal_full": (108, (3, 4, 3), 3, True,
                             dict(k=2, extra=5, block_size=3,
                                  key=OrderingKey.MAX_REAL, seed=8)),
    "collide_complex_maxabs_s1": (109, (3, 3, 3), 2, True,
                                  dict(k=3, extra=20, block_size=1,
                                       key=OrderingKey.MAX_ABS, seed=9)),
}

# (indices, sweeps_used) of each config above; an unchanged solver reproduces
# them exactly, so any drift in selection order or tie handling shows here
PINNED_OUTPUTS = {
    "real_max_s2": ([[4, 3, 0, 0], [4, 2, 5, 0], [2, 3, 1, 0]], 16),
    "real_min_s1": ([[2, 4, 1, 1], [2, 4, 0, 1], [0, 4, 1, 3], [2, 2, 1, 1]], 15),
    "real_max_s3": ([[5, 3, 2, 2], [5, 3, 3, 1]], 13),
    "real_max_full": ([[1, 0, 4], [0, 1, 0], [1, 2, 4]], 10),
    "collide_max_s1": ([[0, 1, 2], [1, 1, 0], [2, 0, 2]], 20),
    "collide_min_s2": ([[0, 1, 0], [0, 2, 1], [2, 1, 0]], 14),
    "complex_maxabs_s2": ([[3, 1, 3, 2], [1, 1, 3, 2], [2, 0, 4, 1]], 15),
    "complex_maxreal_full": ([[1, 0, 2], [1, 3, 0]], 10),
    "collide_complex_maxabs_s1": ([[1, 1, 0], [1, 2, 0], [1, 2, 1]], 17),
}


class TestPinnedOutputs(unittest.TestCase):

    def test_configs_reproduce_pinned_outputs(self):
        self.assertEqual(set(PINNED_OUTPUTS), set(PINNED_CONFIGS))
        for name, (tseed, dims, rank, complex_, kw) in PINNED_CONFIGS.items():
            with self.subTest(name):
                A = _pinned_tensor(tseed, dims, rank, complex_)
                res = solver.solve(A, SolverConfig(**kw))
                indices, sweeps = PINNED_OUTPUTS[name]
                self.assertEqual(res.indices.tolist(), indices)
                self.assertEqual(res.sweeps_used, sweeps)
                exact = cp.elements_at(A, res.indices)
                self.assertEqual(res.values.dtype, exact.dtype)
                np.testing.assert_array_equal(res.values, exact)


if __name__ == "__main__":
    unittest.main()
