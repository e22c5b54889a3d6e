"""Block search unit tests and small end-to-end cases.

End-to-end answers are checked against the dense reference from conftest;
internal pieces (schedule, alpha/beta, subproblem cells, collision handling)
get direct hand-computed cases.
"""

import collections
import itertools
import math
import tracemalloc
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
from tensor_topk import cp, kernels, qft, solver
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

    def test_negative_seed_is_rejected_by_name(self):
        with self.assertRaisesRegex(ValueError, "seed must be >= 0, got -1"):
            SolverConfig(k=1, seed=-1)

    def test_non_integer_fields_are_rejected_by_name(self):
        # a float or bool once got past validation: k=2.5 failed later in
        # solve, block_size=2.5 solved as 2 and k=True as 1
        for name in ("k", "extra", "max_sweeps", "restarts", "seed", "block_size"):
            for bad in (2.5, True, "3", None):
                if name == "block_size" and isinstance(bad, str):
                    continue  # strings other than 'auto' have their own message
                kw = {"k": 1, name: bad}
                with self.subTest(field=name, value=bad):
                    with self.assertRaisesRegex(ValueError, f"^{name} must be an integer"):
                        SolverConfig(**kw)

    def test_numpy_integers_are_accepted(self):
        cfg = SolverConfig(k=np.int64(2), extra=np.int32(1), block_size=np.int64(1),
                           max_sweeps=np.int64(3), restarts=np.uint8(2),
                           seed=np.int64(7))
        res = solver.solve(_tiny_rank1(), cfg)
        ref = solver.solve(_tiny_rank1(), SolverConfig(k=2, extra=1, block_size=1,
                                                       max_sweeps=3, restarts=2, seed=7))
        self.assertEqual(res.indices.tolist(), ref.indices.tolist())

    def test_key_must_be_an_ordering_key(self):
        # a key name used to pass, and solve failed only after drawing every restart
        for bad in ("max", None, 0):
            with self.subTest(key=bad):
                with self.assertRaisesRegex(ValueError,
                                            f"^key must be an OrderingKey, got {bad!r}$"):
                    SolverConfig(k=1, key=bad)

    def test_key_lookup(self):
        self.assertIs(OrderingKey("maxabs"), OrderingKey.MAX_ABS)
        self.assertIs(OrderingKey("min"), OrderingKey.MIN)
        with self.assertRaises(ValueError):
            OrderingKey("median")

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
        tuples = solver.init_candidates(self.A.dims, cfg.k + cfg.extra, self.rng)
        self.assertEqual(tuples.shape, (10, 3))
        seen = {tuple(t) for t in tuples.tolist()}
        self.assertEqual(len(seen), 10)
        # solve reads every restart's initial values in one call
        values = kernels.eval_elements(*kernels.stack_factors(self.A.factors), tuples)
        for t, v in zip(tuples, values):
            self.assertEqual(v, cp.element(self.A, tuple(t)))

    def test_extra_clamped_to_tensor_size(self):
        tiny = cp.CpTensor(random_factors(self.rng, (2, 2), 2))
        with mock.patch.object(solver, "init_candidates",
                               wraps=solver.init_candidates) as draw:
            res = solver.solve(tiny, SolverConfig(k=2, extra=50))
        self.assertEqual({c.args[1] for c in draw.call_args_list}, {4})
        self.assertEqual(res.diagnostics["pool_size"], 4)

    def test_infeasible_k(self):
        tiny = cp.CpTensor(random_factors(self.rng, (2, 2), 1))
        with self.assertRaisesRegex(InfeasibleKError,
                                    r"^k=5 exceeds the tensor size of 4 entries$"):
            solver.solve(tiny, SolverConfig(k=5))
        # the capacity and magnitude checks come first
        with self.assertRaises(CapacityError):
            solver.solve(cp.CpTensor(random_factors(self.rng, (1025, 1025), 1)),
                         SolverConfig(k=2 ** 21, block_size=2, restarts=1))
        nan = cp.CpTensor([np.array([[np.nan], [1.0]]), np.ones((2, 1))])
        with self.assertRaisesRegex(ValueError, "magnitude bound nan"):
            solver.solve(nan, SolverConfig(k=5))


def _collision_mask(context):
    """beta[i, j]: candidates i and j agree on every out-of-block coordinate,
    from each candidate's ``context`` (one row per candidate, possibly no
    columns, so all True for an all-mode block).  A stack of contexts,
    (n, m, c), gives a stack of masks, (n, m, m).  The reference for the
    context numbers that `solver._sweep` takes from `solver._context_ids`."""
    return np.all(context[..., :, None, :] == context[..., None, :, :], axis=-1)


class TestAlphaBeta(unittest.TestCase):

    def test_hand_case(self):
        # d=3, R=1, block={0}; alpha collapses to U2(i2)*U3(i3)
        fs = [np.array([[1.0], [2.0]]),
              np.array([[3.0], [4.0]]),
              np.array([[5.0], [6.0]])]
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 1, 0]])
        alpha = solver.compute_alpha(A, tuples, (0,))
        beta = _collision_mask(tuples[:, [1, 2]])
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
        beta = _collision_mask(tuples[:, [0, 2]])
        self.assertTrue(beta[0, 1])
        self.assertFalse(beta[0, 2])
        self.assertFalse(beta[1, 2])

    def test_context_ids_number_the_collision_classes(self):
        # _sweep compares context numbers in place of collision masks, and
        # takes each context's rank weights from its first holder
        rng = np.random.default_rng(4)
        for c in (0, 1, 3):
            contexts = rng.integers(0, 2, size=(3, 8, c))
            flat = contexts.reshape(24, c)
            ids, firsts = solver._context_ids(flat)
            np.testing.assert_array_equal(ids[firsts], np.arange(firsts.size))
            for j in range(24):
                first = next(i for i in range(24) if np.array_equal(flat[i], flat[j]))
                self.assertEqual(firsts[ids[j]], first)
            stacked = ids.reshape(3, 8)
            np.testing.assert_array_equal(stacked[:, :, None] == stacked[:, None, :],
                                          _collision_mask(contexts))

    def test_all_mode_block(self):
        fs = random_factors(np.random.default_rng(2), (3, 4), 5)
        A = cp.CpTensor(fs)
        tuples = np.array([[0, 0], [1, 2]])
        alpha = solver.compute_alpha(A, tuples, (0, 1))
        beta = _collision_mask(tuples[:, []])
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


def _pass_inputs(keyed, beta):
    # `_block_pass`'s inputs from a (vol, m) keyed subproblem, one column per
    # candidate, and the collision mask beta: each candidate's group number,
    # 0, 1, ... in the order of the groups' first holders, and each group's
    # top cells in key order, ties to the smaller index, from its first
    # holder's column, as many as the group has holders
    firsts, ids = np.unique(beta.argmax(axis=0), return_inverse=True)
    masked = np.array(keyed[:, firsts], dtype=float)
    tops = []
    for _ in range(np.bincount(ids).max()):
        top = masked.argmax(axis=0)
        tops.append(top)
        masked[top, np.arange(masked.shape[1])] = -np.inf
    return ids, np.stack(tops, axis=1)


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
            beta = _collision_mask(
                tuples[:, [q for q in range(A.order) if q not in block]])
            # a context has one subproblem: each holder reads its first
            # holder's column, as `_sweep` forms a context once
            keyed = make_keyed(A, block, alpha, key)[:, beta.argmax(axis=0)]
            want_t, want_v, want_x = _reference_block_pass(
                A, tuples, values, block, keyed, key_name)
            got_t, got_v = tuples.copy(), values.copy()
            solver._block_pass(got_t, got_v, solver._Window(dims, block, len(tuples)),
                               *_pass_inputs(keyed, beta), key, stacked, offsets)
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

    def test_stacked_restarts_match_one_call_each(self):
        # `_sweep` runs one block pass over every live restart's rows, each
        # group one restart's holders of one context.  Restarts drawn from
        # the same cells share contexts, and their rows must not interact:
        # one call over the stacked rows gives the tuples, the value bytes
        # and the summed counts of one call per restart
        rng = np.random.default_rng(2027)
        dims, m = (4, 5, 3), 12
        for trial in range(6):
            complex_ = trial % 2 == 1
            key = OrderingKey.MAX_ABS if complex_ else OrderingKey.MAX
            make = self._exact_keyed if trial % 3 == 0 else self._random_keyed(rng)
            A = cp.CpTensor(random_factors(rng, dims, 3, complex_=complex_))
            stacked, offsets = kernels.stack_factors(A.factors)
            for block in ((0,), (0, 1), (2, 0)):
                rest = [q for q in range(A.order) if q not in block]
                restarts = int(rng.integers(3, 5))
                tuples = [self._tuples(rng, dims, block, "mixed", m) for _ in range(restarts)]
                values = [cp.elements_at(A, t) for t in tuples]
                inputs = [_pass_inputs(make(A, block, solver.compute_alpha(A, t, block), key),
                                       _collision_mask(t[:, rest])) for t in tuples]
                window = solver._Window(dims, block, m)
                want_t, want_v = [t.copy() for t in tuples], [v.copy() for v in values]
                want_counts = np.zeros(4, dtype=np.int64)
                for t, v, (ids, tops) in zip(want_t, want_v, inputs):
                    want_counts += solver._block_pass(t, v, window, ids, tops, key, stacked,
                                                      offsets)
                # restart-distinct group numbers, each restart's after the
                # earlier restarts' groups, and the groups' lists stacked and
                # padded with -1 to one width, as `_sweep` pads them
                starts = np.cumsum([0] + [len(tops) for _, tops in inputs])
                groups = np.concatenate([start + ids for start, (ids, _) in zip(starts, inputs)])
                width = max(tops.shape[1] for _, tops in inputs)
                lists = np.concatenate([np.pad(tops, ((0, 0), (0, width - tops.shape[1])),
                                               constant_values=-1) for _, tops in inputs])
                got_t, got_v = np.concatenate(tuples), np.concatenate(values)
                got_counts = solver._block_pass(got_t, got_v, window, groups, lists, key,
                                                stacked, offsets)
                msg = f"trial {trial} block {block}"
                np.testing.assert_array_equal(got_t, np.concatenate(want_t), err_msg=msg)
                self.assertEqual(got_v.tobytes(), np.concatenate(want_v).tobytes(), msg=msg)
                self.assertEqual(list(got_counts), want_counts.tolist(), msg=msg)
                # the rows did share contexts across restarts
                contexts = np.concatenate(tuples)[:, rest]
                self.assertLess(len(set(map(tuple, contexts.tolist()))),
                                sum(len(set(map(tuple, t[:, rest].tolist()))) for t in tuples),
                                msg=msg)


class TestBlockPassMoves(unittest.TestCase):
    """A block pass stores a value only where a candidate moves."""

    def test_reverted_and_forced_moves(self):
        # 3 x 2 tensor, block (0,): the context is the mode-1 coordinate.
        # Candidate 0 is alone in context 0; candidates 1 and 2 share
        # context 1, so candidate 2 is dependent.
        A = cp.CpTensor([np.array([[2.0, 0.1], [3.0, 0.2], [1.0, 0.3]]),
                         np.array([[1.0, 0.5], [1.0, 0.7]])])
        stacked, offsets = kernels.stack_factors(A.factors)
        tuples = np.array([[0, 0], [0, 1], [1, 1]])
        values = cp.elements_at(A, tuples)
        # columns: 0 points at cell 2, which the recheck finds worse than its
        # incumbent; context 1's column, which candidates 1 and 2 share,
        # points at cell 1, candidate 2's incumbent, which candidate 1 truly
        # beats, and then at cell 2
        keyed = np.array([[0.0, 0.0, 0.0],
                          [0.0, 5.0, 5.0],
                          [5.0, 1.0, 1.0]])
        self.assertLess(cp.element(A, (2, 0)), values[0])
        self.assertGreater(cp.element(A, (1, 1)), values[1])
        beta = _collision_mask(tuples[:, [1]])
        want_t, want_v, _ = _reference_block_pass(A, tuples, values, (0,), keyed, "max")
        got_t, got_v = tuples.copy(), values.copy()
        counts = solver._block_pass(got_t, got_v, solver._Window(A.dims, (0,), len(tuples)),
                                    *_pass_inputs(keyed, beta), OrderingKey.MAX, stacked,
                                    offsets)
        # candidate 0 keeps (0, 0); 1 moves to (1, 1) and forces 2 to (2, 1)
        self.assertEqual(got_t.tolist(), [[0, 0], [1, 1], [2, 1]])
        np.testing.assert_array_equal(got_t, want_t)
        self.assertEqual(got_v.tobytes(), cp.elements_at(A, got_t).tobytes())
        self.assertEqual(got_v.tobytes(), want_v.tobytes())
        # (moves, rechecks, reverted, forced_moves)
        self.assertEqual(counts, (2, 2, 1, 1))


class TestTopCells(unittest.TestCase):
    """A window's record lists each context's top cells, and a dependent
    takes the first one that no earlier holder of its context took."""

    def test_first_allowed_cell_of_a_list_is_the_masked_argmax(self):
        # tie-heavy rows of rounded values and signed zeros: for every
        # forbidden set smaller than the list, the list's first allowed
        # cell is the masked argmax of the whole row
        rng = np.random.default_rng(209)
        for _ in range(40):
            vol = int(rng.integers(1, 8))
            row = np.round(rng.uniform(-1.5, 1.5, size=vol), 0)
            zeros = rng.random(vol) < 0.3
            row[zeros] = np.copysign(0.0, rng.uniform(-1, 1, size=int(zeros.sum())))
            top = [int(row.argmax())]
            while len(top) < vol:
                top.append(kernels.masked_argmax(row, np.array(top)))
            self.assertEqual(sorted(top), list(range(vol)))
            for size in range(vol):
                for forbidden in itertools.combinations(range(vol), size):
                    first = next(cell for cell in top if cell not in forbidden)
                    self.assertEqual(first, kernels.masked_argmax(
                        row, np.array(forbidden, dtype=np.int64)), msg=(row, forbidden))

    def test_records_hold_each_contexts_top_cells(self):
        # half-integer factors keep every entry exact, so the dense tensor's
        # keys are the subproblems' keys bit for bit, ties included; each
        # recorded list must be a prefix of its context's cells in key
        # order, ties to the smaller index
        made = []

        class Recorded(solver._Window):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        rng = np.random.default_rng(210)
        longest = 0
        for dims, complex_, key, name in (((3, 4, 3), False, OrderingKey.MAX, "max"),
                                          ((4, 2, 3, 2), False, OrderingKey.MIN, "min"),
                                          ((3, 3, 4), True, OrderingKey.MAX_ABS, "maxabs")):
            fs = [rng.integers(-3, 4, size=(n, 3)) / 2 for n in dims]
            if complex_:
                fs = [f + 1j * rng.integers(-3, 4, size=f.shape) / 2 for f in fs]
            keyed = keyed_dense(dense_from_factors(fs), name)
            for s in (1, 2, len(dims)):
                for sweeps in (1, 2, 50):
                    made.clear()
                    with mock.patch.object(solver, "_Window", Recorded):
                        solver.solve(cp.CpTensor(fs), SolverConfig(
                            k=3, extra=9, block_size=s, key=key, max_sweeps=sweeps,
                            restarts=3, seed=s))
                    for w in made:
                        # the window's modes first, the first one fastest
                        sub = np.moveaxis(keyed, w.block, range(s))
                        for context, top in zip(w.contexts, w.tops):
                            cells = sub[(Ellipsis,) + tuple(context)].ravel(order="F")
                            order = np.lexsort((np.arange(cells.size), -cells))
                            n = int(np.count_nonzero(top >= 0))
                            np.testing.assert_array_equal(top[:n], order[:n])
                            longest = max(longest, n)
        self.assertGreater(longest, 1)


def _reference_sweep(A, tuples, values, key, schedule, stacked, offsets, work):
    """The sweep as it was before windows kept a record: every block builds
    its halves and forms all m subproblems, then runs the two-phase block
    pass.

    Also returns, for each block, how many candidates hold each context, as
    a Counter of context tuples.
    """
    cells_buf, keyed_buf = work
    holders = []
    for block in schedule:
        context = tuples[:, [q for q in range(A.order) if q not in block]]
        holders.append(collections.Counter(map(tuple, context.tolist())))
        alpha = solver.compute_alpha(A, tuples, block)
        beta = _collision_mask(context)
        lead, trail = kernels.expand_halves(stacked, offsets, block,
                                            [A.dims[q] for q in block])
        cells = solver._subproblems(np.ascontiguousarray(lead.T), trail, alpha, cells_buf)
        keyed = solver.key_values(cells, key, out=keyed_buf[:cells.size].reshape(cells.shape)).T
        solver._block_pass(tuples, values, solver._Window(A.dims, block, len(tuples)),
                           *_pass_inputs(keyed, beta), key, stacked, offsets)
    return holders


def _work_buffers(A, schedule, m):
    # flat buffers for m subproblems of the largest window, one set per
    # caller: the reference forms all m at once, and the package's batches
    # use a prefix
    max_vol = max(math.prod(A.dims[q] for q in w) for w in schedule)
    cells = np.empty(max_vol * m, dtype=A.dtype)
    return cells, np.empty(max_vol * m) if A.is_complex else cells


class TestSweepReference(unittest.TestCase):
    """The cached lockstep sweep against the full-contraction sweep, bit for
    bit after every sweep of every restart.

    The reference runs one restart at a time; the package sweeps every live
    restart at once, and a restart leaves the live set at its fixed point.
    """

    def _compare(self, A, cfg):
        """Returns a dict of the subproblems formed (``contracted``), the
        block passes (``blocks``) and the ``expansions``, summed over
        restarts; each restart's sweep count (``sweeps``); the rows of every
        `compute_alpha` call (``weighed``); the subproblems the restarts
        would form if each formed its own short contexts at a visit
        (``alone``); and the visits with a dependent candidate that formed
        nothing (``served``).

        At each window the record holds a list length for each context of
        the restarts live at the window's last visit.  A visit forms every
        context whose recorded length is less than its most holders in a
        live restart, and records the larger of the two; a context that no
        live restart holds leaves the record.  Each visit that forms a
        context builds the halves once and makes one `compute_alpha` call,
        with one row for each context it forms."""
        s = solver._resolve_block_size(A, cfg)
        schedule = solver.block_schedule(A.order, s)
        stacked, offsets = kernels.stack_factors(A.factors)
        m = min(cfg.k + cfg.extra, A.size())
        work_ref = _work_buffers(A, schedule, m)
        work = _work_buffers(A, schedule, m)
        ref_t = np.stack([solver.init_candidates(A.dims, m, np.random.default_rng(cfg.seed + r))
                          for r in range(cfg.restarts)])
        ref_v = np.stack([cp.elements_at(A, t) for t in ref_t])
        got_t, got_v = ref_t.copy(), ref_v.copy()
        windows = [solver._Window(A.dims, block, m) for block in schedule]
        counts = collections.Counter()
        live = list(range(cfg.restarts))
        stats = dict.fromkeys(("contracted", "blocks", "expansions", "weighed", "alone",
                               "served"), 0)
        sweeps = [0] * cfg.restarts
        records = [{} for _ in schedule]
        for sweep in range(cfg.max_sweeps):
            with mock.patch.object(solver, "compute_alpha",
                                   wraps=solver.compute_alpha) as alpha:
                solver._sweep(A, got_t, got_v, live, cfg.key, windows, counts, stacked,
                              offsets, work)
            rows = []
            for call in alpha.call_args_list:
                tuples, block = call.args[1], call.args[2]
                rest = [q for q in range(A.order) if q not in block]
                # no two rows of a call hold the same context
                self.assertEqual(len({tuple(t) for t in tuples[:, rest].tolist()}),
                                 len(tuples))
                rows.append(len(tuples))
            converged = []
            holders = []
            for r in live:
                before = ref_t[r].copy()
                holders.append(_reference_sweep(A, ref_t[r], ref_v[r], cfg.key, schedule,
                                                stacked, offsets, work_ref))
                msg = f"restart {r} sweep {sweep}"
                np.testing.assert_array_equal(got_t[r], ref_t[r], err_msg=msg)
                self.assertEqual(got_v[r].tobytes(), ref_v[r].tobytes(), msg=msg)
                stats["blocks"] += len(schedule)
                sweeps[r] += 1
                if np.array_equal(before, ref_t[r]):
                    converged.append(r)
            visits = []
            for b, record in enumerate(records):
                need = collections.Counter()
                for r_holders in holders:
                    need |= r_holders[b]  # the most holders in one restart
                    stats["alone"] += sum(record.get(ctx, 0) < n
                                          for ctx, n in r_holders[b].items())
                new = [ctx for ctx, n in need.items() if record.get(ctx, 0) < n]
                if new:
                    visits.append(len(new))
                elif max(need.values()) > 1:
                    stats["served"] += 1
                records[b] = {ctx: max(n, record.get(ctx, 0)) for ctx, n in need.items()}
            self.assertEqual(rows, visits, msg=f"sweep {sweep}")
            stats["weighed"] += sum(rows)
            stats["contracted"] += sum(visits)
            stats["expansions"] += len(visits)
            live = [r for r in live if r not in converged]
            if not live:
                break
        self.assertEqual(counts["contracted_columns"], stats["contracted"])
        self.assertEqual(counts["expansions"], stats["expansions"])
        stats["sweeps"] = sweeps
        return stats

    def test_real_subset_path(self):
        # window (0, 1) has 25,600 cells; a visit forms fewer subproblems
        # than the 50 candidates of one restart
        A = cp.CpTensor(random_factors(np.random.default_rng(201), (160, 160, 4, 4), 20))
        cfg = SolverConfig(k=10, extra=40, block_size=2, restarts=2, seed=11)
        st = self._compare(A, cfg)
        self.assertLess(st["contracted"], 50 * st["expansions"])

    def test_real_visits_form_only_short_lists(self):
        # however small the window, a visit forms just the contexts whose
        # lists are short: at least one, or, when every list is long
        # enough, none
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        for s in (1, 2):
            cfg = SolverConfig(k=3, extra=5, block_size=s, restarts=3, seed=12)
            st = self._compare(A, cfg)
            self.assertLess(st["expansions"], len(A.dims) * max(st["sweeps"]))
            self.assertLessEqual(st["expansions"], st["contracted"])
            # fewer than the contexts of all 3 x 8 live candidates
            self.assertLess(st["contracted"], 24 * st["expansions"])

    def test_restarts_leave_at_different_sweeps(self):
        # the live set shrinks mid-run, and the live restarts still share
        # each window's expansion
        A = cp.CpTensor(random_factors(np.random.default_rng(205), (6, 5, 7, 6, 5, 6), 3))
        cfg = SolverConfig(k=3, extra=5, block_size=2, restarts=4, seed=15)
        st = self._compare(A, cfg)
        self.assertGreater(len(set(st["sweeps"])), 1)
        self.assertLess(st["contracted"], st["alone"])
        self.assertLessEqual(st["expansions"], len(A.dims) * max(st["sweeps"]))

    def test_complex_maxabs(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(203), (4, 3, 5, 3), 3,
                                       complex_=True))
        for s in (1, 2, 4):
            cfg = SolverConfig(k=3, extra=6, block_size=s, key=OrderingKey.MAX_ABS,
                               restarts=2, seed=13)
            st = self._compare(A, cfg)
            # complex tensors form just the contexts whose lists are short
            # too, fewer than the contexts of all 2 x 9 live candidates
            self.assertLessEqual(st["expansions"], st["contracted"])
            self.assertLess(st["contracted"], 18 * st["expansions"])

    def test_rank_weights_cover_only_formed_contexts(self):
        # four restarts of a complex solve on a small tensor: their
        # dependents share contexts at a visit, and each shared context is
        # weighed once
        A = cp.CpTensor(random_factors(np.random.default_rng(206), (4, 3, 5, 3), 3,
                                       complex_=True))
        cfg = SolverConfig(k=3, extra=6, block_size=1, key=OrderingKey.MAX_ABS,
                           restarts=4, seed=16)
        st = self._compare(A, cfg)
        self.assertEqual(st["weighed"], st["contracted"])
        self.assertLess(st["contracted"], st["alone"])

    def test_dependents_read_lists_formed_at_earlier_visits(self):
        # 27 cells and 15 candidates per restart crowd the contexts: some
        # visits have dependents and form nothing, so their dependents take
        # cells from lists that an earlier visit formed
        A = cp.CpTensor(random_factors(np.random.default_rng(204), (3, 3, 3), 3))
        for s in (1, 2, 3):
            cfg = SolverConfig(k=3, extra=12, block_size=s, restarts=2, seed=14)
            st = self._compare(A, cfg)
            self.assertGreater(st["served"], 0, msg=f"s={s}")

    def test_min_key_and_block_sizes(self):
        rng = np.random.default_rng(204)
        for dims in ((5, 4, 6, 3), (3, 3, 3)):
            A = cp.CpTensor(random_factors(rng, dims, 3))
            for s in (1, 2, len(dims)):
                for key in (OrderingKey.MIN, OrderingKey.MAX):
                    cfg = SolverConfig(k=3, extra=12, block_size=s, key=key,
                                       restarts=2, seed=14)
                    self._compare(A, cfg)


# (tensor dims, window, rank, complex): solve_large's 100x100 windows at R
# 20, qft16's 16x16 windows at R 4096, the largest bench solver rows (13x13
# blocks, R 10), a (2, 300) window and its mirror, one- and three-mode
# windows, all-mode windows, and rank-1 windows, one with a size-1 mode
SUBPROBLEM_CASES = (
    ((100, 100, 100), (0, 1), 20, False),
    ((16, 16, 16), (1, 2), 4096, True),
    ((13, 13, 13), (2, 0), 10, False),
    ((13, 13, 13), (0, 1), 10, True),
    ((2, 300, 3), (0, 1), 7, False),
    ((300, 2, 3), (0, 1), 7, True),
    ((5, 6, 4, 3), (2,), 4, False),
    ((5, 6, 4, 3), (1,), 4, True),
    ((5, 6, 4, 3), (1, 2, 3), 5, False),
    ((5, 6, 4, 3), (3, 0, 1), 5, True),
    ((4, 3, 5), (0, 1, 2), 3, False),
    ((4, 3, 5), (0, 1, 2), 3, True),
    ((6, 1, 5), (1,), 1, True),
    ((6, 1, 5), (0, 1), 1, True),
    ((6, 5, 4), (0, 1), 1, True),
    ((6, 5, 4), (2,), 1, False),
)


def test_subproblem_keys_do_not_depend_on_their_batch():
    """A candidate's keys are bit-equal whether its subproblem is formed
    alone, among any subset of its restart's columns, or in one call with
    other restarts' columns in any order.

    Each subset is taken as `_sweep` takes it, fancy-indexed from the
    stacked (R, restarts, m) rank weights.  The scaled half holds at most
    m x min(vol_lead, vol_trail) x R scalars.  A BLAS or numpy that changes
    how stacked products are split fails here first.
    """
    rng = np.random.default_rng(301)
    restarts, m = 2, 10
    for dims, block, rank, complex_ in SUBPROBLEM_CASES:
        A = cp.CpTensor(random_factors(rng, dims, rank, complex_=complex_))
        stacked, offsets = kernels.stack_factors(A.factors)
        lead, trail = kernels.expand_halves(stacked, offsets, block,
                                            [dims[q] for q in block])
        lead_t = np.ascontiguousarray(lead.T)
        vol = lead.shape[0] * trail.shape[0]
        assert vol == math.prod(dims[q] for q in block)
        tuples = np.column_stack([rng.integers(0, n, size=restarts * m) for n in dims])
        alphas = solver.compute_alpha(A, tuples, block).reshape(rank, restarts, m)
        key = OrderingKey.MAX_ABS if complex_ else OrderingKey.MAX
        buf = np.empty(restarts * m * vol, dtype=A.dtype)

        def keys(alpha):
            # a copy: a real tensor's keys would be a view of buf
            return np.array(solver.key_values(solver._subproblems(lead_t, trail, alpha, buf),
                                              key))

        case = (dims, block, rank, complex_)
        full = [keys(alphas[:, i, np.arange(m)]) for i in range(restarts)]
        exact = kernels.block_expand(stacked, offsets, block, [dims[q] for q in block])
        np.testing.assert_allclose(full[0], solver.key_values(exact @ alphas[:, 0], key).T,
                                   rtol=1e-10, atol=1e-12)
        for i in range(restarts):
            subsets = [np.array([j]) for j in range(m)]
            subsets += [np.arange(3), np.arange(m - 4, m)]
            subsets += [np.sort(rng.choice(m, w, replace=False)) for w in (2, 5, 9)]
            for sel in subsets:
                got = keys(alphas[:, i, sel])
                assert got.tobytes() == full[i][sel].tobytes(), (case, i, sel.tolist())
        # every restart's columns in one call, in a random order
        order = rng.permutation(restarts * m)
        got = keys(alphas.reshape(rank, -1)[:, order])
        want = np.concatenate(full)[order]
        assert got.tobytes() == want.tobytes(), case

        # the stacked operand of the one matmul is the scaled half
        with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
            solver._subproblems(lead_t, trail, alphas[:, 0, np.arange(m)], buf)
        (scaled,) = [a for a in matmul.call_args.args if a.ndim == 3]
        assert scaled.size <= m * min(lead.shape[0], trail.shape[0]) * rank, case


def test_rank_weights_do_not_depend_on_their_batch():
    """A candidate's `compute_alpha` column is bit-equal alone and in any
    batch, real and complex, rank 1 included: `_sweep` forms a context from
    its column of one call, and a window's record keeps its top cells for
    later visits, whose calls hold other candidates."""
    rng = np.random.default_rng(302)
    n = 12
    for rank in (1, 2, 7):
        for complex_ in (False, True):
            A = cp.CpTensor(random_factors(rng, (5, 4, 6, 3), rank, complex_=complex_))
            for block in ((0,), (1, 2), (0, 1, 2, 3)):
                tuples = np.column_stack([rng.integers(0, d, size=n) for d in A.dims])
                full = solver.compute_alpha(A, tuples, block)
                subsets = [np.array([j]) for j in range(n)] + [rng.permutation(n)]
                subsets += [np.sort(rng.choice(n, w, replace=False)) for w in (2, 5)]
                for sel in subsets:
                    got = solver.compute_alpha(A, tuples[sel], block)
                    assert (np.ascontiguousarray(got).tobytes()
                            == np.ascontiguousarray(full[:, sel]).tobytes()), \
                        (rank, complex_, block, sel.tolist())


def test_rank_weights_live_one_window_at_a_time():
    """A window's rank weights, R x (contexts formed at the visit) complex
    values, are dropped before the next window builds its own.

    A window's first visit forms every context, restarts x m of them here.
    The peak holds the stacked factors plus, while compute_alpha runs, its
    result and its temporaries: about 2.2 times such a visit's weights.
    Keeping the last window's weights alive adds one more and breaks the
    bound, and so does keeping a visit's weights through its one block
    pass, whose recheck evaluates every live restart's moved rows at once,
    a (rows x R) product of up to a visit's weights.  One-mode windows keep
    the scaled halves, m x R values per batch, and the halves themselves
    below that peak.
    """
    dims, rank = (16, 16, 16, 16), 1024
    A = cp.CpTensor(random_factors(np.random.default_rng(7), dims, rank, complex_=True))
    cfg = SolverConfig(k=5, extra=5, block_size=1, key=OrderingKey.MAX_ABS, restarts=5,
                       seed=3)
    tracemalloc.start()
    try:
        res = solver.solve(A, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["expansions"] > 1
    item = np.dtype(complex).itemsize
    factors = sum(dims) * rank * item
    weights = rank * cfg.restarts * (cfg.k + cfg.extra) * item
    assert peak < factors + 3 * weights


def test_solve_holds_no_expansion_sized_array():
    """No array of one window's volume times the rank is built.

    The solve holds its batch buffer, one formation batch's cells: at most
    m subproblems and ``FORM_CELLS`` cells, 13 (vol) subproblems here.
    While a visit forms a batch, it also holds one scaled half of at most
    batch x min(vol_lead, vol_trail) x R values; the rest (factors, rank
    weights, halves, candidates) is well under half of one (vol x R)
    expansion, which would break the bound.
    """
    dims, rank = (100,) * 4, 20
    A = cp.CpTensor(random_factors(np.random.default_rng(8), dims, rank))
    cfg = SolverConfig(k=10, extra=40, block_size=2, restarts=3, seed=4)
    tracemalloc.start()
    try:
        res = solver.solve(A, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.diagnostics["expansions"] > 1
    item = np.dtype(float).itemsize
    m, vol = cfg.k + cfg.extra, 100 * 100
    batch = max(1, min(m, solver.FORM_CELLS // vol))
    cells = batch * vol * item
    scaled = batch * 100 * rank * item
    expansion = vol * rank * item
    assert peak < cells + scaled + expansion // 2


def test_sweep_holds_no_table_quadratic_in_candidates():
    """A visit's bookkeeping is linear in its restarts x m candidate rows.

    The groups, their holder counts and the dependents come from one sort
    and linear passes over the rows, and the block pass reads one list of
    top cells per group, so no (m x m) or (restarts x m x m) table is built.
    Two cases: block size 1 on a 4-way tensor, where contexts seldom repeat,
    and a matrix at the default block size, one whole-tensor window where
    every candidate of a restart holds the one empty context, so its group
    has m holders and its list m cells.  Such a table is m^2 cells per
    restart, and it breaks the bound: the batch buffer, one formation
    batch of at most m subproblems and ``FORM_CELLS`` cells, plus 1 KB per
    candidate row, which covers the rows' tuples, values, context and group
    numbers, the groups' lists and the pool.
    """
    for dims, cfg in (((30,) * 4, SolverConfig(k=1000, block_size=1, restarts=4,
                                                max_sweeps=1, seed=5)),
                      ((24, 24), SolverConfig(k=400, restarts=4, max_sweeps=1, seed=6))):
        A = cp.CpTensor(random_factors(np.random.default_rng(9), dims, 8))
        tracemalloc.start()
        try:
            res = solver.solve(A, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["dependent_picks"] > 0
        rows = cfg.restarts * cfg.k
        vol = math.prod(dims[q] for q in res.diagnostics["schedule"][0])
        batch = max(1, min(cfg.k, solver.FORM_CELLS // vol))
        cells = batch * vol * np.dtype(float).itemsize
        assert peak < cells + 1024 * rows, (dims, peak)


def test_solve_peak_does_not_grow_with_k():
    """The cell buffer holds one formation batch, not m subproblems.

    A window of more than half ``FORM_CELLS`` cells forms one subproblem
    per batch, so the solve holds one subproblem of its largest window,
    plus one copy of a row while `kernels.masked_argmax` lists a context's
    later top cells.  Everything else is small next to it.  A buffer of m subproblems, as the
    solve once allocated, is k times that: 30 MB for each case here.
    """
    for dims, k in (((600, 300), 20), ((300, 300, 4), 40)):
        A = cp.CpTensor(random_factors(np.random.default_rng(11), dims, 2))
        cfg = SolverConfig(k=k, restarts=2, max_sweeps=2, seed=1)
        tracemalloc.start()
        try:
            res = solver.solve(A, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.diagnostics["dependent_picks"] > 0
        vol = max(math.prod(dims[q] for q in w) for w in res.diagnostics["schedule"])
        assert solver.FORM_CELLS < 2 * vol
        assert peak < 3 * vol * np.dtype(float).itemsize, (dims, peak)


class TestDiagnostics(unittest.TestCase):

    def _check(self, A, cfg):
        res = solver.solve(A, cfg)
        d = res.diagnostics
        m = min(cfg.k + cfg.extra, A.size())
        blocks = res.sweeps_used * len(d["schedule"])
        self.assertEqual(len(d["restart_sweeps"]), cfg.restarts)
        self.assertEqual(sum(d["restart_sweeps"]), res.sweeps_used)
        self.assertEqual(any(d["restart_converged"]), res.converged)
        # each window visit's one block pass picks each of the m candidates
        # of every live restart once, free or dependent; each context
        # formed has a free holder at its visit, and a visit that builds
        # the halves forms at least one
        self.assertEqual(d["free_picks"] + d["dependent_picks"], m * blocks)
        self.assertLessEqual(d["expansions"], d["contracted_columns"])
        self.assertLessEqual(d["contracted_columns"], d["free_picks"])
        # a window builds at most one expansion per lockstep sweep
        self.assertLessEqual(d["expansions"],
                             len(d["schedule"]) * max(d["restart_sweeps"]))
        # every move passed a recheck or was forced
        self.assertLessEqual(d["reverted"], d["rechecks"])
        self.assertEqual(d["moves"], d["rechecks"] - d["reverted"] + d["forced_moves"])
        return res, m, blocks

    def test_real_counts(self):
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        cfg = SolverConfig(k=3, extra=5, block_size=1, seed=12)
        res, m, blocks = self._check(A, cfg)
        d = res.diagnostics
        # some visits form nothing, and the visits that form form fewer
        # subproblems than the contexts of all restarts x m live candidates
        self.assertLess(d["expansions"], len(d["schedule"]) * max(d["restart_sweeps"]))
        self.assertLess(d["contracted_columns"], cfg.restarts * m * d["expansions"])

    def test_whole_tensor_window_forms_its_context_once(self):
        # a whole-tensor window puts every candidate in one context, so each
        # restart has m - 1 dependent candidates at a visit; the first visit lists
        # the one empty context's top m cells, and every later visit reads
        # that list and forms nothing
        A = _pinned_tensor(108, (3, 4, 3), 3, True)
        cfg = SolverConfig(k=2, extra=5, block_size=3, key=OrderingKey.MAX_REAL, seed=8)
        res, m, blocks = self._check(A, cfg)
        d = res.diagnostics
        self.assertGreater(res.sweeps_used, 1)
        self.assertEqual(d["dependent_picks"], (m - 1) * blocks)
        self.assertEqual((d["contracted_columns"], d["expansions"]), (1, 1))

    def test_window_without_context_columns(self):
        # a whole-tensor window: every context has no columns, so there is
        # one context, and its argmax is known once formed.  The first visit
        # forms it once for every restart, with the one expansion; every
        # other visit, the converged sweep 2 included, forms nothing.
        rng = np.random.default_rng(5)
        A = cp.CpTensor([rng.uniform(-1, 1, size=(4, 3)) for _ in range(3)])
        for restarts, want in ((1, (2, 1, 1)), (3, (6, 1, 1))):
            res, _, blocks = self._check(A, SolverConfig(k=1, extra=0, block_size=3,
                                                         restarts=restarts))
            d = res.diagnostics
            self.assertEqual((res.sweeps_used, d["contracted_columns"], d["expansions"]),
                             want)
            self.assertEqual((d["free_picks"], d["dependent_picks"]), (blocks, 0))
        # every candidate shares the empty context, so at each visit a
        # restart has one free candidate and m - 1 dependent ones
        for extra in (1, 4):
            res, m, blocks = self._check(A, SolverConfig(k=2, extra=extra, block_size=3))
            d = res.diagnostics
            self.assertEqual((d["free_picks"], d["dependent_picks"]),
                             (blocks, (m - 1) * blocks))

    def test_restart_lists(self):
        A = _pinned_tensor(103, (6, 5, 4, 3), 3, False)
        cfg = SolverConfig(k=2, extra=8, block_size=2, restarts=4, max_sweeps=2, seed=3)
        res, _, _ = self._check(A, cfg)
        self.assertTrue(all(1 <= n <= 2 for n in res.diagnostics["restart_sweeps"]))

    def test_one_restart_expands_every_dirty_block(self):
        # a visit that forms builds the halves and weighs its contexts once,
        # and one that forms nothing builds neither; here some visits of the
        # one restart form nothing
        A = cp.CpTensor(random_factors(np.random.default_rng(202), (6, 5, 7, 6, 5, 6), 3))
        for s in (1, 2):
            with mock.patch.object(solver, "compute_alpha",
                                   wraps=solver.compute_alpha) as alpha, \
                    mock.patch.object(kernels, "expand_halves",
                                      wraps=kernels.expand_halves) as halves:
                res, _, blocks = self._check(A, SolverConfig(k=3, extra=5, block_size=s,
                                                             restarts=1, seed=12))
            d = res.diagnostics
            self.assertEqual(alpha.call_count, d["expansions"])
            self.assertEqual(halves.call_count, d["expansions"])
            self.assertLess(d["expansions"], blocks)

    def test_restarts_share_expansions(self):
        # restarts that would each expand a window alone share one
        # expansion, and a restart forms no more than it would alone
        real = cp.CpTensor(random_factors(np.random.default_rng(206), (6, 5, 7, 6), 3))
        complex_ = _pinned_tensor(108, (3, 4, 3, 4), 3, True)
        for A, cfg in ((real, SolverConfig(k=3, extra=5, block_size=2, seed=16)),
                       (complex_, SolverConfig(k=2, extra=4, block_size=2,
                                               key=OrderingKey.MAX_ABS, seed=17))):
            res, _, blocks = self._check(A, cfg)
            singles = [solver.solve(A, replace(cfg, restarts=1, seed=cfg.seed + r))
                       for r in range(cfg.restarts)]
            def alone(name):
                return sum(one.diagnostics[name] for one in singles)
            self.assertLessEqual(res.diagnostics["contracted_columns"],
                                 alone("contracted_columns"))
            self.assertLess(res.diagnostics["expansions"], alone("expansions"))

    def test_move_counts_on_random_solves(self):
        rng = np.random.default_rng(207)
        totals = dict.fromkeys(("moves", "rechecks", "reverted", "forced_moves"), 0)
        for trial in range(12):
            dims = tuple(int(rng.integers(2, 6)) for _ in range(int(rng.integers(3, 6))))
            complex_ = trial % 3 == 2
            A = cp.CpTensor(random_factors(rng, dims, int(rng.integers(1, 5)),
                                           complex_=complex_))
            key = (OrderingKey.MAX_ABS if complex_
                   else (OrderingKey.MAX, OrderingKey.MIN)[trial % 2])
            res, _, _ = self._check(A, SolverConfig(
                k=3, extra=int(rng.integers(0, 12)), block_size=int(rng.integers(1, 3)),
                key=key, restarts=3, seed=trial))
            for name in totals:
                totals[name] += res.diagnostics[name]
        # moves of both kinds happened on these draws; a recheck reverts
        # only on roundoff, which TestBlockPassMoves provokes by hand
        self.assertGreater(totals["rechecks"], 0, totals)
        self.assertGreater(totals["forced_moves"], 0, totals)

    def test_monotonicity_check_raises(self):
        # a sweep that lowers the best value breaks the invariant, for every
        # k; the check raises rather than asserting, so it also holds under -O
        real_sweep = solver._sweep

        def lowering_sweep(A, tuples, values, live, *args):
            out = real_sweep(A, tuples, values, live, *args)
            values[live] -= 1.0
            return out

        with mock.patch.object(solver, "_sweep", lowering_sweep):
            for k in (1, 3):
                with self.subTest(k=k), \
                        self.assertRaisesRegex(RuntimeError, "best key value decreased"):
                    solver.solve(_tiny_rank1(), SolverConfig(k=k, extra=1, block_size=1))


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
            hi = solver.solve(cp.scale(A, -1.0), SolverConfig(k=3, extra=3, seed=trial,
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

    def test_rank1_complex_values_are_exact_elements(self):
        # a lone row of a rank-1 complex tensor is a one-element product,
        # which numpy rounds apart from its vector loop
        rng = np.random.default_rng(83)
        for trial in range(5):
            dims = tuple(int(n) for n in rng.integers(3, 7, size=3))
            A = cp.CpTensor(random_factors(rng, dims, 1, complex_=True))
            res = solver.solve(A, SolverConfig(k=5, extra=10, key=OrderingKey.MAX_ABS,
                                               seed=trial))
            self.assertEqual(res.values.tobytes(),
                             cp.elements_at(A, res.indices).tobytes(), msg=f"{dims}")

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

    def test_qft16_state_reproduces_pinned_output(self):
        # the benchmark's qft16 solve on its seed-31 op-0 state: 16 x 16
        # windows, so only 256 contexts per window, which the restarts
        # share heavily
        layout = qft.square_layout(16)
        A = qft.run_qft(qft.random_product_state(layout, np.random.default_rng([31, 0])),
                        layout)
        res = solver.solve(A, SolverConfig(k=5, extra=5, block_size=2,
                                           key=OrderingKey.MAX_ABS))
        self.assertEqual(res.indices.tolist(), [[0, 0, 0, 0], [11, 0, 0, 0], [14, 0, 0, 0],
                                                [8, 0, 0, 0], [15, 12, 0, 0]])
        self.assertEqual(res.sweeps_used, 21)
        self.assertEqual(res.diagnostics["restart_sweeps"], [4, 4, 5, 4, 4])
        exact = cp.elements_at(A, res.indices)
        self.assertEqual(res.values.dtype, exact.dtype)
        np.testing.assert_array_equal(res.values, exact)


if __name__ == "__main__":
    unittest.main()
