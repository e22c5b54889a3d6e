"""Command-line behavior: output formats, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from unittest import mock

import numpy as np

from conftest import OVERFLOW_FACTORS

import tensor_topk
from tensor_topk import cli, cp
from tensor_topk.cli import main
from tensor_topk.cpt_io import read_cpt, write_cpt
from tensor_topk.solver import SolverConfig, solve


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def tiny_file(path):
    # entries [[3,4],[6,8]]: max 8 at 1-based (2,2)
    A = cp.CpTensor([np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])])
    write_cpt(A, path)
    return path


class TestTopk(unittest.TestCase):

    def setUp(self):
        import tempfile
        self.dir = tempfile.mkdtemp()
        self.file = tiny_file(f"{self.dir}/t.cpt")

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def test_text_output_one_based(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "1"])
        self.assertEqual(code, 0)
        self.assertEqual(out.strip(), "8 @ (2,2)")

    def test_text_k2(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "2",
                                "--extra", "2"])
        self.assertEqual(code, 0)
        self.assertEqual(out.strip().splitlines(), ["8 @ (2,2)", "6 @ (2,1)"])

    def test_min_key(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "1",
                                "--key", "min"])
        self.assertEqual(code, 0)
        self.assertEqual(out.strip(), "3 @ (1,1)")

    def test_json_output(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "2",
                                "--extra", "2", "--output", "json"])
        self.assertEqual(code, 0)
        doc = json.loads(out)
        self.assertEqual(doc["values"], ["8", "6"])
        self.assertEqual(doc["indices"], [[2, 2], [2, 1]])
        self.assertTrue(doc["converged"])

    def test_json_diagnostics_match_solve(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "2",
                                "--extra", "1", "--block", "1", "--seed", "3",
                                "--restarts", "2", "--output", "json"])
        self.assertEqual(code, 0)
        res = solve(read_cpt(self.file),
                    SolverConfig(k=2, extra=1, block_size=1, seed=3, restarts=2))
        # every diagnostic but the per-window and per-sweep lists
        want = {name: value for name, value in res.diagnostics.items()
                if name not in ("schedule", "objective_trace")}
        doc = json.loads(out)
        self.assertEqual(doc["diagnostics"], want)
        self.assertEqual(sum(doc["diagnostics"]["restart_sweeps"]), doc["sweeps_used"])
        self.assertEqual(len(doc["diagnostics"]["restart_converged"]), 2)

    def test_csv_output(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "1",
                                "--output", "csv"])
        rows = list(csv.reader(io.StringIO(out)))
        self.assertEqual(rows[0], ["value", "index"])
        self.assertEqual(rows[1], ["8", "2 2"])

    def test_block_auto(self):
        code, out, _ = run_cli(["topk", "--input", self.file, "--k", "1",
                                "--block", "auto"])
        self.assertEqual(code, 0)
        self.assertEqual(out.strip(), "8 @ (2,2)")

    def test_deterministic_output(self):
        argv = ["topk", "--input", self.file, "--k", "2", "--extra", "1",
                "--seed", "9"]
        a = run_cli(argv)
        b = run_cli(argv)
        self.assertEqual(a, b)

    def test_missing_file_exits_1(self):
        code, _, err = run_cli(["topk", "--input", f"{self.dir}/nope.cpt",
                                "--k", "1"])
        self.assertEqual(code, 1)
        self.assertIn("error:", err)

    def test_malformed_file_exits_1(self):
        bad = f"{self.dir}/bad.cpt"
        with open(bad, "w") as fh:
            fh.write('{"field": "real"}')
        code, _, err = run_cli(["topk", "--input", bad, "--k", "1"])
        self.assertEqual(code, 1)
        self.assertIn("error:", err)

    def test_non_number_complex_entry_exits_1(self):
        # a bad entry is a bad input file (exit 1), not an invalid argument (4)
        bad = f"{self.dir}/bad.cpt"
        with open(bad, "w") as fh:
            fh.write('{"field": "complex", "dims": [1, 1], "rank": 1, '
                     '"factors": [[["x", 0.0]], [[1.0, 0.0]]]}')
        code, _, err = run_cli(["topk", "--input", bad, "--k", "1"])
        self.assertEqual(code, 1)
        self.assertIn("not a pair of numbers", err)

    def test_maximag_on_complex_file_all_outputs(self):
        # entries [[1+2j, 4+3j], [1j, 1+2j]]: by imaginary part 4+3j, then the
        # tie 1+2j at (1,1) before (2,2), the smaller column-major index
        path = f"{self.dir}/c.cpt"
        write_cpt(cp.CpTensor([np.array([[1 + 2j], [1j]]),
                               np.array([[1 + 0j], [2 - 1j]])]), path)
        argv = ["topk", "--input", path, "--k", "3", "--extra", "1",
                "--key", "maximag", "--output"]
        code, out, err = run_cli(argv + ["text"])
        self.assertEqual((code, err), (0, ""))
        self.assertEqual(out.splitlines(),
                         ["4+3j @ (1,2)", "1+2j @ (1,1)", "1+2j @ (2,2)"])
        code, out, err = run_cli(argv + ["csv"])
        self.assertEqual((code, err), (0, ""))
        self.assertEqual(list(csv.reader(io.StringIO(out))),
                         [["value", "index"], ["4+3j", "1 2"], ["1+2j", "1 1"],
                          ["1+2j", "2 2"]])
        code, out, err = run_cli(argv + ["json"])
        self.assertEqual((code, err), (0, ""))
        doc = json.loads(out)
        self.assertEqual(doc["key"], "maximag")
        self.assertEqual(doc["values"], ["4+3j", "1+2j", "1+2j"])
        self.assertEqual(doc["indices"], [[1, 2], [1, 1], [2, 2]])
        self.assertEqual(doc["objective"], 7.0)

    def test_overflowing_factors_exit_4(self):
        # finite entries whose products overflow float64: rejected before
        # the search, where this file used to end in a RuntimeError traceback
        path = f"{self.dir}/big.cpt"
        write_cpt(cp.CpTensor([np.array(f) for f in OVERFLOW_FACTORS[0]]), path)
        code, out, err = run_cli(["topk", "--input", path, "--k", "1", "--extra", "2",
                                  "--block", "1", "--restarts", "2", "--seed", "3084"])
        self.assertEqual(code, 4)
        self.assertEqual(out, "")
        self.assertIn("error: factor magnitude bound inf", err)
        self.assertNotIn("Traceback", err)

    def test_infeasible_k_exits_2(self):
        code, _, err = run_cli(["topk", "--input", self.file, "--k", "99"])
        self.assertEqual(code, 2)
        self.assertIn("error:", err)

    def test_capacity_exits_3(self):
        wide = f"{self.dir}/wide.cpt"
        A = cp.CpTensor([np.ones((2000, 1)), np.ones((2000, 1))])
        write_cpt(A, wide)
        code, _, err = run_cli(["topk", "--input", wide, "--k", "1",
                                "--block", "2"])
        self.assertEqual(code, 3)
        self.assertIn("error:", err)

    def test_capacity_cured_by_block_auto(self):
        # exit 3 comes from the solver's fixed 2^20-cell subproblem cap, which
        # no flag raises: a smaller or automatic block is the way out
        cube = f"{self.dir}/cube.cpt"
        rng = np.random.default_rng(4)
        write_cpt(cp.CpTensor([rng.uniform(0.0, 1.0, (1100, 1)) for _ in range(3)]),
                  cube)
        code, out, err = run_cli(["topk", "--input", cube, "--k", "1", "--block", "2"])
        self.assertEqual(code, 3)
        self.assertIn("block volume 1210000 exceeds the subproblem cap of 1048576", err)
        self.assertEqual(out, "")
        code, out, _ = run_cli(["topk", "--input", cube, "--k", "1", "--block", "auto"])
        self.assertEqual(code, 0)
        self.assertEqual(len(out.strip().splitlines()), 1)

    def test_a_block_at_the_cap_serves_a_large_k(self):
        # a (1024, 1024) block holds the cap's 2^20 cells; the cell buffer
        # used to be sized for k of them, and this run asked for 15.6 GiB
        path = f"{self.dir}/tall.cpt"
        rng = np.random.default_rng(14)
        write_cpt(cp.CpTensor([rng.uniform(0.0, 1.0, (n, 1)) for n in (1024, 1024, 2)]),
                  path)
        code, out, err = run_cli(["topk", "--input", path, "--k", "2000", "--block", "2",
                                  "--restarts", "1", "--max-sweeps", "1"])
        self.assertEqual((code, err), (0, ""))
        self.assertEqual(len(out.splitlines()), 2000)

    def test_invalid_k_exits_4(self):
        code, _, err = run_cli(["topk", "--input", self.file, "--k", "0"])
        self.assertEqual(code, 4)
        self.assertIn("error:", err)

    def test_usage_error_exits_4(self):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            with self.assertRaises(SystemExit) as ctx:
                main(["topk", "--input", self.file, "--k", "two"])
        self.assertEqual(ctx.exception.code, 4)
        self.assertIn("invalid int value", err.getvalue())

    def test_help_exits_0(self):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with self.assertRaises(SystemExit) as ctx:
                main(["topk", "--help"])
        self.assertEqual(ctx.exception.code, 0)
        self.assertIn("--input", out.getvalue())


class TestBench(unittest.TestCase):

    def test_bench_writes_schema_csv(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            out_csv = f"{d}/bench.csv"
            code, out, _ = run_cli(["bench", "--trials", "2", "--dist", "u01",
                                    "--k", "1", "--seed", "3", "--restarts", "1",
                                    "--out", out_csv])
            self.assertEqual(code, 0)
            self.assertIn("accuracy", out)
            with open(out_csv) as fh:
                self.assertEqual(fh.readline(), "# schema=1\n")
                rows = list(csv.DictReader(fh))
            methods = {r["method"] for r in rows}
            self.assertIn("ours_s2_K5", methods)
            self.assertIn("power_iteration", methods)

    def test_empty_grid_exits_4(self):
        # an empty grid used to write a header-only CSV and exit 0
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            out_csv = f"{d}/bench.csv"
            for args, msg in ((["--trials", "1", "--dist", ","], "no distribution given"),
                              (["--trials", "0", "--dist", "u01"], "trials must be >= 1")):
                code, out, err = run_cli(["bench", *args, "--out", out_csv])
                self.assertEqual(code, 4)
                self.assertIn(msg, err)
                self.assertEqual(out, "")
                self.assertFalse(os.path.exists(out_csv))

    def test_bad_out_path_exits_1_before_any_trial(self):
        # a missing directory or an empty path used to fail only when the
        # CSV was written, after every trial had run
        import tempfile

        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before --out was checked")

        with tempfile.TemporaryDirectory() as d, \
                mock.patch("tensor_topk.harness.bench_trial", no_trial):
            # a path under a regular file fails as opening it would
            afile = os.path.join(d, "afile")
            open(afile, "w").close()
            for path, msg in ((f"{d}/missing/bench.csv", "No such file or directory"),
                              (d, "Is a directory"),
                              ("", "No such file or directory"),
                              (f"{afile}/bench.csv", "Not a directory"),
                              (f"{afile}/sub/bench.csv", "Not a directory")):
                with self.subTest(path=path):
                    code, out, err = run_cli(["bench", "--trials", "2", "--dist", "u01",
                                              "--out", path])
                    self.assertEqual(code, 1)
                    self.assertEqual(out, "")
                    self.assertTrue(err.startswith("error:"), err)
                    self.assertIn(msg, err)
                    self.assertEqual(os.listdir(d), ["afile"])


class TestSolverFlags(unittest.TestCase):

    def test_every_solver_field_has_a_flag(self):
        self.assertEqual(set(cli._SOLVER_FLAGS),
                         {f.name for f in dataclasses.fields(SolverConfig)})
        with self.assertRaisesRegex(ValueError,
                                    r"^key must be an OrderingKey, got 'max' \(--key\)$"):
            cli._solver_config(k=1, key="max")


class TestNoOracleCap(unittest.TestCase):
    """The dense oracle's cap is a constant: no driver takes ``--oracle-cap``."""

    def test_drivers_reject_the_flag(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            for argv in (["bench", "--trials", "1", "--dist", "u01", "--out", f"{d}/b.csv"],
                         ["func", "griewank", "--d", "3", "--trials", "1"],
                         ["qft", "--d", "4", "--dump-state", f"{d}/state.cpt"]):
                with self.subTest(command=argv[0]):
                    with contextlib.redirect_stdout(io.StringIO()) as out, \
                            contextlib.redirect_stderr(io.StringIO()) as err, \
                            self.assertRaises(SystemExit) as ctx:
                        main([*argv, "--oracle-cap", "5"])
                    self.assertEqual(ctx.exception.code, 4)
                    self.assertIn("unrecognized arguments: --oracle-cap 5", err.getvalue())
                    self.assertEqual(out.getvalue(), "")
                    self.assertEqual(os.listdir(d), [])


class TestFunc(unittest.TestCase):

    def test_func_reports_hits(self):
        code, out, _ = run_cli(["func", "schwefel", "--d", "4", "--n", "3",
                                "--trials", "2", "--seed", "1", "--pin-optimum"])
        self.assertEqual(code, 0)
        self.assertIn("found the true minimum in 2/2 trials", out)

    def test_bad_trials_or_grid_size_exits_4(self):
        # zero trials would print nothing, and --n 1 leaves no grid size to draw
        for args, msg in ((["--trials", "0"], "trials must be >= 1"),
                          (["--n", "1"], "--n")):
            code, out, err = run_cli(["func", "griewank", "--d", "3", *args])
            self.assertEqual(code, 4)
            self.assertIn(msg, err)
            self.assertEqual(out, "")

    def test_capacity_names_n_exits_3(self):
        # func has no --block: the capacity error names the grid-size flag
        # and the largest value whose 2-mode blocks always fit the 2^20 cap
        code, out, err = run_cli(["func", "griewank", "--d", "3", "--trials", "1",
                                  "--n", "100000"])
        self.assertEqual(code, 3)
        self.assertIn("exceeds the subproblem cap of 1048576", err)
        self.assertIn("use --n 1024 or less", err)
        self.assertEqual(out, "")


class TestQft(unittest.TestCase):

    def test_qft_small_run(self):
        code, out, _ = run_cli(["qft", "--d", "4", "--trials", "1",
                                "--k", "3", "--seed", "2"])
        self.assertEqual(code, 0)
        self.assertIn("top-1 match 1/1", out)

    def test_non_square_d_exits_4(self):
        code, _, err = run_cli(["qft", "--d", "10"])
        self.assertEqual(code, 4)
        self.assertIn("not a square", err)

    def test_oversized_exact_qft_exits_3_before_any_trial(self):
        # an exact QFT of d qubits in sqrt(d) modes ends at rank 2^(d - sqrt(d)):
        # at d=25 its final factors hold 5 * 2^25 entries, past the 2^22 cap
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before the final rank was checked")

        with mock.patch("tensor_topk.harness.simulate_and_measure", no_trial):
            for d in ("25", "36"):
                code, out, err = run_cli(["qft", "--d", d])
                self.assertEqual(code, 3, d)
                self.assertEqual(out, "")
                self.assertTrue(err.startswith("error:"), err)
                self.assertIn(f"exact d={d} QFT", err)
                self.assertNotIn("Traceback", err)

    def test_rank_capped_qft_reaches_its_trial(self):
        # d=16 passes the check (4 * 2^16 entries), and a rank cap lifts it
        for argv in (["--d", "16"], ["--d", "25", "--rank-cap", "64"]):
            with mock.patch("tensor_topk.harness.simulate_and_measure",
                            side_effect=RuntimeError("trial reached")) as trial:
                with self.assertRaisesRegex(RuntimeError, "trial reached"):
                    run_cli(["qft", *argv])
            trial.assert_called_once()

    def test_qft_dump_state_roundtrips(self):
        import tempfile
        from tensor_topk.cpt_io import read_cpt
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/state.cpt"
            code, out, _ = run_cli(["qft", "--d", "4", "--trials", "1",
                                    "--seed", "5", "--dump-state", path])
            self.assertEqual(code, 0)
            state = read_cpt(path)
            self.assertTrue(state.is_complex)
            self.assertEqual(state.dims, (4, 4))

    def test_qft_dump_state_into_missing_directory_exits_1(self):
        # the destination is checked before any trial runs or prints
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            code, out, err = run_cli(["qft", "--d", "4", "--trials", "1",
                                      "--dump-state", f"{d}/missing/state.cpt"])
            self.assertFalse(os.path.exists(f"{d}/missing"))
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertTrue(err.startswith("error:"), err)
        self.assertIn("No such file or directory", err)
        self.assertNotIn("Traceback", err)

    def test_qft_dump_state_onto_a_directory_exits_1(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            code, out, err = run_cli(["qft", "--d", "4", "--trials", "1",
                                      "--dump-state", d])
            self.assertEqual(os.listdir(d), [])
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertTrue(err.startswith("error:"), err)
        self.assertIn("Is a directory", err)
        self.assertNotIn("Traceback", err)

    def test_qft_empty_dump_state_exits_1_before_any_trial(self):
        # an empty path used to run every trial, write nothing and exit 0
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before --dump-state was checked")

        with mock.patch("tensor_topk.harness.simulate_and_measure", no_trial):
            code, out, err = run_cli(["qft", "--d", "4", "--trials", "1",
                                      "--dump-state", ""])
        self.assertEqual(code, 1)
        self.assertEqual(out, "")
        self.assertTrue(err.startswith("error:"), err)
        self.assertIn("No such file or directory", err)

    def test_qft_dump_state_replaces_an_earlier_dump(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path, copy = f"{d}/state.cpt", f"{d}/copy.cpt"
            for qubits, dims in (("9", (8, 8, 8)), ("4", (4, 4))):
                code, _, _ = run_cli(["qft", "--d", qubits, "--trials", "1",
                                      "--seed", "5", "--dump-state", path])
                self.assertEqual(code, 0)
                state = read_cpt(path)
                self.assertEqual(state.dims, dims)
            # the shorter second dump round-trips byte for byte
            write_cpt(state, copy)
            with open(path, "rb") as a, open(copy, "rb") as b:
                self.assertEqual(a.read(), b.read())

    def test_zero_trials_exits_4(self):
        # zero trials would print nothing and leave --dump-state no state to write
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/state.cpt"
            for extra in ([], ["--dump-state", path]):
                code, out, err = run_cli(["qft", "--d", "4", "--trials", "0", *extra])
                self.assertEqual(code, 4)
                self.assertIn("trials must be >= 1", err)
                self.assertEqual(out, "")
                self.assertFalse(os.path.exists(path))

    def test_k_above_the_state_size_exits_2_before_any_trial(self):
        # --k 17 at d=4 used to run the first trial's gates before solve failed
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran before --k was checked")

        with mock.patch("tensor_topk.harness.simulate_and_measure", no_trial):
            code, out, err = run_cli(["qft", "--d", "4", "--k", "17"])
        self.assertEqual(code, 2)
        self.assertEqual(out, "")
        self.assertIn("k=17 exceeds the tensor size of 16 entries (--k)", err)

    def test_rank_cap_zero_exits_4(self):
        code, out, err = run_cli(["qft", "--d", "4", "--rank-cap", "0"])
        self.assertEqual(code, 4)
        self.assertIn("target rank", err)
        self.assertEqual(out, "")


class TestBadFlagsFailBeforeWork(unittest.TestCase):
    """A bad value exits 4 naming its flag, before any trial, read or write."""

    CASES = (
        ("bench", "--dist", "u01,bogus"),
        ("bench", "--dist", "bogus"),
        ("bench", "--dist", "u01,u01"),
        ("bench", "--k", "0"),
        ("bench", "--restarts", "0"),
        ("bench", "--max-sweeps", "0"),
        ("func", "--d", "0"),
        ("func", "--d", "-3"),
        ("qft", "--d", "0"),
        ("qft", "--d", "-4"),
        ("qft", "--d", "10"),
        ("qft", "--k", "0"),
        ("qft", "--extra", "-1"),
        ("qft", "--block", "0"),
        ("qft", "--rank-cap", "0"),
        ("qft", "--rank-cap", "-3"),
        ("topk", "--k", "0"),
        ("topk", "--extra", "-1"),
        ("topk", "--block", "0"),
        ("topk", "--restarts", "0"),
        ("topk", "--max-sweeps", "0"),
    )

    def test_table(self):
        import tempfile

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the flags were checked")

        base = {
            "bench": lambda d: ["bench", "--trials", "2", "--out", f"{d}/bench.csv"],
            "func": lambda d: ["func", "griewank", "--trials", "2"],
            "qft": lambda d: ["qft", "--d", "4", "--dump-state", f"{d}/state.cpt"],
            "topk": lambda d: ["topk", "--input", f"{d}/t.cpt", "--k", "1"],
        }
        with contextlib.ExitStack() as stack:
            for target in ("harness.bench_trial", "harness.simulate_and_measure",
                           "harness.gen_griewank", "harness.gen_schwefel",
                           "cli.read_cpt", "cli.solve"):
                stack.enter_context(mock.patch(f"tensor_topk.{target}", no_work))
            for command, flag, value in self.CASES:
                with self.subTest(command=command, flag=flag, value=value), \
                        tempfile.TemporaryDirectory() as d:
                    code, out, err = run_cli([*base[command](d), flag, value])
                    self.assertEqual(code, 4)
                    self.assertEqual(out, "")
                    self.assertTrue(err.startswith("error:"), err)
                    self.assertIn(flag, err)
                    self.assertEqual(os.listdir(d), [])


class TestNegativeSeed(unittest.TestCase):
    """``--seed -1`` exits 4 naming the seed, before anything is written."""

    def setUp(self):
        import tempfile
        self.dir = tempfile.mkdtemp()

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _check(self, argv, msg, written):
        code, out, err = run_cli([*argv, "--seed", "-1"])
        self.assertEqual(code, 4)
        self.assertIn(msg, err)
        self.assertNotIn("Traceback", err)
        self.assertEqual(out, "")
        self.assertFalse(os.path.exists(written))

    def test_topk_names_the_solver_seed(self):
        # topk hands its flags to SolverConfig, which names its own field
        self._check(["topk", "--input", tiny_file(f"{self.dir}/t.cpt"), "--k", "1"],
                    "seed must be >= 0, got -1", f"{self.dir}/none")

    def test_drivers_name_the_flag(self):
        out_csv = f"{self.dir}/bench.csv"
        dump = f"{self.dir}/state.cpt"
        for argv, written in (
                (["bench", "--trials", "1", "--dist", "u01", "--out", out_csv], out_csv),
                (["func", "griewank", "--d", "3", "--trials", "1"], out_csv),
                (["qft", "--d", "4", "--dump-state", dump], dump)):
            with self.subTest(command=argv[0]):
                self._check(argv, "the master seed (--seed) must be >= 0, got -1",
                            written)


PINNED_QFT_STDOUT = """\
trial 0 d=9 rank=64 top: 000000000;010000000;100000000;111111101;111111110 |amp|: 0.679870268704;0.235598701756;0.220708801025;0.167044907293;0.156521132372 amp_err=*
trial 1 d=9 rank=64 top: 000000000;111111110;000010000;001000000;000000011 |amp|: 0.662868033248;0.221297798029;0.212471871245;0.191089170307;0.183280919179 amp_err=*
oracle: top-1 match 2/2, top-5 set match 2/2
"""

PINNED_GRIEWANK_STDOUT = """\
trial 0 dims=4x2x2x2x2 min_s1=371.001961056 min_s2=371.001961056 oracle=371.001961056
trial 1 dims=4x2x3x3x4 min_s1=111.044583898 min_s2=111.044583898 oracle=111.044583898
s=1: found the true minimum in 2/2 trials
s=2: found the true minimum in 2/2 trials
"""

PINNED_SCHWEFEL_STDOUT = """\
trial 0 dims=5x3x2x3 min_s1=5.0911349831e-05 min_s2=5.0911349831e-05 oracle=5.0911349831e-05
trial 1 dims=3x5x3x5 min_s1=5.0911349831e-05 min_s2=5.0911349831e-05 oracle=5.0911349831e-05
s=1: found the true minimum in 2/2 trials
s=2: found the true minimum in 2/2 trials
"""

PINNED_BENCH_STDOUT = """\
u01 ours_s1_K1: accuracy 1.000 (1/1, 0 excluded)
u01 ours_s1_K5: accuracy 1.000 (1/1, 0 excluded)
u01 ours_s2_K1: accuracy 1.000 (1/1, 0 excluded)
u01 ours_s2_K5: accuracy 1.000 (1/1, 0 excluded)
u01 power_iteration: accuracy 1.000 (1/1, 0 excluded)
um11 ours_s1_K1: accuracy 0.000 (0/1, 0 excluded)
um11 ours_s1_K5: accuracy 1.000 (1/1, 0 excluded)
um11 ours_s2_K1: accuracy 1.000 (1/1, 0 excluded)
um11 ours_s2_K5: accuracy 1.000 (1/1, 0 excluded)
um11 power_iteration: accuracy 1.000 (1/1, 0 excluded)
"""

# the bench CSV below its schema line, without the environmental wall_time
PINNED_BENCH_CSV = """\
trial,dist,trial_seed,method,k,extra,block,d,dims,rank,values,indices,oracle_match,hit,excluded
0,u01,1490961094,ours_s1_K1,1,1,1,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,u01,1490961094,ours_s1_K5,1,5,1,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,u01,1490961094,ours_s2_K1,1,1,2,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,u01,1490961094,ours_s2_K5,1,5,2,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,u01,1490961094,power_iteration,1,0,0,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,u01,1490961094,oracle,1,0,0,8,7x7x5x7x7x7x2x4,7,0.58913307392653969,"2,7,2,7,6,6,2,1",true,true,false
0,um11,1490961094,ours_s1_K1,1,1,1,8,7x7x5x7x7x7x2x4,7,0.33265199817531971,"7,2,5,7,2,6,1,3",false,false,false
0,um11,1490961094,ours_s1_K5,1,5,1,8,7x7x5x7x7x7x2x4,7,0.45583078366855356,"2,4,5,6,3,2,2,1",true,true,false
0,um11,1490961094,ours_s2_K1,1,1,2,8,7x7x5x7x7x7x2x4,7,0.45583078366855356,"2,4,5,6,3,2,2,1",true,true,false
0,um11,1490961094,ours_s2_K5,1,5,2,8,7x7x5x7x7x7x2x4,7,0.45583078366855356,"2,4,5,6,3,2,2,1",true,true,false
0,um11,1490961094,power_iteration,1,0,0,8,7x7x5x7x7x7x2x4,7,0.45583078366855356,"2,4,5,6,3,2,2,1",true,true,false
0,um11,1490961094,oracle,1,0,0,8,7x7x5x7x7x7x2x4,7,0.45583078366855356,"2,4,5,6,3,2,2,1",true,true,false
summary,u01,,ours_s1_K1,,,,,,,1.000000,,hits=1/1,,0
summary,u01,,ours_s1_K5,,,,,,,1.000000,,hits=1/1,,0
summary,u01,,ours_s2_K1,,,,,,,1.000000,,hits=1/1,,0
summary,u01,,ours_s2_K5,,,,,,,1.000000,,hits=1/1,,0
summary,u01,,power_iteration,,,,,,,1.000000,,hits=1/1,,0
summary,um11,,ours_s1_K1,,,,,,,0.000000,,hits=0/1,,0
summary,um11,,ours_s1_K5,,,,,,,1.000000,,hits=1/1,,0
summary,um11,,ours_s2_K1,,,,,,,1.000000,,hits=1/1,,0
summary,um11,,ours_s2_K5,,,,,,,1.000000,,hits=1/1,,0
summary,um11,,power_iteration,,,,,,,1.000000,,hits=1/1,,0
"""


class TestPinnedCliOutputs(unittest.TestCase):
    """Byte-for-byte stdout and CSV of fixed runs, recorded from an earlier
    version; an unchanged solver, oracle, power iteration and QFT reproduce
    them exactly."""

    def test_qft(self):
        code, out, _ = run_cli(["qft", "--d", "9", "--trials", "2", "--seed", "1"])
        self.assertEqual(code, 0)
        # the dense check's rounding error is the only value not pinned
        errs = [float(v) for v in re.findall(r"amp_err=(\S+)", out)]
        self.assertEqual(len(errs), 2)
        self.assertTrue(all(e <= 1e-10 for e in errs), errs)
        self.assertEqual(re.sub(r"amp_err=\S+", "amp_err=*", out), PINNED_QFT_STDOUT)

    def test_func(self):
        for argv, want in (
                (["griewank", "--d", "5", "--n", "4", "--trials", "2", "--seed", "3"],
                 PINNED_GRIEWANK_STDOUT),
                (["schwefel", "--d", "4", "--n", "5", "--trials", "2", "--seed", "2",
                  "--pin-optimum"], PINNED_SCHWEFEL_STDOUT)):
            code, out, _ = run_cli(["func", *argv])
            self.assertEqual(code, 0)
            self.assertEqual(out, want)

    def test_bench(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            out_csv = f"{d}/bench.csv"
            code, out, _ = run_cli(["bench", "--trials", "1", "--dist", "u01,um11",
                                    "--k", "1", "--seed", "4", "--out", out_csv])
            with open(out_csv, newline="") as fh:
                self.assertEqual(fh.readline(), "# schema=1\n")
                rows = list(csv.reader(fh))
        self.assertEqual(code, 0)
        self.assertEqual(out, PINNED_BENCH_STDOUT + f"wrote {out_csv}\n")
        drop = rows[0].index("wall_time")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow(row[:drop] + row[drop + 1:])
        self.assertEqual(buf.getvalue(), PINNED_BENCH_CSV)


class TestConsoleScript(unittest.TestCase):

    def test_installed_entry_point(self):
        exe = shutil.which("tensor-topk")
        if exe is None:
            self.skipTest("console script not on PATH")
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = tiny_file(f"{d}/t.cpt")
            proc = subprocess.run([exe, "topk", "--input", path, "--k", "1"],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "8 @ (2,2)")


class TestModuleEntry(unittest.TestCase):
    """``python -m tensor_topk`` in a child process, through the real exit path."""

    def run_module(self, *argv):
        src = os.path.dirname(os.path.dirname(tensor_topk.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "tensor_topk", *argv],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=path))

    def test_valid_file_exits_0_and_non_utf8_file_exits_1(self):
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            path = tiny_file(f"{d}/t.cpt")
            proc = self.run_module("topk", "--input", path, "--k", "1")
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertEqual(proc.stdout.strip(), "8 @ (2,2)")
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b" ", b"\xff", 1))
            proc = self.run_module("topk", "--input", path, "--k", "1")
            self.assertEqual(proc.returncode, 1)
            self.assertEqual(proc.stdout, "")
            self.assertIn("error: not UTF-8 text", proc.stderr)


if __name__ == "__main__":
    unittest.main()
