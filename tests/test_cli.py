"""Command-line behavior: output formats, exit codes, determinism."""

import contextlib
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import unittest

import numpy as np

from conftest import OVERFLOW_FACTORS

import tensor_topk
from tensor_topk import cp
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
        want = {name: res.diagnostics[name]
                for name in ("block_size", "exhausted", "pool_size",
                             "contracted_columns", "clean_blocks", "expansions",
                             "restart_sweeps", "restart_converged")}
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

    def test_oracle_cap_below_one_exits_4(self):
        # a cap below 1 excluded every trial and reported "accuracy nan"
        import tempfile
        with tempfile.TemporaryDirectory() as d:
            out_csv = f"{d}/bench.csv"
            for args in (["bench", "--trials", "1", "--dist", "u01", "--out", out_csv],
                         ["func", "griewank", "--d", "3", "--trials", "1"],
                         ["qft", "--d", "4"]):
                for cap in ("0", "-1"):
                    code, out, err = run_cli([*args, "--oracle-cap", cap])
                    self.assertEqual(code, 4)
                    self.assertIn("--oracle-cap", err)
                    self.assertEqual(out, "")
            self.assertFalse(os.path.exists(out_csv))


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
