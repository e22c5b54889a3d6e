"""Command-line front door.

Subcommands: ``topk`` (retrieve the k best entries of a CPT file), ``bench``
(random-tensor accuracy benchmark), ``func`` (Griewank/Schwefel grid
minimization), ``qft`` (grouped-qubit QFT measurement).  Exit codes: 0
success, 1 I/O or parse failure, 2 infeasible k, 3 capacity exceeded, 4
invalid arguments (usage errors, out-of-range values, mismatched shapes).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

import numpy as np

from .cpt_io import read_cpt, write_cpt
from .errors import CapacityError, CptFormatError, InfeasibleKError
from .generators import DISTRIBUTIONS
from .harness import run_bench, run_func, run_qft_trials
from .solver import OrderingKey, SolverConfig, solve

KEY_CHOICES = [k.value for k in OrderingKey]
EXIT_INVALID = 4


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with EXIT_INVALID, not argparse's 2 (infeasible k)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _fmt_scalar(v):
    if np.iscomplexobj(np.asarray(v)):
        v = complex(v)
        return f"{v.real:.12g}{v.imag:+.12g}j"
    return f"{float(v):.12g}"


# the flag that sets each SolverConfig field
_SOLVER_FLAGS = {"k": "--k", "extra": "--extra", "block_size": "--block",
                 "key": "--key", "max_sweeps": "--max-sweeps",
                 "restarts": "--restarts", "seed": "--seed"}


def _solver_config(**fields):
    """SolverConfig of flag values; its error names the flag at fault.

    Every SolverConfig error message begins with the field's name.
    """
    try:
        return SolverConfig(**fields)
    except ValueError as exc:
        raise ValueError(f"{exc} ({_SOLVER_FLAGS[str(exc).split()[0]]})") from None


def _block_arg(raw):
    return raw if raw == "auto" else int(raw)


def _add_topk(sub):
    p = sub.add_parser("topk", help="retrieve the k best entries of a CPT file")
    p.add_argument("--input", required=True, help="CPT file to read")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--extra", type=int, default=0,
                   help="extra working candidates beyond k")
    p.add_argument("--block", type=_block_arg, default=2,
                   help="block size (modes per subproblem) or 'auto'")
    p.add_argument("--key", choices=KEY_CHOICES, default="max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-sweeps", type=int, default=50)
    p.add_argument("--output", choices=["text", "csv", "json"], default="text")


# the TopKResult.diagnostics entries that `topk --output json` prints
JSON_DIAGNOSTICS = ("block_size", "exhausted", "pool_size", "contracted_columns",
                    "expansions", "free_picks", "dependent_picks", "moves", "rechecks",
                    "reverted", "forced_moves", "restart_sweeps", "restart_converged")


def _run_topk(args):
    cfg = _solver_config(k=args.k, extra=args.extra, block_size=args.block,
                         key=OrderingKey(args.key), seed=args.seed,
                         restarts=args.restarts, max_sweeps=args.max_sweeps)
    A = read_cpt(args.input)
    res = solve(A, cfg)
    rows = [(res.values[j], tuple(int(v) + 1 for v in res.indices[j]))
            for j in range(len(res.values))]
    if args.output == "text":
        for val, idx in rows:
            print(f"{_fmt_scalar(val)} @ ({','.join(str(i) for i in idx)})")
    elif args.output == "csv":
        print("value,index")
        for val, idx in rows:
            print(f"{_fmt_scalar(val)},{' '.join(str(i) for i in idx)}")
    else:
        print(json.dumps({
            "k": args.k,
            "key": args.key,
            "values": [_fmt_scalar(v) for v, _ in rows],
            "indices": [list(idx) for _, idx in rows],
            "objective": res.objective,
            "sweeps_used": res.sweeps_used,
            "converged": res.converged,
            "diagnostics": {name: res.diagnostics[name] for name in JSON_DIAGNOSTICS},
        }, indent=2))
    return 0


def _add_bench(sub):
    p = sub.add_parser("bench", help="random-tensor accuracy benchmark")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--dist", default="all",
                   help="um11 | u075 | u01 | all (comma lists allowed)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--key", choices=["max", "min"], default="max")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-sweeps", type=int, default=50)
    p.add_argument("--out", required=True, help="CSV output path")


def _run_bench(args):
    key = OrderingKey(args.key)
    # each trial's solver rows set their own block, extra and seed
    _solver_config(k=args.k, key=key, restarts=args.restarts,
                   max_sweeps=args.max_sweeps)
    if args.dist == "all":
        dists = list(DISTRIBUTIONS)
    else:
        dists = [d.strip() for d in args.dist.split(",") if d.strip()]
    _check_out_path(args.out)
    summaries = run_bench(args.out, args.trials, dists, args.k, key, args.seed,
                          restarts=args.restarts, max_sweeps=args.max_sweeps)
    for s in summaries:
        print(f"{s['dist']} {s['method']}: accuracy {s['accuracy']:.3f} "
              f"({s['hits']}/{s['counted']}, {s['excluded']} excluded)")
    print(f"wrote {args.out}")
    return 0


def _add_func(sub):
    p = sub.add_parser("func", help="benchmark-function grid minimization")
    p.add_argument("function", choices=["griewank", "schwefel"])
    p.add_argument("--d", type=int, default=10, help="number of modes")
    p.add_argument("--n", type=int, default=4, help="largest per-mode grid size")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pin-optimum", action="store_true",
                   help="snap one grid point per mode onto the global optimum")


def _run_func(args):
    records = run_func(args.function, args.d, args.n, args.trials, args.seed, args.pin_optimum)
    hits = {1: 0, 2: 0}
    counted = 0
    for rec in records:
        oracle = ("" if rec["oracle_min"] is None
                  else f" oracle={_fmt_scalar(rec['oracle_min'])}")
        print(f"trial {rec['trial']} dims={rec['dims']}"
              f" min_s1={_fmt_scalar(rec['min_s1'])}"
              f" min_s2={_fmt_scalar(rec['min_s2'])}{oracle}")
        if rec["oracle_min"] is not None:
            counted += 1
            for s in (1, 2):
                hits[s] += bool(rec.get(f"hit_s{s}"))
    if counted:
        for s in (1, 2):
            print(f"s={s}: found the true minimum in {hits[s]}/{counted} trials")
    return 0


def _add_qft(sub):
    p = sub.add_parser("qft", help="grouped-qubit QFT measurement")
    p.add_argument("--d", type=int, default=9, help="qubit count (square)")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--extra", type=int, default=5)
    p.add_argument("--block", type=int, default=2)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rank-cap", type=int, default=None,
                   help="recompress the state above this rank (approximate)")
    p.add_argument("--dump-state", default=None,
                   help="write the final state of the last trial as complex CPT")


def _check_out_path(path):
    # fail as writing would, before any trial runs, and create nothing; the
    # parent's stat fails as open would (an empty path has no parent)
    try:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        os.stat(path and os.path.join(os.path.dirname(path), os.curdir))
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _run_qft(args):
    # each trial seeds its own solve
    _solver_config(k=args.k, extra=args.extra, block_size=args.block)
    if args.dump_state is not None:
        _check_out_path(args.dump_state)
    records = run_qft_trials(args.d, args.trials, args.seed, k=args.k,
                             extra=args.extra, block=args.block, rank_cap=args.rank_cap,
                             keep_last_state=args.dump_state is not None)
    top1 = topk = checked = 0
    for rec in records:
        line = (f"trial {rec['trial']} d={rec['d']} rank={rec['rank']} "
                f"top: {rec['bitstrings']} |amp|: {rec['magnitudes']}")
        if "max_amp_err" in rec:
            checked += 1
            top1 += bool(rec["top1_match"])
            topk += bool(rec["topk_set_match"])
            line += f" amp_err={rec['max_amp_err']:.3g}"
        else:
            line += " (dense oracle skipped)"
        print(line)
    if checked:
        print(f"oracle: top-1 match {top1}/{checked}, "
              f"top-{args.k} set match {topk}/{checked}")
    if args.dump_state is not None:
        write_cpt(records[-1]["state"], args.dump_state)
        print(f"wrote {args.dump_state}")
    return 0


def build_parser():
    parser = _Parser(
        prog="tensor-topk",
        description="Top-k entry retrieval from CP-format tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_topk(sub)
    _add_bench(sub)
    _add_func(sub)
    _add_qft(sub)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    runners = {"topk": _run_topk, "bench": _run_bench, "func": _run_func,
               "qft": _run_qft}
    try:
        return runners[args.command](args)
    except (CptFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleKError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
