"""Experiment harness: synthetic data, completions, sweeps, benchmarks.

Subcommands:
    synth      write a random TR ground-truth file and an observed file with
               NaN-marked missing entries
    complete   run one solver on an observed file, write the completed
               tensor, the cores, and a one-row CSV report
    sweep      repeat completions over a grid (missing-rate | rank | lambda),
               report mean/std RSE per grid point per solver
    bench      time solver iterations across tensor order and rank

All randomness is seeded. A synthetic instance derives its cores from
stream [seed, 0] and its mask from stream [seed, 1]; sweep run j uses base
seed + j for both the instance and the solver init, so every repeat is an
independent experiment.
"""

import argparse
import csv
import dataclasses
import math
import numbers
import os
import statistics
import sys

import numpy as np

from .io import TensorFileError, read_tensor, write_tensor
from .ring import TRRank, reconstruct
from .solvers import DivergenceError, SolverConfig, _check_seed, _checked_truth, rse, solve_llrf, solve_olrf

SOLVERS = {"olrf": solve_olrf, "llrf": solve_llrf}
SWEEP_AXES = ("missing-rate", "rank", "lambda")
# the std of the synthetic cores, for synth_instance, run_sweep and the flags
_STD = 0.5


# ---------------------------------------------------------------- synthesis

def _check_missing_rate(rate):
    # written so that NaN fails the check
    if not 0.0 <= rate < 1.0:
        raise ValueError("missing rate must be in [0, 1)")


def _check_count(value, name):
    # SolverConfig's rule for max_iters: numpy integers pass, a float does not
    if not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _check_solver(name):
    if name not in SOLVERS:
        raise ValueError(f"unknown solver {name!r}, expected one of {', '.join(SOLVERS)}")


def synth_instance(shape, ranks, missing_rate, seed, std=_STD):
    """Random TR tensor and observation mask.

    Cores are i.i.d. N(0, std^2) from RNG stream [seed, 0]; the mask drops
    exactly floor(missing_rate * size) entries chosen without replacement
    from stream [seed, 1]. Returns (truth, mask).
    """
    shape = tuple(shape)
    ranks = TRRank(ranks).ranks
    if len(ranks) != len(shape):
        raise ValueError(f"rank vector of length {len(ranks)} does not match order {len(shape)}")
    if min(shape) < 1:
        raise ValueError(f"shape {shape} has an extent below 1")
    _check_missing_rate(missing_rate)
    _check_seed(seed)
    if not 0.0 < std < math.inf:
        raise ValueError("std must be positive and finite")
    n = len(shape)
    rng_cores = np.random.default_rng([seed, 0])
    cores = [
        rng_cores.normal(scale=std, size=(ranks[i], shape[i], ranks[(i + 1) % n]))
        for i in range(n)
    ]
    # a huge std overflows the reconstruction; that is reported below
    with np.errstate(over="ignore", invalid="ignore"):
        truth = reconstruct(cores)
    if not np.isfinite(truth).all():
        raise ValueError(f"std {std} gives a ground truth with non-finite entries")
    size = truth.size
    k = int(np.floor(missing_rate * size))
    flat = np.ones(size, dtype=bool)
    if k > 0:
        drop = np.random.default_rng([seed, 1]).choice(size, size=k, replace=False)
        flat[drop] = False
    mask = flat.reshape(shape, order="F")
    return truth, mask


# ------------------------------------------------------------------ helpers

def _solve(solver, observed, mask, cfg):
    # a solve that leaves the floats (a huge --lambda) ends in a
    # DivergenceError of its own; numpy's warnings on the way are not shown
    with np.errstate(all="ignore"):
        return SOLVERS[solver](observed, mask, cfg)


def _ints(text):
    return tuple(int(v) for v in text.split(","))


def _floats(text):
    return tuple(float(v) for v in text.split(","))


def _xjoin(values):
    return "x".join(str(v) for v in values)


def _write_csv(path, kind, header, rows):
    with open(path, "w", newline="") as f:
        f.write(f"# trtc-{kind} v1\n")
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


# ----------------------------------------------------------------- commands

def cmd_synth(args):
    truth, mask = synth_instance(args.shape, args.rank, args.missing_rate, args.seed, args.std)
    write_tensor(truth, f"{args.out}_truth.trtc")
    write_tensor(np.where(mask, truth, np.nan), f"{args.out}_observed.trtc")
    print(f"wrote {args.out}_truth.trtc and {args.out}_observed.trtc "
          f"({(~mask).sum()} of {truth.size} entries missing)")
    return 0


def cmd_complete(args):
    observed, mask = read_tensor(args.infile)
    truth = None
    if args.truth:
        # the truth only scores the final tensor, below; a truth that cannot
        # score it is rejected before the solve writes any file
        truth = _checked_truth(read_tensor(args.truth, require_complete=True)[0], mask)
    if args.reshape:
        new_shape = args.reshape
        if min(new_shape) < 1:
            raise SystemExit(f"reshape {new_shape} has an extent below 1")
        # exact: an int64 product of huge extents can wrap to the file's size
        entries = math.prod(new_shape)
        if entries != observed.size:
            raise SystemExit(f"reshape {new_shape} has {entries} entries, file has {observed.size}")
        observed = observed.reshape(new_shape, order="F")
        mask = mask.reshape(new_shape, order="F")
        if truth is not None:
            truth = truth.reshape(new_shape, order="F")

    cfg = SolverConfig(tr_rank=args.rank, lam=args.lam, tol=args.tol,
                       max_iters=args.max_iters, seed=args.seed)
    report = _solve(args.solver, observed, mask, cfg)
    write_tensor(report.final_x, f"{args.out}_completed.trtc")
    for k, core in enumerate(report.final_cores, start=1):
        write_tensor(core, f"{args.out}_core{k}.trtc")

    missing = ~mask
    rate = missing.sum() / mask.size
    rse_all = rse(report.final_x, truth, "all") if truth is not None else ""
    rse_missing = (
        rse(report.final_x, truth, "missing", mask)
        if truth is not None and missing.any() else ""
    )
    header = ["solver", "shape", "ranks", "missing_rate", "lambda", "iterations",
              "converged", "rse_all", "rse_missing", "wall_time_s"]
    row = [args.solver, _xjoin(observed.shape), _xjoin(args.rank), f"{rate:.6f}",
           args.lam, report.iterations, report.converged, rse_all, rse_missing,
           f"{report.wall_time:.3f}"]
    _write_csv(f"{args.out}.csv", "complete", header, [row])
    print(f"{args.solver}: {report.iterations} iterations, converged={report.converged}"
          + (f", rse_missing={rse_missing:.4e}" if rse_missing != "" else ""))
    return 0


def run_sweep(axis, grid, shape, gen_rank, missing_rate, lam, solver_names,
              repeats, seed, tol=SolverConfig.tol, max_iters=SolverConfig.max_iters, std=_STD):
    """One row per (grid point, solver): mean/std RSE over `repeats` runs.

    axis picks what the grid varies: the missing rate, a uniform solver
    rank, or lambda. RSE is taken on missing entries (on all entries when
    the instance has none).
    """
    # checked before the first solve
    if axis not in SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}, expected one of {', '.join(SWEEP_AXES)}")
    for solver in solver_names:
        _check_solver(solver)
    _check_count(repeats, "repeats")
    # every point's missing rate and solver configuration
    points = []
    for value in grid:
        # a float rank would be truncated
        if axis == "rank" and not float(value).is_integer():
            raise ValueError(f"rank grid value {value} is not an integer")
        rate = float(value) if axis == "missing-rate" else missing_rate
        _check_missing_rate(rate)
        solve_rank = (int(value),) * len(shape) if axis == "rank" else tuple(gen_rank)
        cfg = SolverConfig(tr_rank=solve_rank, lam=float(value) if axis == "lambda" else lam,
                           tol=tol, max_iters=max_iters, seed=seed)
        points.append((value, rate, solve_rank, cfg))
    rows = []
    for value, rate, solve_rank, cfg in points:
        for solver in solver_names:
            rses, iters, conv = [], [], 0
            for j in range(repeats):
                run_seed = seed + j
                truth, mask = synth_instance(shape, gen_rank, rate, run_seed, std)
                observed = np.where(mask, truth, np.nan)
                report = _solve(solver, observed, mask, dataclasses.replace(cfg, seed=run_seed))
                rses.append(rse(report.final_x, truth, "missing", mask))
                iters.append(report.iterations)
                conv += int(report.converged)
            rows.append([
                axis, value, solver, _xjoin(shape), _xjoin(gen_rank), _xjoin(solve_rank),
                rate, cfg.lam, repeats,
                statistics.fmean(rses),
                statistics.pstdev(rses),
                statistics.fmean(iters),
                conv,
            ])
    return rows


SWEEP_HEADER = ["axis", "value", "solver", "shape", "gen_rank", "solve_rank",
                "missing_rate", "lambda", "repeats", "rse_mean", "rse_std",
                "iterations_mean", "converged_runs"]


def cmd_sweep(args):
    solver_names = ["olrf", "llrf"] if args.solver == "both" else [args.solver]
    rows = run_sweep(
        args.axis, list(args.grid), args.shape, args.rank, args.missing_rate,
        args.lam, solver_names, args.repeats, args.seed,
        tol=args.tol, max_iters=args.max_iters, std=args.std,
    )
    _write_csv(args.out, "sweep", SWEEP_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def bench_point(extent, solver, cfg):
    """Median/mean seconds per iteration on one synthetic instance, half missing.

    The instance has cfg's rank, extent in every mode and cfg's seed. Runs
    cfg.max_iters iterations and drops the first (warm-up) before averaging.
    """
    ranks = cfg.tr_rank.ranks
    truth, mask = synth_instance((extent,) * len(ranks), ranks, 0.5, cfg.seed)
    observed = np.where(mask, truth, np.nan)
    report = _solve(solver, observed, mask, cfg)
    times = report.iter_times[1:] or report.iter_times
    return float(np.median(times)), float(np.mean(times))


def run_bench(orders, extent, rank, rank_grid, rank_axis_order, solver, iters, seed):
    # checked before the first solve: with no timed iteration the warm-up
    # would be timed instead
    _check_solver(solver)
    _check_count(iters, "iters")
    points = [("order", order, rank) for order in orders]
    points += [("rank", rank_axis_order, r) for r in rank_grid]
    # every point's configuration, checked before the first solve too
    configs = [SolverConfig(tr_rank=(r,) * order, tol=1e-12, max_iters=iters + 1, seed=seed)
               for _, order, r in points]
    rows = []
    for (axis, order, r), cfg in zip(points, configs):
        med, mean = bench_point(extent, solver, cfg)
        rows.append([axis, order, extent, r, solver, iters, med, mean])
    return rows


BENCH_HEADER = ["axis", "order", "extent", "rank", "solver", "timed_iters",
                "sec_per_iter_median", "sec_per_iter_mean"]


def cmd_bench(args):
    rows = run_bench(
        args.orders, args.extent, args.rank_fixed, args.rank_grid,
        args.order_fixed, args.solver, args.iters, args.seed,
    )
    _write_csv(args.out, "bench", BENCH_HEADER, rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


# -------------------------------------------------------------------- main

def build_parser():
    p = argparse.ArgumentParser(prog="trtc", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic instance")
    ps.add_argument("--shape", type=_ints, required=True, help="e.g. 10,10,10,10")
    ps.add_argument("--rank", type=_ints, required=True, help="TR-rank, e.g. 4,5,4,5")
    ps.add_argument("--missing-rate", type=float, default=0.5)
    ps.add_argument("--std", type=float, default=_STD)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", required=True, help="output path prefix")
    ps.set_defaults(func=cmd_synth)

    pc = sub.add_parser("complete", help="complete one observed tensor file")
    pc.add_argument("--in", dest="infile", required=True, help="observed .trtc file")
    pc.add_argument("--truth", help="ground-truth .trtc file for RSE reporting")
    pc.add_argument("--reshape", type=_ints, help="reshape extents before solving")
    pc.add_argument("--rank", type=_ints, required=True)
    pc.add_argument("--solver", choices=sorted(SOLVERS), default="olrf")
    pc.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    pc.add_argument("--tol", type=float, default=SolverConfig.tol)
    pc.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out", required=True, help="output path prefix")
    pc.set_defaults(func=cmd_complete)

    pw = sub.add_parser("sweep", help="grid of repeated synthetic completions")
    pw.add_argument("--axis", choices=SWEEP_AXES, required=True)
    pw.add_argument("--grid", type=_floats, required=True, help="e.g. 0.1,0.3,0.5")
    pw.add_argument("--shape", type=_ints, required=True)
    pw.add_argument("--rank", type=_ints, required=True, help="generator TR-rank")
    pw.add_argument("--missing-rate", type=float, default=0.5)
    pw.add_argument("--std", type=float, default=_STD)
    pw.add_argument("--solver", choices=sorted(SOLVERS) + ["both"], default="both")
    pw.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam)
    pw.add_argument("--tol", type=float, default=SolverConfig.tol)
    pw.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    pw.add_argument("--repeats", type=int, default=10)
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--out", required=True, help="output CSV path")
    pw.set_defaults(func=cmd_sweep)

    pb = sub.add_parser("bench", help="per-iteration timing across order and rank")
    pb.add_argument("--orders", type=_ints, default=(3, 4, 5, 6, 7, 8))
    pb.add_argument("--extent", type=int, default=6)
    pb.add_argument("--rank-fixed", type=int, default=3, help="rank for the order axis")
    pb.add_argument("--rank-grid", type=_ints, default=(2, 3, 4, 5))
    pb.add_argument("--order-fixed", type=int, default=4, help="order for the rank axis")
    pb.add_argument("--solver", choices=sorted(SOLVERS), default="olrf")
    pb.add_argument("--iters", type=int, default=5)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", required=True, help="output CSV path")
    pb.set_defaults(func=cmd_bench)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # every subcommand writes under --out: its directory is checked before any work
        if not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ValueError(f"the directory of --out {args.out} does not exist")
        return args.func(args)
    except (OSError, ValueError, TensorFileError, DivergenceError) as e:
        raise SystemExit(str(e)) from e
    except MemoryError as e:
        raise SystemExit(f"out of memory: {e}") from e


if __name__ == "__main__":
    sys.exit(main())
