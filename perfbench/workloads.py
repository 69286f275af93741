"""The benchmark's workloads: instances, the solves run on them, and their checks.

Each workload is one synthetic tensor-ring instance and the solves run on it.
The instance comes from `instance_seed` (default 0, the fixture the workload
was chosen on). The run seed only relabels the indices of the first mode of
that instance: the solver never reads the initial value of core 1 (it is the
first thing overwritten), so the relabelled problem follows the permuted
iterates of the fixture. Iteration counts repeat exactly across run seeds and
RSE agrees to about 1e-12, while the memory placement of every entry changes.
A different `instance_seed` is a different problem, for checking a claim on
data not used while it was written.
"""

import contextlib
import csv
import io
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import trtc.cli
import trtc.io
import trtc.solvers


@dataclass(frozen=True)
class Solve:
    solver: str
    rank: tuple
    max_iters: int
    solver_seed: Optional[int]  # None: use the instance seed
    reshape: Optional[tuple] = None  # CLI workloads: --reshape extents


@dataclass(frozen=True)
class Workload:
    name: str
    gen_shape: tuple  # shape the instance is generated at
    gen_rank: tuple
    missing_rate: float
    solves: tuple
    rse_limit: float
    file_shape: Optional[tuple] = None  # set for workloads that go through the CLI

    @property
    def via_cli(self):
        return self.file_shape is not None


WORKLOADS = {
    # criterion-7 instance: solver rank above the generator rank, so SVT
    # truncates; thousands of cheap iterations on 10^4 entries
    "small-overrank": Workload(
        "small-overrank", (10, 10, 10, 10), (4, 5, 4, 5), 0.7,
        (Solve("olrf", (6, 6, 6, 6), 4000, None), Solve("llrf", (6, 6, 6, 6), 4000, None)),
        rse_limit=1e-2,
    ),
    # few iterations over subchains with 6^7 merged indices
    "dense-order8": Workload(
        "dense-order8", (6,) * 8, (3,) * 8, 0.5,
        (Solve("olrf", (3,) * 8, 500, None), Solve("llrf", (3,) * 8, 500, None)),
        rse_limit=1e-2,
    ),
    # criterion-10 reshape fixture through `trtc complete`: llrf on a ring of
    # seven small cores; olrf on the file's own order-3 shape, because at
    # order 7 it needs about 23 s per solve
    "reshape-cli": Workload(
        "reshape-cli", (5, 8, 5, 8, 4, 2, 2), (3,) * 7, 0.7,
        (Solve("llrf", (3,) * 7, 5000, 2, reshape=(5, 8, 5, 8, 4, 2, 2)),
         Solve("olrf", (3, 3, 3), 5000, 2)),
        rse_limit=0.2, file_shape=(40, 40, 16),
    ),
}

# 4x4x4-sized stand-ins that run the same code paths, for the smoke test
TINY = {
    "small-overrank": Workload(
        "small-overrank", (4, 4, 4), (2, 2, 2), 0.3,
        (Solve("olrf", (3, 3, 3), 2000, None), Solve("llrf", (3, 3, 3), 2000, None)),
        rse_limit=1e-2,
    ),
    "dense-order8": Workload(
        "dense-order8", (4, 4, 4), (2, 2, 2), 0.3,
        (Solve("olrf", (2, 2, 2), 2000, None), Solve("llrf", (2, 2, 2), 2000, None)),
        rse_limit=1e-2,
    ),
    "reshape-cli": Workload(
        "reshape-cli", (2, 2, 4, 4), (2, 2, 2, 2), 0.3,
        (Solve("llrf", (2, 2, 2, 2), 2000, 2, reshape=(2, 2, 4, 4)),
         Solve("olrf", (2, 2, 2), 2000, 2)),
        rse_limit=0.2, file_shape=(4, 4, 4),
    ),
}


@dataclass
class Inputs:
    truth: np.ndarray  # at the shape the solves see (file shape for CLI workloads)
    mask: np.ndarray
    workdir: Optional[Path] = None


def setup(wl, run_seed, instance_seed, workdir):
    """Make the workload's inputs; CLI workloads also write them as .trtc files."""
    truth, mask = trtc.cli.synth_instance(wl.gen_shape, wl.gen_rank, wl.missing_rate,
                                          instance_seed, std=0.5)
    perm = np.random.default_rng([run_seed, 7]).permutation(wl.gen_shape[0])
    truth, mask = truth[perm], mask[perm]
    if not wl.via_cli:
        return Inputs(truth, mask)
    truth = truth.reshape(wl.file_shape, order="F")
    mask = mask.reshape(wl.file_shape, order="F")
    workdir.mkdir(parents=True, exist_ok=True)
    trtc.io.write_tensor(truth, workdir / "truth.trtc")
    trtc.io.write_tensor(np.where(mask, truth, np.nan), workdir / "observed.trtc")
    return Inputs(truth, mask, workdir)


def rse_missing(x, truth, mask):
    miss = ~mask
    return float(np.linalg.norm((x - truth)[miss]) / np.linalg.norm(truth[miss]))


def _solve_direct(spec, inputs, instance_seed, call):
    seed = instance_seed if spec.solver_seed is None else spec.solver_seed
    cfg = trtc.solvers.SolverConfig(tr_rank=spec.rank, max_iters=spec.max_iters, seed=seed)
    fn = getattr(trtc.solvers, f"solve_{spec.solver}")
    observed = np.where(inputs.mask, inputs.truth, np.nan)
    t0 = time.perf_counter()
    report = call("solvers.loop", fn, observed, inputs.mask, cfg)
    elapsed = time.perf_counter() - t0
    return elapsed, report.final_x, report.iterations, report.converged


def _solve_cli(spec, inputs, instance_seed, call):
    out = inputs.workdir / spec.solver
    for stale in inputs.workdir.glob(f"{spec.solver}*"):
        stale.unlink()
    argv = ["complete", "--in", str(inputs.workdir / "observed.trtc"),
            "--truth", str(inputs.workdir / "truth.trtc"),
            "--rank", ",".join(map(str, spec.rank)), "--solver", spec.solver,
            "--max-iters", str(spec.max_iters), "--seed", str(spec.solver_seed),
            "--out", str(out)]
    if spec.reshape:
        argv += ["--reshape", ",".join(map(str, spec.reshape))]
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        status = call("cli.complete", trtc.cli.main, argv)
        elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"trtc complete exited with status {status}")
    # `complete` writes the completed tensor at the extents it solved at
    x, _ = trtc.io.read_tensor(f"{out}_completed.trtc")
    solved_shape = spec.reshape or inputs.truth.shape
    if x.shape != solved_shape:
        raise ValueError(f"completed tensor has shape {x.shape}, expected {solved_shape}")
    x = x.reshape(inputs.truth.shape, order="F")
    with open(f"{out}.csv", newline="") as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    if len(rows) != 1:
        raise ValueError(f"report CSV has {len(rows)} rows, expected 1")
    return elapsed, x, int(rows[0]["iterations"]), rows[0]["converged"] == "True"


def run_solve(wl, spec, inputs, instance_seed, tracer=None):
    """One timed solve and its checks.

    A solve fails if it raises, does not converge, returns a non-finite
    tensor, or misses the workload's RSE limit; a failure is recorded, never
    raised. With a tracer, the solve runs under it and its spans are kept.
    """
    call = tracer.call if tracer else (lambda _name, fn, *a: fn(*a))
    rec = {"solver": spec.solver, "traced": tracer is not None, "time_s": None,
           "iters": None, "rse_missing": None, "ok": False, "error": None}
    t0 = time.perf_counter()
    try:
        solve = _solve_cli if wl.via_cli else _solve_direct
        elapsed, x, iters, converged = solve(spec, inputs, instance_seed, call)
    except (Exception, SystemExit):
        rec["time_s"] = time.perf_counter() - t0
        rec["error"] = traceback.format_exc()
        return rec
    rec.update(time_s=elapsed, iters=iters)
    if not np.isfinite(x).all():
        rec["error"] = "final tensor is not finite"
        return rec
    rec["rse_missing"] = rse_missing(x, inputs.truth, inputs.mask)
    if not converged:
        rec["error"] = f"no convergence in {iters} iterations"
    elif not rec["rse_missing"] < wl.rse_limit:
        rec["error"] = f"rse_missing {rec['rse_missing']:.3e} above {wl.rse_limit}"
    else:
        rec["ok"] = True
    return rec
