#!/usr/bin/env python3
"""trtc benchmark: time to tolerance of the OLRF and LLRF solvers on fixed workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

One run measures one workload in this process, for about S seconds: it
repeats every solve of the workload, alternating their order, and reports
medians. The last line of standard output is the result, a JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`; the line before it
is a report with provenance and every solve. `--trace 0` reports the
end-to-end metrics; `--trace 1` alternates untraced and traced solves and
reports the per-layer metrics. `--workload all` runs every workload, each in
a fresh process, and prints one table. See perfbench/README.md.

The program is the source tree next to this directory (`src/trtc`); without
it the benchmark exits with status 2 and prints no result.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, help="workload name, or 'all'")
    p.add_argument("--seed", type=int, default=0,
                   help="run seed: relabels the first mode of the instance")
    p.add_argument("--instance-seed", type=int, default=0,
                   help="seed of the synthetic instance itself (default 0, the fixture)")
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="4x4x4-sized stand-in instances (smoke test)")
    p.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# ---------------------------------------------------------------- provenance

def provenance():
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "trtc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        sha = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# --------------------------------------------------------------- one workload

def probe_setup(args, workdir):
    """Seconds from spawning a fresh process to its inputs being ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--instance-seed", str(args.instance_seed),
           "--setup-probe", str(workdir)] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    # perf_counter is CLOCK_MONOTONIC, shared by every process on the machine
    return float(done.stdout.split()[-1]) - t0


def measure(wl, inputs, args):
    """Repeat every solve until the time is up; each solve runs at least once."""
    import workloads
    from tracing import Tracer, layer_values

    schedule = [(spec, traced) for spec in wl.solves
                for traced in ((False, True) if args.trace else (False,))]
    last = {}  # schedule index -> duration of its latest solve
    records = []
    deadline = time.perf_counter() + args.seconds
    for rnd in itertools.count():
        for j in [(rnd + i) % len(schedule) for i in range(len(schedule))]:
            if j in last and time.perf_counter() + last[j] > deadline:
                return records
            spec, traced = schedule[j]
            if traced:
                with Tracer() as tracer:
                    rec = workloads.run_solve(wl, spec, inputs, args.instance_seed, tracer)
                rec["layers"] = layer_values(tracer)
                rec["span_self_s"] = tracer.total_self_s()
                rec["absent"] = tracer.absent
            else:
                rec = workloads.run_solve(wl, spec, inputs, args.instance_seed)
            if rec["error"]:
                print(f"{wl.name} {spec.solver}: {rec['error']}", file=sys.stderr)
            records.append(rec)
            last[j] = rec["time_s"]


def consistent(records):
    """Every solve of one solver on one input gives the same result."""
    iters = {r["iters"] for r in records}
    rses = [r["rse_missing"] for r in records if r["rse_missing"] is not None]
    return len(iters) == 1 and (not rses or max(rses) - min(rses) <= 1e-9 * max(rses))


def e2e_metrics(wl, records, setup_s):
    """End-to-end metrics of the untraced solves, as {name: (value, unit)}."""
    metrics = {}
    for spec in wl.solves:
        s = spec.solver
        recs = [r for r in records if r["solver"] == s and not r["traced"]]
        metrics[f"{s}.time_to_tol_s"] = (median(r["time_s"] for r in recs), "s")
        metrics[f"{s}.iters"] = (median(r["iters"] for r in recs), "count")
        metrics[f"{s}.rse_missing"] = (median(r["rse_missing"] for r in recs), "ratio")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def layer_metrics(wl, records, synth_s):
    """Per-layer metrics, medians over the traced solves, as {name: (value, unit)}."""
    from tracing import LAYER_METRICS, UNITS

    metrics = {}
    for spec in wl.solves:
        s = spec.solver
        traced = [r for r in records if r["solver"] == s and r["traced"]]
        plain = [r for r in records if r["solver"] == s and not r["traced"]]
        for name, suffixes in LAYER_METRICS:
            for suffix in suffixes:
                key = f"{name}.{suffix}"
                metrics[f"{s}.{key}"] = (median(r["layers"][key] for r in traced), UNITS[suffix])
        per_iter = median(1e3 * r["time_s"] / r["iters"] for r in plain if r["iters"])
        metrics[f"{s}.solvers.ms_per_iter"] = (per_iter, "ms")
        overhead = median(r["time_s"] for r in traced) / median(r["time_s"] for r in plain) - 1.0
        metrics[f"{s}.trace.overhead_pct"] = (100.0 * overhead, "%")
    metrics["cli.synth_instance.self_s"] = (synth_s, "s")
    return metrics


def run_workload(args):
    import workloads
    from tracing import Tracer

    table = workloads.TINY if args.tiny else workloads.WORKLOADS
    if args.workload not in table:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(table)}", file=sys.stderr)
        return 2
    wl = table[args.workload]
    if args.setup_probe:
        workloads.setup(wl, args.seed, args.instance_seed, args.setup_probe)
        print(repr(time.perf_counter()))
        return 0

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        setup_s = None if args.trace else median(
            probe_setup(args, workdir / f"probe{k}") for k in range(SETUP_PROBES))
        with Tracer() as setup_tracer:
            inputs = workloads.setup(wl, args.seed, args.instance_seed, workdir / "inputs")
        synth = setup_tracer.tallies.get("cli.synth_instance")
        records = measure(wl, inputs, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    if args.trace:
        metrics = layer_metrics(wl, records, synth.self_s if synth else 0.0)
    else:
        metrics = e2e_metrics(wl, records, setup_s)
    failed = sum(not r["ok"] for r in records)
    same = all(consistent([r for r in records if r["solver"] == spec.solver])
               for spec in wl.solves)
    report = {
        "workload": wl.name, "seed": args.seed, "instance_seed": args.instance_seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "provenance": provenance(),
        "fail_rate": failed / len(records),
        "repeatable": same,
        "solves": [{k: v for k, v in r.items() if k != "error"}
                   | {"error": r["error"].strip().splitlines()[-1] if r["error"] else None}
                   for r in records],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and same,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


# -------------------------------------------------------------- all workloads

def run_all(args):
    import workloads

    names = list(workloads.WORKLOADS)
    status = 0
    print(f"{'workload':<16} {'metric':<42} {'value':>14}  unit")
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--instance-seed", str(args.instance_seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name:<16} run failed (exit {done.returncode})\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("fail_rate", report["fail_rate"], "ratio"))
        for key, value, unit in rows:
            shown = "-" if value is None else f"{value:.6g}"
            print(f"{name:<16} {key:<42} {shown:>14}  {unit}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "trtc" / "__init__.py").is_file():
        print(f"no trtc source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import trtc

    if Path(trtc.__file__).resolve().parent != SRC / "trtc":
        print(f"imported trtc from {trtc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
