"""Smoke test of the benchmark itself, on 4x4x4-sized stand-in instances.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload's code path through `run.py --tiny`, untraced and traced,
and checks the result line against BENCHMARK.json: every metric is emitted
with its unit, the failure counts add up, and the traced self times of each
solve sum to no more than the solve's time. It also checks that the tracer
puts every wrapped attribute back and reports a missing one as absent.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import trtc.cli  # noqa: E402
import trtc.prox  # noqa: E402
import trtc.solvers  # noqa: E402
import tracing  # noqa: E402
from trtc.solvers import SolverConfig  # noqa: E402


def _run(workload, trace, seed=1):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_has_every_metric(workload, trace):
    report, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == len(report["solves"]) >= 2
    assert 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0 and report["repeatable"])
    assert report["fail_rate"] == result["failed"] / result["attempted"]
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for solve in report["solves"]:
        if solve["traced"]:
            assert 0.0 <= solve["span_self_s"] <= solve["time_s"]
            assert solve["layers"]["solvers.loop.self_s"] >= 0.0


def test_same_seed_same_inputs():
    a, _ = _run("small-overrank", 0, seed=5)
    b, _ = _run("small-overrank", 0, seed=5)
    assert [(s["iters"], s["rse_missing"]) for s in a["solves"]][:2] == \
        [(s["iters"], s["rse_missing"]) for s in b["solves"]][:2]


def _wrapped_now():
    return {(mod, attr): getattr(sys.modules[mod], attr)
            for mod, attr, _, _ in tracing.WRAPPED} | dict(
        (("trtc.cli.SOLVERS", k), v) for k, v in trtc.cli.SOLVERS.items())


def _tiny_solve():
    truth, mask = trtc.cli.synth_instance((4, 4, 4), (2, 2, 2), 0.3, 0)
    cfg = SolverConfig(tr_rank=(2, 2, 2), max_iters=20)
    return trtc.solvers.solve_llrf(np.where(mask, truth, np.nan), mask, cfg)


def test_tracer_restores_every_attribute():
    before = _wrapped_now()
    with tracing.Tracer() as tr:
        assert all(before[k] is not v for k, v in _wrapped_now().items())
        report = tr.call("solvers.loop", _tiny_solve)
    assert _wrapped_now() == before
    assert tr.absent == []
    assert tr.tallies["prox.core_update"].calls == 3 * report.iterations
    assert tr.total_self_s() <= report.wall_time + tr.tallies["solvers.loop"].self_s


def test_missing_name_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(trtc.prox, "subchain_gram")
    with tracing.Tracer() as tr:
        pass
    assert tr.absent == ["trtc.prox.subchain_gram"]
    assert tracing.layer_values(tr)["ring.subchain_gram.calls"] == 0
