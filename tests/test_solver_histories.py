"""Differential check of the solver loop against recorded iteration histories.

`solver_histories.json` holds the first 20 iterations of both solvers on the
criterion-5 instance (10x10x10x10, rank 4,5,4,5, 50% missing, seed 0),
recorded from the loop before it was rewritten as one loop over a
model strategy. `solver_histories_ends.json` holds the same histories on an
order-2 and an order-3 instance, where the two ends of the ring meet,
recorded before the ends were contracted against the (N-2)-core chains.
`solver_histories_long.json` holds them on an order-6 instance, the first
whose chains take more than one merge, recorded before the sweep's sides
were built by ring.sweep. `solver_histories_order8.json` holds every
iteration of whole solves to tol on dense-order8's instance (6^8, rank 3,
50% missing), the first whose reconstruction takes more than one column
range, recorded before data_sweep formed its first gemm transposed and laid
out its last prefix for the refill. Its bits depend on the BLAS thread
count (README, "Determinism"), so it is recorded at one OpenBLAS thread and
checked by tests/test_solvers.py, whose order-8 solves run in a fresh
interpreter at that count. JSON numbers are written with
`repr`, so every float round trips exactly.
The first three files also hold an `rse_history` per solve, from when the solvers
scored every iteration against a truth; the solvers take no truth, so those
arrays are kept as recorded and are not read. To record a file again from
a given checkout (which writes the three histories the report still has):

    PYTHONPATH=src python tests/test_solver_histories.py criterion5
    PYTHONPATH=src python tests/test_solver_histories.py ends
    PYTHONPATH=src python tests/test_solver_histories.py long
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_solver_histories.py order8

TO_TOL holds the iteration count and the RSE on the missing entries of
whole solves to tol on the over-rank instance of criterion 7, where 20
recorded iterations end too early to show a drift that adds up over a
thousand. It was recorded before svt thresholded through the
eigendecomposition of each unfolding's Gram instead of its SVD.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from trtc import SolverConfig, rse, solve_olrf, solve_llrf
from trtc.cli import synth_instance

FIXTURE = Path(__file__).with_name("solver_histories.json")
ENDS_FIXTURE = Path(__file__).with_name("solver_histories_ends.json")
LONG_FIXTURE = Path(__file__).with_name("solver_histories_long.json")
ORDER8_FIXTURE = Path(__file__).with_name("solver_histories_order8.json")
SOLVERS = {"olrf": solve_olrf, "llrf": solve_llrf}
HISTORIES = ("rel_change_history", "consistency_history", "mu_history")
ITERS = 20
# (shape, rank, missing rate, std) per instance, all with seed 0
CRITERION5 = ((10, 10, 10, 10), (4, 5, 4, 5), 0.5, 0.5)
ENDS = {
    "order2": ((5, 6), (2, 2), 0.3, 0.5),
    "order3": ((5, 6, 4), (2, 3, 2), 0.3, 0.5),
}
LONG = {"order6": ((3, 2, 3, 2, 3, 2), (2,) * 6, 0.5, 1.0)}
# solved to tol (21 iterations) at the benchmark's iteration limit
ORDER8 = ((6,) * 8, (3,) * 8, 0.5, 0.5)
ORDER8_ITERS = 500
# solved at rank 6, above the generator's rank, so every SVT truncates:
# (iterations, rse_missing) at the default tol
OVERRANK = ((10, 10, 10, 10), (4, 5, 4, 5), 0.7, 0.5)
TO_TOL = {"olrf": (1220, 0.0046878406555043856), "llrf": (581, 0.0018342989972203883)}


def _run(name, instance=CRITERION5, max_iters=ITERS):
    shape, rank, missing_rate, std = instance
    truth, mask = synth_instance(shape, rank, missing_rate, 0, std=std)
    obs = np.where(mask, truth, np.nan)
    cfg = SolverConfig(tr_rank=rank, seed=0, max_iters=max_iters)
    rep = SOLVERS[name](obs, mask, cfg)
    return {h: [float(v) for v in getattr(rep, h)] for h in HISTORIES}


def _check(now, recorded):
    for h in HISTORIES:
        assert len(now[h]) == len(recorded[h]) == ITERS, h
        np.testing.assert_allclose(now[h], recorded[h], rtol=1e-10, atol=0, err_msg=h)


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_histories_match_recorded_loop(name):
    _check(_run(name), json.loads(FIXTURE.read_text())[name])


@pytest.mark.parametrize("instance", sorted(ENDS))
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_ring_end_histories_match_recorded_loop(name, instance):
    _check(_run(name, ENDS[instance]), json.loads(ENDS_FIXTURE.read_text())[instance][name])


@pytest.mark.parametrize("instance", sorted(LONG))
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_long_ring_histories_match_recorded_loop(name, instance):
    _check(_run(name, LONG[instance]), json.loads(LONG_FIXTURE.read_text())[instance][name])


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_overrank_solve_to_tol_matches_recorded_loop(name):
    shape, rank, missing_rate, std = OVERRANK
    truth, mask = synth_instance(shape, rank, missing_rate, 0, std=std)
    cfg = SolverConfig(tr_rank=(6,) * 4, seed=0, max_iters=4000)
    rep = SOLVERS[name](np.where(mask, truth, np.nan), mask, cfg)
    iters, want = TO_TOL[name]
    assert rep.converged and rep.iterations == iters
    np.testing.assert_allclose(rse(rep.final_x, truth, "missing", mask), want, rtol=1e-9, atol=0)


if __name__ == "__main__":
    if sys.argv[1:] == ["criterion5"]:
        record = {name: _run(name) for name in sorted(SOLVERS)}
        FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    elif sys.argv[1:] == ["ends"]:
        record = {k: {name: _run(name, ENDS[k]) for name in sorted(SOLVERS)} for k in sorted(ENDS)}
        ENDS_FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    elif sys.argv[1:] == ["long"]:
        record = {k: {name: _run(name, LONG[k]) for name in sorted(SOLVERS)} for k in sorted(LONG)}
        LONG_FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    elif sys.argv[1:] == ["order8"]:
        record = {name: _run(name, ORDER8, ORDER8_ITERS) for name in sorted(SOLVERS)}
        ORDER8_FIXTURE.write_text(json.dumps(record, indent=1) + "\n")
    else:
        sys.exit("usage: test_solver_histories.py criterion5|ends|long|order8")
