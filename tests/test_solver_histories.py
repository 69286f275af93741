"""Differential check of the solver loop against recorded iteration histories.

`solver_histories.json` holds the first 20 iterations of both solvers on the
criterion-5 instance (10x10x10x10, rank 4,5,4,5, 50% missing, seed 0, truth
passed), recorded from the loop before it was rewritten as one loop over a
model strategy. JSON numbers are written with `repr`, so every float round
trips exactly. To record the file again from a given checkout:

    PYTHONPATH=src python tests/test_solver_histories.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from trtc import SolverConfig, solve_olrf, solve_llrf
from trtc.cli import synth_instance

FIXTURE = Path(__file__).with_name("solver_histories.json")
SOLVERS = {"olrf": solve_olrf, "llrf": solve_llrf}
HISTORIES = ("rel_change_history", "consistency_history", "mu_history", "rse_history")
ITERS = 20


def _run(name):
    truth, mask = synth_instance((10, 10, 10, 10), (4, 5, 4, 5), 0.5, 0, std=0.5)
    obs = np.where(mask, truth, np.nan)
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), seed=0, max_iters=ITERS)
    rep = SOLVERS[name](obs, mask, cfg, truth=truth)
    return {h: [float(v) for v in getattr(rep, h)] for h in HISTORIES}


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_histories_match_recorded_loop(name):
    recorded = json.loads(FIXTURE.read_text())[name]
    now = _run(name)
    for h in HISTORIES:
        assert len(now[h]) == len(recorded[h]) == ITERS, h
        np.testing.assert_allclose(now[h], recorded[h], rtol=1e-10, atol=0, err_msg=h)


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({name: _run(name) for name in sorted(SOLVERS)}, indent=1) + "\n")
