"""Test configuration: a fixed hypothesis profile and the fixtures the suites share.

The profile derandomizes the property tests, keeps no example database and
drops the per-example deadline, which a loaded machine can miss.
Hypothesis also caches the constants it finds in local source files; that
cache goes to the temporary directory, so no `.hypothesis/` directory is
written into the tree.

`order4` builds each instance of the order-4 protocol family and solves each
of its keys once per session, `spy` records the calls of a patched
attribute, and `tracer_wrapped` reads the benchmark tracer's table.
"""

import ast
import functools
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from trtc import SolverConfig
from trtc.cli import synth_instance
from trtc.solvers import _solve

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # tests/test_properties.py skips itself without hypothesis
    pass
else:
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "trtc-hypothesis")
    settings.register_profile("trtc", derandomize=True, database=None, deadline=None)
    settings.load_profile("trtc")


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


class Order4:
    """The 10x10x10x10 instances of criteria 5, 7 and 8, each built and each key solved once.

    An instance is `synth_instance((10,) * 4, (4, 5, 4, 5), missing_rate,
    seed, std=0.5)`. A key is (model, missing rate, instance seed, TR-rank,
    lam, max_iters), all passed by position and solved at the default tol
    with the solver seed equal to the instance seed. Every array handed out
    is read-only, so no test can change what another reads.
    """

    @functools.cache
    def instance(self, missing_rate, seed):
        """(truth, mask, observed), the observed tensor NaN off the mask."""
        truth, mask = synth_instance((10,) * 4, (4, 5, 4, 5), missing_rate, seed, std=0.5)
        return _read_only(truth, mask, np.where(mask, truth, np.nan))

    @functools.cache
    def solve(self, model, missing_rate, seed, tr_rank, lam, max_iters):
        """(truth, mask, report) of one key."""
        truth, mask, observed = self.instance(missing_rate, seed)
        cfg = SolverConfig(tr_rank=tr_rank, lam=lam, max_iters=max_iters, seed=seed)
        report = _solve(model, observed, mask, cfg)
        _read_only(report.final_x, *report.final_cores.cores)
        return truth, mask, report


@pytest.fixture(scope="session")
def order4():
    return Order4()


def _recorded(fn, calls):
    def wrapped(*args, **kwargs):
        call = SimpleNamespace(args=args, kwargs=kwargs, result=None)
        calls.append(call)
        call.result = fn(*args, **kwargs)
        return call.result
    return wrapped


@pytest.fixture
def spy(monkeypatch):
    """`spy(targets, name)` wraps `name` on one target or a tuple of them and returns the record.

    The record is one list of calls, each with its `args`, `kwargs` and
    `result`, in call order over every target. A call is recorded when it
    starts, so one that raises is recorded too, with no result.
    """
    def patch(targets, name):
        calls = []
        for target in targets if isinstance(targets, tuple) else (targets,):
            monkeypatch.setattr(target, name, _recorded(getattr(target, name), calls))
        return calls
    return patch


@pytest.fixture(scope="session")
def tracer_wrapped():
    """The (module, attribute) pairs the benchmark's tracer rebinds: perfbench/tracing.py's WRAPPED."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets))
    return {(entry.elts[0].value, entry.elts[1].value) for entry in table.elts}
