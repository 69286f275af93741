"""The solver loop against a plain reference loop built from the public checked kernels.

The reference is the paper's ADMM iteration written once, plainly: each
core update is the checked core_update_olrf/llrf without a sweep's sides
(the dense subchain and its Gram), each core's three unfoldings are
thresholded one core at a time, the missing entries are refilled through
the boolean mask from reconstruct, and mu follows the solvers' schedule.
It has no shape groups, no data sweep, no slot map and no transfer
matrices, so it pins the method, where the JSON history fixtures pin past
loops.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from trtc.cli import synth_instance  # noqa: E402
from trtc.prox import core_update_llrf, core_update_olrf, svt  # noqa: E402
from trtc.ring import reconstruct  # noqa: E402
from trtc.solvers import _COLLAPSE, _MU0, _MU_MAX, _RHO, SolverConfig, _solve  # noqa: E402
from trtc.tensors import gamma_fold, gamma_unfold  # noqa: E402


def reference(name, observed, mask, cfg):
    """(rel_change history, consistency history, stop reason, x) of a plain ADMM loop."""
    ranks, shape = cfg.tr_rank.ranks, observed.shape
    order, olrf = len(shape), name == "olrf"
    rng = np.random.default_rng(cfg.seed)
    cores = [rng.standard_normal((ranks[n], shape[n], ranks[(n + 1) % order])) for n in range(order)]
    aux = [np.zeros((3,) + c.shape) for c in cores]
    duals = [np.zeros((3 if olrf else 1,) + c.shape) for c in cores]
    x = np.where(mask, observed, 0.0)
    obs_norm = np.linalg.norm(x)
    mu, rels, cons, stop = _MU0, [], [], "max_iters"
    for _ in range(cfg.max_iters):
        for n in range(1, order + 1):
            if olrf:
                cores[n - 1] = core_update_olrf(x, cores, aux[n - 1], duals[n - 1], n, cfg.lam, mu)
            else:
                cores[n - 1] = core_update_llrf(x, cores, aux[n - 1], duals[n - 1][0], n, cfg.lam, mu)
        worst = 0.0
        for g, a, y in zip(cores, aux, duals):
            shift = g - y / mu
            for i in range(3):
                target = shift[i] if olrf else shift[0] - sum(a[j] for j in range(3) if j != i)
                a[i] = gamma_fold(svt(gamma_unfold(target, i + 1), 1.0 / mu).matrix, i + 1, g.shape)
            res = a - g if olrf else (sum(a) - g)[None]
            y += mu * res
            norm = np.linalg.norm(g)
            worst = max(worst, max(np.linalg.norm(r) for r in res) / (norm if norm else 1.0))
        z = reconstruct(cores)
        rels.append(float(np.linalg.norm((z - x)[~mask]) / obs_norm))
        cons.append(worst)
        x = np.where(mask, x, z)
        mu = min(_RHO * mu, _MU_MAX)
        if rels[-1] < cfg.tol:
            stop = "tol" if np.linalg.norm(z) > _COLLAPSE * obs_norm else "collapsed"
            break
    return rels, cons, stop, x


@st.composite
def instances(draw):
    # the truth's cores are drawn at the scale of the solver's initial
    # cores, N(0, 1), so that most instances run all 20 iterations; others
    # collapse at the start (see ROADMAP) or stop early
    order = draw(st.integers(2, 6))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=order, max_size=order)))
    ranks = st.lists(st.integers(1, 3), min_size=order, max_size=order)
    missing = draw(st.floats(0.0, 0.9))
    truth, mask = synth_instance(shape, draw(ranks), missing, draw(st.integers(0, 2**16)), std=1.0)
    return truth, mask, tuple(draw(ranks)), draw(st.sampled_from(["olrf", "llrf"]))


def steady(a, b):
    # how many leading entries of two histories agree to 1e-12
    k = min(len(a), len(b))
    apart = ~np.isclose(a[:k], b[:k], rtol=1e-12, atol=0)
    return int(np.argmax(apart)) if apart.any() else k


@settings(max_examples=60)
@given(instances())
def test_loop_follows_the_reference_for_20_iterations(instance):
    truth, mask, ranks, name = instance
    observed = np.where(mask, truth, np.nan)
    cfg = SolverConfig(tr_rank=ranks, max_iters=20, seed=1)
    rep = _solve(name, observed, mask, cfg)
    rels, cons, stop, _ = reference(name, observed, mask, cfg)
    # some drawn rings amplify a rounding error by up to 1e4 per iteration,
    # and then the reference parts from itself as far as from the loop: run
    # again on the observed entries moved by one rounding error, it bounds
    # the iterations that can be compared, and whether the stop can be
    rels2, cons2, stop2, _ = reference(name, observed * (1 + 2**-50), mask, cfg)
    k = min(steady(rels, rels2), steady(cons, cons2))
    if k == len(rels) == len(rels2) and stop == stop2:
        assert (rep.stop_reason, rep.iterations) == (stop, k)
    np.testing.assert_allclose(rep.rel_change_history[:k], rels[:k], rtol=1e-10, atol=0)
    np.testing.assert_allclose(rep.consistency_history[:k], cons[:k], rtol=1e-10, atol=0)


@pytest.mark.parametrize("name,iters", [("olrf", 1220), ("llrf", 581)])
def test_loop_reaches_tol_with_the_reference(name, iters):
    # criterion 7's over-rank instance: uniform rank 6 against rank (4, 5, 4, 5)
    truth, mask = synth_instance((10, 10, 10, 10), (4, 5, 4, 5), 0.7, 0, std=0.5)
    observed = np.where(mask, truth, np.nan)
    cfg = SolverConfig(tr_rank=(6,) * 4, max_iters=4000, seed=0)
    rep = _solve(name, observed, mask, cfg)
    rels, _, stop, x = reference(name, observed, mask, cfg)
    assert (rep.stop_reason, rep.iterations, len(rels)) == (stop, iters, iters)
    assert np.linalg.norm(rep.final_x - x) <= 1e-12 * np.linalg.norm(x)
