"""Solver loop behavior: fixed points, schedules, recovery, failure modes."""

import numpy as np
import pytest

import trtc.prox
import trtc.ring
import trtc.solvers
import trtc.tensors

from trtc import (
    SolverConfig,
    DivergenceError,
    solve_olrf,
    solve_llrf,
    rse,
)
from trtc.solvers import init_state
from trtc.cli import synth_instance

SOLVERS = [("olrf", solve_olrf), ("llrf", solve_llrf)]


def order4_instance(missing_rate=0.5, seed=0):
    truth, mask = synth_instance((10, 10, 10, 10), (4, 5, 4, 5), missing_rate, seed, std=0.5)
    return truth, mask, np.where(mask, truth, np.nan)


def test_config_defaults_and_coercion():
    cfg = SolverConfig(tr_rank=[4, 5, 4, 5])
    assert cfg.tr_rank.ranks == (4, 5, 4, 5)
    assert cfg.lam == 10.0 and cfg.tol == 1e-6 and cfg.max_iters == 500


@pytest.mark.parametrize(
    "kw",
    [
        {"lam": 0.0},
        {"lam": -1.0},
        {"tol": -1e-6},
        {"max_iters": -1},
        {"tol": 0.0},
        {"max_iters": 0},
        {"lam": float("nan")},
        {"lam": float("inf")},
        {"tol": float("nan")},
        {"tol": float("inf")},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SolverConfig(tr_rank=(2, 2), **kw)


def test_rse_hand_case():
    assert abs(rse(np.array([3.0, 0.0]), np.array([3.0, 4.0])) - 4.0 / 5.0) < 1e-15


def test_rse_extremes_and_errors():
    t = np.array([1.0, 2.0])
    assert rse(t, t) == 0.0
    assert rse(np.zeros(2), t) == 1.0
    with pytest.raises(ValueError):
        rse(t, np.zeros(2))
    with pytest.raises(ValueError):
        rse(t, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        rse(t, t, "missing")  # mask required
    with pytest.raises(ValueError):
        rse(t, t, "observed")


def test_rse_missing_scope():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    est = truth.copy()
    est[0, 1] = 0.0
    mask = np.array([[True, False], [True, True]])
    assert abs(rse(est, truth, "missing", mask) - 1.0) < 1e-15
    assert rse(est, truth, "all") > 0


def test_init_state_contract():
    truth, mask, obs = order4_instance()
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), seed=3)
    s1 = init_state(obs, mask, cfg, "olrf")
    s2 = init_state(obs, mask, cfg, "olrf")
    for a, b in zip(s1.cores, s2.cores):
        np.testing.assert_array_equal(a, b)
    assert all(np.all(m == 0) for per in s1.multipliers for m in per)
    assert all(np.all(m == 0) for per in s1.aux for m in per)
    assert np.all(s1.x[~mask] == 0.0)
    np.testing.assert_array_equal(s1.x[mask], truth[mask])

    s3 = init_state(obs, mask, cfg, "llrf")
    assert all(m.shape == c.shape for m, c in zip(s3.multipliers, s3.cores))
    assert all(np.all(m == 0) for m in s3.multipliers)

    cfg2 = SolverConfig(tr_rank=(4, 5, 4, 5), seed=4)
    s4 = init_state(obs, mask, cfg2, "olrf")
    assert not np.array_equal(s1.cores[0], s4.cores[0])


def test_input_validation():
    truth, mask, obs = order4_instance()
    with pytest.raises(ValueError):
        solve_olrf(obs, np.zeros_like(mask), SolverConfig(tr_rank=(4, 5, 4, 5)))
    with pytest.raises(ValueError):
        solve_olrf(obs, mask, SolverConfig(tr_rank=(4, 5, 4)))
    bad = obs.copy()
    bad[mask] = np.nan
    with pytest.raises(ValueError):
        solve_olrf(bad, mask, SolverConfig(tr_rank=(4, 5, 4, 5)))


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_fully_observed_fixed_point(name, solver):
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 6, 4))
    mask = np.ones_like(truth, dtype=bool)
    rep = solver(truth, mask, SolverConfig(tr_rank=(2, 2, 2), seed=0))
    assert rep.iterations == 1
    assert rep.converged
    np.testing.assert_array_equal(rep.final_x, truth)
    assert rse(rep.final_x, truth, "all") == 0.0


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_huge_tol_stops_after_one_iteration(name, solver):
    truth, mask, obs = order4_instance()
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), tol=1e9)
    rep = solver(obs, mask, cfg)
    assert rep.iterations == 1
    assert rep.converged
    assert len(rep.rel_change_history) == 1


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_observed_entries_pinned_bitwise(name, solver):
    truth, mask, obs = order4_instance()
    rep = solver(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5), max_iters=20))
    np.testing.assert_array_equal(rep.final_x[mask], truth[mask])


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_synthetic_recovery_and_consistency(name, solver):
    # half the entries removed, solved at the generating rank
    truth, mask, obs = order4_instance(0.5, 0)
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), seed=0)
    rep = solver(obs, mask, cfg, truth=truth)
    assert rep.converged and rep.iterations <= 500
    assert rse(rep.final_x, truth, "missing", mask) < 1e-2
    # splitting variables agree with the cores once converged
    assert rep.consistency_history[-1] < 1e-3
    assert rep.rse_history is not None
    assert len(rep.rse_history) == rep.iterations
    assert rep.rse_history[-1] < 1e-2
    # mu starts at 1 and grows to its cap of 100, which the olrf solve
    # (466 iterations) reaches from index 463 on
    mus = rep.mu_history
    assert mus[0] == 1.0
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert max(mus) <= 100.0
    if name == "olrf":
        assert mus[-1] == 100.0


def test_report_histories_without_truth():
    truth, mask, obs = order4_instance()
    rep = solve_llrf(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5), max_iters=5))
    assert rep.rse_history is None
    assert len(rep.rel_change_history) == 5
    assert len(rep.iter_times) == 5
    assert rep.wall_time > 0


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_divergence_guard_on_overflowing_data(name, solver):
    truth, mask = synth_instance((4, 4, 4), (2, 2, 2), 0.3, 1, std=0.5)
    obs = np.where(mask, truth * 1e200, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError):
            solver(obs, mask, SolverConfig(tr_rank=(2, 2, 2), max_iters=50, seed=0))


def test_order_six_instance_latent_tracks_overlapped():
    # harder deep-order instance; the latent model should stay within 2x
    truth, mask = synth_instance((4, 4, 4, 6, 6, 6), (4,) * 6, 0.7, 0, std=0.5)
    obs = np.where(mask, truth, np.nan)
    out = {}
    for name, solver in SOLVERS:
        cfg = SolverConfig(tr_rank=(4,) * 6, max_iters=2000, seed=0)
        rep = solver(obs, mask, cfg, truth=truth)
        assert rep.converged
        out[name] = rse(rep.final_x, truth, "missing", mask)
    assert out["llrf"] < 2.0 * out["olrf"]


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_sweep_merges_only_prefix_and_suffix_chains(monkeypatch, name, solver):
    # per iteration the suffix chains take N-2 merges and the prefix N-2;
    # a full subchain per core update would add N-2 more, an unfolding of
    # x or of a chain would call delta_unfold
    truth, mask = synth_instance((3, 2, 3, 2, 3, 2), (2,) * 6, 0.5, 0, std=0.5)
    merges, unfolds = [], []

    def counted(calls, fn):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)
        return wrapped

    for module in (trtc.solvers, trtc.ring):
        monkeypatch.setattr(module, "_merge", counted(merges, module._merge))
    for module in (trtc.tensors, trtc.ring, trtc.prox, trtc.solvers):
        if hasattr(module, "delta_unfold"):
            monkeypatch.setattr(module, "delta_unfold", counted(unfolds, module.delta_unfold))
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2,) * 6, tol=1e-300, max_iters=2, seed=0))
    assert rep.iterations == 2
    assert len(merges) == 2 * 2 * (6 - 2)
    assert unfolds == []


def test_lambda_choices_all_recover():
    # insensitive to the data-term weight across two orders of magnitude
    truth, mask = synth_instance((10, 10, 10, 10), (4, 5, 4, 5), 0.7, 0, std=0.5)
    obs = np.where(mask, truth, np.nan)
    for lam in (1.0, 10.0, 100.0):
        for name, solver in SOLVERS:
            cfg = SolverConfig(tr_rank=(4, 5, 4, 5), lam=lam, max_iters=4000, seed=0)
            rep = solver(obs, mask, cfg, truth=truth)
            r = rse(rep.final_x, truth, "missing", mask)
            assert r < 5e-2, f"{name} lam={lam}: rse {r:.3e}"


def test_overspecified_uniform_rank_stays_close():
    # uniform rank 6 vs the generating rank, single repeat
    truth, mask = synth_instance((10, 10, 10, 10), (4, 5, 4, 5), 0.7, 0, std=0.5)
    obs = np.where(mask, truth, np.nan)
    for name, solver in SOLVERS:
        base = solver(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5), max_iters=4000, seed=0), truth=truth)
        over = solver(obs, mask, SolverConfig(tr_rank=(6, 6, 6, 6), max_iters=4000, seed=0), truth=truth)
        r_base = rse(base.final_x, truth, "missing", mask)
        r_over = rse(over.final_x, truth, "missing", mask)
        assert r_over < 3.0 * r_base, f"{name}: {r_over:.3e} vs {r_base:.3e}"
