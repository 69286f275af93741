"""Solver loop behavior: fixed points, schedules, recovery, failure modes."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import trtc.cli
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
    write_tensor,
)
from trtc.ring import reconstruct, split_mode
from trtc.solvers import _checked_truth, _validate, init_state
from trtc.cli import synth_instance

SOLVERS = [("olrf", solve_olrf), ("llrf", solve_llrf)]


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
        {"max_iters": 2.5},
        {"max_iters": 2.0},
        {"seed": 1.5},
        {"seed": -1},
    ],
)
def test_config_validation(kw):
    with pytest.raises(ValueError):
        SolverConfig(tr_rank=(2, 2), **kw)


@pytest.mark.parametrize(
    "ranks", [(2.5, 2.9, 2), (2.0, 2, 2), (float("inf"), 2, 2), (float("nan"), 2, 2)]
)
def test_config_rejects_non_integral_ranks(ranks):
    # a float rank, even an integral one, is rejected rather than truncated
    with pytest.raises(ValueError, match="is not an integer"):
        SolverConfig(tr_rank=ranks)


def test_config_accepts_numpy_integer_ranks():
    cfg = SolverConfig(tr_rank=tuple(np.arange(2, 5)))
    assert cfg.tr_rank.ranks == (2, 3, 4)
    assert all(type(r) is int for r in cfg.tr_rank.ranks)


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
        rse(t, t, "missing", np.ones(3, dtype=bool))  # of the tensors' shape
    with pytest.raises(ValueError):
        rse(t, t, "observed")


def test_rse_missing_scope():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    est = truth.copy()
    est[0, 1] = 0.0
    mask = np.array([[True, False], [True, True]])
    assert abs(rse(est, truth, "missing", mask) - 1.0) < 1e-15
    assert rse(est, truth, "all") > 0
    # with no entry missing, the missing scope scores every entry
    assert rse(est, truth, "missing", np.ones_like(mask)) == rse(est, truth, "all")


def test_init_state_contract(order4):
    _, mask, _ = order4.instance(0.5, 0)
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), seed=3)
    cores1, groups1 = init_state(mask.shape, cfg, "olrf")
    cores2, _ = init_state(mask.shape, cfg, "olrf")
    for a, b in zip(cores1, cores2):
        np.testing.assert_array_equal(a, b)

    cores3, groups3 = init_state(mask.shape, cfg, "llrf")
    # cores 1, 3 and 2, 4 share a shape; a group holds the state of its m
    # cores as stacks: three auxiliary tensors and k zero multipliers each,
    # k = 3 constraints for olrf and 1 for llrf
    for cores, groups, k in ((cores1, groups1, 3), (cores3, groups3, 1)):
        assert [g.members for g in groups] == [[0, 2], [1, 3]]
        for g in groups:
            core = cores[g.members[0]].shape
            assert g.aux.shape == (3, 2) + core and np.all(g.aux == 0)
            assert g.multipliers.shape == (k, 2) + core and np.all(g.multipliers == 0)

    cfg2 = SolverConfig(tr_rank=(4, 5, 4, 5), seed=4)
    cores4, _ = init_state(mask.shape, cfg2, "olrf")
    assert not np.array_equal(cores1[0], cores4[0])


def test_validate_contract(order4):
    # x is Fortran-ordered, so the refill can write through its
    # first-index-fastest flat view; it is the observed entries bit for bit
    # and 0 off the mask, whatever marks the missing entries there
    truth, mask, obs = order4.instance(0.5, 0)
    x, checked_mask, obs_norm = _validate(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5)))
    assert x.flags.f_contiguous and x.dtype == np.float64
    np.testing.assert_array_equal(checked_mask, mask)
    assert np.array_equal(x[mask].view(np.uint64), truth[mask].view(np.uint64))
    assert np.all(x[~mask] == 0.0)
    assert obs_norm == np.linalg.norm(x)


@pytest.mark.parametrize("observed,mask,rank,message", [
    pytest.param(lambda o, m: o, lambda m: m[..., :9], (4, 5, 4),
                 "mask shape does not match tensor shape", id="mask-shape-then-rank"),
    pytest.param(lambda o, m: np.where(m, 0.0, np.nan), np.zeros_like, (4, 5, 4, 5),
                 "observation mask is empty", id="empty-mask-then-zero"),
    pytest.param(lambda o, m: np.where(m & (o > 0.1), np.inf, o), lambda m: m, (4, 5, 4),
                 "observed entries must be finite", id="non-finite-then-rank"),
    pytest.param(lambda o, m: np.where(m, 0.0, np.nan), lambda m: m, (4, 5, 4),
                 "observed entries are all zero", id="zero-then-rank"),
])
def test_validate_reports_the_earlier_of_two_faults(order4, observed, mask, rank, message):
    _, m, obs = order4.instance(0.5, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        _validate(observed(obs, m), mask(m), SolverConfig(tr_rank=rank))


def test_input_validation(monkeypatch, order4):
    truth, mask, obs = order4.instance(0.5, 0)
    with pytest.raises(ValueError):
        solve_olrf(obs, np.zeros_like(mask), SolverConfig(tr_rank=(4, 5, 4, 5)))
    with pytest.raises(ValueError):
        solve_olrf(obs, mask, SolverConfig(tr_rank=(4, 5, 4)))
    bad = obs.copy()
    bad[mask] = np.nan
    with pytest.raises(ValueError):
        solve_olrf(bad, mask, SolverConfig(tr_rank=(4, 5, 4, 5)))

    # all-zero observed entries and a mask of another shape are rejected
    # with the other input checks
    def no_state(*args):
        raise AssertionError("bad input reached init_state")

    monkeypatch.setattr(trtc.solvers, "init_state", no_state)
    for _, solver in SOLVERS:
        with pytest.raises(ValueError, match="observed entries are all zero"):
            solver(np.where(mask, 0.0, np.nan), mask, SolverConfig(tr_rank=(4, 5, 4, 5)))
        for other in (mask[..., :9], mask.reshape(100, 100), mask[..., None]):
            with pytest.raises(ValueError, match="^mask shape does not match tensor shape$"):
                solver(obs, other, SolverConfig(tr_rank=(4, 5, 4, 5)))


@pytest.mark.parametrize("scale,message", [
    pytest.param(0.0, "observed entries are all zero", id="zero"),
    # every entry nonzero, but each square underflows, so the norm the loop
    # divides by is 0
    pytest.param(1e-300, "observed entries are too small: their norm underflows to zero", id="tiny"),
])
def test_zero_and_underflowing_observed_entries_are_told_apart(monkeypatch, scale, message):
    truth, mask = synth_instance((4, 4, 4), (2, 2, 2), 0.3, 0)
    obs = np.where(mask, truth * scale, np.nan)
    assert (obs[mask] != 0).all() == (scale != 0)

    def no_state(*args):
        raise AssertionError("observed entries without a norm reached init_state")

    monkeypatch.setattr(trtc.solvers, "init_state", no_state)
    for _, solver in SOLVERS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            solver(obs, mask, SolverConfig(tr_rank=(2, 2, 2)))


BAD_TRUTHS = [
    pytest.param(lambda t, m: t[:, :, :, :9], "truth shape", id="cut"),
    pytest.param(lambda t, m: t.reshape(100, 100), "truth shape", id="reshaped"),
    pytest.param(lambda t, m: np.where(t > 0.1, np.nan, t), "truth entries must be finite", id="nan"),
    pytest.param(lambda t, m: np.full_like(t, np.inf), "truth entries must be finite", id="inf"),
    pytest.param(lambda t, m: np.where(m, t, 0.0), "zero norm on the scored entries", id="zero-on-missing"),
]


@pytest.mark.parametrize("bad,message", BAD_TRUTHS)
def test_checked_truth_names_what_cannot_score(order4, bad, message):
    truth, mask, _ = order4.instance(0.5, 0)
    with pytest.raises(ValueError, match=message):
        _checked_truth(bad(truth, mask), mask)


@pytest.mark.parametrize("bad,message", BAD_TRUTHS)
@pytest.mark.parametrize("name,solver", SOLVERS)
def test_truth_checked_before_the_first_iteration(tmp_path, monkeypatch, order4, name, solver, bad, message):
    # the solvers take no truth; trtc complete, which scores the final
    # tensor with one, rejects a truth that cannot score it before the
    # solve and writes no file (a NaN truth is rejected as it is read)
    truth, mask, obs = order4.instance(0.5, 0)
    bad_truth = bad(truth, mask)
    write_tensor(obs, tmp_path / "obs.trtc")
    write_tensor(bad_truth, tmp_path / "truth.trtc")

    def no_state(*args):
        raise AssertionError("a bad truth reached init_state")

    monkeypatch.setattr(trtc.solvers, "init_state", no_state)
    assert trtc.cli.SOLVERS[name] is solver
    if np.isnan(bad_truth).any():
        message = "NaN entries present in a ground-truth context"
    with pytest.raises(SystemExit, match=message):
        trtc.cli.main(["complete", "--in", str(tmp_path / "obs.trtc"),
                       "--truth", str(tmp_path / "truth.trtc"), "--solver", name,
                       "--rank", "4,5,4,5", "--out", str(tmp_path / "fit")])
    assert sorted(f.name for f in tmp_path.iterdir()) == ["obs.trtc", "truth.trtc"]


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_fully_observed_fixed_point(name, solver):
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 6, 4))
    mask = np.ones_like(truth, dtype=bool)
    rep = solver(truth, mask, SolverConfig(tr_rank=(2, 2, 2), seed=0))
    assert rep.iterations == 1
    assert rep.converged
    assert rep.stop_reason == "tol"
    np.testing.assert_array_equal(rep.final_x, truth)
    assert rse(rep.final_x, truth, "all") == 0.0


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_huge_tol_stops_after_one_iteration(order4, name, solver):
    truth, mask, obs = order4.instance(0.5, 0)
    cfg = SolverConfig(tr_rank=(4, 5, 4, 5), tol=1e9)
    rep = solver(obs, mask, cfg)
    assert rep.iterations == 1
    assert rep.converged
    assert len(rep.rel_change_history) == 1


COLLAPSING = [
    pytest.param(solver, (3, 2, 3, 2, 3, 2), 2, 0.5, seed, id=f"{name}-323232-seed{seed}")
    for name, solver in SOLVERS for seed in range(3)
] + [
    pytest.param(solve_olrf, (5, 8, 5, 8, 4, 2, 2), 3, 0.7, seed, id=f"olrf-order7-seed{seed}")
    for seed in (1, 3, 5)
]


@pytest.mark.parametrize("solver,shape,rank,missing_rate,seed", COLLAPSING)
def test_collapsed_solve_is_not_converged(solver, shape, rank, missing_rate, seed):
    # the cores collapse toward zero in the first sweep, so the first
    # relative change is already below tol; the stop is not convergence,
    # since the last reconstruction is at most 1.1e-6 of the observed norm
    truth, mask = synth_instance(shape, (rank,) * len(shape), missing_rate, 0, std=0.5)
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(rank,) * len(shape), seed=seed))
    assert rep.converged is False
    assert rep.stop_reason == "collapsed"
    assert rep.iterations == 1


@pytest.mark.parametrize("name,solver,iterations", [("olrf", solve_olrf, 11), ("llrf", solve_llrf, 18)])
def test_stop_reason_tells_a_collapse_from_the_iteration_limit(name, solver, iterations):
    # at tol 1e-300 this instance stops only once the reconstruction has
    # collapsed to zero, which makes the relative change exactly 0; with
    # fewer iterations allowed it stops at the limit
    truth, mask = synth_instance((4, 4, 4), (2, 2, 2), 0.3, 1)
    obs = np.where(mask, truth, np.nan)
    rep = solver(obs, mask, SolverConfig(tr_rank=(2, 2, 2), tol=1e-300, seed=0))
    assert (rep.iterations, rep.converged, rep.stop_reason) == (iterations, False, "collapsed")
    assert rep.rel_change_history[-1] == 0.0
    cut = solver(obs, mask, SolverConfig(tr_rank=(2, 2, 2), tol=1e-300, max_iters=iterations - 1, seed=0))
    assert (cut.iterations, cut.converged, cut.stop_reason) == (iterations - 1, False, "max_iters")
    assert cut.rel_change_history == rep.rel_change_history[:-1]


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_observed_entries_pinned_bitwise(order4, name, solver):
    truth, mask, obs = order4.instance(0.5, 0)
    rep = solver(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5), max_iters=20))
    np.testing.assert_array_equal(rep.final_x[mask], truth[mask])


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_inputs_untouched_and_not_aliased(name, solver):
    # the refill writes into the solver's own x in place: the caller's
    # Fortran-ordered observed tensor and mask keep every bit, and a
    # C-ordered mask gives the same solve bit for bit
    truth, mask = synth_instance((4, 5, 3), (2, 2, 2), 0.4, 3, std=0.5)
    observed = np.asfortranarray(np.where(mask, truth, np.nan))
    obs_bytes = observed.tobytes(order="A")
    reports = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        m = layout(mask)
        mask_bytes = m.tobytes(order="A")
        rep = solver(observed, m, SolverConfig(tr_rank=(2, 2, 2), max_iters=10, seed=0))
        assert rep.iterations == 10
        assert observed.tobytes(order="A") == obs_bytes
        assert m.tobytes(order="A") == mask_bytes
        assert not np.shares_memory(rep.final_x, observed)
        assert not np.shares_memory(rep.final_x, m)
        np.testing.assert_array_equal(rep.final_x[mask], truth[mask])
        reports.append(rep)
    c_rep, f_rep = reports
    assert c_rep.final_x.tobytes(order="F") == f_rep.final_x.tobytes(order="F")
    for h in ("rel_change_history", "consistency_history", "mu_history"):
        assert getattr(c_rep, h) == getattr(f_rep, h), h


def refill_columns(shape):
    # z is the (rows, cols) product of the ring's two halves
    rows = math.prod(shape[:split_mode(shape)])
    return rows, math.prod(shape) // rows


def observed_first_range(truth, mask):
    # every entry of z's first two columns observed: the first range of a
    # two-column plan has no missing entry
    mask = np.asfortranarray(mask.copy())
    rows, _ = refill_columns(mask.shape)
    mask.reshape(-1, order="F")[:2 * rows] = True
    return truth, mask


REFILL_CASES = [
    # (4, 3, 5) splits into 12 rows and 5 columns: two-column ranges would
    # leave a one-column last range
    pytest.param((4, 3, 5), (2, 2, 2), 0.3, None, "max_iters", id="odd-columns"),
    pytest.param((4, 3, 5), (2, 2, 2), 0.3, observed_first_range, "max_iters", id="observed-range"),
    pytest.param((4, 3, 5), (2, 2, 2), 0.0, None, "tol", id="fully-observed"),
    pytest.param((3, 2, 3, 2, 3, 2), (2,) * 6, 0.5, None, "collapsed", id="collapsing-323232"),
]


def report_bytes(rep):
    # every report field but the relative change
    return (rep.final_x.tobytes(order="F"), rep.consistency_history,
            rep.mu_history, rep.iterations, rep.stop_reason)


@pytest.mark.parametrize("shape,rank,missing_rate,tweak,stop", REFILL_CASES)
@pytest.mark.parametrize("name,solver", SOLVERS)
def test_blocked_refill_is_the_one_block_refill(monkeypatch, spy, name, solver, shape, rank,
                                                missing_rate, tweak, stop):
    # the reconstruction is formed and refilled in column ranges; a plan of
    # two-column ranges (_BLOCK of one entry) and a plan of one range give
    # the same solve byte for byte, with one trace contraction per range
    # and iteration. The relative change is a sum over the ranges of their
    # squared changes, so the grouping of that sum may move its last bit
    truth, mask = synth_instance(shape, rank, missing_rate, 0)
    if tweak:
        truth, mask = tweak(truth, mask)
    obs = np.where(mask, truth, np.nan)
    cfg = SolverConfig(tr_rank=rank, max_iters=60, seed=0)
    calls = spy(trtc.solvers, "_trace_contract")
    reports, widths = [], []
    for block in (1, 2 ** 62):
        monkeypatch.setattr(trtc.solvers, "_BLOCK", block)
        calls.clear()
        reports.append(solver(obs, mask, cfg))
        widths.append([call.args[1].shape[1] for call in calls])
    small, whole = reports
    assert report_bytes(small) == report_bytes(whole)
    np.testing.assert_allclose(small.rel_change_history, whole.rel_change_history, rtol=1e-14)
    assert small.stop_reason == stop
    # the last range takes the odd column
    _, cols = refill_columns(shape)
    ranges = cols // 2
    assert widths[0] == ([2] * (ranges - 1) + [cols - 2 * (ranges - 1)]) * small.iterations
    assert widths[1] == [cols] * whole.iterations


@pytest.mark.parametrize("block", [1, 2 ** 16])
@pytest.mark.parametrize("name,solver", SOLVERS)
def test_final_x_off_the_mask_is_reconstruct_of_final_cores(monkeypatch, name, solver, block):
    # a range of two or more columns is the full product's rows bit for
    # bit; a one-column range would be a gemv, whose bits differ
    truth, mask = synth_instance((4, 3, 5), (2, 2, 2), 0.3, 0)
    monkeypatch.setattr(trtc.solvers, "_BLOCK", block)
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2, 2, 2), max_iters=40, seed=0))
    assert rep.final_x[~mask].tobytes() == reconstruct(rep.final_cores)[~mask].tobytes()


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_loop_memory_stays_below_two_and_a_half_tensors(name, solver):
    # the loop holds no array of the tensor's size but x: per iteration it
    # forms z one column range at a time (about _BLOCK entries), and per
    # solve it keeps only the offsets of the missing entries
    shape = (6,) * 7
    truth, mask = synth_instance(shape, (2,) * 7, 0.5, 0)
    rows, cols = refill_columns(shape)
    assert cols // max(2, trtc.solvers._BLOCK // rows) >= 4
    obs = np.where(mask, truth, np.nan)
    tracemalloc.start()
    try:
        rep = solver(obs, mask, SolverConfig(tr_rank=(2,) * 7, tol=1e-300, max_iters=3, seed=0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.iterations == 3
    assert peak < 2.5 * rep.final_x.nbytes, peak / rep.final_x.nbytes


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_synthetic_recovery_and_consistency(order4, name, solver):
    # half the entries removed, solved at the generating rank
    truth, mask, rep = order4.solve(name, 0.5, 0, (4, 5, 4, 5), 10.0, 500)
    assert rep.converged and rep.iterations <= 500
    assert rep.stop_reason == "tol"
    assert rse(rep.final_x, truth, "missing", mask) < 1e-2
    # splitting variables agree with the cores once converged
    assert rep.consistency_history[-1] < 1e-3
    # mu starts at 1 and grows to its cap of 100, which the olrf solve
    # (466 iterations) reaches from index 463 on
    mus = rep.mu_history
    assert mus[0] == 1.0
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert max(mus) <= 100.0
    if name == "olrf":
        assert mus[-1] == 100.0


def test_cached_protocol_solve_is_the_fresh_solve(order4):
    # the session's cache hands out the solve a test would make itself, and
    # no test can write into what the others read
    truth, mask, cached = order4.solve("llrf", 0.5, 0, (4, 5, 4, 5), 10.0, 500)
    fresh = solve_llrf(np.where(mask, truth, np.nan), mask, SolverConfig(tr_rank=(4, 5, 4, 5), seed=0))
    assert fresh.final_x.tobytes() == cached.final_x.tobytes()
    for h in ("rel_change_history", "consistency_history", "mu_history"):
        assert getattr(fresh, h) == getattr(cached, h), h
    assert (fresh.iterations, fresh.stop_reason) == (cached.iterations, cached.stop_reason) == (113, "tol")
    for a in (truth, mask, cached.final_x):
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0, 0] = a[0, 0, 0, 0]


def test_report_histories_without_truth(order4):
    truth, mask, obs = order4.instance(0.5, 0)
    rep = solve_llrf(obs, mask, SolverConfig(tr_rank=(4, 5, 4, 5), max_iters=5))
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


@pytest.mark.parametrize("calm,iteration", [(None, 10), (9, 19)])
@pytest.mark.parametrize("name,solver", SOLVERS)
def test_divergence_guard_counts_consecutive_blowups(monkeypatch, name, solver, calm, iteration):
    # the reconstruction is pushed 1e4 further from the last refill each
    # iteration, so every relative change is above 1e3 and the tenth in a
    # row stops the solve; one ordinary iteration, which repeats the last
    # refill plus one, resets the count
    truth, mask = synth_instance((4, 4, 4), (2, 2, 2), 0.3, 1)
    contract = trtc.solvers._trace_contract
    out = []

    def growing(prefix, suffix):
        k = len(out) + 1
        out.append(out[-1] + 1.0 if k == calm else contract(prefix, suffix) + 1e4 * k)
        return out[-1]

    monkeypatch.setattr(trtc.solvers, "_trace_contract", growing)
    with pytest.raises(DivergenceError, match=rf"above 1e3 for 10 consecutive iterations \(iteration {iteration}\)"):
        solver(np.where(mask, truth, np.nan), mask, SolverConfig(tr_rank=(2, 2, 2), max_iters=50, seed=0))


def test_order_six_instance_latent_tracks_overlapped():
    # harder deep-order instance; the latent model should stay within 2x
    truth, mask = synth_instance((4, 4, 4, 6, 6, 6), (4,) * 6, 0.7, 0, std=0.5)
    obs = np.where(mask, truth, np.nan)
    out = {}
    for name, solver in SOLVERS:
        cfg = SolverConfig(tr_rank=(4,) * 6, max_iters=2000, seed=0)
        rep = solver(obs, mask, cfg)
        assert rep.converged
        out[name] = rse(rep.final_x, truth, "missing", mask)
    assert out["llrf"] < 2.0 * out["olrf"]


# solves dense-order8's instance (6^8, rank 3, 50% missing) with both models
# and saves what the order-8 tests compare
_THREADED_SOLVES = """
import sys
import numpy as np
from trtc import SolverConfig, solve_llrf, solve_olrf
from trtc.cli import synth_instance
truth, mask = synth_instance((6,) * 8, (3,) * 8, 0.5, 0, std=0.5)
obs = np.where(mask, truth, np.nan)
out = {}
for name, solver in (("olrf", solve_olrf), ("llrf", solve_llrf)):
    rep = solver(obs, mask, SolverConfig(tr_rank=(3,) * 8, max_iters=500, seed=0))
    out[name + "_iters"] = rep.iterations
    out[name + "_rel"] = rep.rel_change_history
    out[name + "_cons"] = rep.consistency_history
    out[name + "_mu"] = rep.mu_history
    out[name + "_x"] = rep.final_x
np.savez(sys.argv[1], **out)
"""


@pytest.fixture(scope="module")
def order8_solves(tmp_path_factory):
    # the solves at one and at two OpenBLAS threads, each in a fresh
    # interpreter, since the thread count is fixed when numpy loads
    src = str(Path(trtc.solvers.__file__).resolve().parents[1])
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        path = tmp_path_factory.mktemp("order8") / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREADED_SOLVES, str(path)], env=env, check=True,
                       timeout=300)
        runs[threads] = np.load(path)
    return runs


def test_order8_solves_agree_across_blas_thread_counts(order8_solves):
    # the bits of a 6^8 solve depend on the BLAS thread count, which fixes
    # how the gemms split their sums; across counts they agree to rounding
    one, two = order8_solves["1"], order8_solves["2"]
    for name, _ in SOLVERS:
        assert one[name + "_iters"] == two[name + "_iters"]
        for hist in ("_rel", "_cons"):
            np.testing.assert_allclose(two[name + hist], one[name + hist], rtol=1e-8, atol=0)
        x1, x2 = one[name + "_x"], two[name + "_x"]
        assert np.linalg.norm(x2 - x1) <= 1e-12 * np.linalg.norm(x1)


@pytest.mark.parametrize("name", [name for name, _ in SOLVERS])
def test_order8_histories_match_recorded_loop(order8_solves, name):
    # the one-thread solve against tests/solver_histories_order8.json, the
    # first recorded solve whose reconstruction takes more than one column
    # range (tests/test_solver_histories.py records it)
    recorded = json.loads(Path(__file__).with_name("solver_histories_order8.json").read_text())[name]
    one = order8_solves["1"]
    assert one[name + "_iters"] == 21
    for hist, key in (("_rel", "rel_change_history"), ("_cons", "consistency_history"),
                      ("_mu", "mu_history")):
        assert len(recorded[key]) == 21, key
        np.testing.assert_allclose(one[name + hist], recorded[key], rtol=1e-10, atol=0, err_msg=key)


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_sweep_merges_only_prefix_and_suffix_chains(spy, name, solver):
    # the ring is split at m = split_mode(shape): the first sweep builds the
    # suffix chains of cores m+1..N (N-m-1 merges), and per iteration the
    # prefix of cores 1..m takes m-1 merges and the new suffix chains N-m-1,
    # N-2 in all. No chain leaves its half, so none is longer than the
    # larger half, and an unfolding of x or of a chain would call
    # delta_unfold
    shape = (3, 2, 3, 2, 3, 2)
    order, iters = len(shape), 2
    m = split_mode(shape)
    truth, mask = synth_instance(shape, (2,) * order, 0.5, 0, std=0.5)
    longest = max(int(np.prod(shape[:m])), int(np.prod(shape[m:])))
    merges = spy((trtc.solvers, trtc.ring), "_merge")
    unfolds = spy(tuple(module for module in (trtc.tensors, trtc.ring, trtc.prox, trtc.solvers)
                        if hasattr(module, "delta_unfold")), "delta_unfold")
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2,) * order, tol=1e-300, max_iters=iters, seed=0))
    assert rep.iterations == iters
    assert len(merges) == (order - m - 1) + iters * (order - 2)
    assert max(call.result.shape[1] for call in merges) <= longest
    assert unfolds == []


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_loop_merges_and_contractions_go_through_the_solver_module(spy, tracer_wrapped, name, solver):
    # the benchmark's per-layer metrics count the calls through the
    # trtc.solvers attributes its tracer wraps: every one the loop makes
    # must pass there. Per iteration, one core update per core, three SVTs
    # and folds and four unfolds (three SVT targets and the core updates'
    # penalty terms) per core shape, N-2 merges and one trace contraction
    # per column range of the reconstruction (one range at this size);
    # per solve, one input check and the N-m-1 merges of the first suffix
    # chains
    shape = (3, 2, 3, 2, 3, 2)
    order, iters, shapes = len(shape), 2, 2
    truth, mask = synth_instance(shape, (2,) * order, 0.5, 0, std=0.5)
    expected = {
        "core_update_olrf": iters * order if name == "olrf" else 0,
        "core_update_llrf": iters * order if name == "llrf" else 0,
        "svt": iters * 3 * shapes,
        "gamma_unfold": iters * 4 * shapes,
        "gamma_fold": iters * 3 * shapes,
        "_merge": (order - split_mode(shape) - 1) + iters * (order - 2),
        "_trace_contract": iters,
        "_validate": 1,
    }
    # the trtc.solvers attributes that the benchmark's tracer wraps
    assert set(expected) == {attr for module, attr in tracer_wrapped if module == "trtc.solvers"}
    calls = {attr: spy(trtc.solvers, attr) for attr in expected}
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2,) * order, tol=1e-300, max_iters=iters, seed=0))
    assert rep.iterations == iters
    assert {attr: len(record) for attr, record in calls.items()} == expected


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_loop_kernel_budget(spy, name, solver):
    # the loop's system lam * Q Q^T + k * mu * I is positive definite by
    # construction (k * mu >= 1), so each core update is one bare solve,
    # with no Cholesky factor and no ridge_solve; per iteration, one solve
    # per core and one stacked eigh per unfolding and core shape
    shape = (3, 2, 3, 2, 3, 2)
    order, iters, shapes = len(shape), 2, 2
    truth, mask = synth_instance(shape, (2,) * order, 0.5, 0, std=0.5)
    calls = {attr: spy(np.linalg, attr) for attr in ("cholesky", "solve", "eigh")}
    calls["ridge_solve"] = spy(trtc.prox, "ridge_solve")
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2,) * order, tol=1e-300, max_iters=iters, seed=0))
    assert rep.iterations == iters
    assert {attr: len(record) for attr, record in calls.items()} == {
        "cholesky": 0, "ridge_solve": 0, "solve": iters * order, "eigh": iters * 3 * shapes}


@pytest.mark.parametrize("name,solver", SOLVERS)
def test_sweep_carries_transfer_matrices(spy, name, solver):
    # one transfer matrix per core before the first sweep and one per core
    # update after it; the data sweep reads the Gram from the transfer
    # products it holds and never rebuilds it through subchain_gram, nor
    # forms a dense subchain
    shape = (3, 2, 3, 2, 3, 2)
    order, iters = len(shape), 2
    truth, mask = synth_instance(shape, (2,) * order, 0.5, 0, std=0.5)
    transfers = spy(trtc.ring, "transfer")
    grams = spy((trtc.prox, trtc.ring), "subchain_gram")
    chains = spy((trtc.prox, trtc.ring), "_subchain")
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=(2,) * order, tol=1e-300, max_iters=iters, seed=0))
    assert rep.iterations == iters
    assert len(transfers) == order + order * iters
    assert grams == [] and chains == []


@pytest.mark.parametrize("shape,rank,groups", [
    pytest.param((6, 6, 6, 6), (3,) * 4, 1, id="6^4"),
    pytest.param((10, 10, 10, 10), (4, 5, 4, 5), 2, id="criterion5"),
    pytest.param((5, 8, 5, 8, 4, 2, 2), (3,) * 7, 4, id="reshape7"),
])
@pytest.mark.parametrize("name,solver", SOLVERS)
def test_one_svt_per_unfolding_and_core_shape(spy, name, solver, shape, rank, groups):
    # the cores of one shape (R_n, I_n, R_{n+1}) are thresholded together:
    # per iteration, three stacked SVTs per shape, every core in one stack
    # per unfolding
    order, iters = len(shape), 2
    truth, mask = synth_instance(shape, rank, 0.5, 0, std=0.5)
    calls = spy(trtc.solvers, "svt")
    rep = solver(np.where(mask, truth, np.nan), mask,
                 SolverConfig(tr_rank=rank, tol=1e-300, max_iters=iters, seed=0))
    assert rep.iterations == iters
    stacked = [len(call.args[0]) for call in calls]
    assert len(stacked) == 3 * groups * iters
    assert sum(stacked) == 3 * order * iters


def test_lambda_choices_all_recover(order4):
    # insensitive to the data-term weight across two orders of magnitude
    for lam in (1.0, 10.0, 100.0):
        for name, _ in SOLVERS:
            truth, mask, rep = order4.solve(name, 0.7, 0, (4, 5, 4, 5), lam, 4000)
            r = rse(rep.final_x, truth, "missing", mask)
            assert r < 5e-2, f"{name} lam={lam}: rse {r:.3e}"


def test_overspecified_uniform_rank_stays_close(order4):
    # uniform rank 6 vs the generating rank, single repeat
    for name, _ in SOLVERS:
        truth, mask, base = order4.solve(name, 0.7, 0, (4, 5, 4, 5), 10.0, 4000)
        _, _, over = order4.solve(name, 0.7, 0, (6, 6, 6, 6), 10.0, 4000)
        r_base = rse(base.final_x, truth, "missing", mask)
        r_over = rse(over.final_x, truth, "missing", mask)
        assert r_over < 3.0 * r_base, f"{name}: {r_over:.3e} vs {r_base:.3e}"
