"""SVT and core-update kernels against closed forms and direct solves."""

import numpy as np
import pytest

import trtc.prox
import trtc.ring
from trtc import (
    svt,
    core_update_olrf,
    core_update_llrf,
    reconstruct,
)
from trtc.prox import ridge_solve
from trtc.ring import subchain, subchain_gram
from trtc.tensors import gamma_unfold, delta_unfold


def rand_instance(rng, order_lo=3, order_hi=5):
    order = int(rng.integers(order_lo, order_hi))
    shape = tuple(int(v) for v in rng.integers(2, 5, size=order))
    ranks = tuple(int(v) for v in rng.integers(2, 4, size=order))
    cores = [
        rng.standard_normal((ranks[i], shape[i], ranks[(i + 1) % order]))
        for i in range(order)
    ]
    x = rng.standard_normal(shape)
    n = int(rng.integers(1, order + 1))
    return cores, x, n


def prox_objective(m, a, beta):
    return beta * np.linalg.svd(m, compute_uv=False).sum() + 0.5 * np.linalg.norm(m - a) ** 2


def test_svt_diagonal_hand_case():
    res = svt(np.diag([3.0, 1.0]), 2.0)
    np.testing.assert_allclose(res.matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert res.effective_rank == 1


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    res = svt(a, 0.0)
    np.testing.assert_allclose(res.matrix, a, atol=1e-12)
    assert res.effective_rank == 4


def test_svt_kills_matrix_above_top_singular_value():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    smax = np.linalg.svd(a, compute_uv=False)[0]
    res = svt(a, smax * 1.0001)
    np.testing.assert_array_equal(res.matrix, np.zeros((5, 5)))
    assert res.effective_rank == 0


def test_svt_is_prox_minimizer_by_probing():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, 5))
    beta = 0.3
    m = svt(a, beta).matrix
    f0 = prox_objective(m, a, beta)
    for _ in range(200):
        p = m + rng.standard_normal((8, 5)) * rng.choice([1e-3, 1e-2, 1e-1])
        assert prox_objective(p, a, beta) >= f0 - 1e-12


def test_svt_nonexpansive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((6, 7))
        b = rng.standard_normal((6, 7))
        beta = float(rng.uniform(0.0, 2.0))
        d = np.linalg.norm(svt(a, beta).matrix - svt(b, beta).matrix)
        assert d <= np.linalg.norm(a - b) + 1e-10


def test_svt_negative_threshold_raises():
    with pytest.raises(ValueError):
        svt(np.eye(2), -0.1)
    # NaN compares false both ways: a NaN threshold would blank the matrix
    with pytest.raises(ValueError):
        svt(np.eye(3), float("nan"))


@pytest.mark.parametrize("a", [np.ones(3), 2.0, np.ones(0)])
def test_svt_rejects_a_non_matrix(a):
    with pytest.raises(ValueError, match=r"\(\.\.\., m, n\), got shape"):
        svt(a, 1.0)


@pytest.mark.parametrize("beta", [0.0, 1e-170, 1e160, np.inf])
def test_svt_goes_straight_to_the_svd_where_beta_squared_is_out_of_range(monkeypatch, beta):
    # no eigendecomposition runs, so a stack whose Gram would overflow is
    # thresholded too
    a = np.random.default_rng(16).standard_normal((2, 4, 6)) * 1e200
    want = svt(a / 1e200, beta / 1e200).matrix * 1e200

    def no_eigh(*args):
        raise AssertionError("the Gram route ran")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    res = svt(a, beta)
    np.testing.assert_allclose(res.matrix, want, rtol=0, atol=1e-12 * np.abs(a).max())
    assert res.effective_rank == (8 if beta < 1e200 else 0)


def test_svt_nan_entry_raises_linalg_error():
    a = np.random.default_rng(13).standard_normal((2, 4, 6))
    a[1, 2, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        svt(a, 0.1)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 3), (0, 2, 3)])
def test_svt_of_empty_input_is_empty(shape):
    res = svt(np.zeros(shape), 1.0)
    assert res.matrix.shape == shape
    assert res.effective_rank == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [1e154, 1e155, 1e200, np.inf, np.float64(1e200)])
def test_svt_beyond_the_largest_singular_value_is_zero_when_beta_squared_overflows(beta):
    # beta^2 overflows from beta = 1e155 on: every matrix takes the SVD,
    # which thresholds s_max = 3 to zero, with no warning
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 6))
    a *= 3.0 / np.linalg.svd(a, compute_uv=False)[0]
    res = svt(a, beta)
    np.testing.assert_array_equal(res.matrix, np.zeros((4, 6)))
    assert res.effective_rank == 0
    a[0, 0] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        svt(a, beta)


@pytest.mark.parametrize("ratio,through_svd", [(0.999e4, 0), (1.001e4, 1), (np.inf, 3)])
def test_svt_takes_the_svd_only_beyond_the_squaring_guard(monkeypatch, ratio, through_svd):
    # the Gram route squares the singular values; a matrix whose s_max / beta
    # is above 1e4 (all of them at beta = 0) takes the SVD, alone
    rng = np.random.default_rng(14)
    a = rng.standard_normal((3, 5, 8)) * np.array([1.0, 0.5, 0.25])[:, None, None]
    beta = np.linalg.svd(a[0], compute_uv=False)[0] / ratio
    want = []
    for aj in a:
        u, s, vt = np.linalg.svd(aj, full_matrices=False)
        want.append((u * np.maximum(s - beta, 0.0)) @ vt)
    seen = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda m, **kw: seen.append(len(m)) or svd(m, **kw))
    res = svt(a, beta)
    assert sum(seen) == through_svd
    np.testing.assert_allclose(res.matrix, want, rtol=0, atol=1e-12 * np.abs(a).max())
    assert res.effective_rank == 15


def test_ridge_solve_identity_and_scaled_identity():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 5))
    np.testing.assert_allclose(ridge_solve(b, np.eye(5)), b, atol=1e-12)
    np.testing.assert_allclose(ridge_solve(b, 4.0 * np.eye(5)), b / 4.0, atol=1e-12)


def test_ridge_solve_residual_on_random_spd():
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = rng.standard_normal((6, 6))
        a = m @ m.T + 6 * np.eye(6)
        b = rng.standard_normal((4, 6))
        x = ridge_solve(b, a)
        assert np.linalg.norm(x @ a - b) <= 1e-10 * np.linalg.norm(b)


def test_ridge_solve_rejects_bad_systems():
    b = np.ones((2, 3))
    with pytest.raises(ValueError):
        ridge_solve(b, np.arange(9.0).reshape(3, 3))  # not symmetric
    with pytest.raises(np.linalg.LinAlgError):
        ridge_solve(b, np.full((3, 3), np.inf))
    with pytest.raises(np.linalg.LinAlgError):
        ridge_solve(b, np.diag([1.0, -1.0, 1.0]))  # symmetric, indefinite


def test_core_update_olrf_zero_lambda_closed_form():
    rng = np.random.default_rng(6)
    cores, x, n = rand_instance(rng)
    g0 = cores[n - 1]
    mu = 1.7
    aux = [rng.standard_normal(g0.shape) for _ in range(3)]
    duals = [rng.standard_normal(g0.shape) for _ in range(3)]
    g = core_update_olrf(x, cores, aux, duals, n, 0.0, mu)
    want = sum(aux[i] + duals[i] / mu for i in range(3)) / 3.0
    np.testing.assert_allclose(g, want, atol=1e-12)


def test_core_update_llrf_zero_lambda_closed_form():
    rng = np.random.default_rng(7)
    cores, x, n = rand_instance(rng)
    g0 = cores[n - 1]
    mu = 0.9
    latent = [rng.standard_normal(g0.shape) for _ in range(3)]
    dual = rng.standard_normal(g0.shape)
    g = core_update_llrf(x, cores, latent, dual, n, 0.0, mu)
    np.testing.assert_allclose(g, sum(latent) + dual / mu, atol=1e-12)


def malformed(case, rng):
    # a valid order-3 problem for core 2, of shape (2, 3, 2), and one fault
    cores = [rng.standard_normal(s) for s in [(2, 4, 2), (2, 3, 2), (2, 5, 2)]]
    x = rng.standard_normal((4, 3, 5))
    aux = [rng.standard_normal((2, 3, 2)) for _ in range(3)]
    duals = [rng.standard_normal((2, 3, 2)) for _ in range(3)]
    if case == "aux-broadcast":
        aux = [a[:, :, :1] for a in aux]
    elif case == "aux-scalar-like":
        aux = [np.ones((1, 1, 1))] * 3
    elif case == "dual-scalar":
        duals = [1.0] * 3
    elif case == "two-aux":
        aux = aux[:2]
    elif case == "ranks-do-not-chain":
        cores[2] = rng.standard_normal((3, 5, 2))
    elif case == "x-of-other-extents":
        x = rng.standard_normal((2, 3, 2))
    return x, cores, aux, duals


MALFORMED = {
    "aux-broadcast": "takes aux of shape",
    "aux-scalar-like": "takes aux of shape",
    "dual-scalar": "multipliers of",
    "two-aux": "takes aux of shape",
    "ranks-do-not-chain": "tail rank",
    "x-of-other-extents": "does not match the cores' extents",
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("model", ["olrf", "llrf"])
def test_core_update_rejects_malformed_state(model, case):
    x, cores, aux, duals = malformed(case, np.random.default_rng(12))
    with pytest.raises(ValueError, match=MALFORMED[case]):
        if model == "olrf":
            core_update_olrf(x, cores, aux, duals, 2, 10.0, 2.0)
        else:
            core_update_llrf(x, cores, aux, duals[0], 2, 10.0, 2.0)


@pytest.mark.parametrize("model", ["olrf", "llrf"])
def test_core_update_of_caller_state_goes_through_ridge_solve(monkeypatch, model):
    # without a sweep's sides the system is built from the caller's own
    # state, so it is solved by the checked ridge_solve: one call per
    # update, and a system that is not positive definite or not finite is
    # rejected
    rng = np.random.default_rng(13)
    cores, x, n = rand_instance(rng)
    shape = cores[n - 1].shape
    aux = [rng.standard_normal(shape) for _ in range(3)]
    duals = [rng.standard_normal(shape) for _ in range(3)]

    def update(x, lam):
        if model == "olrf":
            return core_update_olrf(x, cores, aux, duals, n, lam, 2.0)
        return core_update_llrf(x, cores, aux, duals[0], n, lam, 2.0)

    systems = []
    ridge = trtc.prox.ridge_solve
    monkeypatch.setattr(trtc.prox, "ridge_solve", lambda b, a: systems.append(a) or ridge(b, a))
    update(x, 10.0)
    assert len(systems) == 1
    # the system is 10 * Gram + k * mu * I with k * mu <= 6; above 12, its
    # top eigenvalue has 10 times the Gram's outweigh the ridge, so at
    # lam = -10 the system is indefinite
    assert np.linalg.eigvalsh(systems[0]).max() > 12.0
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        update(x, -10.0)
    bad = x.copy()
    bad.flat[0] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError, match="not finite"):
        update(bad, 10.0)
    assert len(systems) == 3


def test_checked_core_update_shares_no_gram_code_with_the_sweep(monkeypatch):
    # the dense reference the loop's core updates are checked against
    # forms its Gram without the transfer products a data sweep reads, and
    # a checked call validates the ring once and merges one dense subchain,
    # N - 2 merges for N cores, whose Gram it forms without subchain_gram
    rng = np.random.default_rng(16)
    shape, ranks = (3, 2, 4, 2, 3), (2, 3, 1, 2, 2)
    cores = [rng.standard_normal((ranks[i], shape[i], ranks[(i + 1) % 5])) for i in range(5)]
    x = rng.standard_normal(shape)
    calls = []

    def forbidden(*args):
        raise AssertionError("the dense reference reads a transfer product")

    def counted(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    monkeypatch.setattr(trtc.ring, "transfer", forbidden)
    monkeypatch.setattr(trtc.ring, "transfer_gram", forbidden)
    monkeypatch.setattr(trtc.ring, "_merge", counted("merge", trtc.ring._merge))
    monkeypatch.setattr(trtc.ring.TRCores, "__post_init__", counted("check", trtc.ring.TRCores.__post_init__))
    for module in (trtc.prox, trtc.ring):
        monkeypatch.setattr(module, "subchain_gram", counted("gram", module.subchain_gram))
    for n in range(1, 6):
        aux, duals = rng.standard_normal((2, 3) + cores[n - 1].shape)
        for call in (lambda: core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0),
                     lambda: core_update_llrf(x, cores, aux, duals[0], n, 10.0, 2.0),
                     lambda: trtc.ring.eq2_residual(cores, x, n)):
            calls.clear()
            call()
            assert sorted(calls) == ["check"] + ["merge"] * 3
    assert subchain_gram(cores, 1).shape == (ranks[0] * ranks[1],) * 2


def normal_system(x, cores, n, lam, extra):
    # direct assembly of G (lam Q Q^T + extra) = lam Dx Q^T + rhs_terms
    q = delta_unfold(subchain(cores, n), 2).T
    a = lam * (q @ q.T) + extra
    dx = delta_unfold(x, n)
    return q, a, dx


def test_core_update_llrf_uses_single_mu_ridge():
    rng = np.random.default_rng(8)
    for _ in range(10):
        cores, x, n = rand_instance(rng)
        g0 = cores[n - 1]
        lam, mu = 10.0, 2.0
        latent = [rng.standard_normal(g0.shape) for _ in range(3)]
        dual = rng.standard_normal(g0.shape)
        g = core_update_llrf(x, cores, latent, dual, n, lam, mu)
        r = g0.shape[0] * g0.shape[2]
        q, a_mu, dx = normal_system(x, cores, n, lam, mu * np.eye(r))
        b = lam * dx @ q.T + mu * gamma_unfold(sum(latent), 2) + gamma_unfold(dual, 2)
        sol = np.linalg.solve(a_mu.T, b.T).T
        rel = np.linalg.norm(gamma_unfold(g, 2) - sol) / np.linalg.norm(sol)
        assert rel < 1e-10
        # a 3*mu ridge would land somewhere else entirely
        a3 = lam * (q @ q.T) + 3 * mu * np.eye(r)
        sol3 = np.linalg.solve(a3.T, b.T).T
        assert np.linalg.norm(gamma_unfold(g, 2) - sol3) / np.linalg.norm(sol3) > 1e-3


def test_core_update_olrf_uses_triple_mu_ridge():
    rng = np.random.default_rng(9)
    for _ in range(10):
        cores, x, n = rand_instance(rng)
        g0 = cores[n - 1]
        lam, mu = 10.0, 2.0
        aux = [rng.standard_normal(g0.shape) for _ in range(3)]
        duals = [rng.standard_normal(g0.shape) for _ in range(3)]
        g = core_update_olrf(x, cores, aux, duals, n, lam, mu)
        r = g0.shape[0] * g0.shape[2]
        q, a, dx = normal_system(x, cores, n, lam, 3 * mu * np.eye(r))
        b = (lam * dx @ q.T
             + mu * gamma_unfold(sum(aux), 2)
             + gamma_unfold(sum(duals), 2))
        sol = np.linalg.solve(a.T, b.T).T
        rel = np.linalg.norm(gamma_unfold(g, 2) - sol) / np.linalg.norm(sol)
        assert rel < 1e-10


def test_core_update_olrf_descends_its_objective():
    rng = np.random.default_rng(10)
    for _ in range(20):
        cores, x, n = rand_instance(rng)
        g0 = cores[n - 1]
        lam, mu = 10.0, 2.0
        aux = [rng.standard_normal(g0.shape) for _ in range(3)]
        duals = [rng.standard_normal(g0.shape) for _ in range(3)]

        def objective(g):
            cs = list(cores)
            cs[n - 1] = g
            v = 0.5 * lam * np.linalg.norm(x - reconstruct(cs)) ** 2
            for i in range(3):
                v += 0.5 * mu * np.linalg.norm(aux[i] - g + duals[i] / mu) ** 2
            return v

        g = core_update_olrf(x, cores, aux, duals, n, lam, mu)
        assert objective(g) <= objective(g0) + 1e-10


def test_core_updates_deterministic():
    rng = np.random.default_rng(11)
    cores, x, n = rand_instance(rng)
    g0 = cores[n - 1]
    aux = [rng.standard_normal(g0.shape) for _ in range(3)]
    duals = [rng.standard_normal(g0.shape) for _ in range(3)]
    a = core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0)
    b = core_update_olrf(x, cores, aux, duals, n, 10.0, 2.0)
    np.testing.assert_array_equal(a, b)
    dual = rng.standard_normal(g0.shape)
    c = core_update_llrf(x, cores, aux, dual, n, 10.0, 2.0)
    d = core_update_llrf(x, cores, aux, dual, n, 10.0, 2.0)
    np.testing.assert_array_equal(c, d)
