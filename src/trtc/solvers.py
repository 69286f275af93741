"""ADMM completion solvers on the tensor-ring format.

One ADMM loop (Boyd et al. 2011) serves both models of the paper. A model
is a small strategy class that says only what differs between them:

  olrf (overlapped, _Overlapped): each core G_n carries three auxiliary
      tensors M_ni, one per unfolding, each with its own multiplier Y_ni and
      the constraint M_ni = G_n.
  llrf (latent, _Latent): each core is the sum of three latent tensors W_ni,
      each low-rank in one unfolding, with a single multiplier Y_n for the
      constraint sum_i W_ni = G_n.

A model supplies new_multipliers(core), core_update(...) (the exact
minimizer of its core sub-objective), svt_target(...) (the tensor whose
i-th unfolding is thresholded into aux[i]) and dual_step(...) (multiplier
ascent, returning the norm of the constraint residual). Adding a third model is one
class and one entry in MODELS.

Per iteration, in order: sweep the cores n = 1..N (Gauss-Seidel, each update
sees the cores already refreshed this sweep), update the auxiliary/latent
tensors by SVT, refill the missing entries of x from the reconstruction,
step the multipliers, grow mu. Stops when the relative change of x drops
below tol.

The core sweep never forms a subchain: suffix chains of the not yet updated
cores are built once per sweep, the prefix chain of refreshed cores is
extended as the sweep advances, and the data term of core n reads the prefix
and the suffix on either side of it. x stays first-index-fastest (Fortran
order) for the whole solve, so the data term reads it without a copy.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensors import gamma_unfold, gamma_fold
from .ring import TRCores, TRRank, _merge, _trace_contract
from .prox import svt, core_update_olrf, core_update_llrf

# penalty schedule, the same for every solve: mu starts at _MU0 and grows
# by _RHO per iteration up to _MU_MAX
_MU0 = 1.0
_MU_MAX = 100.0
_RHO = 1.01


class DivergenceError(RuntimeError):
    """Raised when the iteration blows up instead of converging."""


@dataclass
class SolverConfig:
    tr_rank: TRRank
    lam: float = 10.0
    tol: float = 1e-6
    max_iters: int = 500
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.tr_rank, TRRank):
            self.tr_rank = TRRank(tuple(self.tr_rank))
        # written so that NaN fails the checks
        if not 0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class State:
    x: np.ndarray
    cores: list
    aux: list          # aux[n][i], shaped like core n: M_ni (olrf) or W_ni (llrf)
    multipliers: list  # per core: [Y_n1, Y_n2, Y_n3] (olrf) or Y_n (llrf)


@dataclass
class SolveReport:
    iterations: int
    converged: bool
    rel_change_history: list
    rse_history: Optional[list]
    final_x: np.ndarray
    final_cores: TRCores
    wall_time: float
    iter_times: list = field(default_factory=list)
    consistency_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)


def rse(estimate, truth, scope="all", mask=None):
    """Relative error norm(estimate - truth) / norm(truth) on a scope.

    scope "all" compares every entry; "missing" compares only entries where
    mask is False (mask required).
    """
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError("shape mismatch")
    if scope == "all":
        e, t = estimate, truth
    elif scope == "missing":
        if mask is None:
            raise ValueError("missing scope needs the observation mask")
        sel = ~np.asarray(mask, dtype=bool)
        e, t = estimate[sel], truth[sel]
    else:
        raise ValueError(f"unknown scope {scope!r}")
    denom = np.linalg.norm(t)
    if denom == 0.0:
        raise ValueError("truth has zero norm on the requested scope")
    return float(np.linalg.norm(e - t) / denom)


def _validate(observed, mask, cfg):
    observed = np.asarray(observed, dtype=float)
    # first-index-fastest like x, so the refill keeps x Fortran-ordered
    mask = np.asfortranarray(mask, dtype=bool)
    if mask.shape != observed.shape:
        raise ValueError("mask shape does not match tensor shape")
    if not mask.any():
        raise ValueError("observation mask is empty")
    if not np.isfinite(observed[mask]).all():
        raise ValueError("observed entries must be finite")
    if len(cfg.tr_rank) != observed.ndim:
        raise ValueError(
            f"rank vector of length {len(cfg.tr_rank)} incompatible with order-{observed.ndim} tensor"
        )
    return observed, mask


class _Overlapped:
    @staticmethod
    def new_multipliers(core):
        return [np.zeros_like(core) for _ in range(3)]

    # the kernels are looked up as module attributes at call time, so a
    # profiler that rebinds them (perfbench/tracing.py) sees every call
    @staticmethod
    def core_update(x, cores, aux, y, n, lam, mu, chains):
        return core_update_olrf(x, cores, aux, y, n, lam, mu, chains=chains)

    @staticmethod
    def svt_target(g, aux, y, i, mu):
        return g - y[i] / mu

    @staticmethod
    def dual_step(g, aux, y, mu):
        res = 0.0
        for i in range(3):
            diff = aux[i] - g
            y[i] += mu * diff
            res = max(res, np.linalg.norm(diff))
        return res


class _Latent:
    @staticmethod
    def new_multipliers(core):
        return np.zeros_like(core)

    @staticmethod
    def core_update(x, cores, aux, y, n, lam, mu, chains):
        return core_update_llrf(x, cores, aux, y, n, lam, mu, chains=chains)

    @staticmethod
    def svt_target(g, aux, y, i, mu):
        # Gauss-Seidel over the three latent tensors, freshest first
        others = sum(aux[j] for j in range(3) if j != i)
        return g - y / mu - others

    @staticmethod
    def dual_step(g, aux, y, mu):
        diff = sum(aux) - g
        y += mu * diff
        return np.linalg.norm(diff)


MODELS = {"olrf": _Overlapped, "llrf": _Latent}


def init_state(observed, mask, cfg, model="olrf"):
    """Initial solver state for validated input: N(0,1) cores, zero
    auxiliaries and multipliers, x = observed with missing entries set to
    zero, first-index-fastest."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    shape = observed.shape
    ranks = cfg.tr_rank.ranks
    n_modes = len(shape)
    rng = np.random.default_rng(cfg.seed)
    cores = [
        rng.standard_normal((ranks[i], shape[i], ranks[(i + 1) % n_modes]))
        for i in range(n_modes)
    ]
    x = np.zeros(shape, order="F")
    np.copyto(x, observed, where=mask)
    return State(
        x=x,
        cores=cores,
        aux=[[np.zeros_like(c) for _ in range(3)] for c in cores],
        multipliers=[MODELS[model].new_multipliers(c) for c in cores],
    )


def _suffix_chains(cores):
    # sfx[i] merges cores[i:], sfx[N] is None
    n = len(cores)
    sfx = [None] * (n + 1)
    sfx[n - 1] = cores[n - 1]
    for i in range(n - 2, 0, -1):
        sfx[i] = _merge(cores[i], sfx[i + 1])
    return sfx


def _solve(name, observed, mask, cfg, truth=None):
    observed, mask = _validate(observed, mask, cfg)
    shape = observed.shape
    n_modes = observed.ndim
    state = init_state(observed, mask, cfg, name)
    model = MODELS[name]
    cores = state.cores
    obs = x = state.x
    mu = _MU0

    obs_norm = np.linalg.norm(obs)
    if obs_norm == 0.0:
        raise ValueError("observed entries are all zero")
    scope = "missing" if not mask.all() else "all"

    rel_hist, rse_hist, cons_hist, iter_times, mu_hist = [], [], [], [], []
    converged = False
    blowups = 0
    t_start = time.perf_counter()
    it = 0
    for it in range(1, cfg.max_iters + 1):
        t_iter = time.perf_counter()
        mu_hist.append(mu)
        try:
            # drop the last iteration's full prefix and reconstruction
            # before the suffix chains are built
            prefix = z = None
            sfx = _suffix_chains(cores)
            for n in range(1, n_modes + 1):
                g = model.core_update(
                    x, cores, state.aux[n - 1], state.multipliers[n - 1], n, cfg.lam, mu,
                    (prefix, sfx[n]),
                )
                cores[n - 1] = g
                if n < n_modes:
                    prefix = g if prefix is None else _merge(prefix, g)

            beta = 1.0 / mu
            for g, aux, y in zip(cores, state.aux, state.multipliers):
                for i in range(3):
                    target = model.svt_target(g, aux, y, i, mu)
                    hit = svt(gamma_unfold(target, i + 1), beta).matrix
                    aux[i] = gamma_fold(hit, i + 1, g.shape)

            z = _trace_contract(prefix, cores[-1]).reshape(shape, order="F")
        except np.linalg.LinAlgError as e:
            raise DivergenceError(f"{name} iterate became non-finite at iteration {it}: {e}") from e

        x_new = np.where(mask, obs, z)
        rel = float(np.linalg.norm(x_new - x) / obs_norm)
        x = x_new

        cons = 0.0
        for g, aux, y in zip(cores, state.aux, state.multipliers):
            cons = max(cons, model.dual_step(g, aux, y, mu) / (np.linalg.norm(g) or 1.0))
        mu = min(_RHO * mu, _MU_MAX)

        rel_hist.append(rel)
        cons_hist.append(float(cons))
        if truth is not None:
            rse_hist.append(rse(x, truth, scope, mask))
        iter_times.append(time.perf_counter() - t_iter)

        if not np.isfinite(rel) or rel > 1e3:
            blowups += 1
            if blowups >= 10:
                raise DivergenceError(
                    f"{name} relative change above 1e3 for 10 consecutive iterations (iteration {it})"
                )
        else:
            blowups = 0

        if rel < cfg.tol:
            converged = True
            break

    return SolveReport(
        iterations=it,
        converged=converged,
        rel_change_history=rel_hist,
        rse_history=rse_hist if truth is not None else None,
        final_x=x,
        final_cores=TRCores(tuple(cores)),
        wall_time=time.perf_counter() - t_start,
        iter_times=iter_times,
        consistency_history=cons_hist,
        mu_history=mu_hist,
    )


def solve_olrf(observed, mask, cfg, truth=None):
    """Complete a partially observed tensor with the overlapped model."""
    return _solve("olrf", observed, mask, cfg, truth)


def solve_llrf(observed, mask, cfg, truth=None):
    """Complete a partially observed tensor with the latent model."""
    return _solve("llrf", observed, mask, cfg, truth)
