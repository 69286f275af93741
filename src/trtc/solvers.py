"""ADMM completion solvers on the tensor-ring format.

One ADMM loop (Boyd et al. 2011) serves both models of the paper. Each core
G_n has three auxiliary tensors, one per unfolding, and a model is only the
constraint that ties them to the core:

  olrf (overlapped, _Overlapped): k = 3 constraints M_ni = G_n, each with
      its own multiplier Y_ni.
  llrf (latent, _Latent): k = 1 constraint sum_i W_ni = G_n, with a single
      multiplier Y_n; each latent tensor W_ni is low-rank in one unfolding.

A model gives k, residual(g, aux) (the k constraint residuals as a stack:
aux - g, or (sum_i aux_i - g)[None]), svt_target(shift, aux, i) (the
tensor whose i-th unfolding is thresholded into aux[i], from the (k, ...)
stack shift = g - y / mu, formed once per core shape: shift[i], or
shift[0] minus the other two latent tensors) and a one-line
core_update that calls its kernel in trtc.prox, where one formula serves
both models. The loop owns every step: the multipliers are a (k, ...) stack
for both models, and one ascent y += mu * residual serves both. Adding a
third model is one class and one entry in MODELS.

Per iteration, in order: sweep the cores n = 1..N (Gauss-Seidel, each update
sees the cores already refreshed this sweep), update the auxiliary/latent
tensors by SVT, refill the missing entries of x from the reconstruction,
step the multipliers, grow mu. Stops when the relative change of x drops
below tol; a stop with the reconstruction collapsed toward zero (at most
_COLLAPSE times the norm of the observed entries) is not converged. The
report's stop_reason says which stop it was: "tol", "collapsed", or
"max_iters" when the iteration limit came first.

The SVT and dual steps touch each core alone, so they run once per group
of cores that share a shape (R_n, I_n, R_{n+1}): a ShapeGroup holds the
group's auxiliary tensors (3, m, ...) and multipliers (k, m, ...) as
stacks, and its cores are stacked once per iteration. The core sweep reads
core n's slices grp.aux[:, j] and grp.multipliers[:, j] through one slot
map, and the penalty term Gamma_2(mu * sum_i aux_i + sum_j Y_j) of its
update, which the sweep does not change, from a stack formed once per
group before the sweep. The SVT targets are taken in order i = 1, 2, 3,
each after aux[i - 1] is written, so LLRF stays Gauss-Seidel over the
three latent tensors of a core; OLRF's targets do not read aux.

The core sweep reads what each core update needs from the rest of the ring,
its data term and its subchain Gram, from one generator, a ring.data_sweep
over x and the cores. It splits the ring in two halves at the mode
ring.split_mode(x.shape) picks and reads x in two gemms, one per half, and
it carries the cores' transfer matrices, one made per core update, into
the next sweep. Resumed after the last core, it gives the two halves of
the new ring: the chains of the first and of the second half's cores.
The reconstruction contracts the two, as ring.reconstruct does, and the
next sweep starts from the suffix chains the second half was built with,
so each chain is built once per iteration. x stays first-index-fastest
(Fortran order), so the sweep reads it without a copy.

One data sweep serves the whole solve, so what it derives from the shapes
alone (the split and the layouts of its products) is derived once per
solve, as is the slot map. The loop builds every shape the core updates
read, and their systems are positive definite by construction, so a core
update given the sweep's terms checks nothing and solves its system with
one np.linalg.solve (trtc.prox).

The refill writes the reconstruction into the missing entries of x in
place, through x's flat first-index-fastest view and the positions of the
missing entries, computed once per solve. The observed entries of x never
change, so the relative change is taken over the missing entries alone,
against the values the last refill wrote (zero before the first), which the
loop keeps instead of reading them back from x.
"""

import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .tensors import gamma_unfold, gamma_fold
from .ring import TRCores, TRRank, _merge, _trace_contract, data_sweep
from .prox import svt, core_update_olrf, core_update_llrf

# penalty schedule, the same for every solve: mu starts at _MU0 and grows
# by _RHO per iteration up to _MU_MAX
_MU0 = 1.0
_MU_MAX = 100.0
_RHO = 1.01
# a solve that stops with its last reconstruction at most _COLLAPSE times
# the norm of the observed entries has collapsed toward zero: not converged
_COLLAPSE = 1e-3


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
        # numpy integers pass; a float, even an integral one, does not
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")


@dataclass
class ShapeGroup:
    """The cores of one shape (R_n, I_n, R_{n+1}) and their stacked state."""
    members: list            # indices of the m cores, in ring order
    aux: np.ndarray          # (3, m, R_n, I_n, R_{n+1}): M_ni (olrf) or W_ni (llrf)
    multipliers: np.ndarray  # (k, m, ...): Y_ni (olrf, k = 3) or Y_n (llrf, k = 1)


@dataclass
class State:
    x: np.ndarray
    cores: list
    groups: list  # one ShapeGroup per core shape


@dataclass
class SolveReport:
    iterations: int
    stop_reason: str  # "tol", "collapsed" (stopped at tol, not converged) or "max_iters"
    rel_change_history: list
    rse_history: Optional[list]
    final_x: np.ndarray
    final_cores: TRCores
    wall_time: float
    iter_times: list = field(default_factory=list)
    consistency_history: list = field(default_factory=list)
    mu_history: list = field(default_factory=list)

    @property
    def converged(self):
        return self.stop_reason == "tol"


def _scored(mask):
    # rse's "missing" scope: the missing entries, or a full view when none is
    return ... if mask.all() else ~mask


def rse(estimate, truth, scope="all", mask=None):
    """Relative error norm(estimate - truth) / norm(truth) on a scope.

    scope "all" compares every entry; "missing" compares the entries where
    mask is False, or every entry when mask has none (mask required).
    """
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError("shape mismatch")
    if scope not in ("all", "missing"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "missing" and (mask is None or np.shape(mask) != truth.shape):
        raise ValueError("missing scope needs an observation mask of the tensors' shape")
    sel = ... if scope == "all" else _scored(np.asarray(mask, dtype=bool))
    e, t = estimate[sel], truth[sel]
    denom = np.linalg.norm(t)
    if denom == 0.0:
        raise ValueError("truth has zero norm on the scored entries")
    return float(np.linalg.norm(e - t) / denom)


def _checked_truth(truth, mask):
    """truth as floats, checked to score a completion of mask's tensor."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape != mask.shape:
        raise ValueError(f"truth shape {truth.shape} does not match tensor shape {mask.shape}")
    if not np.isfinite(truth).all():
        raise ValueError("truth entries must be finite")
    if np.linalg.norm(truth[_scored(mask)]) == 0.0:
        raise ValueError("truth has zero norm on the scored entries")
    return truth


def _validate(observed, mask, cfg, truth=None):
    observed = np.asarray(observed, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != observed.shape:
        raise ValueError("mask shape does not match tensor shape")
    if not mask.any():
        raise ValueError("observation mask is empty")
    obs = observed[mask]
    if not np.isfinite(obs).all():
        raise ValueError("observed entries must be finite")
    if not obs.any():
        raise ValueError("observed entries are all zero")
    # the loop divides by this norm
    if np.linalg.norm(obs) == 0.0:
        raise ValueError("observed entries are too small: their norm underflows to zero")
    if len(cfg.tr_rank) != observed.ndim:
        raise ValueError(
            f"rank vector of length {len(cfg.tr_rank)} incompatible with order-{observed.ndim} tensor"
        )
    if truth is not None:
        truth = _checked_truth(truth, mask)
    return observed, mask, truth


class _Overlapped:
    k = 3  # M_ni = G_n, one constraint per unfolding

    # the kernels are looked up as module attributes at call time, so a
    # profiler that rebinds them (perfbench/tracing.py) sees every call
    @staticmethod
    def core_update(x, cores, aux, y, n, lam, mu, sides):
        return core_update_olrf(x, cores, aux, y, n, lam, mu, sides=sides)

    @staticmethod
    def residual(g, aux):
        return aux - g

    @staticmethod
    def svt_target(shift, aux, i):
        return shift[i]


class _Latent:
    k = 1  # sum_i W_ni = G_n

    @staticmethod
    def core_update(x, cores, aux, y, n, lam, mu, sides):
        return core_update_llrf(x, cores, aux, y[0], n, lam, mu, sides=sides)

    @staticmethod
    def residual(g, aux):
        return (sum(aux) - g)[None]

    @staticmethod
    def svt_target(shift, aux, i):
        # Gauss-Seidel over the three latent tensors: the other two are the
        # freshest the loop has written
        return shift[0] - sum(aux[j] for j in range(3) if j != i)


MODELS = {"olrf": _Overlapped, "llrf": _Latent}


def init_state(observed, mask, cfg, model):
    """Initial solver state for validated input and a model of MODELS:
    N(0,1) cores, zero auxiliaries and multipliers, x = observed with missing
    entries set to zero, first-index-fastest. The auxiliary tensors and
    multipliers live in the stacks of the cores' ShapeGroups."""
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
    by_shape = {}
    for n, c in enumerate(cores):
        by_shape.setdefault(c.shape, []).append(n)
    k = MODELS[model].k
    groups = [
        ShapeGroup(idx, np.zeros((3, len(idx)) + s), np.zeros((k, len(idx)) + s))
        for s, idx in by_shape.items()
    ]
    return State(x=x, cores=cores, groups=groups)


def _solve(name, observed, mask, cfg, truth=None):
    observed, mask, truth = _validate(observed, mask, cfg, truth)
    state = init_state(observed, mask, cfg, name)
    model = MODELS[name]
    cores = state.cores
    x = state.x
    mu = _MU0

    obs_norm = np.linalg.norm(x)
    x_flat = x.reshape(-1, order="F")
    missing = np.flatnonzero(~mask.ravel(order="F"))
    # x's missing entries, which the refill alone writes: zero at the start
    x_missing = np.zeros(len(missing))
    if truth is not None:
        # the entries rse scores (_scored), gathered once in the order the
        # loop holds x's: the missing entries, or every entry when none is
        truth_flat = truth.reshape(-1, order="F")
        truth_scored = truth_flat[missing] if len(missing) else truth_flat
        truth_norm = np.linalg.norm(truth_scored)
    order = len(cores)
    # the sweep plan, derived once from the shapes: one data sweep for the
    # whole solve, which builds its first suffix chains and transfer
    # matrices from the initial cores, and core n's slot, slice j of the
    # stacks of group state.groups[gi]
    terms = data_sweep(x, cores, _merge)
    slots = {n: (gi, j) for gi, grp in enumerate(state.groups) for j, n in enumerate(grp.members)}

    rel_hist, rse_hist, cons_hist, iter_times, mu_hist = [], [], [], [], []
    stop_reason = "max_iters"
    blowups = 0
    t_start = time.perf_counter()
    for it in range(1, cfg.max_iters + 1):
        t_iter = time.perf_counter()
        mu_hist.append(mu)
        try:
            # drop the last iteration's reconstruction before the sweep
            z = None
            # the penalty terms of the core updates, which the sweep leaves
            # unchanged, once per core shape
            penalties = [
                gamma_unfold(mu * grp.aux.sum(0) + grp.multipliers.sum(0), 2, stacked=True)
                for grp in state.groups
            ]
            for n in range(1, order + 1):
                gi, j = slots[n - 1]
                grp = state.groups[gi]
                cores[n - 1] = model.core_update(
                    x, cores, grp.aux[:, j], grp.multipliers[:, j], n, cfg.lam, mu,
                    (*next(terms), penalties[gi][j]),
                )
            # resumed after core N, the data sweep gives the two halves of
            # the new ring and drops its partial contractions and transfer
            # products; resumed once more, it starts the next sweep from
            # the suffix chains it built with the second half
            prefix, suffix = next(terms)

            # the prox half runs once per core shape, on the stacked cores
            stacks = [np.stack([cores[n] for n in grp.members]) for grp in state.groups]
            beta = 1.0 / mu
            for grp, g in zip(state.groups, stacks):
                shift = g - grp.multipliers / mu
                for i in range(3):
                    target = model.svt_target(shift, grp.aux, i)
                    hit = svt(gamma_unfold(target, i + 1, stacked=True), beta).matrix
                    grp.aux[i] = gamma_fold(hit, i + 1, g.shape[1:])

            # the halves contracted as in ring.reconstruct, so final_x off
            # the mask is reconstruct(final_cores) bit for bit
            z = _trace_contract(prefix, suffix)
        except np.linalg.LinAlgError as e:
            raise DivergenceError(f"{name} iterate became non-finite at iteration {it}: {e}") from e

        # z is first-index-fastest, as x; the observed entries of x stay put
        z_missing = z.reshape(-1, order="F")[missing]
        rel = float(np.linalg.norm(z_missing - x_missing) / obs_norm)
        x_flat[missing] = x_missing = z_missing

        cons = 0.0
        for grp, g in zip(state.groups, stacks):
            res = model.residual(g, grp.aux)
            grp.multipliers += mu * res
            # each core's largest constraint residual, relative to the core
            worst = np.linalg.norm(res.reshape(len(res), len(g), -1), axis=2).max(axis=0)
            norms = np.linalg.norm(g.reshape(len(g), -1), axis=1)
            cons = max(cons, float((worst / np.where(norms == 0.0, 1.0, norms)).max()))
        mu = min(_RHO * mu, _MU_MAX)

        rel_hist.append(rel)
        cons_hist.append(float(cons))
        if truth is not None:
            scored = x_missing if len(missing) else x_flat
            rse_hist.append(float(np.linalg.norm(scored - truth_scored) / truth_norm))
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
            stop_reason = "tol" if np.linalg.norm(z) > _COLLAPSE * obs_norm else "collapsed"
            break

    return SolveReport(
        iterations=it,
        stop_reason=stop_reason,
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
