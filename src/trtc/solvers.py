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
tensors by SVT and step the multipliers, refill the missing entries of x
from the reconstruction, grow mu. Stops when the relative change of x drops
below tol; a stop with the reconstruction collapsed toward zero (at most
_COLLAPSE times the norm of the observed entries) is not converged. The
report's stop_reason says which stop it was: "tol", "collapsed", or
"max_iters" when the iteration limit came first.

The SVT and dual steps touch each core alone, so they run once per group
of cores that share a shape (R_n, I_n, R_{n+1}): a ShapeGroup holds the
group's auxiliary tensors (3, m, ...) and multipliers (k, m, ...) as
stacks. After the core sweep, one pass over the groups stacks each group's
cores and takes the SVT and dual steps on the stack. The core sweep reads
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

One data sweep serves the whole solve. The loop builds every shape the
core updates read, and their systems are positive definite by
construction, so a core update given the sweep's terms checks nothing and
solves its system with one np.linalg.solve (trtc.prox).

The reconstruction z, first index fastest, is the (rows, cols) product of
the two halves, and the loop never forms it whole: it contracts the halves
one range of z's columns (about _BLOCK entries) at a time and, while the
range is in cache, writes its missing entries into x in place, through
x's flat first-index-fastest view. The ranges and their missing entries'
offsets are computed once per solve. The observed entries of x never
change, so the relative change is taken over the missing entries alone:
each range writes their change into its segment of one buffer, whose norm
is then the same dot over the same values as a whole-z refill's. No array
of the tensor's size but x lives through an iteration.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .tensors import gamma_unfold, gamma_fold
from .ring import TRCores, TRRank, _merge, _trace_contract, data_sweep, split_mode
from .prox import svt, core_update_olrf, core_update_llrf

# penalty schedule, the same for every solve: mu starts at _MU0 and grows
# by _RHO per iteration up to _MU_MAX
_MU0 = 1.0
_MU_MAX = 100.0
_RHO = 1.01
# a solve that stops with its last reconstruction at most _COLLAPSE times
# the norm of the observed entries has collapsed toward zero: not converged
_COLLAPSE = 1e-3
# the reconstruction is formed and refilled in column ranges of about this
# many entries (512 KB), so no range leaves the cache before its refill
_BLOCK = 2 ** 16


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
class SolveReport:
    iterations: int
    stop_reason: str  # "tol", "collapsed" (stopped at tol, not converged) or "max_iters"
    rel_change_history: list
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


def _validate(observed, mask, cfg):
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
    return observed, mask


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
    """Initial solver state (x, cores, groups) for validated input and a
    model of MODELS: x = observed with missing entries set to zero,
    first-index-fastest, N(0,1) cores, and one ShapeGroup per core shape
    that holds the cores' zero auxiliaries and multipliers as stacks."""
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
    return x, cores, groups


def _solve(name, observed, mask, cfg):
    observed, mask = _validate(observed, mask, cfg)
    x, cores, groups = init_state(observed, mask, cfg, name)
    model = MODELS[name]
    mu = _MU0

    obs_norm = np.linalg.norm(x)
    x_flat = x.reshape(-1, order="F")
    # the refill's plan: z's columns go in ranges of about _BLOCK entries,
    # each with x's slice, the offsets of its missing entries in that slice
    # and its segment of the missing entries. A product of one row or one
    # column is a gemv, whose bits differ from the gemm's and depend on its
    # width: every range has two columns or more, and a z of one row is a
    # single range, so the ranges are the whole product bit for bit
    rows = math.prod(x.shape[:split_mode(x.shape)])
    cols = x.size // rows
    width = cols if rows == 1 else min(cols, max(2, _BLOCK // rows))
    edges = list(range(0, cols, width))
    if len(edges) > 1 and cols - edges[-1] == 1:
        edges.pop()
    edges.append(cols)
    missing = ~mask.ravel(order="F")
    blocks, n_missing = [], 0
    for k0, k1 in zip(edges, edges[1:]):
        loc = np.flatnonzero(missing[k0 * rows:k1 * rows])
        seg = slice(n_missing, n_missing + len(loc))
        blocks.append((slice(k0, k1), x_flat[k0 * rows:k1 * rows], loc, seg))
        n_missing += len(loc)
    # the change of x's missing entries, which the refill alone writes
    diff = np.empty(n_missing)
    missing = None
    order = len(cores)
    # one data sweep for the whole solve, which builds its first suffix
    # chains and transfer matrices from the initial cores, and core n's
    # slot, slice j of the stacks of group groups[gi]
    terms = data_sweep(x, cores, _merge)
    slots = {n: (gi, j) for gi, grp in enumerate(groups) for j, n in enumerate(grp.members)}

    rel_hist, cons_hist, iter_times, mu_hist = [], [], [], []
    stop_reason = "max_iters"
    blowups = 0
    t_start = time.perf_counter()
    for it in range(1, cfg.max_iters + 1):
        t_iter = time.perf_counter()
        mu_hist.append(mu)
        try:
            # the penalty terms of the core updates, which the sweep leaves
            # unchanged, once per core shape
            penalties = [
                gamma_unfold(mu * grp.aux.sum(0) + grp.multipliers.sum(0), 2, stacked=True)
                for grp in groups
            ]
            for n in range(1, order + 1):
                gi, j = slots[n - 1]
                grp = groups[gi]
                cores[n - 1] = model.core_update(
                    x, cores, grp.aux[:, j], grp.multipliers[:, j], n, cfg.lam, mu,
                    (*next(terms), penalties[gi][j]),
                )
            # resumed after core N, the data sweep gives the two halves of
            # the new ring and drops its partial contractions and transfer
            # products; resumed once more, it starts the next sweep from
            # the suffix chains it built with the second half
            prefix, suffix = next(terms)

            # the prox half and the dual step run once per core shape, on
            # the stacked cores
            beta = 1.0 / mu
            cons = 0.0
            for grp in groups:
                g = np.stack([cores[n] for n in grp.members])
                shift = g - grp.multipliers / mu
                for i in range(3):
                    target = model.svt_target(shift, grp.aux, i)
                    hit = svt(gamma_unfold(target, i + 1, stacked=True), beta).matrix
                    grp.aux[i] = gamma_fold(hit, i + 1, g.shape[1:])
                res = model.residual(g, grp.aux)
                grp.multipliers += mu * res
                # each core's largest constraint residual, relative to the core
                worst = np.linalg.norm(res.reshape(len(res), len(g), -1), axis=2).max(axis=0)
                norms = np.linalg.norm(g.reshape(len(g), -1), axis=1)
                cons = max(cons, float((worst / np.where(norms == 0.0, 1.0, norms)).max()))
        except np.linalg.LinAlgError as e:
            raise DivergenceError(f"{name} iterate became non-finite at iteration {it}: {e}") from e

        # the halves contracted as in ring.reconstruct, range by range, so
        # final_x off the mask is reconstruct(final_cores) bit for bit; the
        # observed entries of x stay put, and the collapse test reads z's
        # norm from the ranges
        z_sq = 0.0
        for ks, xb, loc, seg in blocks:
            zc = _trace_contract(prefix, suffix[:, ks]).reshape(-1, order="F")
            z_sq += zc @ zc
            zm = zc[loc]
            np.subtract(zm, xb[loc], out=diff[seg])
            xb[loc] = zm
        rel = float(np.linalg.norm(diff) / obs_norm)
        mu = min(_RHO * mu, _MU_MAX)

        rel_hist.append(rel)
        cons_hist.append(float(cons))
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
            stop_reason = "tol" if np.sqrt(z_sq) > _COLLAPSE * obs_norm else "collapsed"
            break

    return SolveReport(
        iterations=it,
        stop_reason=stop_reason,
        rel_change_history=rel_hist,
        final_x=x,
        final_cores=TRCores(tuple(cores)),
        wall_time=time.perf_counter() - t_start,
        iter_times=iter_times,
        consistency_history=cons_hist,
        mu_history=mu_hist,
    )


def solve_olrf(observed, mask, cfg):
    """Complete a partially observed tensor with the overlapped model."""
    return _solve("olrf", observed, mask, cfg)


def solve_llrf(observed, mask, cfg):
    """Complete a partially observed tensor with the latent model."""
    return _solve("llrf", observed, mask, cfg)
