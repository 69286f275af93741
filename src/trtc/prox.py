"""Per-iteration kernels: singular value thresholding and the core updates.

Both ADMM solvers alternate between SVT steps on core unfoldings and a
regularized least-squares update of each core. The core update solves

    G2 (lam * Q Q^T + shift * I) = lam * Delta_n(X) Q^T + Gamma_2(reg)

for G2 = Gamma_2(G_n), where Q = Delta_2(subchain)^T. Each model sums its
regularizer into one tensor reg shaped like core n, so the right-hand side
has a single unfolding: mu * sum_i M_ni + sum_i Y_ni with shift 3*mu for the
overlapped model (three auxiliary tensors), mu * sum_i W_ni + Y_n with shift
mu for the latent model.

The data term Delta_n(X) Q^T is read from the two chains on either side of
core n, the prefix (cores 1..n-1 merged) and the suffix (cores n+1..N
merged), so neither the subchain nor an unfolding of X is formed. A solver
that sweeps the cores passes the (prefix, suffix) pair it already holds;
without it the pair is built from the cores.
"""

import math
from dataclasses import dataclass

import numpy as np

# delta_unfold is no longer called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps trtc.prox.delta_unfold
from .tensors import delta_unfold, gamma_fold, gamma_unfold  # noqa: F401
from .ring import _core_list, prefix_suffix, subchain_gram


@dataclass
class SVTResult:
    matrix: np.ndarray
    effective_rank: int


def svt(a, beta):
    """Singular value thresholding, the prox operator of beta * nuclear norm.

    Returns U max(S - beta, 0) V^T together with the number of singular
    values above the threshold.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    shrunk = np.maximum(s - beta, 0.0)
    keep = int(np.count_nonzero(shrunk))
    m = (u[:, :keep] * shrunk[:keep]) @ vt[:keep]
    return SVTResult(matrix=m, effective_rank=keep)


def ridge_solve(b, a):
    """Solve X A = B for SPD A; never forms A^{-1}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise np.linalg.LinAlgError("linear system is not finite")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    # the factor only rejects a matrix that is not positive definite: numpy
    # has no triangular solve, and two np.linalg.solve calls on the factor
    # cost about 72 us against 38 us for one solve with A at 36x36
    np.linalg.cholesky(a)
    return np.linalg.solve(a, b.T).T


def data_term(x, n, prefix, suffix):
    """Delta_n(x) @ Delta_2(subchain_n), from the chains on either side of core n.

    prefix is cores 1..n-1 merged, shape (R_1, A, R_n), and suffix is cores
    n+1..N merged, shape (R_{n+1}, B, R_1); either is None where it has no
    cores (n = 1, n = N). x is read as its first-index-fastest (A, I_n, B)
    view, which is free for a Fortran-ordered x. Modes 1 and N take one
    contraction, against the rank slices of their single chain. Otherwise
    the larger of A and B is contracted first, in one gemm against its
    chain, and the small (., I_n, R, R) rest against the other chain.
    """
    x = np.asarray(x)
    i_n = x.shape[n - 1]
    a = math.prod(x.shape[:n - 1])
    b = math.prod(x.shape[n:])
    if prefix is None or suffix is None:
        # the chain is all other cores, (R_{n+1}, ., R_n): R_1 is R_n or R_{n+1}
        chain = prefix if suffix is None else suffix
        xm = x.reshape(i_n, b, order="F") if prefix is None else x.reshape(a, i_n, order="F").T
        t = np.matmul(xm, chain.transpose(2, 1, 0)).transpose(1, 2, 0)
    elif b > a:
        t = x.reshape(a * i_n, b, order="F") @ suffix.transpose(1, 2, 0).reshape(b, -1)
        t = t.reshape(i_n, a, -1, suffix.shape[0])  # [i_n, j_A, r_1, r_{n+1}]
        t = np.tensordot(t, prefix, axes=([1, 2], [1, 0]))
    else:
        t = x.reshape(a, i_n * b, order="F").T @ prefix.transpose(1, 2, 0).reshape(a, -1)
        t = t.reshape(b, i_n, prefix.shape[2], -1)  # [j_B, i_n, r_n, r_1]
        t = np.tensordot(t, suffix, axes=([0, 3], [1, 2])).transpose(0, 2, 1)
    # t[i_n, r_{n+1}, r_n]: columns of Delta_2 run over (r_n, r_{n+1}), r_n fastest
    return t.reshape(i_n, -1)


def _core_update(x, cores, n, lam, shift, reg, chains):
    # solves G2 (lam Q Q^T + shift I) = lam Delta_n(X) Q^T + Gamma_2(reg)
    cs = _core_list(cores)
    core = cs[n - 1]
    prefix, suffix = prefix_suffix(cs, n) if chains is None else chains
    b = lam * data_term(x, n, prefix, suffix) + gamma_unfold(reg, 2)
    a = lam * subchain_gram(cs, n) + shift * np.eye(core.shape[0] * core.shape[2])
    return gamma_fold(ridge_solve(b, a), 2, core.shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, chains=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. chains, when given, must equal
    prefix_suffix(cores, n): a solver that sweeps the cores passes the
    (prefix, suffix) pair it already holds.
    """
    return _core_update(x, cores, n, lam, 3.0 * mu, mu * sum(aux) + sum(duals), chains)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, chains=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n. chains is the
    (prefix, suffix) pair, as for core_update_olrf.
    """
    return _core_update(x, cores, n, lam, mu, mu * sum(latent) + dual, chains)
