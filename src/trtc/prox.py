"""Per-iteration kernels: singular value thresholding and the core updates.

Both ADMM solvers alternate between SVT steps on core unfoldings and a
regularized least-squares update of each core. The core update solves

    G2 (lam * Q Q^T + shift * I) = lam * Delta_n(X) Q^T + Gamma_2(reg)

for G2 = Gamma_2(G_n), where Q = Delta_2(subchain)^T. Each model sums its
regularizer into one tensor reg shaped like core n, so the right-hand side
has a single unfolding: mu * sum_i M_ni + sum_i Y_ni with shift 3*mu for the
overlapped model (three auxiliary tensors), mu * sum_i W_ni + Y_n with shift
mu for the latent model.
"""

from dataclasses import dataclass

import numpy as np

from .tensors import delta_unfold, gamma_fold, gamma_unfold
from .ring import _core_list, subchain, subchain_gram


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


def _core_update(x, cores, n, lam, shift, reg, chain):
    # solves G2 (lam Q Q^T + shift I) = lam Delta_n(X) Q^T + Gamma_2(reg)
    cs = _core_list(cores)
    core = cs[n - 1]
    if chain is None:
        chain = subchain(cs, n)
    b = lam * (delta_unfold(x, n) @ delta_unfold(chain, 2)) + gamma_unfold(reg, 2)
    a = lam * subchain_gram(cs, n) + shift * np.eye(core.shape[0] * core.shape[2])
    return gamma_fold(ridge_solve(b, a), 2, core.shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, chain=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. chain, when given, must equal subchain(cores, n)
    (callers that sweep all cores can reuse partial products).
    """
    return _core_update(x, cores, n, lam, 3.0 * mu, mu * sum(aux) + sum(duals), chain)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, chain=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n.
    """
    return _core_update(x, cores, n, lam, mu, mu * sum(latent) + dual, chain)
