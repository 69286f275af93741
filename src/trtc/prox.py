"""Per-iteration kernels: singular value thresholding and the core updates.

Both ADMM solvers alternate between SVT steps on core unfoldings and a
regularized least-squares update of each core. The core update solves

    G2 (lam * Q Q^T + shift * I) = lam * Delta_n(X) Q^T + (regularizer terms)

for G2 = Gamma_2(G_n), where Q = Delta_2(subchain)^T; shift is 3*mu for the
overlapped model (three auxiliary tensors) and mu for the latent model.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .tensors import delta_unfold, gamma_fold, gamma_unfold
from .ring import _core_list, subchain, subchain_gram


@dataclass
class SVTResult:
    matrix: np.ndarray
    nuclear_norm_after: float
    effective_rank: int


def svt(a, beta):
    """Singular value thresholding, the prox operator of beta * nuclear norm.

    Returns U max(S - beta, 0) V^T together with the surviving nuclear norm
    and the number of singular values above the threshold.
    """
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    shrunk = np.maximum(s - beta, 0.0)
    keep = int(np.count_nonzero(shrunk))
    m = (u[:, :keep] * shrunk[:keep]) @ vt[:keep]
    return SVTResult(matrix=m, nuclear_norm_after=float(shrunk.sum()), effective_rank=keep)


def ridge_solve(b, a):
    """Solve X A = B for SPD A via Cholesky; never forms A^{-1}."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.isfinite(a).all() or not np.isfinite(b).all():
        raise np.linalg.LinAlgError("linear system is not finite")
    scale = np.abs(a).max()
    if scale > 0 and np.abs(a - a.T).max() > 1e-10 * scale:
        raise ValueError("matrix is not symmetric")
    cf = scipy.linalg.cho_factor(a)
    return scipy.linalg.cho_solve(cf, b.T).T


def _data_term(x, cores, n, lam, chain):
    if chain is None:
        chain = subchain(cores, n)
    d2c = delta_unfold(chain, 2)
    return lam * (delta_unfold(np.asarray(x), n) @ d2c)


def _core_update(x, cores, n, lam, shift, terms, chain):
    # solves G2 (lam Q Q^T + shift I) = lam Delta_n(X) Q^T + sum(terms); the
    # terms are added one by one after the data term, which fixes the rounding
    cs = _core_list(cores)
    core = cs[n - 1]
    r2 = core.shape[0] * core.shape[2]
    b = np.zeros((core.shape[1], r2))
    if lam != 0.0:
        b += _data_term(x, cs, n, lam, chain)
    for t in terms:
        b += t
    a = shift * np.eye(r2)
    if lam != 0.0:
        a += lam * subchain_gram(cs, n)
    return gamma_fold(ridge_solve(b, a), 2, core.shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, chain=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. chain, when given, must equal subchain(cores, n)
    (callers that sweep all cores can reuse partial products).
    """
    terms = [mu * gamma_unfold(m_i, 2) + gamma_unfold(y_i, 2) for m_i, y_i in zip(aux, duals)]
    return _core_update(x, cores, n, lam, 3.0 * mu, terms, chain)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, chain=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n.
    """
    terms = [mu * gamma_unfold(w_i, 2) for w_i in latent] + [gamma_unfold(dual, 2)]
    return _core_update(x, cores, n, lam, mu, terms, chain)
