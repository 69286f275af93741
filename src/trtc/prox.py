"""Per-iteration kernels: singular value thresholding and the core update.

Both ADMM solvers alternate between SVT steps on core unfoldings and a
regularized least-squares update of each core.

The unfoldings are small and wide or tall (6 x 60, 40 x 9), and the prox
needs only the singular values and one side's singular vectors (Cai,
Candes & Shen, SIAM J. Optim. 2010), so svt reads them from the
eigendecomposition of the shorter side's Gram rather than an SVD, to about
1e-12 of s_max; a matrix where squaring would cost more takes the SVD.

The two models differ only in
the k constraints that tie core n to its three auxiliary tensors aux_i, each
with its multiplier: k = 3 (M_ni = G_n) for the overlapped model, k = 1
(sum_i W_ni = G_n) for the latent one. One formula updates the core for both:

    G2 (lam * Q Q^T + k * mu * I) = lam * Delta_n(X) Q^T + Gamma_2(mu * sum_i aux_i + sum_j Y_j)

for G2 = Gamma_2(G_n), where Q = Delta_2(subchain)^T and the k multipliers
Y_j come as one (k,) + core stack. core_update_olrf and core_update_llrf
are its entry points; the latent model's single multiplier is passed as a
stack of one.

A solver that sweeps the cores passes what its ring.data_sweep yields for
core n, the data term Delta_n(X) Q^T and the Gram Q Q^T, with the penalty
term Gamma_2(mu * sum_i aux_i + sum_j Y_j). It built every shape in them
itself, and its system is positive definite by construction (lam > 0,
mu >= 1), so that path is the bare formula: nothing is checked, the system
goes to one np.linalg.solve and G2 is folded by a reshape. Without them,
the entry points check the caller's x, cores, aux and multipliers, form the
data term and the Gram both from one dense unfolding of the subchain, and
solve through ridge_solve, which rejects a system that is not finite,
symmetric and positive definite. That path shares no Gram code with the
sweep's transfer products, so it is an independent reference for the loop.
"""

from dataclasses import dataclass

import numpy as np

# gamma_fold and subchain_gram are not called here; the benchmark's tracer
# (perfbench/tracing.py) wraps trtc.prox.gamma_fold and trtc.prox.subchain_gram
from .tensors import _check_mode, delta_unfold, gamma_fold, gamma_unfold  # noqa: F401
from .ring import _checked, _subchain, subchain_gram  # noqa: F401


# the largest ratio lam / beta^2 that svt thresholds through the Gram:
# (s_max / beta)^2 at s_max / beta = 1e4, about 1e-12 relative accuracy
_SQUARED_MAX = 1e8
_TINY = np.finfo(float).tiny


@dataclass
class SVTResult:
    matrix: np.ndarray
    effective_rank: int


def _svd_svt(a, beta):
    # the prox through the SVD: U max(S - beta, 0) V^T and its count of
    # singular values above beta
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    shrunk = np.maximum(s - beta, 0.0)
    return (u * shrunk[..., None, :]) @ vt, int(np.count_nonzero(shrunk))


def svt(a, beta):
    """Singular value thresholding, the prox operator of beta * nuclear norm.

    a is one matrix or a stack of them (..., m, n), each thresholded alone.
    Returns U max(S - beta, 0) V^T together with the number of singular
    values above the threshold, counted over the whole stack.

    The product depends only on the singular values and the singular
    vectors of the shorter side, so it is read from the eigendecomposition
    V diag(lam) V^T of that side's Gram, a a^T (m <= n) or a^T a: with
    f = 1 - beta / sqrt(lam) where lam > beta^2 and 0 elsewhere, it is
    (V f V^T) a, or a (V f V^T) for a tall matrix. Squaring costs about
    eps * s_max / beta of accuracy relative to s_max, so a matrix with an
    eigenvalue above _SQUARED_MAX * beta^2 (s_max / beta > 1e4), or one not
    finite, is thresholded through its SVD instead, as is every matrix when
    beta^2 underflows or overflows: beta = 0 gives the SVD product, the
    identity to rounding, a beta whose square overflows (inf among them)
    gives zeros, and NaN input raises LinAlgError. Each matrix takes its
    route alone, so stacking changes no bit of its result.
    """
    # written so that NaN fails the check
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    a = np.asarray(a, dtype=float)
    if a.ndim < 2:
        raise ValueError(f"svt takes a matrix or a stack of matrices (..., m, n), got shape {a.shape}")
    # a Python float overflows to inf without numpy's warning; where beta^2
    # underflows (beta = 0 among them) or overflows, the Gram route would
    # divide 0 / 0 or inf / inf
    beta = float(beta)
    b2 = beta * beta
    if not _TINY <= b2 < np.inf:
        return SVTResult(*_svd_svt(a, beta))
    at = a.swapaxes(-1, -2)
    wide = a.shape[-2] <= a.shape[-1]
    lam, v = np.linalg.eigh(a @ at if wide else at @ a)
    # sqrt(beta * beta) is beta, so f is 0 exactly where lam <= beta^2
    f = 1.0 - beta / np.sqrt(np.maximum(lam, b2))
    p = (v * f[..., None, :]) @ v.swapaxes(-1, -2)
    m = p @ a if wide else a @ p
    kept = lam > b2
    rank = np.count_nonzero(kept)
    # written so that NaN takes the SVD too
    squared = ~(lam <= _SQUARED_MAX * b2).all(axis=-1)
    if squared.any():
        m[squared], svd_rank = _svd_svt(a[squared], beta)
        rank += svd_rank - np.count_nonzero(kept[squared])
    return SVTResult(matrix=m, effective_rank=int(rank))


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


def _solve_spd(b, a):
    # X A = B for A = lam * Q Q^T + k * mu * I, which a solver loop (lam > 0,
    # mu >= 1) builds positive definite, so there is nothing to check
    return np.linalg.solve(a, b.T).T


def _core_update(data, gram, penalty, shape, lam, mu, k, solve):
    # the one core-update formula: G2 (lam * gram + k * mu * I) =
    # lam * data + penalty, solved for G2 = Gamma_2(G_n) and folded into
    # core n's shape (R_n, I_n, R_{n+1})
    b = lam * data + penalty
    a = lam * gram
    a.flat[::len(a) + 1] += k * mu
    p, i, q = shape
    return solve(b, a).reshape(i, p, q, order="F").transpose(1, 0, 2)


def _update(x, cores, n, lam, mu, aux, duals, k, sides):
    if sides is not None:
        # a sweep's terms: the loop built every shape they hold
        return _core_update(*sides, cores[n - 1].shape, lam, mu, k, _solve_spd)
    # a caller's own state: the cores and x are checked, and aux must have
    # shape (3,) + core n's and duals (k,) + core n's, so none broadcasts
    cs, x = _checked(cores, x)
    _check_mode(len(cs), n)
    shape = cs[n - 1].shape
    if np.shape(aux) != (3,) + shape or np.shape(duals) != (k,) + shape:
        raise ValueError(f"core {n} takes aux of shape {(3,) + shape}, {k} multipliers of shape {shape}")
    # one dense subchain gives the data term and the Gram, as subchain_gram forms it
    q = delta_unfold(_subchain(cs, n), 2)
    penalty = gamma_unfold(mu * np.sum(aux, 0) + np.sum(duals, 0), 2)
    return _core_update(delta_unfold(x, n) @ q, q.T @ q, penalty, shape, lam, mu, k, ridge_solve)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, sides=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n; x, the cores, aux and duals are checked, and
    the system is solved by ridge_solve, which rejects one that is not
    finite, symmetric and positive definite. sides, when given, is
    (data, gram, penalty) as a solver loop holds them: the data term
    Delta_n(x) @ Delta_2(subchain_n) and the subchain Gram that a
    ring.data_sweep over x and the cores yields for core n, and the penalty
    term gamma_unfold(mu * sum_i aux_i + sum_j Y_j, 2). Then nothing is
    checked, x, aux and duals are not read, and the system, positive
    definite for lam >= 0 and mu > 0, goes straight to np.linalg.solve.
    """
    return _update(x, cores, n, lam, mu, aux, duals, 3, sides)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, sides=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n. sides is the
    sweep's data term and Gram and the penalty term, as for
    core_update_olrf.
    """
    return _update(x, cores, n, lam, mu, latent, (dual,), 1, sides)
