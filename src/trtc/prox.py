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
are its checked entry points; the latent model's single multiplier is
passed as a stack of one.

The data term Delta_n(X) Q^T is read from the sides of core n in a
ring.data_sweep, which splits the ring in two halves and contracts X once
per half: one of the two sides already holds X contracted with every core
but core n and those of the other side, a chain, so the data term is one
small contraction of the two sides. The Gram Q Q^T is read from the transfer
products beside core n (ring.subchain_gram), so neither the subchain nor an
unfolding of X is formed. A solver that sweeps the cores passes the sides it
already holds and the penalty term Gamma_2(mu * sum_i aux_i + sum_j Y_j);
without them they are built from X, the cores, aux and the multipliers the
same way, so both calls give the same core bit for bit.
"""

from dataclasses import dataclass

import numpy as np

# delta_unfold is no longer called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps trtc.prox.delta_unfold
from .tensors import _check_mode, delta_unfold, gamma_fold, gamma_unfold  # noqa: F401
from .ring import _checked, _core_list, data_sides, subchain_gram, transfer_gram


# the largest ratio lam / beta^2 that svt thresholds through the Gram:
# (s_max / beta)^2 at s_max / beta = 1e4, about 1e-12 relative accuracy
_SQUARED_MAX = 1e8
_TINY = np.finfo(float).tiny


@dataclass
class SVTResult:
    matrix: np.ndarray
    effective_rank: int


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
    beta^2 underflows: beta = 0 gives the SVD product, the identity to
    rounding, and NaN input raises LinAlgError. Each matrix takes its route
    alone, so stacking changes no bit of its result.
    """
    # written so that NaN fails the check
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    a = np.asarray(a, dtype=float)
    b2 = beta * beta
    at = np.swapaxes(a, -1, -2)
    wide = a.shape[-2] <= a.shape[-1]
    lam, v = np.linalg.eigh(a @ at if wide else at @ a)
    # sqrt(beta * beta) is beta, so f is 0 exactly where lam <= beta^2
    f = 1.0 - beta / np.sqrt(np.maximum(lam, max(b2, _TINY)))
    p = (v * f[..., None, :]) @ np.swapaxes(v, -1, -2)
    m = p @ a if wide else a @ p
    kept = lam > b2
    rank = np.count_nonzero(kept)
    # where beta^2 underflows (beta = 0 among them) every matrix takes the
    # SVD, so the floor above only keeps 0 / 0 out; written so that NaN
    # takes it too
    bound = _SQUARED_MAX * b2 if b2 >= _TINY else -np.inf
    if not lam.max() <= bound:
        squared = ~(lam <= bound).all(axis=-1)
        u, s, vt = np.linalg.svd(a[squared], full_matrices=False)
        shrunk = np.maximum(s - beta, 0.0)
        m[squared] = (u * shrunk[..., None, :]) @ vt
        rank += np.count_nonzero(shrunk) - np.count_nonzero(kept[squared])
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


def data_term(prefix, suffix):
    """Delta_n(x) @ Delta_2(subchain_n), from the n-th sides of ring.data_sweep.

    One side has x contracted into it, and the one contraction left, over
    the merged index and r_1, is against the other side's chain; m is
    ring.split_mode(x.shape):
      n <= m: suffix U_n (I_n, A, R_1, R_{n+1}) against the prefix chain
          (R_1, A, R_n);
      n > m: prefix V_n (B, I_n, R_1, R_n) against the suffix chain
          (R_{n+1}, B, R_1).
    """
    if suffix.ndim == 4:
        t = np.tensordot(suffix, prefix, axes=([1, 2], [1, 0]))  # [i_n, r_{n+1}, r_n]
    else:
        t = np.tensordot(prefix, suffix, axes=([0, 2], [1, 2])).transpose(0, 2, 1)
    # columns of Delta_2 run over (r_n, r_{n+1}), r_n fastest
    return t.reshape(len(t), -1)


def _core_update(x, cores, n, lam, mu, aux, duals, k, sides):
    # cores and x, checked unless a sweep's sides, which hold x, come with
    # them; aux must have shape (3,) + core n's and duals (k,) + core n's,
    # so none broadcasts
    cs, x = _checked(cores, x) if sides is None else (_core_list(cores), x)
    _check_mode(len(cs), n)
    shape = cs[n - 1].shape
    if np.shape(aux) != (3,) + shape or np.shape(duals) != (k,) + shape:
        raise ValueError(f"core {n} takes aux of shape {(3,) + shape}, {k} multipliers of shape {shape}")
    if sides is None:
        chains, gram = data_sides(x, cs, n), subchain_gram(cs, n)
        penalty = gamma_unfold(mu * np.sum(aux, 0) + np.sum(duals, 0), 2)
    else:
        chains, products, penalty = sides
        gram = transfer_gram(*products)
    b = lam * data_term(*chains) + penalty
    a = lam * gram
    a.flat[::len(a) + 1] += k * mu
    return gamma_fold(ridge_solve(b, a), 2, shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, sides=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. sides, when given, is the n-th sides of a
    ring.data_sweep over x and the cores and of a ring.sweep over their
    transfer matrices, the pairs data_sides(x, cores, n) and
    subchain_gram(cores, n) build, and the penalty term
    gamma_unfold(mu * sum_i aux_i + sum_j Y_j, 2); x, aux and duals are
    then read only through them, and aux and duals only for their shapes.
    """
    return _core_update(x, cores, n, lam, mu, aux, duals, 3, sides)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, sides=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n. sides is the
    sweep's pairs and the penalty term, as for core_update_olrf.
    """
    return _core_update(x, cores, n, lam, mu, latent, np.asarray(dual)[None], 1, sides)
