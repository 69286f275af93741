"""Per-iteration kernels: singular value thresholding and the core update.

Both ADMM solvers alternate between SVT steps on core unfoldings and a
regularized least-squares update of each core. The two models differ only in
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
already holds; without them they are built from X and the cores the same
way, so both calls give the same core bit for bit.
"""

from dataclasses import dataclass

import numpy as np

# delta_unfold is no longer called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps trtc.prox.delta_unfold
from .tensors import _check_mode, delta_unfold, gamma_fold, gamma_unfold  # noqa: F401
from .ring import _checked, _core_list, data_sides, subchain_gram, transfer_gram


@dataclass
class SVTResult:
    matrix: np.ndarray
    effective_rank: int


def svt(a, beta):
    """Singular value thresholding, the prox operator of beta * nuclear norm.

    a is one matrix or a stack of them (..., m, n), each thresholded alone.
    Returns U max(S - beta, 0) V^T together with the number of singular
    values above the threshold, counted over the whole stack.
    """
    # written so that NaN fails the check
    if not beta >= 0:
        raise ValueError("beta must be nonnegative")
    u, s, vt = np.linalg.svd(np.asarray(a, dtype=float), full_matrices=False)
    shrunk = np.maximum(s - beta, 0.0)
    # the product runs over every singular value, the thresholded ones as
    # zero terms, so the matrices of a stack need no truncation each. It
    # equals the product over the kept values alone bit for bit while BLAS
    # sums it in order (OpenBLAS: up to 15 terms), and to rounding beyond
    m = (u * shrunk[..., None, :]) @ vt
    return SVTResult(matrix=m, effective_rank=int(np.count_nonzero(shrunk)))


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
    else:
        chains, gram = sides[0], transfer_gram(*sides[1])
    b = lam * data_term(*chains) + gamma_unfold(mu * sum(aux) + sum(duals), 2)
    a = lam * gram + k * mu * np.eye(shape[0] * shape[2])
    return gamma_fold(ridge_solve(b, a), 2, shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, sides=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. sides, when given, is the n-th sides of a
    ring.data_sweep over x and the cores and of a ring.sweep over their
    transfer matrices, the pairs data_sides(x, cores, n) and
    subchain_gram(cores, n) build; x is then read only through them.
    """
    return _core_update(x, cores, n, lam, mu, aux, duals, 3, sides)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, sides=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n. sides is the
    sweep's pairs, as for core_update_olrf.
    """
    return _core_update(x, cores, n, lam, mu, latent, np.asarray(dual)[None], 1, sides)
