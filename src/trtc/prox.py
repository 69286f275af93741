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

The data term Delta_n(X) Q^T is read from the chains on either side of
core n (ring.prefix_suffix) and the Gram Q Q^T from the transfer products
beside it (ring.subchain_gram), so neither the subchain nor an unfolding of
X is formed. A solver that sweeps the cores passes the sides it already
holds (ring.sweep); without them they are built from the cores the same
way, so both calls give the same core bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

# delta_unfold is no longer called here; it stays a module attribute because
# the benchmark's tracer (perfbench/tracing.py) wraps trtc.prox.delta_unfold
from .tensors import _check_mode, delta_unfold, gamma_fold, gamma_unfold  # noqa: F401
from .ring import _checked, _core_list, prefix_suffix, subchain_gram, transfer_gram


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


def data_term(x, cores, n, prefix, suffix):
    """Delta_n(x) @ Delta_2(subchain_n), from the chains prefix_suffix(cores, n).

    x is read through a first-index-fastest view, free for a Fortran-ordered
    x, and its largest group of modes is contracted first, in one gemm
    against a chain of at most N-2 cores; the small (., ., R, R) rest is
    contracted against the other chain or the neighbour core:
      1 < n < N: x as (A, I_n, B), the larger of A and B against its chain
          (prefix (R_1, A, R_n) or suffix (R_{n+1}, B, R_1)), then the rest
          against the other chain;
      n = 1: x as (I_1, I_2, B') against the suffix of cores 3..N, then the
          rest against core 2;
      n = N: x as (A', I_{N-1}, I_N) against the prefix of cores 1..N-2,
          then the rest against core N-1.
    """
    x = np.asarray(x)
    shape = x.shape
    i_n = shape[n - 1]
    if n == 1:
        b = math.prod(shape[2:])
        t = x.reshape(i_n * shape[1], b, order="F") @ suffix.transpose(1, 2, 0).reshape(b, -1)
        t = t.reshape(shape[1], i_n, -1, suffix.shape[0])  # [i_2, i_1, r_1, r_3]
        t = np.tensordot(t, cores[1], axes=([0, 3], [1, 2])).transpose(0, 2, 1)
    elif n == len(cores):
        a = math.prod(shape[:-2])
        t = x.reshape(a, -1, order="F").T @ prefix.transpose(1, 2, 0).reshape(a, -1)
        t = t.reshape(i_n, shape[-2], prefix.shape[2], -1)  # [i_N, i_{N-1}, r_{N-1}, r_1]
        t = np.tensordot(t, cores[-2], axes=([1, 2], [1, 0]))
    else:
        a = math.prod(shape[:n - 1])
        b = math.prod(shape[n:])
        if b > a:
            t = x.reshape(a * i_n, b, order="F") @ suffix.transpose(1, 2, 0).reshape(b, -1)
            t = t.reshape(i_n, a, -1, suffix.shape[0])  # [i_n, j_A, r_1, r_{n+1}]
            t = np.tensordot(t, prefix, axes=([1, 2], [1, 0]))
        else:
            t = x.reshape(a, i_n * b, order="F").T @ prefix.transpose(1, 2, 0).reshape(a, -1)
            t = t.reshape(b, i_n, prefix.shape[2], -1)  # [j_B, i_n, r_n, r_1]
            t = np.tensordot(t, suffix, axes=([0, 3], [1, 2])).transpose(0, 2, 1)
    # t[i_n, r_{n+1}, r_n]: columns of Delta_2 run over (r_n, r_{n+1}), r_n fastest
    return t.reshape(i_n, -1)


def _core_update(x, cores, n, lam, mu, aux, duals, k, sides):
    # cores and x, checked unless a sweep's sides come with them; aux must
    # have shape (3,) + core n's and duals (k,) + core n's, so none broadcasts
    cs, x = _checked(cores, x) if sides is None else (_core_list(cores), x)
    _check_mode(len(cs), n)
    shape = cs[n - 1].shape
    if np.shape(aux) != (3,) + shape or np.shape(duals) != (k,) + shape:
        raise ValueError(f"core {n} takes aux of shape {(3,) + shape}, {k} multipliers of shape {shape}")
    if sides is None:
        chains, gram = prefix_suffix(cs, n), subchain_gram(cs, n)
    else:
        chains, gram = sides[0], transfer_gram(*sides[1])
    b = lam * data_term(x, cs, n, *chains) + gamma_unfold(mu * sum(aux) + sum(duals), 2)
    a = lam * gram + k * mu * np.eye(shape[0] * shape[2])
    return gamma_fold(ridge_solve(b, a), 2, shape)


def core_update_olrf(x, cores, aux, duals, n, lam, mu, sides=None):
    """Minimizer of the overlapped-model core sub-objective for core n.

    aux and duals are the three auxiliary tensors M_ni and multipliers Y_ni,
    each shaped like core n. sides, when given, is the n-th sides of a
    ring.sweep over the cores and of one over their transfer matrices, the
    pairs prefix_suffix(cores, n) and subchain_gram(cores, n) build.
    """
    return _core_update(x, cores, n, lam, mu, aux, duals, 3, sides)


def core_update_llrf(x, cores, latent, dual, n, lam, mu, sides=None):
    """Minimizer of the latent-model core sub-objective for core n.

    latent holds the three latent tensors W_ni; dual is the single
    multiplier Y_n for the constraint sum_i W_ni = G_n. sides is the
    sweep's pairs, as for core_update_olrf.
    """
    return _core_update(x, cores, n, lam, mu, latent, np.asarray(dual)[None], 1, sides)
