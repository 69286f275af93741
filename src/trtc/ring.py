"""Tensor-ring format: cores, subchain merging, reconstruction, rank checks.

A TR representation of an order-N tensor is a cyclic chain of order-3 cores
G_n of shape (R_n, I_n, R_{n+1}) with R_{N+1} = R_1. Entry (i_1,...,i_N) is
Trace(G_1(i_1) @ ... @ G_N(i_N)) where G_n(i) = cores[n][:, i, :].
"""

from dataclasses import dataclass

import numpy as np

from .tensors import delta_unfold, gamma_unfold


@dataclass(frozen=True)
class TRRank:
    """TR-rank vector (R_1,...,R_N)."""

    ranks: tuple

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(int(r) for r in self.ranks))
        if len(self.ranks) < 2:
            raise ValueError("TR-rank needs at least two entries")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")

    def __len__(self):
        return len(self.ranks)


@dataclass(frozen=True)
class TRCores:
    """Ordered cores of a tensor-ring representation."""

    cores: tuple

    def __post_init__(self):
        cores = tuple(np.asarray(c, dtype=float) for c in self.cores)
        object.__setattr__(self, "cores", cores)
        if len(cores) < 2:
            raise ValueError("need at least two cores")
        for c in cores:
            if c.ndim != 3:
                raise ValueError("every core must be order 3")
        n = len(cores)
        for i, c in enumerate(cores):
            nxt = cores[(i + 1) % n]
            if c.shape[2] != nxt.shape[0]:
                raise ValueError(
                    f"core {i + 1} tail rank {c.shape[2]} != core {((i + 1) % n) + 1} head rank {nxt.shape[0]}"
                )

    @property
    def order(self):
        return len(self.cores)

    @property
    def shape(self):
        return tuple(c.shape[1] for c in self.cores)

    @property
    def rank(self):
        return TRRank(tuple(c.shape[0] for c in self.cores))

    def __iter__(self):
        return iter(self.cores)

    def __len__(self):
        return len(self.cores)

    def __getitem__(self, i):
        return self.cores[i]


def _core_list(cores):
    return [np.asarray(c) for c in cores]


def element(cores, idx):
    """Entry at idx (0-based index tuple) as the trace of a slice product."""
    cs = _core_list(cores)
    if len(idx) != len(cs):
        raise ValueError("index length does not match order")
    for i, c in zip(idx, cs):
        if not 0 <= i < c.shape[1]:
            raise IndexError(f"index {i} out of range for extent {c.shape[1]}")
    acc = cs[0][:, idx[0], :]
    for i, c in zip(idx[1:], cs[1:]):
        acc = acc @ c[:, i, :]
    return float(np.trace(acc))


def _merge(a, b):
    # contract tail rank of a with head rank of b; merged index keeps
    # a's index fastest, matching the canonical first-fastest order. Both
    # operands are read as first-index-fastest matrices and the product is
    # formed transposed, so the result is Fortran-ordered without a copy
    ra, ma, rc = a.shape
    mb, rb = b.shape[1:]
    left = a.reshape(ra * ma, rc, order="F")
    right = b.reshape(rc, mb * rb, order="F")
    return (right.T @ left.T).T.reshape(ra, ma * mb, rb, order="F")


def _trace_contract(acc, last):
    # z[(j, i_N)] = sum_ab acc[a, j, b] * last[b, i_N, a]
    # contiguous copies so the result does not depend on operand layout;
    # the product is formed transposed, so z comes out first-index-fastest
    m = acc.shape[1]
    left = np.ascontiguousarray(acc.transpose(1, 0, 2).reshape(m, -1))
    right = np.ascontiguousarray(last.transpose(2, 0, 1).reshape(-1, last.shape[1]))
    return (right.T @ left.T).T


def reconstruct(cores):
    """Dense tensor represented by the cores, via sequential contraction."""
    cs = _core_list(cores)
    z = _trace_contract(subchain(cs, len(cs)), cs[-1])
    return z.reshape(tuple(c.shape[1] for c in cs), order="F")


def subchain(cores, n):
    """Merged product of all cores but core n.

    Order-3 tensor of shape (R_{n+1}, prod of other extents, R_n); slice at
    merged index (i_{n+1},...,i_N,i_1,...,i_{n-1}) is the matrix product
    G_{n+1}(i_{n+1}) ... G_{n-1}(i_{n-1}), merged index first-fastest.
    """
    cs = _core_list(cores)
    N = len(cs)
    if not 1 <= n <= N:
        raise ValueError(f"mode {n} out of range for order {N}")
    c = n - 1
    order = [(c + k) % N for k in range(1, N)]
    acc = cs[order[0]]
    for j in order[1:]:
        acc = _merge(acc, cs[j])
    return acc


def prefix_suffix(cores, n):
    """The chains on either side of core n: (cores 1..n-1, cores n+1..N) merged.

    The prefix (R_1, A, R_n) is merged left to right and the suffix
    (R_{n+1}, B, R_1) right to left, the order in which a solver sweep builds
    them; either is None where it has no cores. Merging the suffix onto the
    prefix gives subchain(cores, n) up to rounding.
    """
    cs = _core_list(cores)
    N = len(cs)
    if not 1 <= n <= N:
        raise ValueError(f"mode {n} out of range for order {N}")
    prefix = suffix = None
    for c in cs[:n - 1]:
        prefix = c if prefix is None else _merge(prefix, c)
    for c in reversed(cs[n:]):
        suffix = c if suffix is None else _merge(c, suffix)
    return prefix, suffix


def subchain_gram(cores, n):
    """Gram matrix Q_n Q_n^T = Delta_2(C)^T Delta_2(C) of the mode-n subchain.

    Computed through per-core transfer matrices sum_i G(i) kron G(i) without
    materializing the subchain, so the cost is polynomial in the ranks.
    """
    cs = _core_list(cores)
    N = len(cs)
    c = n - 1
    prod = None
    for k in range(1, N):
        g = cs[(c + k) % N]
        p, _, q = g.shape
        t = np.tensordot(g, g, axes=(1, 1)).transpose(0, 2, 1, 3).reshape(p * p, q * q)
        prod = t if prod is None else prod @ t
    rn1 = cs[(c + 1) % N].shape[0]
    rn = cs[c].shape[0]
    p4 = prod.reshape(rn1, rn1, rn, rn)
    return p4.transpose(2, 0, 3, 1).reshape(rn * rn1, rn * rn1, order="F")


def eq2_residual(cores, x, n):
    """Frobenius mismatch of Delta_n(x) against Gamma_2(G_n) Delta_2(C)^T."""
    cs = _core_list(cores)
    lhs = delta_unfold(np.asarray(x), n)
    rhs = gamma_unfold(cs[n - 1], 2) @ delta_unfold(subchain(cs, n), 2).T
    return float(np.linalg.norm(lhs - rhs))


def numerical_rank(m, rel_tol=1e-8):
    """Count of singular values above rel_tol times the largest."""
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rel_tol * s[0]))


def rank_inequality_check(cores, x, n, rel_tol=1e-8):
    """rank(Delta_n(x)) <= sum of ranks of the three unfoldings of core n."""
    cs = _core_list(cores)
    lhs = numerical_rank(delta_unfold(np.asarray(x), n), rel_tol)
    rhs = sum(numerical_rank(gamma_unfold(cs[n - 1], i), rel_tol) for i in (1, 2, 3))
    return lhs <= rhs
