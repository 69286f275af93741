"""Tensor-ring format: cores, subchain merging, reconstruction, rank checks.

A TR representation of an order-N tensor is a cyclic chain of order-3 cores
G_n of shape (R_n, I_n, R_{n+1}) with R_{N+1} = R_1. Entry (i_1,...,i_N) is
Trace(G_1(i_1) @ ... @ G_N(i_N)) where G_n(i) = cores[n][:, i, :].

The chains and transfer products beside each core are the sides of a sweep
over the cores; sweep states which cores each side covers.
"""

import functools
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tensors import delta_unfold, gamma_unfold


@dataclass(frozen=True)
class TRRank:
    """TR-rank vector (R_1,...,R_N)."""

    ranks: tuple

    def __post_init__(self):
        # numpy integers pass; a float, even an integral one, does not
        for r in self.ranks:
            if not isinstance(r, numbers.Integral):
                raise ValueError(f"rank {r!r} is not an integer")
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
    # z[(j, k)] = sum_ab acc[a, j, b] * last[b, k, a], for the two halves of
    # a ring; contiguous copies so the result does not depend on operand
    # layout; the product is formed transposed, so z comes out
    # first-index-fastest
    m = acc.shape[1]
    left = np.ascontiguousarray(acc.transpose(1, 0, 2).reshape(m, -1))
    right = np.ascontiguousarray(last.transpose(2, 0, 1).reshape(-1, last.shape[1]))
    return (right.T @ left.T).T


def identity_chain(r):
    """The empty chain: one identity slice of size r, shape (r, 1, r)."""
    return np.eye(r).reshape(r, 1, r)


def sweep(items, combine, empty, skip):
    """Sides (prefix, suffix) of items n = 1..N, as a Gauss-Seidel sweep reads them.

    The prefix is items 1..n-1 combined left to right, the suffix items
    n+1..N combined right to left. A side with no items is empty, the
    identity; its first item replaces empty rather than being combined with
    it, a product that is exact in value but can change the layout later
    products read. Every suffix is built before the first yield; after each
    yield the prefix is extended with items[n-1] as the caller then holds
    it, so a sweep that replaces item n after its update yields the sides of
    the items as they now are. skip = 1 keeps each end's neighbour item out
    of its side, as the chains of a data term need: the suffix of n = 1
    starts at item 3 and the prefix stops at item N-2, so no side covers
    more than N-2 items. skip = 0 gives the full sides, as for a Gram.
    """
    n_items = len(items)
    suffixes = [empty]  # suffixes[k]: the last k items
    for k, item in enumerate(reversed(items[1 + skip:])):
        suffixes.append(item if k == 0 else combine(item, suffixes[-1]))
    prefix = empty
    for n in range(1, n_items + 1):
        yield prefix, suffixes[n_items - max(n, 1 + skip)]
        if n < n_items - skip:
            prefix = items[0] if n == 1 else combine(prefix, items[n - 1])


def _side(items, combine, empty, skip, n):
    # the n-th sides of a sweep over items
    if not 1 <= n <= len(items):
        raise ValueError(f"mode {n} out of range for order {len(items)}")
    return next(itertools.islice(sweep(items, combine, empty, skip), n - 1, None))


def reconstruct(cores):
    """Dense tensor represented by the cores.

    The chain prefix of core N, cores 1..N-2 merged left to right (the
    identity at order 2), is trace-contracted against the merged last pair
    G_{N-1} G_N, the contraction a solver sweep makes with the prefix it
    already holds. No chain of more than N-2 cores is formed.
    """
    cs = TRCores(cores).cores
    prefix = functools.reduce(_merge, cs[1:-2], cs[0]) if len(cs) > 2 else identity_chain(cs[0].shape[0])
    z = _trace_contract(prefix, _merge(cs[-2], cs[-1]))
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
    """The two chains a data term for core n is contracted against.

    The n-th sides of a sweep over the cores with skip = 1: for 1 < n < N
    the prefix of cores 1..n-1, (R_1, A, R_n), and the suffix of cores
    n+1..N, (R_{n+1}, B, R_1).
    """
    cs = _core_list(cores)
    return _side(cs, _merge, identity_chain(cs[0].shape[0]), 1, n)


def transfer(core):
    """Transfer matrix sum_i G(i) kron G(i) of a core, (R_n^2, R_{n+1}^2).

    Row (a, c) and column (b, d), first listed index slowest, hold
    sum_i G[a, i, b] G[c, i, d]; the product of the transfer matrices of a
    chain is the transfer matrix of the merged chain.
    """
    p, _, q = core.shape
    return np.tensordot(core, core, axes=(1, 1)).transpose(0, 2, 1, 3).reshape(p * p, q * q)


def transfer_gram(prefix, suffix):
    """Subchain Gram matrix of core n from the transfer products beside it.

    prefix is ((T_1 T_2) ...) T_{n-1}, (R_1^2, R_n^2), and suffix is
    T_{n+1} (... T_N), (R_{n+1}^2, R_1^2); the Gram is suffix @ prefix,
    reordered to the (r_n, r_{n+1}) columns of Delta_2.
    """
    prod = suffix @ prefix
    rn1 = math.isqrt(prod.shape[0])
    rn = math.isqrt(prod.shape[1])
    p4 = prod.reshape(rn1, rn1, rn, rn)
    return p4.transpose(2, 0, 3, 1).reshape(rn * rn1, rn * rn1, order="F")


def subchain_gram(cores, n):
    """Gram matrix Q_n Q_n^T = Delta_2(C)^T Delta_2(C) of the mode-n subchain.

    Computed through the per-core transfer matrices without materializing
    the subchain, so the cost is polynomial in the ranks: transfer_gram of
    the n-th sides of a sweep over the transfers with skip = 0, the products
    a solver sweep holds, so a core update given them gets the same Gram bit
    for bit.
    """
    cs = _core_list(cores)
    return transfer_gram(*_side([transfer(c) for c in cs], np.matmul, np.eye(cs[0].shape[0] ** 2), 0, n))


def _checked(cores, x):
    # validated cores, and x if its shape is the cores' extents
    tr = TRCores(cores)
    x = np.asarray(x)
    if x.shape != tr.shape:
        raise ValueError(f"x shape {x.shape} does not match the cores' extents {tr.shape}")
    return tr.cores, x


def eq2_residual(cores, x, n):
    """Frobenius mismatch of Delta_n(x) against Gamma_2(G_n) Delta_2(C)^T."""
    cs, x = _checked(cores, x)
    lhs = delta_unfold(x, n)
    rhs = gamma_unfold(cs[n - 1], 2) @ delta_unfold(subchain(cs, n), 2).T
    return float(np.linalg.norm(lhs - rhs))


def numerical_rank(m):
    """Count of singular values above 1e-8 times the largest."""
    s = np.linalg.svd(np.asarray(m), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > 1e-8 * s[0]))


def rank_inequality_check(cores, x, n):
    """rank(Delta_n(x)) <= sum of ranks of the three unfoldings of core n."""
    cs, x = _checked(cores, x)
    lhs = numerical_rank(delta_unfold(x, n))
    rhs = sum(numerical_rank(gamma_unfold(cs[n - 1], i)) for i in (1, 2, 3))
    return lhs <= rhs
