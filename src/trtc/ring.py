"""Tensor-ring format: cores, subchain merging, reconstruction, rank checks.

A TR representation of an order-N tensor is a cyclic chain of order-3 cores
G_n of shape (R_n, I_n, R_{n+1}) with R_{N+1} = R_1. Entry (i_1,...,i_N) is
Trace(G_1(i_1) @ ... @ G_N(i_N)) where G_n(i) = cores[n][:, i, :].

A Gauss-Seidel sweep over the cores gives each core update the two terms
it reads from the rest of the ring: data_sweep splits the ring at the mode
split_mode picks, contracts x once per half and carries the partial
contractions and chains of the data terms through the sweep, and in the
same two loops the transfer matrices of the cores and the transfer
products of the Grams. subchain_gram is the Gram alone, formed densely
from the subchain as a reference.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .tensors import _check_mode, delta_unfold, gamma_unfold


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


def element(cores, idx):
    """Entry at idx (0-based index tuple) as the trace of a slice product."""
    cs = TRCores(cores).cores
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
    # a ring; contiguous operands so the result does not depend on operand
    # layout. The left one is the C-ordered (R^2, rows) matrix, a view when
    # acc is laid out as data_sweep's last yield lays out its prefix; the
    # product is formed transposed, so z comes out first-index-fastest
    left_t = np.ascontiguousarray(acc.transpose(0, 2, 1)).reshape(-1, acc.shape[1])
    right = np.ascontiguousarray(last.transpose(2, 0, 1).reshape(-1, last.shape[1]))
    return (right.T @ left_t).T


def identity_chain(r):
    """The empty chain: one identity slice of size r, shape (r, 1, r)."""
    return np.eye(r).reshape(r, 1, r)


def _suffixes(items, combine, empty, first):
    # entry k combines the last k items right to left, for k = 0..N-first:
    # entry 0 is empty, and entry 1 the last item itself rather than its
    # product with empty, which is exact in value but can change the layout
    # later products read
    out = [empty]
    for item in reversed(items[first:]):
        out.append(item if len(out) == 1 else combine(item, out[-1]))
    return out


def split_mode(shape):
    """The mode m, 1 <= m < N, where a ring of these extents is split in two.

    The halves are modes 1..m and m+1..N; m minimises the larger of their
    entry counts, max(I_1...I_m, I_{m+1}...I_N), the first such m on a tie.
    """
    return min(range(1, len(shape)), key=lambda m: max(math.prod(shape[:m]), math.prod(shape[m:])))


def data_sweep(x, cores, merge=_merge):
    """What the update of each core n = 1..N reads from the rest of the ring, sweep after sweep, as a Gauss-Seidel solver reads it.

    For core n it yields the data term Delta_n(x) @ Delta_2(subchain_n) and
    the subchain Gram Delta_2(subchain_n)^T Delta_2(subchain_n). After each
    yield the sweep reads cores[n-1] as the caller then holds it, so a
    sweep that replaces core n after its update yields the terms of the
    cores as they now are.

    The data terms: the ring is split at m = split_mode(x.shape), and x,
    read first index fastest as a (I_1...I_m, I_{m+1}...I_N) matrix, is
    contracted in one gemm per half; every other step touches only chains
    and partial contractions of a half's size. The sides of core n are
      n <= m: the chain of cores 1..n-1, (R_1, A, R_n), and U_n, x against
          the cores n+1..N, (I_n, A, R_1, R_{n+1}); U_m is x against the
          chain of cores m+1..N, and U_{n-1} is U_n against core n, all
          made before the sweep's first yield;
      n > m: V_n, x against the cores 1..n-1, (B, I_n, R_1, R_n), and the
          chain of cores n+1..N, (R_{n+1}, B, R_1); V_{m+1} is x against
          the chain of cores 1..m, and V_{n+1} is V_n against core n;
    and the data term is one product of the two. A chain with no cores is
    identity_chain(R_1); merge combines two chains. A partial is carried
    past a core, and a data term formed, in one product of the two laid
    out as matrices, the product np.tensordot forms, so the bits are
    tensordot's. U_m is the one exception: it is formed transposed,
    S^T @ x_half^T for S the suffix chain as a (I_{m+1}...I_N, R_1 R_{m+1})
    matrix, and laid out C-ordered, as x_half @ S comes out. The plain
    order puts the short R_1 R_{m+1} side on the BLAS's row dimension,
    where OpenBLAS runs it up to 2.5 times slower. At the benchmark's
    extents (6^8 rank 3, 10^4 rank 6) the two orders give the same bits;
    on some small ones they differ in the last bits.

    The Grams: the sweep holds the transfer matrix of every core, made
    once per core before the first sweep and once each time the caller
    replaces a core, and the Gram of core n is transfer_gram of two
    products of them: the transfers of cores 1..n-1 multiplied left to
    right, extended after each core update as the chain prefix is, and the
    transfers of cores n+1..N multiplied right to left, every one made at
    the start of the sweep. A product of no transfers is eye(R_1^2), and
    its first transfer replaces it rather than being multiplied by it.

    Resumed once more after core N, the sweep yields the two halves of the
    ring as the caller now holds it, (prefix, suffix): the chains of cores
    1..m and m+1..N. The prefix (R_1, A, R_{m+1}) is laid out once, with
    its last two axes swapped in memory, so that _trace_contract reads it
    as its left operand without a copy, however many ranges it contracts.
    Resumed after that, it sweeps again, from the suffix chains it built
    with that suffix and x as the caller then holds it. The split m is
    derived once, before the first sweep.
    """
    x = np.asarray(x)
    shape = x.shape
    order = len(cores)
    m = split_mode(shape)
    r = cores[0].shape[0]
    rows, cols = math.prod(shape[:m]), math.prod(shape[m:])
    empty = identity_chain(r)
    suffixes = _suffixes(cores, merge, empty, m)
    trans = [transfer(c) for c in cores]
    teye = np.eye(r * r)
    while True:
        tsuffixes = _suffixes(trans, np.matmul, teye, 1)
        x_half = x.reshape(rows, cols, order="F")
        # U_m, then U_{m-1}..U_1 from the cores as they are before the first yield
        chain = suffixes[-1].transpose(1, 2, 0).reshape(cols, -1)
        u = np.ascontiguousarray((chain.T @ x_half.T).T)
        partials = [u.reshape(shape[m - 1], -1, r, suffixes[-1].shape[0])]
        for n in range(m, 1, -1):
            p, i, q = cores[n - 1].shape
            u = np.dot(partials[-1].transpose(1, 2, 0, 3).reshape(-1, i * q),  # [(j, r_1), (i_n, r_{n+1})]
                       cores[n - 1].transpose(1, 2, 0).reshape(i * q, p))
            partials.append(u.reshape(shape[n - 2], -1, r, p))
        prefix, tprefix = empty, teye
        for n in range(1, m + 1):
            # U_n (I_n, A, R_1, R_{n+1}) against the prefix chain (R_1, A, R_n)
            p, i, q = cores[n - 1].shape
            data = np.dot(partials.pop().transpose(0, 3, 1, 2).reshape(i * q, -1),
                          prefix.transpose(1, 0, 2).reshape(-1, p))  # [(i_n, r_{n+1}), r_n]
            # columns of Delta_2 run over (r_n, r_{n+1}), r_n fastest
            yield data.reshape(i, -1), transfer_gram(tprefix, tsuffixes[order - n])
            trans[n - 1] = transfer(cores[n - 1])
            prefix = cores[0] if n == 1 else merge(prefix, cores[n - 1])
            tprefix = trans[0] if n == 1 else tprefix @ trans[n - 1]
        v = x_half.T @ prefix.transpose(1, 0, 2).reshape(rows, -1)
        v = v.reshape(-1, shape[m], r, prefix.shape[2])
        for n in range(m + 1, order + 1):
            # V_n (B, I_n, R_1, R_n) against the suffix chain (R_{n+1}, B, R_1)
            p, i, q = cores[n - 1].shape
            data = np.dot(v.transpose(1, 3, 0, 2).reshape(i * p, -1),
                          suffixes[order - n].transpose(1, 2, 0).reshape(-1, q))  # [(i_n, r_n), r_{n+1}]
            data = data.reshape(i, p, q).transpose(0, 2, 1).reshape(i, -1)
            yield data, transfer_gram(tprefix, tsuffixes[order - n])
            trans[n - 1] = transfer(cores[n - 1])
            if n < order:
                tprefix = tprefix @ trans[n - 1]
                v = np.dot(v.transpose(0, 2, 1, 3).reshape(-1, i * p),  # [(k, r_1), (i_n, r_n)]
                           cores[n - 1].transpose(1, 0, 2).reshape(i * p, q)).reshape(-1, shape[n], r, q)
        # the partials and the transfer products go before the halves are read
        x_half = u = v = tprefix = tsuffixes = None
        suffixes = _suffixes(cores, merge, empty, m)
        # the prefix laid out so that _trace_contract reads it without a copy
        yield np.ascontiguousarray(prefix.transpose(0, 2, 1)).transpose(0, 2, 1), suffixes[-1]


def reconstruct(cores):
    """Dense tensor represented by the cores.

    The ring is split at m = split_mode of its extents: the chain of cores
    1..m, merged left to right, is trace-contracted against the chain of
    cores m+1..N, merged right to left, the two halves a solver sweep ends
    with. No chain of more than one half is formed.
    """
    cs = TRCores(cores).cores
    m = split_mode(tuple(c.shape[1] for c in cs))
    prefix = functools.reduce(_merge, cs[1:m], cs[0])
    z = _trace_contract(prefix, _suffixes(cs, _merge, identity_chain(cs[0].shape[0]), m)[-1])
    return z.reshape(tuple(c.shape[1] for c in cs), order="F")


def _subchain(cs, n):
    # the one dense subchain: checked cores n+1..N, 1..n-1 merged left to right
    return functools.reduce(_merge, cs[n:] + cs[:n - 1])


def subchain(cores, n):
    """Merged product of all cores but core n, the dense subchain.

    Order-3 tensor of shape (R_{n+1}, prod of other extents, R_n); slice at
    merged index (i_{n+1},...,i_N,i_1,...,i_{n-1}) is the matrix product
    G_{n+1}(i_{n+1}) ... G_{n-1}(i_{n-1}), merged index first-fastest. The
    checked core updates and eq2_residual build it as this does, once each.
    """
    cs = TRCores(cores).cores
    _check_mode(len(cs), n)
    return _subchain(cs, n)


def transfer(core):
    """Transfer matrix sum_i G(i) kron G(i) of a core, (R_n^2, R_{n+1}^2).

    Row (a, c) and column (b, d), first listed index slowest, hold
    sum_i G[a, i, b] G[c, i, d]; the product of the transfer matrices of a
    chain is the transfer matrix of the merged chain.
    """
    p, i, q = core.shape
    h = core.transpose(0, 2, 1).reshape(p * q, i)
    # a copy of h^T keeps this the gemm tensordot makes: h @ h.T would take
    # BLAS's symmetric product and change the bits
    t = h @ np.ascontiguousarray(h.T)
    return t.reshape(p, q, p, q).transpose(0, 2, 1, 3).reshape(p * p, q * q)


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
    """Gram matrix Q_n Q_n^T = Delta_2(C)^T Delta_2(C) of the mode-n subchain C.

    The plain dense reference: it forms the subchain, and shares no code
    with the transfer products a data_sweep reads the Gram from.
    """
    q = delta_unfold(subchain(cores, n), 2)
    return q.T @ q


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
    rhs = gamma_unfold(cs[n - 1], 2) @ delta_unfold(_subchain(cs, n), 2).T
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
