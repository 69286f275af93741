"""Dense tensor utilities: canonical storage and the two matricization families.

Tensors are plain numpy arrays of float64. The canonical linear order is
first-index-fastest (Fortran order); every unfolding below reshapes with
order="F" so that the first listed index of a group always varies fastest.
Modes are 1-based in all public signatures.
"""

import math
from functools import lru_cache

import numpy as np


def _check_mode(ndim, n):
    if not 1 <= n <= ndim:
        raise ValueError(f"mode {n} out of range for order-{ndim} tensor")


@lru_cache(maxsize=None)
def _to_front(ndim, k):
    # axis k first, the others in natural order, and the inverse permutation
    perm = (k,) + tuple(range(k)) + tuple(range(k + 1, ndim))
    return perm, tuple(perm.index(i) for i in range(ndim))


def gamma_unfold(t, n, stacked=False):
    """Mode-n unfolding with the remaining modes in natural order.

    Rows are indexed by i_n; columns by (i_1,...,i_{n-1},i_{n+1},...,i_N)
    with i_1 varying fastest. With stacked=True the first axis of t indexes
    a stack of tensors, each unfolded alone into one matrix of an
    (s, I_n, columns) stack.
    """
    t = np.asarray(t)
    if not stacked:
        _check_mode(t.ndim, n)
        return t.transpose(_to_front(t.ndim, n - 1)[0]).reshape(t.shape[n - 1], -1, order="F")
    _check_mode(t.ndim - 1, n)
    # the stack axis goes last, where a first-index-fastest reshape keeps it whole
    perm = tuple(a + 1 for a in _to_front(t.ndim - 1, n - 1)[0]) + (0,)
    return t.transpose(perm).reshape(t.shape[n], -1, len(t), order="F").transpose(2, 0, 1)


def gamma_fold(m, n, shape):
    """Inverse of gamma_unfold for the given tensor shape.

    m is one unfolding or a stack of them (s, I_n, columns), which folds
    into an (s, *shape) stack of tensors.
    """
    m = np.asarray(m)
    shape = tuple(shape)
    k = n - 1
    if m.ndim not in (2, 3) or m.shape[-2:] != (shape[k], math.prod(shape) // shape[k]):
        raise ValueError(f"matrix shape {m.shape} does not match mode {n} of {shape}")
    perm, inv = _to_front(len(shape), k)
    folded = tuple(shape[i] for i in perm)
    if m.ndim == 2:
        return m.reshape(folded, order="F").transpose(inv)
    return m.transpose(1, 2, 0).reshape(folded + (len(m),), order="F").transpose((len(shape),) + inv)


def delta_unfold(t, n):
    """Mode-n unfolding with the remaining modes in cyclic order.

    Columns run over (i_{n+1},...,i_N,i_1,...,i_{n-1}), first listed index
    fastest. For n=1 this coincides with gamma_unfold.
    """
    t = np.asarray(t)
    _check_mode(t.ndim, n)
    k = n - 1
    perm = tuple(range(k, t.ndim)) + tuple(range(k))
    return t.transpose(perm).reshape(t.shape[k], -1, order="F")


def frobenius_norm(t):
    return float(np.linalg.norm(np.asarray(t).ravel()))
