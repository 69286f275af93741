"""Dense tensor utilities: canonical storage and the two matricization families.

Tensors are plain numpy arrays of float64. The canonical linear order is
first-index-fastest (Fortran order); every unfolding below reshapes with
order="F" so that the first listed index of a group always varies fastest.
Modes are 1-based in all public signatures.
"""

import math
from functools import lru_cache

import numpy as np


def _check_mode(t, n):
    if not 1 <= n <= t.ndim:
        raise ValueError(f"mode {n} out of range for order-{t.ndim} tensor")


@lru_cache(maxsize=None)
def _to_front(ndim, k):
    # axis k first, the others in natural order, and the inverse permutation
    perm = (k,) + tuple(range(k)) + tuple(range(k + 1, ndim))
    return perm, tuple(perm.index(i) for i in range(ndim))


def gamma_unfold(t, n):
    """Mode-n unfolding with the remaining modes in natural order.

    Rows are indexed by i_n; columns by (i_1,...,i_{n-1},i_{n+1},...,i_N)
    with i_1 varying fastest.
    """
    t = np.asarray(t)
    _check_mode(t, n)
    k = n - 1
    return t.transpose(_to_front(t.ndim, k)[0]).reshape(t.shape[k], -1, order="F")


def gamma_fold(m, n, shape):
    """Inverse of gamma_unfold for the given tensor shape."""
    m = np.asarray(m)
    shape = tuple(shape)
    k = n - 1
    if m.shape != (shape[k], math.prod(shape) // shape[k]):
        raise ValueError(f"matrix shape {m.shape} does not match mode {n} of {shape}")
    perm, inv = _to_front(len(shape), k)
    return m.reshape(tuple(shape[i] for i in perm), order="F").transpose(inv)


def delta_unfold(t, n):
    """Mode-n unfolding with the remaining modes in cyclic order.

    Columns run over (i_{n+1},...,i_N,i_1,...,i_{n-1}), first listed index
    fastest. For n=1 this coincides with gamma_unfold.
    """
    t = np.asarray(t)
    _check_mode(t, n)
    k = n - 1
    perm = tuple(range(k, t.ndim)) + tuple(range(k))
    return t.transpose(perm).reshape(t.shape[k], -1, order="F")


def delta_fold(m, n, shape):
    """Inverse of delta_unfold for the given tensor shape."""
    m = np.asarray(m)
    shape = tuple(shape)
    k = n - 1
    if m.shape != (shape[k], math.prod(shape) // shape[k]):
        raise ValueError(f"matrix shape {m.shape} does not match mode {n} of {shape}")
    perm = tuple(range(k, len(shape))) + tuple(range(k))
    cyc = tuple(shape[i] for i in perm)
    inv = np.argsort(perm)
    return m.reshape(cyc, order="F").transpose(inv)


def frobenius_norm(t):
    return float(np.linalg.norm(np.asarray(t).ravel()))
