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


@lru_cache(maxsize=1024)
def _layout(shape, k):
    # every unfolding's mode check, made before shape[k] is read (a cache
    # keeps no exception, so a bad mode raises each time); the shape of a
    # mode-(k+1) unfolding, its columns the product of the other extents (a
    # zero extent leaves nothing to resolve), and the extents with axis k
    # first; and for a stack of such tensors along a leading axis, axis k of
    # each tensor first, its others in natural order, and the stack axis
    # last, where a first-index-fastest reshape keeps it whole, and the inverse
    _check_mode(len(shape), k + 1)
    rest = shape[:k] + shape[k + 1:]
    perm = (k + 1,) + tuple(range(1, k + 1)) + tuple(range(k + 2, len(shape) + 1)) + (0,)
    return (shape[k], math.prod(rest)), (shape[k],) + rest, perm, tuple(map(perm.index, range(len(perm))))


def gamma_unfold(t, n, stacked=False):
    """Mode-n unfolding with the remaining modes in natural order.

    Rows are indexed by i_n; columns by (i_1,...,i_{n-1},i_{n+1},...,i_N)
    with i_1 varying fastest. With stacked=True the first axis of t indexes
    a stack of tensors, each unfolded alone into one matrix of an
    (s, I_n, columns) stack; one tensor is unfolded as a stack of one.
    """
    t = np.asarray(t)
    s = t if stacked else t[None]
    unfolded, _, perm, _ = _layout(s.shape[1:], n - 1)
    m = s.transpose(perm).reshape(unfolded + s.shape[:1], order="F")
    m = m.transpose(2, 0, 1)
    return m if stacked else m[0]


def gamma_fold(m, n, shape):
    """Inverse of gamma_unfold for the given tensor shape.

    m is one unfolding or a stack of them (s, I_n, columns), which folds
    into an (s, *shape) stack of tensors; one unfolding folds as a stack of
    one.
    """
    m = np.asarray(m)
    shape = tuple(shape)
    unfolded, folded, _, inverse = _layout(shape, n - 1)
    if m.ndim not in (2, 3) or m.shape[-2:] != unfolded:
        raise ValueError(f"matrix shape {m.shape} does not match mode {n} of {shape}")
    s = m if m.ndim == 3 else m[None]
    t = s.transpose(1, 2, 0).reshape(folded + s.shape[:1], order="F")
    t = t.transpose(inverse)
    return t if m.ndim == 3 else t[0]


def delta_unfold(t, n):
    """Mode-n unfolding with the remaining modes in cyclic order.

    Columns run over (i_{n+1},...,i_N,i_1,...,i_{n-1}), first listed index
    fastest. For n=1 this coincides with gamma_unfold.
    """
    t = np.asarray(t)
    unfolded = _layout(t.shape, n - 1)[0]
    perm = tuple(range(n - 1, t.ndim)) + tuple(range(n - 1))
    return t.transpose(perm).reshape(unfolded, order="F")


def frobenius_norm(t):
    return float(np.linalg.norm(np.asarray(t).ravel()))
