"""Unfolding/folding conventions and the Frobenius norm."""

import numpy as np
import pytest

from trtc import frobenius_norm
from trtc.tensors import gamma_unfold, gamma_fold, delta_unfold


def canonical(shape):
    # 0..size-1 laid out first-index-fastest
    return np.arange(int(np.prod(shape))).reshape(shape, order="F").astype(float)


def delta_column(idx, shape, n):
    # column of entry idx in Delta_n: modes n+1..N, 1..n-1, first listed fastest
    col, stride = 0, 1
    for ax in [(n - 1 + k) % len(shape) for k in range(1, len(shape))]:
        col += idx[ax] * stride
        stride *= shape[ax]
    return col


def test_gamma_unfold_2x2x2_hand_case():
    t = canonical((2, 2, 2))
    expected = np.array([[0, 2, 4, 6], [1, 3, 5, 7]], dtype=float)
    np.testing.assert_array_equal(gamma_unfold(t, 1), expected)


def test_delta_unfold_2x2x2_hand_case():
    # row i2, columns (i3, i1) with i3 fastest
    t = canonical((2, 2, 2))
    expected = np.array([[0, 4, 1, 5], [2, 6, 3, 7]], dtype=float)
    np.testing.assert_array_equal(delta_unfold(t, 2), expected)


def test_delta_unfold_2x2x2_matches_bruteforce_all_modes():
    t = canonical((2, 3, 4))
    shape = t.shape
    for n in range(1, 4):
        m = delta_unfold(t, n)
        for idx in np.ndindex(*shape):
            assert m[idx[n - 1], delta_column(idx, shape, n)] == t[idx]


def test_gamma_unfold_matches_bruteforce():
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 2, 4))
    m = gamma_unfold(t, 2)
    for i, j, k in np.ndindex(3, 2, 4):
        col = i + 3 * k  # natural order (i1, i3), i1 fastest
        assert m[j, col] == t[i, j, k]


def test_order_one_tensor_unfolds_to_row():
    t = np.array([5.0, 6.0, 7.0])
    m = gamma_unfold(t, 1)
    assert m.shape == (3, 1)
    np.testing.assert_array_equal(m.ravel(), t)


def test_delta_equals_gamma_at_mode_one():
    rng = np.random.default_rng(1)
    for _ in range(10):
        order = rng.integers(2, 6)
        shape = tuple(rng.integers(2, 5, size=order))
        t = rng.standard_normal(shape)
        np.testing.assert_array_equal(delta_unfold(t, 1), gamma_unfold(t, 1))


def test_round_trips_random_tensors():
    rng = np.random.default_rng(2)
    for _ in range(50):
        order = rng.integers(2, 7)
        shape = tuple(rng.integers(2, 5, size=order))
        t = rng.standard_normal(shape)
        for n in range(1, order + 1):
            np.testing.assert_array_equal(gamma_fold(gamma_unfold(t, n), n, shape), t)
            m = delta_unfold(t, n)
            assert m.shape == (shape[n - 1], t.size // shape[n - 1])
            for idx in np.ndindex(*shape):
                assert m[idx[n - 1], delta_column(idx, shape, n)] == t[idx]


def test_unfold_of_fold_is_identity_on_matrices():
    rng = np.random.default_rng(3)
    shape = (3, 4, 2, 5)
    for n in range(1, 5):
        rest = int(np.prod(shape)) // shape[n - 1]
        m = rng.standard_normal((shape[n - 1], rest))
        np.testing.assert_array_equal(gamma_unfold(gamma_fold(m, n, shape), n), m)
        # the tensor whose entries sit in m as Delta_n places them
        t = np.empty(shape)
        for idx in np.ndindex(*shape):
            t[idx] = m[idx[n - 1], delta_column(idx, shape, n)]
        np.testing.assert_array_equal(delta_unfold(t, n), m)


def test_unfold_preserves_frobenius_norm():
    rng = np.random.default_rng(4)
    t = rng.standard_normal((3, 4, 5))
    for n in range(1, 4):
        assert abs(np.linalg.norm(gamma_unfold(t, n)) - frobenius_norm(t)) < 1e-12
        assert abs(np.linalg.norm(delta_unfold(t, n)) - frobenius_norm(t)) < 1e-12


def test_mode_out_of_range_raises():
    t = np.zeros((2, 2))
    for bad in (0, 3, -1):
        with pytest.raises(ValueError):
            gamma_unfold(t, bad)
        with pytest.raises(ValueError):
            delta_unfold(t, bad)


def test_zero_extent_round_trips():
    # an unfolding along a zero extent has as many columns as the other
    # extents multiply to, and folds back to the empty tensor it came from
    for shape in ((0, 3), (3, 0), (2, 0, 4)):
        t = np.zeros(shape)
        stack = np.zeros((2,) + shape)
        for n in range(1, len(shape) + 1):
            unfolded = (shape[n - 1], int(np.prod(shape[:n - 1] + shape[n:])))
            m = gamma_unfold(t, n)
            assert m.shape == unfolded
            assert gamma_fold(m, n, shape).shape == shape
            ms = gamma_unfold(stack, n, stacked=True)
            assert ms.shape == (2,) + unfolded
            assert gamma_fold(ms, n, shape).shape == (2,) + shape
            assert delta_unfold(t, n).shape == unfolded


def test_fold_dimension_mismatch_raises():
    m = np.zeros((2, 5))  # wrong column count for (2, 2, 2)
    with pytest.raises(ValueError):
        gamma_fold(m, 1, (2, 2, 2))


def test_frobenius_norm_basics():
    assert frobenius_norm(np.zeros((3, 3, 3))) == 0.0
    t = np.zeros((2, 4))
    t[1, 2] = -3.5
    assert frobenius_norm(t) == 3.5


def test_norm_squared_equals_self_inner_product():
    rng = np.random.default_rng(8)
    for _ in range(50):
        order = rng.integers(1, 5)
        t = rng.standard_normal(tuple(rng.integers(2, 5, size=order)))
        np.testing.assert_allclose(frobenius_norm(t) ** 2, float(np.dot(t.ravel(), t.ravel())), rtol=1e-12)
