"""Property tests: fold/unfold round trips, ring contractions and the .trtc file format."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from trtc import read_tensor, write_tensor, TensorFileError  # noqa: E402
from trtc.tensors import gamma_unfold, gamma_fold, delta_unfold, delta_fold  # noqa: E402
from trtc.ring import element, reconstruct, subchain  # noqa: E402

# orders 1-5, extents 1-4; any float64, NaN and infinities included
ANY_TENSOR = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=5, min_side=1, max_side=4))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes(order="F") == b.tobytes(order="F")


@pytest.fixture(scope="module")
def tensor_path(tmp_path_factory):
    return tmp_path_factory.mktemp("properties") / "t.trtc"


@given(ANY_TENSOR)
def test_fold_of_unfold_is_bitwise_identity(t):
    for n in range(1, t.ndim + 1):
        assert same_bits(gamma_fold(gamma_unfold(t, n), n, t.shape), t)
        assert same_bits(delta_fold(delta_unfold(t, n), n, t.shape), t)


@st.composite
def rings(draw):
    # cores of a random ring: order 2-5, extents 1-3, ranks 1-3
    order = draw(st.integers(2, 5))
    extents = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    ranks = draw(st.lists(st.integers(1, 3), min_size=order, max_size=order))
    values = st.floats(-2.0, 2.0, allow_nan=False)
    return [
        draw(hnp.arrays(np.float64, (ranks[i], extents[i], ranks[(i + 1) % order]), elements=values))
        for i in range(order)
    ]


@given(rings())
def test_subchain_and_reconstruct_match_element(cores):
    order = len(cores)
    for n in range(1, order + 1):
        chain = subchain(cores, n)
        others = [cores[(n - 1 + k) % order] for k in range(1, order)]
        merged = tuple(c.shape[1] for c in others)
        assert chain.shape == (others[0].shape[0], int(np.prod(merged)), cores[n - 1].shape[0])
        for j in range(chain.shape[1]):
            # merged index j runs over (i_{n+1},...,i_N,i_1,...,i_{n-1}), first fastest
            idx = np.unravel_index(j, merged, order="F")
            want = others[0][:, idx[0], :]
            for c, i in zip(others[1:], idx[1:]):
                want = want @ c[:, i, :]
            np.testing.assert_allclose(chain[:, j, :], want, rtol=1e-12, atol=1e-12)
    z = reconstruct(cores)
    assert z.shape == tuple(c.shape[1] for c in cores)
    for idx in np.ndindex(z.shape):
        np.testing.assert_allclose(z[idx], element(cores, idx), rtol=1e-12, atol=1e-12)


@st.composite
def observed_tensors(draw):
    # finite values with a random NaN (missing) pattern; order 1-4
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=4, min_side=1, max_side=4))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(allow_nan=False)))
    mask = draw(hnp.arrays(np.bool_, shape))
    return np.where(mask, values, np.nan), mask


@given(observed_tensors())
def test_write_read_round_trip(tensor_path, observed):
    t, mask = observed
    write_tensor(t, tensor_path)
    back, back_mask = read_tensor(tensor_path)
    np.testing.assert_array_equal(back_mask, mask)
    assert same_bits(back, t)


@settings(max_examples=20)
@given(observed_tensors(), st.integers(0, 255))
def test_every_truncation_and_appended_byte_rejected(tensor_path, observed, extra):
    write_tensor(observed[0], tensor_path)
    good = tensor_path.read_bytes()
    for bad in [good[:k] for k in range(len(good))] + [good + bytes([extra])]:
        tensor_path.write_bytes(bad)
        with pytest.raises(TensorFileError):
            read_tensor(tensor_path)
