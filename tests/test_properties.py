"""Property tests: fold/unfold round trips and the .trtc file format."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from trtc import read_tensor, write_tensor, TensorFileError  # noqa: E402
from trtc.tensors import gamma_unfold, gamma_fold, delta_unfold, delta_fold  # noqa: E402

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
