"""Binary tensor file format: round trips and corruption handling."""

import numpy as np
import pytest

from trtc import read_tensor, write_tensor, TensorFileError


def test_round_trip_random_tensors(tmp_path):
    rng = np.random.default_rng(0)
    for k in range(10):
        order = rng.integers(1, 6)
        shape = tuple(rng.integers(1, 6, size=order))
        t = rng.standard_normal(shape)
        p = tmp_path / f"t{k}.trtc"
        write_tensor(t, p)
        back, mask = read_tensor(p)
        np.testing.assert_array_equal(back, t)
        assert mask.all()


def test_round_trip_is_byte_stable(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((4, 5, 3))
    p1, p2 = tmp_path / "a.trtc", tmp_path / "b.trtc"
    write_tensor(t, p1)
    back, _ = read_tensor(p1)
    write_tensor(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_round_trip_order_eight(tmp_path):
    rng = np.random.default_rng(2)
    t = rng.standard_normal((8, 5, 5, 8, 5, 5, 8, 10))
    p = tmp_path / "big.trtc"
    write_tensor(t, p)
    back, mask = read_tensor(p)
    np.testing.assert_array_equal(back, t)
    assert back.shape == (8, 5, 5, 8, 5, 5, 8, 10)
    assert mask.all()


def test_nan_becomes_missing_mask(tmp_path):
    t = np.arange(12.0).reshape(3, 4)
    t[1, 2] = np.nan
    t[0, 0] = np.nan
    p = tmp_path / "obs.trtc"
    write_tensor(t, p)
    back, mask = read_tensor(p)
    assert mask.sum() == 10
    assert not mask[1, 2] and not mask[0, 0]
    np.testing.assert_array_equal(back[mask], t[~np.isnan(t)])


def test_require_complete_rejects_nan(tmp_path):
    t = np.ones((2, 2))
    t[0, 1] = np.nan
    p = tmp_path / "bad_truth.trtc"
    write_tensor(t, p)
    with pytest.raises(TensorFileError, match="NaN"):
        read_tensor(p, require_complete=True)
    read_tensor(p)  # fine as an observed tensor


def test_bad_magic(tmp_path):
    p = tmp_path / "x.trtc"
    p.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(TensorFileError, match="magic"):
        read_tensor(p)


def test_bad_version(tmp_path):
    p = tmp_path / "x.trtc"
    p.write_bytes(b"TRTC" + bytes([9]) + bytes(16))
    with pytest.raises(TensorFileError, match="version"):
        read_tensor(p)


def test_truncated_header_and_extents(tmp_path):
    p = tmp_path / "x.trtc"
    p.write_bytes(b"TRTC" + bytes([1]) + bytes(4))  # order cut short
    with pytest.raises(TensorFileError, match="truncated"):
        read_tensor(p)
    p.write_bytes(b"TRTC" + bytes([1]) + np.array([3], dtype="<u8").tobytes() + bytes(8))
    with pytest.raises(TensorFileError, match="truncated"):
        read_tensor(p)


def test_truncated_payload(tmp_path):
    t = np.ones((3, 3))
    p = tmp_path / "x.trtc"
    write_tensor(t, p)
    whole = p.read_bytes()
    p.write_bytes(whole[:-8])
    with pytest.raises(TensorFileError, match="truncated payload"):
        read_tensor(p)


def test_huge_extents_without_payload_are_truncated(tmp_path):
    # 2^32 * 2^32 wraps to 0 in int64; the count must stay exact
    p = tmp_path / "x.trtc"
    p.write_bytes(b"TRTC" + bytes([1]) + np.array([2, 2**32, 2**32], dtype="<u8").tobytes())
    with pytest.raises(TensorFileError, match="truncated payload"):
        read_tensor(p)


def test_trailing_bytes_rejected(tmp_path):
    t = np.ones((3, 3))
    p = tmp_path / "x.trtc"
    write_tensor(t, p)
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(TensorFileError, match="trailing"):
        read_tensor(p)


def test_nonpositive_extent_rejected(tmp_path):
    p = tmp_path / "x.trtc"
    hdr = b"TRTC" + bytes([1]) + np.array([2, 3, 0], dtype="<u8").tobytes()
    p.write_bytes(hdr)
    with pytest.raises(TensorFileError, match="extent"):
        read_tensor(p)


def test_values_stored_first_index_fastest(tmp_path):
    t = np.arange(6.0).reshape((2, 3), order="F")  # canonical layout 0..5
    p = tmp_path / "x.trtc"
    write_tensor(t, p)
    raw = p.read_bytes()
    vals = np.frombuffer(raw, dtype="<f8", offset=5 + 8 + 16)
    np.testing.assert_array_equal(vals, np.arange(6.0))


@pytest.mark.parametrize("t", [np.array(1.5), np.zeros((0, 3)), np.zeros((2, 0, 2))],
                         ids=["order0", "extent0", "inner-extent0"])
def test_write_rejects_what_read_would_reject(tmp_path, t):
    # order 0 and zero extents have no valid TRTC encoding: refused before
    # the file is opened, so nothing is left at the path
    p = tmp_path / "t.trtc"
    with pytest.raises(TensorFileError, match="order and extents must be >= 1"):
        write_tensor(t, p)
    assert not p.exists()
