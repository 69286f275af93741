"""Binary tensor file format.

Layout (all integers little-endian):
    bytes 0..3   magic "TRTC"
    byte  4      format version, currently 1
    bytes 5..12  u64 order N
    then         N x u64 extents
    then         prod(extents) float64 values, first index fastest

NaN marks a missing entry in observed-tensor files; ground-truth files must
be NaN-free (enforced by require_complete).
"""

import math

import numpy as np

MAGIC = b"TRTC"
VERSION = 1


class TensorFileError(Exception):
    pass


def write_tensor(t, path):
    """Write a tensor in the TRTC format; NaN entries are kept as written."""
    t = np.asarray(t, dtype=float)
    header = MAGIC + bytes([VERSION])
    dims = np.array((t.ndim,) + t.shape, dtype="<u8").tobytes()
    payload = t.astype("<f8").ravel(order="F").tobytes()
    with open(path, "wb") as f:
        f.write(header)
        f.write(dims)
        f.write(payload)


def read_tensor(path, require_complete=False):
    """Read a TRTC file; returns (tensor, mask) with mask False at NaN entries.

    require_complete rejects files containing any NaN (ground-truth context).
    """
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 5 or buf[:4] != MAGIC:
        raise TensorFileError(f"{path}: bad magic, not a TRTC file")
    if buf[4] != VERSION:
        raise TensorFileError(f"{path}: unsupported version {buf[4]}")
    if len(buf) < 13:
        raise TensorFileError(f"{path}: truncated header")
    order = int(np.frombuffer(buf, dtype="<u8", count=1, offset=5)[0])
    if order < 1 or len(buf) < 13 + 8 * order:
        raise TensorFileError(f"{path}: truncated extents for order {order}")
    shape = tuple(int(e) for e in np.frombuffer(buf, dtype="<u8", count=order, offset=13))
    if any(e < 1 for e in shape):
        raise TensorFileError(f"{path}: nonpositive extent in {shape}")
    # exact: an int64 product of huge extents can wrap to a small count
    n_vals = math.prod(shape)
    start = 13 + 8 * order
    expected = start + 8 * n_vals
    if len(buf) < expected:
        raise TensorFileError(f"{path}: truncated payload, {len(buf) - start} of {8 * n_vals} bytes")
    if len(buf) > expected:
        raise TensorFileError(f"{path}: {len(buf) - expected} trailing bytes after payload")
    flat = np.frombuffer(buf, dtype="<f8", count=n_vals, offset=start)
    t = flat.reshape(shape, order="F").astype(float)
    mask = ~np.isnan(t)
    if require_complete and not mask.all():
        raise TensorFileError(f"{path}: NaN entries present in a ground-truth context")
    return t, mask
