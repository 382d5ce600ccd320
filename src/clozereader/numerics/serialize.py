"""Binary tensor blocks for checkpoints.

Block layout, all integers little-endian:

    magic  4 bytes  b"CLZT"
    u16    format version (currently 1)
    u8     dtype code (1 = float64, 2 = float32, 3 = int64)
    u8     rank
    u64*r  dimensions
    data   values, little-endian, C order

Round-trips are bitwise exact, including empty and zero-rank tensors.
"""

from __future__ import annotations

import io
import math
import struct
from typing import BinaryIO

import numpy as np

from .. import ClozereaderError

TENSOR_MAGIC = b"CLZT"
TENSOR_VERSION = 1

_DTYPE_CODES = {
    np.dtype("float64"): 1,
    np.dtype("float32"): 2,
    np.dtype("int64"): 3,
}
_CODE_DTYPES = {code: dtype.newbyteorder("<") for dtype, code in _DTYPE_CODES.items()}


class TensorFormatError(ClozereaderError):
    """Corrupted or incompatible tensor block."""


def write_tensor(fh: BinaryIO, array: np.ndarray) -> None:
    dtype = np.dtype(array.dtype)
    code = _DTYPE_CODES.get(dtype)
    if code is None:
        raise TensorFormatError(f"unsupported dtype {dtype}")
    header = struct.pack(
        f"<4sHBB{array.ndim}Q",
        TENSOR_MAGIC,
        TENSOR_VERSION,
        code,
        array.ndim,
        *array.shape,
    )
    fh.write(header)
    fh.write(np.ascontiguousarray(array).astype(dtype.newbyteorder("<")).tobytes())


def read_exactly(fh: BinaryIO, size: int, what: str) -> bytes:
    """The next ``size`` bytes of the seekable ``fh``.  A size past the
    end of the stream raises "truncated" before anything is read."""
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if size > left:
        raise TensorFormatError(f"truncated {what}")
    return fh.read(size)


def read_tensor(fh: BinaryIO) -> np.ndarray:
    head = read_exactly(fh, 8, "tensor header")
    magic, version, code, rank = struct.unpack("<4sHBB", head)
    if magic != TENSOR_MAGIC:
        raise TensorFormatError(f"bad magic {magic!r}, expected {TENSOR_MAGIC!r}")
    if version != TENSOR_VERSION:
        raise TensorFormatError(
            f"tensor format version {version} not supported (expected {TENSOR_VERSION})"
        )
    dtype = _CODE_DTYPES.get(code)
    if dtype is None:
        raise TensorFormatError(f"unknown dtype code {code}")
    raw_shape = read_exactly(fh, 8 * rank, "tensor shape")
    shape = struct.unpack(f"<{rank}Q", raw_shape) if rank else ()
    payload = read_exactly(fh, math.prod(shape) * dtype.itemsize, "tensor payload")
    # An empty shape declares no payload, yet numpy still caps its extent.
    if math.prod(max(dim, 1) for dim in shape) * dtype.itemsize > np.iinfo(np.intp).max:
        raise TensorFormatError(f"shape {shape} exceeds the largest array size")
    array = np.frombuffer(payload, dtype=dtype).reshape(shape)
    return array.astype(dtype.newbyteorder("="), copy=True)
