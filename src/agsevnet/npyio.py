"""Minimal `.npy` (format version 1.0) reader, and a writer that is
`np.save` restricted to the same dtypes.

Only the two dtypes the kit stores are supported: little-endian 8-byte
floats ("<f8") for tensors and 1-byte unsigned integers ("|u1") for
label volumes. Layout is always C order (fortran_order False) and the
header is padded with spaces to a 64-byte boundary ending in a newline,
so a write/read round-trip is bit-exact and files interoperate with any
conforming reader.
"""

from __future__ import annotations

import ast
import io
import math
import os
import struct

import numpy as np

MAGIC = b"\x93NUMPY"
SUPPORTED_DESCRS = {"<f8": np.dtype("<f8"), "|u1": np.dtype("|u1")}


def write_npy(path, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in SUPPORTED_DESCRS.values():
        raise ValueError(f"unsupported dtype for .npy output: {arr.dtype} (use float64 or uint8)")
    with open(path, "wb") as fh:
        np.save(fh, arr, allow_pickle=False)


def npy_header(descr: str, shape) -> bytes:
    """The bytes `np.save` writes before the data of a C-order `descr`
    array of `shape`: magic, version 1.0, header length and the header,
    so a writer can stream the data after them."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": False, "shape": tuple(shape)})
    return buf.getvalue()


def _header_ok(meta) -> bool:
    """Whether a parsed header is a dict holding a string descr, a bool
    fortran_order and a shape tuple of non-negative ints."""
    if not isinstance(meta, dict) or not {"descr", "fortran_order", "shape"} <= meta.keys():
        return False
    shape = meta["shape"]
    return (isinstance(meta["descr"], str) and isinstance(meta["fortran_order"], bool)
            and isinstance(shape, tuple)
            and all(type(s) is int and s >= 0 for s in shape))


def read_npy(path) -> np.ndarray:
    """Read a format-1.0 `.npy` file; a short, cut or unsupported file
    raises ValueError naming `path`."""
    return parse_npy(read_file(path), path)


def read_file(path) -> bytearray:
    """The whole file at `path`, read once into a writable buffer."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return data


def parse_npy(data: bytearray, path) -> np.ndarray:
    """The array that the format-1.0 bytes `data` of the file `path`
    hold, as a writable view of `data`; bytes past the data section are
    ignored. A short, cut or unsupported file raises ValueError naming
    `path`."""

    def take(start: int, size: int, part: str) -> memoryview:
        if len(data) < start + size:
            raise ValueError(f"{path}: truncated {part}")
        return memoryview(data)[start:start + size]

    magic = bytes(data[:6])
    if magic != MAGIC:
        raise ValueError(f"{path}: not a .npy file (bad magic {magic!r})")
    major, minor = take(6, 2, "version")
    if (major, minor) != (1, 0):
        raise ValueError(f"{path}: unsupported .npy version {major}.{minor}")
    (hlen,) = struct.unpack("<H", take(8, 2, "header length"))
    header = bytes(take(10, hlen, "header")).decode("latin1")
    try:
        meta = ast.literal_eval(header)
    except (ValueError, SyntaxError) as exc:
        raise ValueError(f"{path}: malformed header {header.strip()!r}") from exc
    if not _header_ok(meta):
        raise ValueError(f"{path}: malformed header {header.strip()!r}")
    descr = meta["descr"]
    if descr not in SUPPORTED_DESCRS:
        raise ValueError(f"{path}: unsupported descr {descr!r} (need <f8 or |u1)")
    if meta["fortran_order"]:
        raise ValueError(f"{path}: fortran_order arrays are not supported")
    shape = meta["shape"]
    dtype = SUPPORTED_DESCRS[descr]
    body = take(10 + hlen, math.prod(shape) * dtype.itemsize, "data section")
    try:
        return np.frombuffer(body, dtype=dtype).reshape(shape)
    except ValueError as exc:  # an empty array whose byte count overflows, as (0, 2**62)
        raise ValueError(f"{path}: malformed header {header.strip()!r}: {exc}") from exc
