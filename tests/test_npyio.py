import numpy as np
import pytest

from agsevnet.npyio import npy_header, read_npy, write_npy
from agsevnet.rng import Rng


def test_float64_round_trip_bit_exact(tmp_path):
    x = Rng(0).normal((3, 4, 5))
    path = tmp_path / "x.npy"
    write_npy(path, x)
    y = read_npy(path)
    assert y.dtype == np.float64
    assert x.tobytes() == y.tobytes()


def test_uint8_round_trip(tmp_path):
    x = (Rng(1).random((7, 9)) * 255).astype(np.uint8)
    path = tmp_path / "labels.npy"
    write_npy(path, x)
    y = read_npy(path)
    assert y.dtype == np.uint8
    assert np.array_equal(x, y)


def test_numpy_reads_our_files(tmp_path):
    x = Rng(2).normal((2, 3, 4, 5, 6))
    path = tmp_path / "t.npy"
    write_npy(path, x)
    assert np.array_equal(np.load(path), x)


def test_we_read_numpy_files(tmp_path):
    x = Rng(3).normal((4, 4))
    path = tmp_path / "np.npy"
    np.save(path, x)
    assert np.array_equal(read_npy(path), x)


def test_header_is_64_byte_aligned_and_newline_terminated(tmp_path):
    path = tmp_path / "a.npy"
    write_npy(path, Rng(4).normal((13, 7)))
    raw = path.read_bytes()
    assert raw[:6] == b"\x93NUMPY"
    assert raw[6:8] == bytes([1, 0])
    hlen = int.from_bytes(raw[8:10], "little")
    assert (10 + hlen) % 64 == 0
    assert raw[9 + hlen : 10 + hlen] == b"\n"


def test_rejects_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype"):
        write_npy(tmp_path / "bad.npy", np.zeros(3, dtype=np.float32))


def test_rejects_unsupported_descr_on_read(tmp_path):
    path = tmp_path / "f32.npy"
    np.save(path, np.zeros(3, dtype=np.float32))
    with pytest.raises(ValueError, match="unsupported descr"):
        read_npy(path)


def test_rejects_fortran_order(tmp_path):
    path = tmp_path / "fortran.npy"
    np.save(path, np.asfortranarray(Rng(5).normal((4, 5))))
    with pytest.raises(ValueError, match="fortran_order"):
        read_npy(path)


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.npy"
    path.write_bytes(b"not a npy file at all")
    with pytest.raises(ValueError, match="bad magic"):
        read_npy(path)


def test_rejects_truncated_data(tmp_path):
    path = tmp_path / "t.npy"
    write_npy(path, Rng(6).normal((10,)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_npy(path)
    # headers alone, of shapes whose element count wraps to 0 in int64
    for shape in ((2**32, 2**32), (3, 2**62)):
        path.write_bytes(npy_header("<f8", shape))
        with pytest.raises(ValueError, match="truncated data section") as err:
            read_npy(path)
        assert str(path) in str(err.value), shape


def test_cut_at_every_byte_names_the_file(tmp_path):
    full = tmp_path / "full.npy"
    write_npy(full, (Rng(11).random((16, 16, 16)) * 5).astype(np.uint8))
    raw = full.read_bytes()
    path = tmp_path / "cut.npy"
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as err:
            read_npy(path)
        assert str(path) in str(err.value), f"cut at byte {cut}: {err.value}"


@pytest.mark.parametrize("header", [
    b"{'descr': '|u1', 'fortran_order': False, 'shape': (4,",
    b"[1, 2]",
    b"{'descr': '|u1', 'shape': (4,)}",
    b"{'fortran_order': False, 'shape': (4,)}",
    b"{'descr': '|u1', 'fortran_order': False}",
    b"{'descr': ['|u1'], 'fortran_order': False, 'shape': (4,)}",
    b"{'descr': '|u1', 'fortran_order': 0, 'shape': (4,)}",
    b"{'descr': '|u1', 'fortran_order': False, 'shape': None}",
    b"{'descr': '|u1', 'fortran_order': False, 'shape': ('4',)}",
    b"{'descr': '|u1', 'fortran_order': False, 'shape': (4.0,)}",
    b"{'descr': '|u1', 'fortran_order': False, 'shape': (-4,)}",
    # no data bytes, but a byte count past what numpy can address
    b"{'descr': '<f8', 'fortran_order': False, 'shape': (0, 4611686018427387904)}",
], ids=["cut", "list", "no_descr", "no_order", "no_shape", "list_descr", "int_order",
        "none_shape", "str_dim", "float_dim", "negative_dim", "empty_overflow"])
def test_malformed_header_names_the_file(tmp_path, header):
    path = tmp_path / "bad.npy"
    header += b" " * (63 - 10 - len(header)) + b"\n"
    path.write_bytes(b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header + bytes(4))
    with pytest.raises(ValueError, match="malformed header") as err:
        read_npy(path)
    assert str(path) in str(err.value)


def _npy_v1_bytes(arr):
    """The format-1.0 file written by hand: the reference for write_npy."""
    descr = {"float64": "<f8", "uint8": "|u1"}[arr.dtype.name]
    header = "{'descr': '%s', 'fortran_order': False, 'shape': %s, }" % (descr, repr(arr.shape))
    header += " " * ((64 - (10 + len(header) + 1) % 64) % 64) + "\n"
    return (b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header.encode("latin1")
            + np.ascontiguousarray(arr).tobytes())


@pytest.mark.parametrize("arr", [
    Rng(7).normal((3, 4)),
    Rng(8).normal((2, 3, 4, 5, 6)),
    Rng(9).normal((5, 7)).T,
    (Rng(10).random((7, 9, 3)) * 255).astype(np.uint8),
    np.zeros((0, 5)),
    np.zeros((0,)),
    np.ones((1,)),
], ids=["2d", "5d", "transposed", "uint8", "empty_rows", "empty", "one"])
def test_bytes_match_hand_written_format(tmp_path, arr):
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    assert path.read_bytes() == _npy_v1_bytes(arr)
