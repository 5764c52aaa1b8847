import numpy as np
import pytest

from agsevnet.rng import Rng
from agsevnet.tensor import ShapeError, channel_sum, grad_like, voxel_sum


def rand(seed, shape):
    return Rng(seed).normal(shape)


def test_row_major_offset_layout():
    # (b,k,i,j,ch) must live at offset ((((b*z+k)*h+i)*w+j)*c+ch
    n, z, h, w, c = 2, 3, 4, 5, 6
    x = rand(20, (n, z, h, w, c))
    flat = x.reshape(-1)
    rng = Rng(21)
    for _ in range(50):
        b, k, i, j, ch = (
            int(rng.integers(0, n)), int(rng.integers(0, z)), int(rng.integers(0, h)),
            int(rng.integers(0, w)), int(rng.integers(0, c)),
        )
        offset = (((b * z + k) * h + i) * w + j) * c + ch
        assert flat[offset] == x[b, k, i, j, ch]


class TestRng:
    def test_same_seed_same_stream(self):
        assert np.array_equal(Rng(99).normal((10,)), Rng(99).normal((10,)))
        assert np.array_equal(Rng(99).random((10,)), Rng(99).random((10,)))

    def test_derive_is_order_independent(self):
        a = Rng(5)
        a.normal((100,))  # consume some of the parent stream
        b = Rng(5)
        assert np.array_equal(a.derive("x", 3).normal((4,)), b.derive("x", 3).normal((4,)))

    def test_distinct_tokens_distinct_streams(self):
        r = Rng(5)
        assert not np.array_equal(r.derive("a").normal((8,)), r.derive("b").normal((8,)))


class TestChannelLastReductions:
    """voxel_sum and channel_sum against numpy's own sums, byte for byte,
    on every channel count around numpy's switch points (1 and 8)."""

    SHAPES = [(1, 1, 1), (1, 3, 1), (4, 1, 6), (5, 6, 7), (3, 9, 1)]

    @staticmethod
    def _data(seed, shape):
        rng = Rng(seed)
        x = rng.normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
        x[rng.random(shape) < 0.1] = -0.0
        return x

    @pytest.mark.parametrize("c", range(1, 10))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_voxel_sum_is_numpys_sum(self, n, c):
        for k, ext in enumerate(self.SHAPES):
            x = self._data(30 + k, (n, *ext, c))
            assert voxel_sum(x).tobytes() == x.sum(axis=(1, 2, 3)).tobytes()
            assert voxel_sum(x, pooled=True).tobytes() == x.sum(axis=(0, 1, 2, 3)).tobytes()
            zeros = np.full(x.shape, -0.0)
            assert voxel_sum(zeros).tobytes() == zeros.sum(axis=(1, 2, 3)).tobytes()

    @pytest.mark.parametrize("c", range(1, 10))
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_channel_sum_is_numpys_sum(self, n, c):
        for k, ext in enumerate(self.SHAPES):
            x = self._data(40 + k, (n, *ext, c))
            assert channel_sum(x).tobytes() == x.sum(axis=-1, keepdims=True).tobytes()
            zeros = np.full(x.shape, -0.0)
            assert channel_sum(zeros).tobytes() == zeros.sum(axis=-1, keepdims=True).tobytes()


def test_grad_like_owns_the_gradient_shape_rule():
    y = rand(50, (1, 2, 3, 4, 2))
    gy = np.arange(y.size).reshape(y.shape)
    got = grad_like(gy, y.shape, "op")
    assert got.dtype == np.float64 and np.array_equal(got, gy)
    with pytest.raises(ShapeError, match=r"^op backward: gradient shape \(1, 2, 3, 4, 1\) "
                                         r"!= output \(1, 2, 3, 4, 2\)$"):
        grad_like(gy[..., :1], y.shape, "op")
