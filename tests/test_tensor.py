import numpy as np

from agsevnet.rng import Rng


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
