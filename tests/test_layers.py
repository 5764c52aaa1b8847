import hashlib

import numpy as np
import pytest

from agsevnet import layers
from agsevnet.checks import conv3d_oracle, deconv3d_oracle
from agsevnet.gradcheck import max_rel_err, numeric_grad
from agsevnet.layers import (
    Conv3dParams,
    Deconv3dParams,
    DenseParams,
    activation,
    conv3d_forward,
    conv_output_extent,
    deconv3d_forward,
    deconv_output_extent,
    dense,
    dropout,
    instance_norm,
)
from agsevnet.network import load_params, save_params
from agsevnet.rng import Rng
from agsevnet.tensor import ShapeError
from oracles import (
    activation_oracle,
    closure_arrays,
    gather_untiled,
    instance_norm_oracle,
    scatter_untiled,
    sigmoid_masked,
)


def rand(seed, shape, scale=1.0):
    return Rng(seed).normal(shape, scale=scale)


def kernel_grad_loop(x, gy, kshape, stride, padding):
    """Brute-force conv3d kernel gradient: for every output voxel and kernel
    offset, the outer product of the input voxel it reads with gy there."""
    xp = np.pad(x, ((0, 0), *((p, p) for p in padding), (0, 0)))
    gk = np.zeros(kshape)
    for b, z, h, w in np.ndindex(*gy.shape[:4]):
        for a, bb, c in np.ndindex(*kshape[:3]):
            v = xp[b, z * stride[0] + a, h * stride[1] + bb, w * stride[2] + c]
            gk[a, bb, c] += np.outer(v, gy[b, z, h, w])
    return gk


def close(got, want):
    """Within 1e-12 of the oracle relative to its largest entry; exact when
    that is 0 (a gapped stride can skip a whole extent-1 input)."""
    return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestConv3d:
    def test_spatial_halving(self):
        # i=16, k=3, s=2, p=1 -> o=8
        x = rand(0, (1, 16, 16, 16, 1))
        p = Conv3dParams(rand(1, (3, 3, 3, 1, 2), 0.2), np.zeros(2), stride=2, padding=1)
        assert conv3d_forward(x, p).output.shape == (1, 8, 8, 8, 2)

    def test_identity_kernel(self):
        x = rand(2, (1, 3, 4, 5, 1))
        k = np.zeros((1, 1, 1, 1, 1))
        k[0, 0, 0, 0, 0] = 1.0
        out = conv3d_forward(x, Conv3dParams(k, np.zeros(1))).output
        assert np.array_equal(out, x)

    def test_matches_six_loop_oracle(self):
        x = rand(3, (1, 5, 5, 5, 2))
        kernel = rand(4, (3, 3, 3, 2, 3), 0.5)
        bias = rand(5, (3,), 0.1)
        p = Conv3dParams(kernel, bias)
        got = conv3d_forward(x, p).output
        want = conv3d_oracle(x, p)
        assert np.abs(got - want).max() < 1e-12

    def test_strided_padded_matches_oracle(self):
        x = rand(6, (2, 6, 7, 6, 2))
        kernel = rand(7, (3, 3, 3, 2, 2), 0.5)
        bias = rand(8, (2,), 0.1)
        p = Conv3dParams(kernel, bias, stride=2, padding=1)
        got = conv3d_forward(x, p).output
        want = conv3d_oracle(x, p)
        assert np.abs(got - want).max() < 1e-12

    def test_channel_mismatch_rejected(self):
        x = rand(9, (1, 4, 4, 4, 3))
        p = Conv3dParams(rand(10, (3, 3, 3, 2, 1)), np.zeros(1))
        with pytest.raises(ShapeError, match="channels"):
            conv3d_forward(x, p)

    def test_non_positive_output_rejected(self):
        x = rand(11, (1, 2, 2, 2, 1))
        p = Conv3dParams(rand(12, (3, 3, 3, 1, 1)), np.zeros(1), stride=2, padding=0)
        with pytest.raises(ShapeError, match="output extent"):
            conv3d_forward(x, p)

    def test_gapped_stride_gradients(self):
        # stride wider than the kernel leaves unvisited input voxels
        x = rand(40, (1, 7, 7, 7, 2))
        p = Conv3dParams(rand(41, (2, 2, 2, 2, 2), 0.5), rand(42, (2,), 0.1), stride=3, padding=0)
        lg = conv3d_forward(x, p)
        assert lg.output.shape[1:4] == (2, 2, 2)
        probe = rand(43, lg.output.shape)
        gx, gp = lg.backward(probe)
        num_x = numeric_grad(
            lambda v: float((conv3d_forward(v, p).output * probe).sum()), x
        )
        assert max_rel_err(gx, num_x) < 1e-6
        num_k = numeric_grad(
            lambda v: float(
                (conv3d_forward(x, Conv3dParams(v, p.bias, stride=3)).output * probe).sum()
            ),
            p.kernel,
        )
        assert max_rel_err(gp["kernel"], num_k) < 1e-6

    def test_backward_linear_and_repeatable(self):
        x = rand(13, (1, 4, 4, 4, 2))
        p = Conv3dParams(rand(14, (3, 3, 3, 2, 2), 0.4), np.zeros(2), padding=1)
        lg = conv3d_forward(x, p)
        gy = rand(15, lg.output.shape)
        gx1, gp1 = lg.backward(gy)
        gx2, gp2 = lg.backward(gy)
        assert np.array_equal(gx1, gx2)
        assert np.array_equal(gp1["kernel"], gp2["kernel"])
        gx_twice, _ = lg.backward(2.0 * gy)
        assert np.allclose(gx_twice, 2.0 * gx1, atol=1e-12)


    @pytest.mark.parametrize("params", [Conv3dParams, Deconv3dParams])
    @pytest.mark.parametrize("geometry", [
        {"stride": 0}, {"stride": (1, 0, 2)}, {"stride": -1},
        {"padding": -1}, {"padding": (0, -1, 0)},
    ])
    def test_stride_below_one_or_negative_padding_rejected(self, params, geometry):
        # these used to fail deep in the kernel (ZeroDivisionError, a zero
        # slice step) or, for a deconv with padding -1, return a wrong shape
        with pytest.raises(ShapeError, match="stride .* padding"):
            params(np.zeros((3, 3, 3, 1, 1)), np.zeros(1), **geometry)


# kernel x stride x padding; each case runs on the two (extent, batch) inputs
# below, skipping an input where an output extent would be < 1. The extents
# hold 1, odd and even values; strides 3, (2, 1, 3) and 2 with 1^3 kernels
# leave gaps (s > k).
KERNELS = [(1, 1, 1), (3, 3, 3), (3, 1, 2)]
STRIDES = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (2, 1, 3)]
INPUTS = [((1, 4, 5), 2), ((5, 6, 3), 1)]


def _dims(t):
    return "x".join(map(str, t))


class TestShiftGemmOracles:
    """conv3d and deconv3d forward, input gradient and kernel gradient
    against the direct-loop oracles over a grid of shapes (c_in 2, c_out 3).
    The input gradient of each op is the other op's forward with the same
    kernel, so each oracle also checks the other op's backward."""

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", STRIDES, ids=_dims)
    @pytest.mark.parametrize("k", KERNELS, ids=_dims)
    def test_conv_matches_oracles(self, k, stride, pad):
        rng = Rng(50).derive(*k, *stride, pad)
        kernel = rng.normal((*k, 2, 3))
        bias = rng.normal((3,))
        for ext, n in INPUTS:
            if min(conv_output_extent(*v) for v in zip(ext, k, stride, (pad,) * 3)) < 1:
                continue
            x = rng.normal((n, *ext, 2))
            p = Conv3dParams(kernel, bias, stride, pad)
            lg = conv3d_forward(x, p)
            assert close(lg.output, conv3d_oracle(x, p))
            gy = rng.normal(lg.output.shape)
            gx, gp = lg.backward(gy)
            # conv input gradient = deconv of gy with the output padding
            # that restores the input extent
            op = tuple((e + 2 * pad - kk) % s for e, kk, s in zip(ext, k, stride))
            adjoint = Deconv3dParams(kernel, np.zeros(2), stride, pad, op)
            assert close(gx, deconv3d_oracle(gy, adjoint))
            want_k = kernel_grad_loop(x, gy, kernel.shape, stride, (pad,) * 3)
            assert close(gp["kernel"], want_k)

    @pytest.mark.parametrize("pad", [0, 1, 2])
    @pytest.mark.parametrize("stride", STRIDES, ids=_dims)
    @pytest.mark.parametrize("k", KERNELS, ids=_dims)
    def test_deconv_matches_oracles(self, k, stride, pad):
        rng = Rng(51).derive(*k, *stride, pad)
        kernel = rng.normal((*k, 3, 2))
        bias = rng.normal((3,))
        for ext, n in INPUTS:
            x = rng.normal((n, *ext, 2))
            for op in np.ndindex(*stride):  # every valid output_padding
                out = [deconv_output_extent(*v) for v in zip(ext, k, stride, (pad,) * 3, op)]
                if min(out) < 1:
                    continue
                p = Deconv3dParams(kernel, bias, stride, pad, op)
                lg = deconv3d_forward(x, p)
                assert close(lg.output, deconv3d_oracle(x, p))
                gy = rng.normal(lg.output.shape)
                gx, gp = lg.backward(gy)
                adjoint = Conv3dParams(kernel, np.zeros(2), stride, pad)
                assert close(gx, conv3d_oracle(gy, adjoint))
                want_k = kernel_grad_loop(gy, x, kernel.shape, stride, (pad,) * 3)
                assert close(gp["kernel"], want_k)


class TestShiftGemmTiles:
    """The row-tiled _gather and _scatter against the untiled oracles, byte
    for byte, through every product of a layer's forward and backward:
    tiles of 1 and 7 rows, one row short of the product height, exactly
    it and one row over it. Conv forward and deconv backward gather; conv
    backward and deconv forward scatter."""

    CASES = {  # kind, stride, output_padding, kernel (kz, kh, kw, c_a, c_b)
        "conv_s1": ("conv", 1, 0, (3, 3, 3, 4, 4)),
        "conv_s2": ("conv", 2, 0, (3, 3, 3, 4, 8)),
        "deconv_s2": ("deconv", 2, 1, (3, 3, 3, 4, 8)),
    }

    @staticmethod
    def _run(kind, x, kernel, stride, op, gy_seed):
        if kind == "conv":
            lg = conv3d_forward(x, Conv3dParams(kernel, np.zeros(kernel.shape[4]), stride, 1))
        else:
            lg = deconv3d_forward(x, Deconv3dParams(kernel, np.zeros(kernel.shape[3]), stride, 1, op))
        gx, gp = lg.backward(rand(gy_seed, lg.output.shape))
        return lg.output, gx, gp["kernel"]

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("case", list(CASES))
    def test_tiles_match_untiled_bitwise(self, monkeypatch, case, n):
        kind, stride, op, kshape = self.CASES[case]
        kernel = rand(70, kshape)
        c_in = kshape[3] if kind == "conv" else kshape[4]
        x = rand(71, (n, 7, 6, 5, c_in))
        conv_in = x.shape[1:4] if kind == "conv" else tuple(
            deconv_output_extent(e, 3, stride, 1, op) for e in x.shape[1:4])
        height = layers._grid(n, conv_in, (3, 3, 3), (stride,) * 3, (1, 1, 1)).rows
        with monkeypatch.context() as m:
            m.setattr(layers, "_gather", gather_untiled)
            m.setattr(layers, "_scatter", scatter_untiled)
            want = self._run(kind, x, kernel, stride, op, 72)
        for tile in (1, 7, height - 1, height, height + 1):
            monkeypatch.setattr(layers, "TILE_BYTES", tile * 8 * max(kshape[3:]))
            assert layers._tile_rows(kernel) == tile
            got = self._run(kind, x, kernel, stride, op, 72)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), tile

    def test_one_row_product_matches_its_row_of_a_taller_one(self):
        # numpy runs a 1-row matmul as gemv, which rounds differently
        src, kk = rand(73, (40, 4)), rand(74, (4, 4))
        buf = np.empty((8, 4))
        full = src @ kk
        for lo in (0, 17, 39):
            assert layers._product(src, lo, lo + 1, kk, buf).tobytes() == full[lo:lo + 1].tobytes()
        one = src[:1]
        assert layers._product(one, 0, 1, kk, buf).tobytes() == (one @ kk).tobytes()


class TestSizeArithmetic:
    @pytest.mark.parametrize("i", [5, 6, 7, 8, 9, 12, 16])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_conv_extent_formula(self, i, k, s, p):
        expected = conv_output_extent(i, k, s, p)
        if expected < 1:
            pytest.skip("invalid combination")
        x = np.zeros((1, i, i, i, 1))
        params = Conv3dParams(np.zeros((k, k, k, 1, 1)), np.zeros(1), stride=s, padding=p)
        out = conv3d_forward(x, params).output
        assert out.shape[1:4] == (expected,) * 3
        assert expected == (i + 2 * p - k) // s + 1

    @pytest.mark.parametrize("i", [2, 3, 5, 8])
    def test_deconv_doubles(self, i):
        x = np.zeros((1, i, i, i, 1))
        params = Deconv3dParams(
            np.zeros((3, 3, 3, 1, 1)), np.zeros(1), stride=2, padding=1, output_padding=1
        )
        out = deconv3d_forward(x, params).output
        assert out.shape[1:4] == (2 * i,) * 3
        assert deconv_output_extent(i, 3, 2, 1, 1) == 2 * i


class TestDeconv3d:
    def test_identity(self):
        x = rand(20, (1, 3, 3, 3, 1))
        k = np.zeros((1, 1, 1, 1, 1))
        k[0, 0, 0, 0, 0] = 1.0
        out = deconv3d_forward(x, Deconv3dParams(k, np.zeros(1))).output
        assert np.array_equal(out, x)

    @pytest.mark.parametrize("i,s,p", [(9, 2, 1), (8, 2, 0), (7, 3, 1), (6, 1, 1)])
    def test_adjoint_of_conv_with_shared_kernel(self, i, s, p):
        rng = Rng(21).derive(i, s, p)
        kernel = rng.normal((3, 3, 3, 4, 2), scale=0.5)
        y = rng.normal((1, i, i, i, 4))
        conv = conv3d_forward(y, Conv3dParams(kernel, np.zeros(2), stride=s, padding=p))
        o = conv.output.shape[1]
        op = (i + 2 * p - 3) % s
        x = rng.normal((1, o, o, o, 2))
        dec = deconv3d_forward(
            x, Deconv3dParams(kernel, np.zeros(4), stride=s, padding=p, output_padding=op)
        )
        assert dec.output.shape == y.shape
        lhs = (dec.output * y).sum()
        rhs = (x * conv.output).sum()
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_output_padding_range_validated(self):
        with pytest.raises(ShapeError, match="output_padding"):
            Deconv3dParams(np.zeros((3, 3, 3, 1, 1)), np.zeros(1), stride=2, output_padding=2)


class TestActivations:
    def test_sigmoid_matches_the_masked_form_bitwise(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 700.5, -700.5, 745.2, -745.2,
                 1e308, -1e308, 5e-324, -5e-324, 36.7, -36.7, 1.0, -1.0]
        x = np.concatenate([edges, rand(75, (200,), 30.0).ravel()]).reshape(1, 1, 1, -1, 1)
        y = activation(x, "sigmoid").output
        assert y.tobytes() == sigmoid_masked(x).tobytes()
        gy = rand(76, x.shape)
        assert activation(x, "sigmoid").backward(gy)[0].tobytes() == (
            activation_oracle(x, "sigmoid").backward(gy)[0].tobytes())

    @pytest.mark.parametrize("c", [1, 2, 4, 7, 8, 9])
    def test_softmax_matches_numpy_reductions_bitwise(self, c):
        x = rand(77, (2, 3, 4, 5, c), 4.0)
        x[0, 0, 0, 0] = 0.0
        x[0, 0, 0, 1] = -0.0
        gy = rand(78, x.shape)
        got, want = activation(x, "softmax_channel"), activation_oracle(x, "softmax_channel")
        assert got.output.tobytes() == want.output.tobytes()
        assert got.backward(gy)[0].tobytes() == want.backward(gy)[0].tobytes()

    def test_sigmoid_at_zero(self):
        out = activation(np.zeros((1, 1, 1, 1, 1)), "sigmoid").output
        assert out[0, 0, 0, 0, 0] == 0.5

    def test_softmax_equal_logits(self):
        x = np.full((1, 2, 2, 2, 4), 1.7)
        out = activation(x, "softmax_channel").output
        assert np.all(out == 0.25)

    def test_softmax_sums_to_one_in_open_interval(self):
        x = rand(22, (2, 3, 3, 3, 4), 3.0)
        out = activation(x, "softmax_channel").output
        assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
        assert np.all(out > 0.0) and np.all(out < 1.0)

    def test_relu_backward_matches_finite_differences(self):
        x = rand(23, (1, 3, 3, 3, 2))
        x = np.where(np.abs(x) < 1e-3, 0.1, x)  # stay off the kink band
        probe = rand(24, x.shape)
        analytic, _ = activation(x, "relu").backward(probe)
        numeric = numeric_grad(
            lambda v: float((activation(v, "relu").output * probe).sum()), x
        )
        assert max_rel_err(analytic, numeric) < 1e-6


class TestInstanceNorm:
    def test_constant_channel_gives_zeros(self):
        x = np.full((1, 3, 3, 3, 2), 4.2)
        out = instance_norm(x, np.ones(2), np.zeros(2), 1e-5).output
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_already_normalized_preserved(self):
        x = np.zeros((1, 1, 1, 2, 1))
        x[0, 0, 0, 0, 0] = -1.0
        x[0, 0, 0, 1, 0] = 1.0
        out = instance_norm(x, np.ones(1), np.zeros(1), 1e-12).output
        assert np.allclose(out, x, atol=1e-9)

    def test_output_statistics(self):
        x = rand(25, (2, 4, 5, 6, 3), 2.5)
        out = instance_norm(x, np.ones(3), np.zeros(3), 1e-9).output
        mean = out.mean(axis=(1, 2, 3))
        var = out.var(axis=(1, 2, 3))
        assert np.abs(mean).max() < 1e-9
        assert np.abs(var - 1.0).max() < 1e-6

    def test_eps_validated(self):
        with pytest.raises(ValueError):
            instance_norm(np.zeros((1, 2, 2, 2, 1)), np.ones(1), np.zeros(1), 0.0)

    # batch 2: the network's 32^3 x 4 and 16^3 x 8 geometries, an
    # anisotropic grid with 1 and 3 channels
    @pytest.mark.parametrize("shape", [(2, 32, 32, 32, 4), (2, 16, 16, 16, 8),
                                       (2, 6, 4, 5, 1), (2, 6, 4, 5, 3)])
    def test_matches_allocating_oracle_bitwise(self, shape):
        x = rand(60, shape, 3.0) + 1.0
        gamma, beta = rand(61, shape[-1:]) + 1.5, rand(62, shape[-1:])
        gy = rand(63, shape)
        got, want = instance_norm(x, gamma, beta, 1e-5), instance_norm_oracle(x, gamma, beta, 1e-5)
        assert got.output.tobytes() == want.output.tobytes()
        (gx, gp), (wx, wp) = got.backward(gy), want.backward(gy)
        assert gx.tobytes() == wx.tobytes()
        for name in ("gamma", "beta"):
            assert gp[name].tobytes() == wp[name].tobytes(), name

    def test_backward_repeatable_and_leaves_its_state(self):
        # the in-place passes must not write into what the closure retains
        x, gy = rand(64, (2, 6, 4, 5, 3), 2.0), rand(65, (2, 6, 4, 5, 3))
        gamma, beta = rand(66, (3,)) + 1.5, rand(67, (3,))
        inputs = (x, gamma, beta, gy)
        before = [a.copy() for a in inputs]
        lg = instance_norm(x, gamma, beta, 1e-5)
        kept = closure_arrays(lg.backward) + [lg.output]
        kept_before = [a.copy() for a in kept]
        (gx1, gp1), (gx2, gp2) = lg.backward(gy), lg.backward(gy)
        assert gx1 is not gx2 and gx1.tobytes() == gx2.tobytes()
        for name in ("gamma", "beta"):
            assert gp1[name].tobytes() == gp2[name].tobytes(), name
        for a, b in zip(inputs + tuple(kept), before + kept_before):
            assert a.tobytes() == b.tobytes()


class TestDropout:
    def test_rate_zero_identity(self):
        x = rand(26, (1, 3, 3, 3, 2))
        rng = Rng(0)
        lg = dropout(x, 0.0, rng)
        assert np.array_equal(lg.output, x)
        assert np.array_equal(lg.backward(x)[0], x)
        assert rng.random() == Rng(0).random()  # rate 0 drew nothing

    def test_survivor_statistics(self):
        x = np.ones((1, 50, 50, 40, 1))
        out = dropout(x, 0.5, Rng(42)).output
        survivors = np.count_nonzero(out) / out.size
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.mean() - 1.0) < 0.02  # inverted scaling keeps the expectation

    def test_rate_validated(self):
        with pytest.raises(ValueError):
            dropout(np.zeros((1, 1, 1, 1, 1)), 1.0, Rng(0))

    def test_backward_uses_same_mask(self):
        x = rand(28, (1, 4, 4, 4, 1))
        lg = dropout(x, 0.5, Rng(3))
        mask = lg.output / np.where(x == 0, 1, x)
        gx, _ = lg.backward(np.ones_like(x))
        assert np.allclose(gx, mask, atol=1e-12)


class TestDense:
    def test_identity_weight(self):
        x = rand(29, (3, 4))
        out = dense(x, DenseParams(np.eye(4), np.zeros(4))).output
        assert np.allclose(out, x, atol=1e-15)

    def test_zero_weight_gives_bias(self):
        x = rand(30, (3, 4))
        b = rand(31, (2,))
        out = dense(x, DenseParams(np.zeros((4, 2)), b)).output
        assert np.allclose(out, np.broadcast_to(b, (3, 2)), atol=1e-15)

    def test_gradients_match_finite_differences(self):
        x = rand(32, (3, 5))
        w = rand(33, (5, 4))
        b = rand(34, (4,))
        probe = rand(35, (3, 4))
        lg = dense(x, DenseParams(w, b))
        gx, gp = lg.backward(probe)
        num_x = numeric_grad(lambda v: float((dense(v, DenseParams(w, b)).output * probe).sum()), x)
        num_w = numeric_grad(lambda v: float((dense(x, DenseParams(v, b)).output * probe).sum()), w)
        assert max_rel_err(gx, num_x) < 1e-6
        assert max_rel_err(gp["weight"], num_w) < 1e-6

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            dense(np.zeros((2, 3)), DenseParams(np.zeros((4, 2)), np.zeros(2)))


class TestParamSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        params = {
            "enc1.conv0.kernel": rand(36, (3, 3, 3, 2, 4)),
            "enc1.conv0.bias": rand(37, (4,)),
            "head.kernel": rand(38, (1, 1, 1, 4, 4)),
        }
        save_params(tmp_path / "params", params)
        loaded = load_params(tmp_path / "params")
        assert sorted(loaded) == sorted(params)
        for name in params:
            assert params[name].tobytes() == loaded[name].tobytes()

    def test_manifest_lists_name_shape_file(self, tmp_path):
        save_params(tmp_path / "p", {"w": rand(39, (2, 3)), "b": rand(40, (3,))})
        text = (tmp_path / "p" / "manifest.txt").read_text()
        digest = hashlib.sha256((tmp_path / "p" / "params.npy").read_bytes()).hexdigest()
        assert text == f"name=w shape=2x3\nname=b shape=3\nsha256={digest}\n"
        assert sorted(p.name for p in (tmp_path / "p").iterdir()) == ["manifest.txt", "params.npy"]

    def test_np_load_sliced_by_manifest_is_every_tensor(self, tmp_path):
        params = {
            "enc1.conv0.kernel": rand(41, (3, 3, 3, 2, 4)),
            "transposed": rand(42, (5, 3)).T,
            "empty": np.zeros((0, 4)),
            "enc1.conv0.bias": rand(43, (4,)),
        }
        save_params(tmp_path / "p", params)
        flat = np.load(tmp_path / "p" / "params.npy")
        assert flat.dtype == np.dtype("<f8") and flat.ndim == 1
        lines = (tmp_path / "p" / "manifest.txt").read_text().splitlines()
        assert len(lines) == len(params) + 1
        start = 0
        for line, name in zip(lines, params):
            fields = dict(tok.split("=") for tok in line.split())
            shape = tuple(int(d) for d in fields["shape"].split("x"))
            assert fields["name"] == name and shape == params[name].shape
            size = int(np.prod(shape))
            got = flat[start:start + size].reshape(shape)
            assert got.tobytes() == np.ascontiguousarray(params[name]).tobytes()
            start += size
        assert start == flat.size

    def test_loaded_tensors_are_writable(self, tmp_path):
        save_params(tmp_path / "p", {"a": rand(44, (2, 2)), "b": rand(45, (3,))})
        loaded = load_params(tmp_path / "p")
        loaded["a"] += 1.0  # optimizers update parameters in place
        assert loaded["b"].tobytes() == rand(45, (3,)).tobytes()

    def test_cut_params_file_names_the_file(self, tmp_path):
        save_params(tmp_path / "p", {"a": rand(46, (4, 5)), "b": rand(47, (6,))})
        path, manifest = tmp_path / "p" / "params.npy", tmp_path / "p" / "manifest.txt"
        raw, text = path.read_bytes(), manifest.read_text()
        for cut in (0, 5, 9, 64, 127, 128, 129, len(raw) // 2, len(raw) - 8, len(raw) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="SHA-256") as err:
                load_params(tmp_path / "p")
            assert str(path) in str(err.value), cut
            # with a digest that matches the cut file, the parse refuses it
            digest = hashlib.sha256(raw[:cut]).hexdigest()
            manifest.write_text(text.rsplit("sha256=", 1)[0] + f"sha256={digest}\n")
            with pytest.raises(ValueError) as err:
                load_params(tmp_path / "p")
            assert str(path) in str(err.value), cut
            manifest.write_text(text)

    def test_value_count_must_match_manifest(self, tmp_path):
        save_params(tmp_path / "p", {"a": rand(48, (4, 5)), "b": rand(49, (6,))})
        manifest = tmp_path / "p" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("shape=6", "shape=5"))
        with pytest.raises(ValueError, match=r"params.npy: holds float64 of shape \(26,\), "
                                             r"the manifest lists 25 float64 values"):
            load_params(tmp_path / "p")

    @pytest.mark.parametrize("damage, message", [
        (lambda t: "garbage\n" + t, "line 1: expected name=… shape=…, got 'garbage'"),
        (lambda t: t.replace("name=b ", "name=a "), "line 2: duplicate name 'a'"),
        (lambda t: t.replace(" shape=6", ""), "line 2: expected name=… shape=…"),
        (lambda t: t.replace("shape=6", "shape=6 shape=6"), "line 2: expected name=… shape=…"),
        (lambda t: t.replace("shape=6", "shape=six"), "line 2: expected name=… shape=…"),
        (lambda t: t.replace("shape=6", "shape=-6"), "line 2: expected name=… shape=…"),
        (lambda t: t.replace("shape=2x3", "shape=2xx3"), "line 1: expected name=… shape=…"),
        (lambda t: t.rsplit("sha256=", 1)[0], "last line 'name=b shape=6' is not sha256="),
        (lambda t: t.replace("sha256=", "sha256=0"), "last line 'sha256=0.* is not sha256="),
        (lambda t: t + t.splitlines()[-1] + "\n", "line 3: expected name=… shape=…"),
        (lambda t: t.replace("name=a", "color=red name=a"), "line 1: expected name=… shape=…"),
        (lambda t: "\n" + t, "line 1: expected name=… shape=…, got ''"),
        (lambda t: "", "last line '' is not sha256="),
    ], ids=["no_equals", "duplicate", "missing_field", "repeated_key", "word_shape",
            "negative_shape", "empty_dim", "no_digest", "long_digest", "two_digests",
            "unknown_key", "blank_line", "empty"])
    def test_malformed_manifest_names_the_manifest(self, tmp_path, damage, message):
        save_params(tmp_path / "p", {"a": rand(50, (2, 3)), "b": rand(51, (6,))})
        manifest = tmp_path / "p" / "manifest.txt"
        manifest.write_text(damage(manifest.read_text()))
        with pytest.raises(ValueError, match=message) as err:
            load_params(tmp_path / "p")
        assert str(manifest) in str(err.value)
