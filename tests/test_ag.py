import numpy as np
import pytest

from agsevnet import ag
from agsevnet.ag import (
    AgParams,
    _fit_forward,
    ag_forward,
    attention_map,
    box_sum,
    effective_radius,
    window_counts,
)
from agsevnet.checks import box_sum_oracle, fit_oracle
from agsevnet.gradcheck import max_rel_err, numeric_grad
from agsevnet.layers import Conv3dParams
from agsevnet.rng import Rng
from agsevnet.tensor import ShapeError
from oracles import closure_arrays, fit_forward_oracle, retained_bytes


def rand(seed, shape, scale=1.0):
    return Rng(seed).normal(shape, scale=scale)


def ag_params(seed, c, radius=2, eps=0.01):
    rng = Rng(seed)

    def conv1(c_in, c_out, key):
        return Conv3dParams(
            rng.derive(key).normal((1, 1, 1, c_in, c_out), scale=0.6),
            rng.derive(key + "b").normal((c_out,), scale=0.1),
        )

    return AgParams(
        radius=radius,
        eps=eps,
        attn_o=conv1(c, c, "o"),
        attn_i=conv1(c, c, "i"),
        attn_gate=conv1(c, 1, "g"),
    )


def zero_attention_params(c, radius=2, eps=0.01):
    def conv1(c_in, c_out):
        return Conv3dParams(np.zeros((1, 1, 1, c_in, c_out)), np.zeros(c_out))

    return AgParams(radius, eps, conv1(c, c), conv1(c, c), conv1(c, 1))


# box_sum oracle grid: anisotropic extents (one with an extent-1 axis),
# batch 2, one and three channels; radius 1, the network's effective
# radius, half and all of the largest extent
BOX_GRID = [
    ((2, *spatial, c), r)
    for spatial in [(1, 5, 7), (6, 4, 5)]
    for c in (1, 3)
    for r in sorted({1, effective_radius(16, spatial), max(spatial) // 2, max(spatial)})
]


class TestBoxSum:
    def test_ones_counts(self):
        ones = np.ones((1, 5, 5, 5, 1))
        out = box_sum(ones, 1)
        assert out[0, 2, 2, 2, 0] == 27.0
        assert out[0, 0, 0, 0, 0] == 8.0
        assert out[0, 0, 2, 2, 0] == 18.0

    def test_saturated_window_is_global_sum(self):
        x = rand(0, (1, 4, 3, 5, 2))
        out = box_sum(x, 10)
        total = x.sum(axis=(1, 2, 3), keepdims=True)
        assert np.abs(out - total).max() < 1e-12

    def test_matches_naive_oracle(self):
        # plus the network's 16^3 single-channel geometry at r = 8
        cases = [((1, 7, 7, 7, 1), 2), ((1, 16, 16, 16, 1), 8), *BOX_GRID]
        for k, (shape, r) in enumerate(cases):
            x = rand(1 + k, shape)
            assert np.abs(box_sum(x, r) - box_sum_oracle(x, r)).max() < 1e-12, (shape, r)

    def test_integer_inputs_exact(self):
        cases = [((2, 6, 5, 7, 2), r) for r in (1, 2, 3)] + BOX_GRID
        for shape, r in cases:
            x = Rng(2).integers(-50, 50, shape).astype(float)
            assert np.array_equal(box_sum(x, r), box_sum_oracle(x, r)), (shape, r)

    def test_self_adjoint(self):
        x = rand(3, (1, 5, 6, 4, 1))
        y = rand(4, (1, 5, 6, 4, 1))
        assert (box_sum(x, 2) * y).sum() == pytest.approx((x * box_sum(y, 2)).sum(), rel=1e-12)
        # exactly, at r = n/2: the box sums of the unit volumes are the
        # columns of the operator's matrix
        voxels = 6 * 4 * 5
        basis = np.eye(voxels).reshape(voxels, 6, 4, 5, 1)
        m = box_sum(basis, 3).reshape(voxels, voxels)
        assert np.array_equal(m, m.T)

    def test_radius_validated(self):
        with pytest.raises(ValueError):
            box_sum(np.ones((1, 2, 2, 2, 1)), 0)

    def test_non_contiguous_view(self):
        base = rand(7, (2, 9, 5, 12, 4))
        view = base[:, ::2, :, ::-3, 1:]
        assert not view.flags.c_contiguous
        out = box_sum(view, 2)
        assert np.array_equal(out, box_sum(np.ascontiguousarray(view), 2))
        assert np.abs(out - box_sum_oracle(np.ascontiguousarray(view), 2)).max() < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_window_counts_closed_form(self, n):
        r = n // 2  # the acceptance network's AG geometries
        v = np.arange(n)
        per_axis = np.minimum(v + r, n - 1) - np.maximum(v - r, 0) + 1
        expected = per_axis[:, None, None] * per_axis[None, :, None] * per_axis[None, None, :]
        assert np.array_equal(window_counts((n, n, n), r), expected[None, ..., None].astype(float))


class TestAttentionMap:
    def test_zero_weights_give_half(self):
        o = rand(5, (1, 3, 3, 3, 2))
        i = rand(6, (1, 3, 3, 3, 2))
        t = attention_map(i, o, zero_attention_params(2)).output
        assert t.shape == (1, 3, 3, 3, 1)
        assert np.all(t == 0.5)

    def test_values_in_open_unit_interval(self):
        p = ag_params(7, 3)
        t = attention_map(rand(9, (2, 4, 4, 4, 3)), rand(8, (2, 4, 4, 4, 3)), p).output
        assert np.all(t > 0.0) and np.all(t < 1.0)

    def test_matches_scalar_reimplementation(self):
        c = 2
        p = ag_params(10, c)
        o = rand(11, (1, 2, 2, 2, c))
        il = rand(12, (1, 2, 2, 2, c))
        got = attention_map(il, o, p).output
        wo, bo = p.attn_o.kernel[0, 0, 0], p.attn_o.bias
        wi, bi = p.attn_i.kernel[0, 0, 0], p.attn_i.bias
        wg, bg = p.attn_gate.kernel[0, 0, 0], p.attn_gate.bias
        want = np.zeros((1, 2, 2, 2, 1))
        for k in range(2):
            for i in range(2):
                for j in range(2):
                    to = o[0, k, i, j] @ wo + bo
                    ti = il[0, k, i, j] @ wi + bi
                    hidden = np.maximum(to + ti, 0.0)
                    gate = float((hidden @ wg)[0]) + float(bg[0])
                    want[0, k, i, j, 0] = 1.0 / (1.0 + np.exp(-gate))
        assert np.abs(got - want).max() < 1e-12

    def test_spatial_mismatch_rejected(self):
        p = ag_params(13, 2)
        with pytest.raises(ShapeError, match="spatial"):
            attention_map(rand(15, (1, 2, 3, 3, 2)), rand(14, (1, 3, 3, 3, 2)), p)

    def test_backward_keeps_no_conv_output(self, monkeypatch):
        outputs = []

        def recording(layer):
            def run(*args):
                lg = layer(*args)
                outputs.append(lg.output)
                return lg
            return run

        for name in ("conv3d_forward", "activation"):
            monkeypatch.setattr(ag, name, recording(getattr(ag, name)))
        i, o, p = rand(16, (1, 3, 4, 5, 2)), rand(17, (1, 3, 4, 5, 2)), ag_params(18, 2)
        lg = attention_map(i, o, p)
        # conv o, conv i, relu, gate conv, then the sigmoid, whose backward reads its output
        assert len(outputs) == 5 and outputs[-1] is lg.output
        y_o, y_i, relu, gate, t = outputs
        assert not any(a is y for a in closure_arrays(lg.backward) for y in (y_o, y_i, gate))
        # the convs keep their inputs (i, o and the relu output, which the
        # gate's kernel gradient reads), the relu its bool mask, the sigmoid
        # its output; nothing else but the parameters
        params = [v for c in (p.attn_o, p.attn_i, p.attn_gate) for v in (c.kernel, c.bias)]
        kept = i.nbytes + o.nbytes + relu.nbytes + relu.size + t.nbytes
        assert retained_bytes(lg.backward) == kept + sum(v.nbytes for v in params)


class TestAgFit:
    def test_perfect_self_guidance(self):
        x = rand(16, (1, 5, 5, 5, 1))
        t = np.ones((1, 5, 5, 5, 1))
        coeff_a, coeff_b = _fit_forward(x, x, t, r=2, eps=1e-12)[:2]
        assert np.abs(coeff_a - 1.0).max() < 1e-6
        assert np.abs(coeff_b).max() < 1e-6

    def test_constant_guidance_gives_window_mean(self):
        i = np.full((1, 5, 5, 5, 1), 2.0)
        o = rand(17, (1, 5, 5, 5, 1))
        t = np.ones((1, 5, 5, 5, 1))
        coeff_a, coeff_b = _fit_forward(i, o, t, r=1, eps=0.01)[:2]
        counts = window_counts((5, 5, 5), 1)
        window_mean_o = box_sum(o, 1) / counts
        expect_b = box_sum(window_mean_o, 1) / counts
        assert np.abs(coeff_a).max() < 1e-9
        assert np.abs(coeff_b - expect_b).max() < 1e-9

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_matches_normal_equations_oracle(self, r):
        i = rand(18, (1, 6, 6, 6, 1))
        o = rand(19, (1, 6, 6, 6, 1))
        t = Rng(20).uniform(0.05, 1.0, (1, 6, 6, 6, 1))
        got_a, got_b = _fit_forward(i, o, t, r, 0.01)[:2]
        want_a, want_b = fit_oracle(i[0, ..., 0], o[0, ..., 0], t[0, ..., 0], r, 0.01)
        assert np.abs(got_a[0, ..., 0] - want_a).max() < 1e-10
        assert np.abs(got_b[0, ..., 0] - want_b).max() < 1e-10

    def test_constant_attention_reduces_to_classical_filter(self):
        i = rand(21, (1, 6, 6, 6, 1))
        o = rand(22, (1, 6, 6, 6, 1))
        r, eps = 2, 0.01
        for const in (1.0, 0.3, 2.5):
            t = np.full((1, 6, 6, 6, 1), const)
            got_a, got_b = _fit_forward(i, o, t, r, eps)[:2]
            counts = window_counts((6, 6, 6), r)
            mean_i = box_sum(i, r) / counts
            mean_o = box_sum(o, r) / counts
            var = box_sum(i * i, r) / counts - mean_i ** 2
            cov = box_sum(i * o, r) / counts - mean_i * mean_o
            a = cov / (var + eps)
            b = mean_o - a * mean_i
            want_a = box_sum(a, r) / counts
            want_b = box_sum(b, r) / counts
            assert np.abs(got_a - want_a).max() < 1e-10
            assert np.abs(got_b - want_b).max() < 1e-10

    @pytest.mark.parametrize("c", [0.5, 2.0])
    def test_invariant_to_attention_rescale(self, c):
        i = rand(23, (1, 6, 6, 6, 2))
        o = rand(24, (1, 6, 6, 6, 2))
        t = Rng(25).uniform(0.1, 0.9, (1, 6, 6, 6, 1))
        base_a, base_b = _fit_forward(i, o, t, 2, 0.01)[:2]
        scaled_a, scaled_b = _fit_forward(i, o, c * t, 2, 0.01)[:2]
        assert np.abs(base_a - scaled_a).max() < 1e-10
        assert np.abs(base_b - scaled_b).max() < 1e-10

    def test_constant_volume_constant_coefficients_at_borders(self):
        i = np.full((1, 6, 6, 6, 1), 1.7)
        o = np.full((1, 6, 6, 6, 1), -0.4)
        t = Rng(26).uniform(0.2, 1.0, (1, 6, 6, 6, 1))
        coeff_a, coeff_b = _fit_forward(i, o, t, 2, 0.01)[:2]
        assert np.abs(coeff_a - coeff_a[0, 3, 3, 3, 0]).max() < 1e-12
        assert np.abs(coeff_b - coeff_b[0, 3, 3, 3, 0]).max() < 1e-12

    def test_locality_radius_2r(self):
        r = 1
        n = 9
        i = rand(27, (1, n, n, n, 1))
        o = rand(28, (1, n, n, n, 1))
        t = Rng(29).uniform(0.2, 1.0, (1, n, n, n, 1))
        base_a, base_b = _fit_forward(i, o, t, r, 0.01)[:2]
        bumped = o.copy()
        bumped[0, 4, 4, 4, 0] += 3.0
        moved_a, moved_b = _fit_forward(i, bumped, t, r, 0.01)[:2]
        delta_a = np.abs(moved_a - base_a)[0, ..., 0]
        delta_b = np.abs(moved_b - base_b)[0, ..., 0]
        zz, hh, ww = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
        outside = np.maximum.reduce([np.abs(zz - 4), np.abs(hh - 4), np.abs(ww - 4)]) > 2 * r
        assert outside.any() and not outside.all()
        assert delta_a[outside].max() < 1e-12
        assert delta_b[outside].max() < 1e-12
        assert delta_b[~outside].max() > 1e-3

    def test_degenerate_attention_falls_back_to_window_mean(self):
        i = rand(30, (1, 4, 4, 4, 1))
        o = rand(31, (1, 4, 4, 4, 1))
        t = np.zeros((1, 4, 4, 4, 1))
        coeff_a, coeff_b = _fit_forward(i, o, t, 1, 0.01)[:2]
        counts = window_counts((4, 4, 4), 1)
        mean_o = box_sum(o, 1) / counts
        expect_b = box_sum(mean_o, 1) / counts
        assert np.all(coeff_a == 0.0)
        assert np.abs(coeff_b - expect_b).max() < 1e-12


def fit_attention(kind, shape, seed):
    """Single-channel attention of the fit's oracle tests: random, all zero
    (every window degenerate), or zero on the first half of the z axis."""
    t = Rng(seed).uniform(0.05, 1.0, (*shape[:4], 1))
    if kind == "zero":
        t[:] = 0.0
    elif kind == "half":
        t[:, : shape[1] // 2] = 0.0
    return t


class TestAgFitArithmetic:
    # batch 2: the network's 32^3 x 4 and 16^3 x 8 geometries, an
    # anisotropic grid with 1 and 3 channels; radius 1 and the network's
    @pytest.mark.parametrize("shape", [(2, 32, 32, 32, 4), (2, 16, 16, 16, 8),
                                       (2, 6, 4, 5, 1), (2, 6, 4, 5, 3)])
    @pytest.mark.parametrize("kind", ["random", "zero", "half"])
    def test_matches_allocating_oracle_bitwise(self, shape, kind):
        i, o = rand(70, shape), rand(71, shape)
        t = fit_attention(kind, shape, 72)
        g_a, g_b = rand(73, shape), rand(74, shape)
        for r in sorted({1, effective_radius(16, shape[1:4])}):
            *got, got_bwd = _fit_forward(i, o, t, r, 0.01)
            *want, want_bwd = fit_forward_oracle(i, o, t, r, 0.01)
            for a, b in zip(got + list(got_bwd(g_a, g_b)), want + list(want_bwd(g_a, g_b))):
                assert a.tobytes() == b.tobytes(), r

    @pytest.mark.parametrize("kind", ["random", "half"])
    def test_fit_backward_repeatable_and_leaves_its_state(self, kind):
        shape = (2, 6, 4, 5, 3)
        i, o, t = rand(75, shape), rand(76, shape), fit_attention(kind, shape, 77)
        g_a, g_b = rand(78, shape), rand(79, shape)
        inputs = (i, o, t, g_a, g_b)
        before = [a.copy() for a in inputs]
        coeff_a, coeff_b, backward = _fit_forward(i, o, t, 1, 0.01)
        kept = closure_arrays(backward) + [coeff_a, coeff_b]
        kept_before = [a.copy() for a in kept]
        first, second = backward(g_a, g_b), backward(g_a, g_b)
        for a, b in zip(first, second):
            assert a is not b and a.tobytes() == b.tobytes()
        for a, b in zip(inputs + tuple(kept), before + kept_before):
            assert a.tobytes() == b.tobytes()

    def test_ag_backward_repeatable_and_leaves_its_state(self):
        shape = (2, 6, 4, 5, 3)
        i, o, gy = rand(80, shape), rand(81, shape), rand(82, shape)
        inputs = (i, o, gy)
        before = [a.copy() for a in inputs]
        lg = ag_forward(i, o, ag_params(83, 3))
        kept = closure_arrays(lg.backward) + [lg.output]
        kept_before = [a.copy() for a in kept]
        ((gi1, go1), gp1), ((gi2, go2), gp2) = lg.backward(gy), lg.backward(gy)
        assert gi1.tobytes() == gi2.tobytes() and go1.tobytes() == go2.tobytes()
        assert sorted(gp1) == sorted(gp2)
        for name in gp1:
            assert gp1[name].tobytes() == gp2[name].tobytes(), name
        for a, b in zip(inputs + tuple(kept), before + kept_before):
            assert a.tobytes() == b.tobytes()


class TestAgForward:
    def test_backward_keeps_the_output_shape_not_the_output(self):
        shape = (1, 3, 4, 5, 2)
        lg = ag_forward(rand(19, shape), rand(20, shape), ag_params(21, 2))
        assert not any(a is lg.output for a in closure_arrays(lg.backward))

    def test_self_guidance_limit_reproduces_guidance(self):
        i = rand(32, (1, 6, 6, 6, 1))
        p = zero_attention_params(1, radius=2, eps=1e-12)
        out = ag_forward(i, i, p).output
        assert np.abs(out - i).max() < 1e-8

    def test_constant_guidance_goes_through_intercept(self):
        i = np.full((1, 6, 6, 6, 1), 2.0)
        o = rand(33, (1, 6, 6, 6, 1))
        p = zero_attention_params(1, radius=2, eps=0.01)
        out = ag_forward(i, o, p).output
        counts = window_counts((6, 6, 6), 2)
        mean_o = box_sum(o, 2) / counts
        want = box_sum(mean_o, 2) / counts
        assert np.abs(out - want).max() < 1e-9

    def _check_gradients(self, seeds, shape, p):
        # input, filtered-map and attn_i.kernel gradients against central
        # differences, at 1e-4 with refine=True
        si, so, sp = seeds
        i, o, probe = rand(si, shape), rand(so, shape), rand(sp, shape)
        lg = ag_forward(i, o, p)
        assert lg.output.shape == shape
        (gi, go), gp = lg.backward(probe)
        num_i = numeric_grad(
            lambda v: float((ag_forward(v, o, p).output * probe).sum()), i, refine=True
        )
        num_o = numeric_grad(
            lambda v: float((ag_forward(i, v, p).output * probe).sum()), o, refine=True
        )

        def with_attn_i_kernel(v):
            return AgParams(p.radius, p.eps, p.attn_o, Conv3dParams(v, p.attn_i.bias), p.attn_gate)

        num_k = numeric_grad(
            lambda v: float((ag_forward(i, o, with_attn_i_kernel(v)).output * probe).sum()),
            p.attn_i.kernel, refine=True,
        )
        assert max_rel_err(gi, num_i) < 1e-4
        assert max_rel_err(go, num_o) < 1e-4
        assert max_rel_err(gp["attn_i.kernel"], num_k) < 1e-4

    def _assert_refused(self, i_shape, o_shape):
        with pytest.raises(ShapeError, match="share one grid and channel count"):
            ag_forward(rand(45, i_shape), rand(46, o_shape), zero_attention_params(1))

    def test_gradients_match_finite_differences(self):
        # anisotropic grid, parameter gradient included
        self._check_gradients((34, 35, 37), (1, 6, 4, 5, 2), ag_params(36, 2, radius=2, eps=0.05))

    def test_channel_mismatch_without_align_rejected(self):
        # there is no channel-align conv: the decoder's deconv matches channels
        self._assert_refused((1, 4, 4, 4, 3), (1, 4, 4, 4, 2))

    def test_non_integral_scale_rejected(self):
        self._assert_refused((1, 6, 6, 6, 1), (1, 4, 4, 4, 1))

    def test_grid_mismatch_rejected(self):
        for i_shape in ((1, 8, 8, 8, 1), (2, 4, 4, 4, 1)):
            self._assert_refused(i_shape, (1, 4, 4, 4, 1))

    def test_anisotropic_integer_scale(self):
        # a per-axis integer-multiple guidance (ratios 2, 1, 4) is not
        # up-sampled; an anisotropic grid shared by both inputs is supported
        self._assert_refused((1, 8, 4, 8, 1), (1, 4, 4, 2, 1))
        self._check_gradients((51, 52, 53), (1, 8, 4, 8, 1),
                              zero_attention_params(1, radius=1, eps=0.05))

    def test_equal_grids_supported_with_gradients(self):
        # the in-network configuration: skip and upsampled map share a grid
        self._check_gradients((47, 48, 50), (1, 4, 4, 4, 2), ag_params(49, 2))


def test_effective_radius_scaling():
    assert effective_radius(16, (32, 32, 32)) == 16
    assert effective_radius(16, (4, 8, 8)) == 2
    assert effective_radius(16, (1, 4, 4)) == 1
    assert effective_radius(2, (16, 16, 16)) == 2
