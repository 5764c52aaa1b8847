import numpy as np
import pytest

from agsevnet.gradcheck import max_rel_err, numeric_grad
from agsevnet.layers import DenseParams
from agsevnet.network import NetConfig, build
from agsevnet.rng import Rng
from agsevnet.se import SeParams, effective_reduction, se_forward
from agsevnet.tensor import ShapeError


def rand(seed, shape):
    return Rng(seed).normal(shape)


def zero_params(c, m):
    hidden = c // m
    return SeParams(
        DenseParams(np.zeros((c, hidden)), np.zeros(hidden)),
        DenseParams(np.zeros((hidden, c)), np.zeros(c)),
    )


def random_params(seed, c, m):
    rng = Rng(seed)
    hidden = c // m
    return SeParams(
        DenseParams(rng.derive("w1").normal((c, hidden)), rng.derive("b1").normal((hidden,)) * 0.1),
        DenseParams(rng.derive("w2").normal((hidden, c)), rng.derive("b2").normal((c,)) * 0.1),
    )


def scalar_oracle(u, p):
    """Straight-line reimplementation with explicit loops."""
    n, z, h, w, c = u.shape
    hidden = p.fc1.weight.shape[1]
    out = np.zeros_like(u)
    for b in range(n):
        squeeze = np.zeros(c)
        for ch in range(c):
            total = 0.0
            for k in range(z):
                for i in range(h):
                    for j in range(w):
                        total += u[b, k, i, j, ch]
            squeeze[ch] = total / (z * h * w)
        mid = np.zeros(hidden)
        for q in range(hidden):
            acc = p.fc1.bias[q]
            for ch in range(c):
                acc += squeeze[ch] * p.fc1.weight[ch, q]
            mid[q] = max(acc, 0.0)
        gate = np.zeros(c)
        for ch in range(c):
            acc = p.fc2.bias[ch]
            for q in range(hidden):
                acc += mid[q] * p.fc2.weight[q, ch]
            gate[ch] = 1.0 / (1.0 + np.exp(-acc))
        for ch in range(c):
            for k in range(z):
                for i in range(h):
                    for j in range(w):
                        out[b, k, i, j, ch] = gate[ch] * u[b, k, i, j, ch]
    return out


class TestSeForward:
    def test_zero_params_halve_input(self):
        u = rand(0, (1, 2, 3, 2, 8))
        out = se_forward(u, zero_params(8, 4)).output
        assert np.array_equal(out, 0.5 * u)

    def test_squeeze_recovers_channel_constants(self):
        consts = np.arange(1.0, 9.0)
        u = np.broadcast_to(consts, (1, 2, 2, 2, 8)).copy()
        # the squeeze se_forward takes: the spatial mean per channel
        z = u.mean(axis=(1, 2, 3))
        assert np.array_equal(z[0], consts)

    def test_matches_scalar_oracle(self):
        u = rand(1, (1, 2, 2, 2, 8))
        p = random_params(2, 8, 4)
        got = se_forward(u, p).output
        want = scalar_oracle(u, p)
        assert np.abs(got - want).max() < 1e-12

    def test_shape_preserved(self):
        for shape in ((1, 2, 2, 2, 4), (2, 3, 2, 4, 8)):
            u = rand(3, shape)
            assert se_forward(u, random_params(4, shape[-1], 4)).output.shape == shape

    def test_gates_attenuate(self):
        u = rand(5, (2, 3, 3, 3, 8))
        out = se_forward(u, random_params(6, 8, 4)).output
        assert np.all(np.abs(out) <= np.abs(u))
        gates = np.divide(out, u, out=np.full_like(u, 0.5), where=u != 0)
        assert np.all(gates > 0.0) and np.all(gates < 1.0)

    def test_channel_decoupling_with_frozen_gates(self):
        u = rand(7, (2, 2, 2, 2, 8))
        p = random_params(8, 8, 4)
        base = se_forward(u, p).output
        gates = base / u  # frozen per-(batch, channel) scales
        bumped = u.copy()
        bumped[1, 0, 1, 1, 3] += 0.25
        rescaled = bumped * gates
        # only that channel of that item differs under the frozen gates
        delta = rescaled - base
        mask = np.zeros_like(delta, dtype=bool)
        mask[1, :, :, :, 3] = True
        assert np.all(delta[~mask] == 0.0)
        assert np.any(delta[mask] != 0.0)

    def test_gradients_match_finite_differences(self):
        u = rand(9, (1, 2, 2, 2, 8))
        p = random_params(10, 8, 4)
        probe = rand(11, u.shape)
        lg = se_forward(u, p)
        gu, gp = lg.backward(probe)
        num_u = numeric_grad(
            lambda v: float((se_forward(v, p).output * probe).sum()), u, refine=True
        )
        assert max_rel_err(gu, num_u) < 1e-5
        num_w1 = numeric_grad(
            lambda v: float(
                (se_forward(u, SeParams(DenseParams(v, p.fc1.bias), p.fc2)).output * probe).sum()
            ),
            p.fc1.weight,
            refine=True,
        )
        assert max_rel_err(gp["fc1.weight"], num_w1) < 1e-5

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="channels"):
            se_forward(rand(14, (1, 2, 2, 2, 4)), random_params(15, 8, 4))


def network_se_params(seed):
    config = NetConfig(base_width=2, se_reduction=4, patch_shape=(16, 16, 16))
    params = build(config, Rng(seed))
    return {k: v for k, v in params.items() if ".se." in k}


class TestSeParamsBuild:
    def test_clamps_reduction_for_tiny_channels(self):
        assert effective_reduction(2, 4) == 2
        assert effective_reduction(4, 4) == 4
        p = network_se_params(0)
        assert p["enc1.se.fc1.weight"].shape == (2, 1)  # width 2: reduction clamped to 2
        assert p["enc1.se.fc2.weight"].shape == (1, 2)
        assert p["enc2.se.fc1.weight"].shape == (4, 1)
        assert p["enc3.se.fc1.weight"].shape == (8, 2)

    def test_indivisible_rejected(self):
        with pytest.raises(ShapeError):
            effective_reduction(6, 4)

    def test_deterministic(self):
        a = network_se_params(1)
        b = network_se_params(1)
        assert len(a) == 5 * 4
        for name in a:
            assert np.array_equal(a[name], b[name])
