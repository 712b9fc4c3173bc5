"""Gradient-oracle tests for the layer kernel.

Central finite differences on float64 copies are the independent oracle for
every analytic backward pass, per-sample and batch-mean alike.
"""

import math
import tracemalloc

import numpy as np
import pytest

import fednaslab.nn.model as nn_model
from fednaslab.errors import NonFiniteError, ShapeMismatchError
from fednaslab.nn.layers import (
    AvgPool,
    ConvBlock,
    DepthwiseConv,
    GlobalAvgPool,
    Linear,
    MaxPool,
    PerSampleNorm,
    PointwiseConv,
    ReLU,
    Reshape,
    Sequential,
    TransposeConv,
)
from fednaslab.nn.model import (
    Model,
    apply_update,
    batch_gradient,
    drawn_batches,
    evaluate_accuracy,
    loss_and_per_sample_grads,
    mse,
    shuffled_batches,
    softmax_cross_entropy,
    train_plain_sgd,
)
from fednaslab.privacy import DPConfig, PrivacyLedger, dp_sgd_step
from fednaslab.space import SpaceConfig, genome_from_string, materialize

RTOL = 1e-3
ATOL = 1e-6


def _per_sample_losses(parts, x, target, loss):
    out = x
    for part in parts:
        out, _ = part.forward(out)
    if loss is softmax_cross_entropy:
        shifted = out - out.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -logp[np.arange(out.shape[0]), target]
    diff = (out - target).reshape(out.shape[0], -1)
    return (diff**2).mean(axis=1)


def _fd_check(parts, x, target, loss=softmax_cross_entropy, h=1e-5):
    """Compare analytic per-sample grads against central differences."""
    seq = Sequential([l for p in parts for l in p.layers])
    seq.astype(np.float64)
    x = x.astype(np.float64)
    # randomize every parameter (biases included) so no ReLU kink or pool tie
    # sits exactly at the evaluation point
    prng = np.random.default_rng(99)
    for layer in seq.param_layers():
        layer.params = prng.normal(scale=0.4, size=layer.n_params)
    if loss is mse:
        target = target.astype(np.float64)
    _, psg_list, _ = loss_and_per_sample_grads(seq, x, target, loss=loss)
    layers = seq.param_layers()
    assert len(psg_list) == len(layers)
    n = x.shape[0]
    for layer, psg in zip(layers, psg_list):
        assert psg.shape == (n, layer.n_params)
        fd = np.zeros_like(psg)
        base = layer.params.copy()
        for j in range(layer.n_params):
            layer.params = base.copy()
            layer.params[j] = base[j] + h
            lp = _per_sample_losses([seq], x, target, loss)
            layer.params = base.copy()
            layer.params[j] = base[j] - h
            lm = _per_sample_losses([seq], x, target, loss)
            layer.params = base.copy()
            fd[:, j] = (lp - lm) / (2 * h)
        err = np.abs(psg - fd)
        tol = ATOL + RTOL * np.abs(fd)
        assert (err <= tol).all(), (
            f"{layer!r}: worst err {err.max():.3e} vs tol {tol[err.argmax() // psg.shape[1], err.argmax() % psg.shape[1]]:.3e}"
        )


def _rng(seed=0):
    return np.random.default_rng(seed)


def _init(seq, seed=0):
    seq.init_params(_rng(seed))
    return seq


class TestFiniteDifferences:
    def test_linear_stack(self):
        rng = _rng(1)
        seq = _init(Sequential([Linear(6, 8), ReLU(), Linear(8, 4)]), 1)
        x = rng.normal(size=(3, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=3)
        _fd_check([seq], x, y)

    def test_depthwise_pointwise_norm(self):
        rng = _rng(2)
        seq = _init(
            Sequential(
                [
                    DepthwiseConv(3, 3),
                    PointwiseConv(3, 6),
                    PerSampleNorm(6),
                    ReLU(),
                    GlobalAvgPool(),
                    Linear(6, 3),
                ]
            ),
            2,
        )
        x = rng.normal(size=(3, 3, 6, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=3)
        _fd_check([seq], x, y)

    def test_kernel5_and_pools(self):
        rng = _rng(3)
        seq = _init(
            Sequential(
                [
                    DepthwiseConv(2, 5),
                    PointwiseConv(2, 4),
                    AvgPool(),
                    MaxPool(),
                    GlobalAvgPool(),
                    Linear(4, 3),
                ]
            ),
            3,
        )
        x = rng.normal(size=(4, 2, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=4)
        _fd_check([seq], x, y)

    def test_residual_block_with_projection(self):
        rng = _rng(4)
        seq = _init(
            Sequential([ConvBlock(3, 8, 3), GlobalAvgPool(), Linear(8, 4)]), 4
        )
        x = rng.normal(size=(3, 3, 5, 5)).astype(np.float32)
        y = rng.integers(0, 4, size=3)
        _fd_check([seq], x, y)

    def test_residual_block_identity_shortcut(self):
        rng = _rng(5)
        seq = _init(
            Sequential([ConvBlock(4, 4, 3), GlobalAvgPool(), Linear(4, 2)]), 5
        )
        x = rng.normal(size=(3, 4, 5, 5)).astype(np.float32)
        y = rng.integers(0, 2, size=3)
        _fd_check([seq], x, y)

    def test_decoder_layers_mse(self):
        self._decoder_mse(2, 2)

    def test_decoder_layers_mse_non_square(self):
        # a swapped H/W axis in TransposeConv's transposes passes square maps
        self._decoder_mse(2, 3)

    @staticmethod
    def _decoder_mse(h, w):
        rng = _rng(6)
        seq = _init(
            Sequential(
                [
                    Linear(5, 2 * h * w),
                    Reshape((2, h, w)),
                    ReLU(),
                    TransposeConv(2, 3),
                    ReLU(),
                    PointwiseConv(3, 2),
                ]
            ),
            6,
        )
        x = rng.normal(size=(3, 5)).astype(np.float32)
        t = rng.normal(size=(3, 2, 2 * h, 2 * w)).astype(np.float32)
        _fd_check([seq], x, t, loss=mse)

    def test_avgpool_odd_map(self):
        rng = _rng(17)
        seq = _init(
            Sequential(
                [PointwiseConv(2, 3), AvgPool(), ReLU(), GlobalAvgPool(), Linear(3, 3)]
            ),
            17,
        )
        x = rng.normal(size=(3, 2, 7, 9)).astype(np.float32)
        y = rng.integers(0, 3, size=3)
        _fd_check([seq], x, y)

    def test_avgpool_input_gradient_odd_map(self):
        # the pool is linear, so d sum(r * pool(x)) / dx by central differences
        # is exact up to rounding; the dropped last row and column get zero
        rng = _rng(18)
        pool = AvgPool()
        x = rng.normal(size=(2, 2, 7, 9))
        y, cache = pool.forward(x)
        r = rng.normal(size=y.shape)
        gin, psg = pool.backward(r, cache)
        assert psg == []
        h = 1e-3
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            fd[idx] = ((pool.forward(xp)[0] - pool.forward(xm)[0]) * r).sum() / (2 * h)
        np.testing.assert_allclose(gin, fd, rtol=1e-9, atol=1e-12)
        assert (gin[:, :, 6, :] == 0).all()
        assert (gin[:, :, :, 8] == 0).all()
        assert (gin[:, :, :6, :8] != 0).all()


class TestGradientStructure:
    def test_mean_psg_equals_batch_gradient(self):
        # criterion: mean of per-sample gradients == full-batch-mean gradient
        rng = _rng(7)
        seq = _init(
            Sequential(
                [ConvBlock(3, 8, 3), AvgPool(), GlobalAvgPool(), Linear(8, 5)]
            ),
            7,
        )
        model = Model(Sequential(seq.layers[:-1]), Sequential(seq.layers[-1:]))
        x = rng.normal(size=(6, 3, 8, 8)).astype(np.float32)
        y = rng.integers(0, 5, size=6)
        psg = np.concatenate(loss_and_per_sample_grads(model, x, y)[1], axis=1)
        assert psg.shape == (6, model.n_params)

        half_a = np.concatenate(loss_and_per_sample_grads(model, x[:3], y[:3])[1], axis=1)
        half_b = np.concatenate(loss_and_per_sample_grads(model, x[3:], y[3:])[1], axis=1)
        stacked = np.concatenate([half_a, half_b], axis=0)
        # per-sample rows do not depend on who else is in the batch
        np.testing.assert_allclose(psg, stacked, rtol=1e-5, atol=1e-7)

    def test_norm_is_per_sample(self):
        # permuting the rest of the batch must not change a sample's output
        rng = _rng(8)
        norm = PerSampleNorm(16)
        norm.init_params(_rng(8))
        x = rng.normal(size=(5, 16, 4, 4)).astype(np.float32)
        y1, _ = norm.forward(x)
        y2, _ = norm.forward(x[::-1].copy())
        np.testing.assert_array_equal(y1[0], y2[-1])

    def test_identity_depthwise_kernel(self):
        conv = DepthwiseConv(3, 3)
        w = np.zeros((3, 3, 3), dtype=np.float32)
        w[:, 1, 1] = 1.0
        conv.params = w.reshape(-1)
        x = _rng(9).normal(size=(2, 3, 6, 6)).astype(np.float32)
        y, _ = conv.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_pool_shapes(self):
        x = _rng(10).normal(size=(2, 3, 7, 9)).astype(np.float32)
        y_avg, _ = AvgPool().forward(x)
        y_max, _ = MaxPool().forward(x)
        assert y_avg.shape == (2, 3, 3, 4)
        assert y_max.shape == (2, 3, 3, 4)
        np.testing.assert_allclose(
            y_avg[0, 0, 0, 0], x[0, 0, :2, :2].mean(), rtol=1e-6
        )
        assert y_max[0, 0, 0, 0] == x[0, 0, :2, :2].max()

    def test_transpose_conv_doubles_spatial(self):
        t = TransposeConv(2, 3)
        t.init_params(_rng(11))
        x = _rng(11).normal(size=(2, 2, 3, 5)).astype(np.float32)
        y, _ = t.forward(x)
        assert y.shape == (2, 3, 6, 10)


def _close(new, ref, rtol):
    # rtol on each entry, plus rtol times the array's scale, so an entry whose
    # contraction cancels to near zero is judged against its neighbours
    assert new.dtype == ref.dtype
    np.testing.assert_allclose(new, ref, rtol=rtol, atol=rtol * np.abs(ref).max())


PRIMITIVES = [DepthwiseConv, PointwiseConv, PerSampleNorm, ReLU, AvgPool, MaxPool,
              GlobalAvgPool, Linear, TransposeConv, Reshape]


class TestLayerTree:
    @pytest.mark.parametrize("cls", [ConvBlock, Sequential, Model])
    def test_containers_inherit_the_tree_walk(self, cls):
        for name in ("param_layers", "n_params", "init_params", "astype"):
            assert name not in vars(cls), f"{cls.__name__} defines {name}"

    def test_primitives_inherit_the_parameter_layout(self):
        assert [cls for cls in PRIMITIVES if "init_params" in vars(cls)] == [PerSampleNorm]
        assert [cls for cls in PRIMITIVES if "_views" in vars(cls)] == []

    # each primitive's weight count, fan-in and bias count, written out here
    # independently of the layout its constructor states
    @pytest.mark.parametrize("make,n_weights,fan_in,n_bias", [
        (lambda: DepthwiseConv(4, 3), 4 * 3 * 3, 3 * 3, 0),
        (lambda: DepthwiseConv(2, 5), 2 * 5 * 5, 5 * 5, 0),
        (lambda: PointwiseConv(4, 6), 4 * 6, 4, 6),
        (lambda: PointwiseConv(4, 6, bias=False), 4 * 6, 4, 0),
        (lambda: Linear(5, 3), 5 * 3, 5, 3),
        (lambda: TransposeConv(4, 2), 4 * 2 * 4, 4, 2),
    ], ids=["dw3", "dw5", "pw", "pw-nobias", "linear", "transpose"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_init_draws_the_uniform_formula(self, make, n_weights, fan_in, n_bias,
                                            dtype):
        layer = make().astype(dtype)
        layer.init_params(_rng(30))
        bound = 1.0 / np.sqrt(fan_in)
        weights = _rng(30).uniform(-bound, bound, size=n_weights).astype(dtype)
        assert layer.params.dtype == dtype
        np.testing.assert_array_equal(
            layer.params, np.concatenate([weights, np.zeros(n_bias, dtype=dtype)]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_norm_init_is_ones_then_zeros_and_draws_nothing(self, dtype):
        norm = PerSampleNorm(6)
        np.testing.assert_array_equal(norm.params, [1.0] * 6 + [0.0] * 6)
        norm.astype(dtype).params[:] = 7.0
        rng = _rng(31)
        norm.init_params(rng)
        assert norm.params.dtype == dtype
        np.testing.assert_array_equal(norm.params, [1.0] * 6 + [0.0] * 6)
        assert rng.uniform() == _rng(31).uniform()

    def test_reprs(self):
        head = Sequential([Linear(3, 2)])
        assert [repr(layer) for layer in (
            DepthwiseConv(4, 5), PointwiseConv(4, 6), PointwiseConv(4, 6, bias=False),
            PerSampleNorm(6), ReLU(), AvgPool(), MaxPool(), GlobalAvgPool(),
            Linear(5, 3), TransposeConv(4, 2), Reshape([2, 3]), ConvBlock(3, 8, 5),
            head, Model(Sequential([ReLU()]), head),
        )] == [
            "DepthwiseConv(channels=4, kernel=5)",
            "PointwiseConv(c_in=4, c_out=6, bias=True)",
            "PointwiseConv(c_in=4, c_out=6, bias=False)",
            "PerSampleNorm(channels=6)",
            "ReLU()",
            "AvgPool()",
            "MaxPool()",
            "GlobalAvgPool()",
            "Linear(d_in=5, d_out=3)",
            "TransposeConv(c_in=4, c_out=2)",
            "Reshape(shape=(2, 3))",
            "ConvBlock(c_in=3, c_out=8, kernel=5)",
            "Sequential(layers=[Linear(d_in=3, d_out=2)])",
            "Model(bottom=Sequential(layers=[ReLU()]), "
            "head=Sequential(layers=[Linear(d_in=3, d_out=2)]))",
        ]

    def test_walk_order_is_the_backward_order(self):
        model = Model(Sequential([ConvBlock(3, 8, 3), GlobalAvgPool(), Linear(8, 4)]),
                      Sequential([Linear(4, 2)]))
        model.init_params(_rng(20))
        layers = model.param_layers()
        assert [type(l).__name__ for l in layers] == [
            "DepthwiseConv", "PointwiseConv", "PerSampleNorm", "PointwiseConv",
            "Linear", "Linear"]
        assert model.n_params == sum(l.params.size for l in layers)
        model.astype(np.float64)
        assert all(l.params.dtype == np.float64 for l in layers)
        rng = _rng(21)
        x = rng.normal(size=(3, 3, 6, 6))
        _, psg_list, _ = loss_and_per_sample_grads(model, x, np.array([0, 1, 1]))
        assert [psg.shape for psg in psg_list] == [(3, l.n_params) for l in layers]
        assert all(psg.dtype == np.float64 for psg in psg_list)


class TestKernelParity:
    """The BLAS kernels against the einsum and reshape-mean formulas they replaced."""

    RTOL = {np.float32: 1e-5, np.float64: 1e-12}
    SHAPES = {
        "desk": (32, 8, 8),
        "paper": (64, 32, 32),
        "non-square": (3, 3, 5),
        "odd": (4, 7, 9),
    }
    # norm groups: one of 3; two of 6; 7, 7 and 6; eight of 8
    CHANNELS = [3, 12, 20, 64]

    @staticmethod
    def _ref_pointwise(layer, x, gout):
        w, b = layer._views()
        n = x.shape[0]
        y = np.einsum("nchw,cd->ndhw", x, w)
        if layer.bias:
            y += b[None, :, None, None]
        gin = np.einsum("ndhw,cd->nchw", gout, w)
        gw = np.einsum("nchw,ndhw->ncd", x, gout).reshape(n, -1)
        if layer.bias:
            gw = np.concatenate([gw, gout.sum(axis=(2, 3))], axis=1)
        return y, gin, [gw]

    @staticmethod
    def _ref_transpose(layer, x, gout):
        w, b = layer._views()
        n, c, H, W = x.shape
        d = layer.c_out
        y = np.einsum("ncij,cdab->ndiajb", x, w).reshape(n, d, H * 2, W * 2)
        y += b[None, :, None, None]
        g6 = gout.reshape(n, d, H, 2, W, 2)
        gin = np.einsum("ndiajb,cdab->ncij", g6, w)
        gw = np.einsum("ncij,ndiajb->ncdab", x, g6).reshape(n, -1)
        return y, gin, [np.concatenate([gw, gout.sum(axis=(2, 3))], axis=1)]

    @staticmethod
    def _ref_avgpool(layer, x, gout):
        n, c, H, W = x.shape
        H2, W2 = H // 2, W // 2
        y = x[:, :, : H2 * 2, : W2 * 2].reshape(n, c, H2, 2, W2, 2).mean(axis=(3, 5))
        gin = np.zeros_like(x)
        gin[:, :, : H2 * 2, : W2 * 2] = np.broadcast_to(
            gout[:, :, :, None, :, None] / 4.0, (n, c, H2, 2, W2, 2)
        ).reshape(n, c, H2 * 2, W2 * 2)
        return y, gin, []

    @staticmethod
    def _ref_globalavgpool(layer, x, gout):
        n, c, H, W = x.shape
        gin = np.broadcast_to(gout[:, :, None, None] / (H * W), x.shape)
        return x.mean(axis=(2, 3)), gin, []

    @staticmethod
    def _ref_depthwise(layer, x, gout):
        # the k^2 shifted-slice loop that the banded GEMMs and, for the
        # per-sample weight gradient, the flat-run taps replaced
        k, p = layer.kernel, layer.kernel // 2
        w, _ = layer._views()
        n, c, H, W = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        y = np.zeros_like(x)
        for a in range(k):
            for b in range(k):
                y += w[:, a, b][None, :, None, None] * xp[:, :, a:a + H, b:b + W]
        gxp = np.zeros_like(xp)
        gw = np.empty((n, c, k, k), dtype=gout.dtype)
        for a in range(k):
            for b in range(k):
                window = xp[:, :, a:a + H, b:b + W]
                gxp[:, :, a:a + H, b:b + W] += w[:, a, b][None, :, None, None] * gout
                gw[:, :, a, b] = np.einsum("nchw,nchw->nc", window, gout)
        gin = gxp[:, :, p:p + H, p:p + W]
        return y, gin, [gw.reshape(n, -1)]

    @staticmethod
    def _ref_norm(layer, x, gout):
        # the per-group mean/var loop that the reduceat statistics replaced
        eps = layer.EPS
        gamma, beta = layer._views()
        channels = layer.channels
        group_size = min(8, channels)
        n_groups = -(-channels // group_size)
        group_slices = []
        start = 0
        for part in np.array_split(np.arange(channels), n_groups):
            group_slices.append(slice(start, start + part.size))
            start += part.size
        y = np.empty_like(x)
        xhat_full = np.empty_like(x)
        istds = []
        for sl in group_slices:
            xs = x[:, sl]
            mu = xs.mean(axis=(1, 2, 3), keepdims=True)
            var = xs.var(axis=(1, 2, 3), keepdims=True)
            istd = 1.0 / np.sqrt(var + eps)
            xhat = (xs - mu) * istd
            xhat_full[:, sl] = xhat
            y[:, sl] = gamma[sl][None, :, None, None] * xhat + beta[sl][None, :, None, None]
            istds.append(istd)
        gin = np.empty_like(gout)
        for sl, istd in zip(group_slices, istds):
            g = gout[:, sl]
            xhat = xhat_full[:, sl]
            dxhat = g * gamma[sl][None, :, None, None]
            m1 = dxhat.mean(axis=(1, 2, 3), keepdims=True)
            m2 = (dxhat * xhat).mean(axis=(1, 2, 3), keepdims=True)
            gin[:, sl] = istd * (dxhat - m1 - xhat * m2)
        dgamma = np.einsum("nchw,nchw->nc", gout, xhat_full)
        dbeta = gout.sum(axis=(2, 3))
        return y, gin, [np.concatenate([dgamma, dbeta], axis=1)]

    def _check(self, layer, ref, x_shape, dtype, seed):
        rng = _rng(seed)
        if layer.n_params:
            # random biases too, so a dropped bias term shows
            layer.params = rng.normal(scale=0.5, size=layer.n_params).astype(dtype)
        x = rng.normal(size=x_shape).astype(dtype)
        y, cache = layer.forward(x)
        gout = rng.normal(size=y.shape).astype(dtype)
        gin, psg = layer.backward(gout, cache)
        y_ref, gin_ref, psg_ref = ref(layer, x, gout)
        rtol = self.RTOL[dtype]
        _close(y, y_ref, rtol)
        _close(gin, gin_ref, rtol)
        assert len(psg) == len(psg_ref)
        for p, p_ref in zip(psg, psg_ref):
            assert p.shape == (x_shape[0], layer.n_params)
            _close(p, p_ref, rtol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square"])
    @pytest.mark.parametrize("bias", [True, False])
    def test_pointwise(self, dtype, shape, bias):
        n, H, W = self.SHAPES[shape]
        layer = PointwiseConv(8, 16, bias=bias)
        self._check(layer, self._ref_pointwise, (n, 8, H, W), dtype, 21)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square"])
    def test_transpose(self, dtype, shape):
        n, H, W = self.SHAPES[shape]
        layer = TransposeConv(8, 4)
        self._check(layer, self._ref_transpose, (n, 8, H, W), dtype, 22)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square", "odd"])
    def test_avgpool(self, dtype, shape):
        n, H, W = self.SHAPES[shape]
        self._check(AvgPool(), self._ref_avgpool, (n, 8, H, W), dtype, 23)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square", "odd"])
    def test_globalavgpool(self, dtype, shape):
        n, H, W = self.SHAPES[shape]
        self._check(GlobalAvgPool(), self._ref_globalavgpool, (n, 8, H, W), dtype, 27)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square", "odd"])
    @pytest.mark.parametrize("kernel", [3, 5])
    @pytest.mark.parametrize("channels", CHANNELS)
    def test_depthwise(self, dtype, shape, kernel, channels):
        n, H, W = self.SHAPES[shape]
        layer = DepthwiseConv(channels, kernel)
        self._check(layer, self._ref_depthwise, (n, channels, H, W), dtype, 24)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", ["desk", "paper", "non-square", "odd"])
    @pytest.mark.parametrize("channels", CHANNELS)
    def test_norm(self, dtype, shape, channels):
        n, H, W = self.SHAPES[shape]
        layer = PerSampleNorm(channels)
        self._check(layer, self._ref_norm, (n, channels, H, W), dtype, 25)

    @pytest.mark.parametrize("c_in, c_out", [(12, 12), (3, 20)])
    def test_convblock_residual_relu_is_bit_identical(self, c_in, c_out):
        # the in-place residual add and ReLU against relu(norm(pw(dw(x))) + shortcut(x))
        block = ConvBlock(c_in, c_out, 3)
        rng = _rng(26)
        for layer in block.param_layers():
            layer.params = rng.normal(scale=0.5, size=layer.n_params).astype(np.float32)
        x = rng.normal(size=(4, c_in, 7, 9)).astype(np.float32)
        y, cache = block.forward(x)
        h = x
        for layer in (block.dw, block.pw, block.norm):
            h, _ = layer.forward(h)
        shortcut = x if block.proj is None else block.proj.forward(x)[0]
        pre = h + shortcut
        ref = pre * (pre > 0)
        assert y.dtype == ref.dtype
        assert y.tobytes() == ref.tobytes()
        np.testing.assert_array_equal(cache[-1], pre > 0)


class TestPlainMode:
    """backward with per_sample off returns the row sum of per-sample mode."""

    RTOL = 1e-12

    @pytest.mark.parametrize("make,shape", [
        (lambda: DepthwiseConv(4, 3), (5, 4, 7, 9)),
        (lambda: DepthwiseConv(4, 5), (5, 4, 8, 8)),
        (lambda: PointwiseConv(4, 6), (5, 4, 3, 5)),
        (lambda: PointwiseConv(4, 6, bias=False), (5, 4, 3, 5)),
        (lambda: PerSampleNorm(12), (5, 12, 4, 4)),
        (lambda: Linear(5, 3), (7, 5)),
        (lambda: TransposeConv(4, 3), (5, 4, 3, 5)),
        (lambda: ConvBlock(4, 8, 3), (5, 4, 6, 6)),
        (lambda: ConvBlock(8, 8, 5), (5, 8, 6, 6)),
    ], ids=["dw3", "dw5", "pw", "pw-nobias", "norm", "linear", "transpose",
            "block-proj", "block-identity"])
    def test_plain_is_the_row_sum_of_per_sample(self, make, shape):
        layer = make().astype(np.float64)
        rng = _rng(40)
        for primitive in layer.param_layers():
            primitive.params = rng.normal(scale=0.5, size=primitive.n_params)
        x = rng.normal(size=shape)
        y, cache = layer.forward(x)
        gout = rng.normal(size=y.shape)
        gin, psg = layer.backward(gout, cache)
        plain_gin, sums = layer.backward(gout, cache, per_sample=False)
        np.testing.assert_array_equal(plain_gin, gin)
        assert len(sums) == len(psg) == len(layer.param_layers())
        for got, rows in zip(sums, psg):
            _close(got, rows.sum(axis=0), self.RTOL)

    def test_plain_grads_are_one_vector_per_layer(self):
        model = _small_model()
        x = _rng(41).normal(size=(6, 2, 5, 5)).astype(np.float32)
        _, sums, _ = loss_and_per_sample_grads(model, x, _rng(42).integers(0, 3, size=6),
                                               per_sample=False)
        assert [g.shape for g in sums] == [(l.n_params,) for l in model.param_layers()]
        assert all(g.dtype == np.float32 for g in sums)

    def test_cut_plain_batch_adds_the_cuts(self, monkeypatch):
        model = _small_model().astype(np.float64)
        x = _rng(43).normal(size=(7, 2, 5, 5))
        y = _rng(44).integers(0, 3, size=7)
        ref_loss, psg, _ = loss_and_per_sample_grads(model, x, y)
        _cut_rows(monkeypatch, x, 2)
        loss, sums, _ = loss_and_per_sample_grads(model, x, y, per_sample=False)
        assert loss == pytest.approx(ref_loss, rel=self.RTOL)
        for got, rows in zip(sums, psg, strict=True):
            _close(got, rows.sum(axis=0), self.RTOL)
        _, grads, _ = batch_gradient(model, x, y)
        for got, rows in zip(grads, psg, strict=True):
            _close(got, rows.mean(axis=0), self.RTOL)


class TestErrors:
    def test_shape_mismatch_names_layer(self):
        conv = PointwiseConv(3, 8)
        with pytest.raises(ShapeMismatchError, match="PointwiseConv"):
            conv.forward(np.zeros((2, 4, 5, 5), dtype=np.float32))

    def test_non_finite_loss(self):
        logits = np.array([[np.inf, 0.0]], dtype=np.float32)
        with pytest.raises(NonFiniteError):
            softmax_cross_entropy(logits, np.array([0]))

    def test_ce_matches_manual(self):
        rng = _rng(12)
        logits = rng.normal(size=(7, 4)).astype(np.float64)
        y = rng.integers(0, 4, size=7)
        loss, _ = softmax_cross_entropy(logits, y)
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        ref = -np.log(probs[np.arange(7), y]).mean()
        assert abs(loss - ref) < 1e-12


def test_plain_sgd_learns_separable_blobs():
    rng = _rng(13)
    n = 200
    x = rng.normal(size=(n, 2, 6, 6)).astype(np.float32) * 0.1
    y = rng.integers(0, 2, size=n)
    x[y == 1, 0] += 0.8
    x[y == 0, 1] += 0.8
    bottom = Sequential([ConvBlock(2, 8, 3), GlobalAvgPool(), Linear(8, 8)])
    head = Sequential([Linear(8, 2)])
    model = Model(bottom, head)
    bottom.init_params(_rng(14))
    head.init_params(_rng(15))
    train_plain_sgd(model, x, y, shuffled_batches(n, 32, 5, _rng(16)), eta=0.1)
    logits = model.logits(x)
    acc = (logits.argmax(axis=1) == y).mean()
    assert acc >= 0.95


def _small_model():
    bottom = _init(Sequential([ConvBlock(2, 8, 3), GlobalAvgPool(), Linear(8, 4)]), 21)
    return Model(bottom, _init(Sequential([Linear(4, 3)]), 22))


def _one_cut(monkeypatch):
    """Run every gradient batch as one cut: the uncut gradient path.
    Evaluation forwards cut whatever CUT_ABOVE holds."""
    monkeypatch.setattr(nn_model, "CUT_ABOVE", math.inf)


def _cut_rows(monkeypatch, x, rows):
    """Cut every batch shaped like x into runs of at most `rows` rows."""
    monkeypatch.setattr(nn_model, "CUT_ABOVE", 0)
    monkeypatch.setattr(nn_model, "CUT_BYTES", rows * x[0].nbytes)


def _recorded_rows(monkeypatch, layer):
    """Patch layer.forward to record the rows of every input it is given."""
    rows, forward = [], layer.forward

    def recording(xb):
        rows.append(len(xb))
        return forward(xb)

    monkeypatch.setattr(layer, "forward", recording)
    return rows


class TestEvaluationPass:
    def test_bottom_runs_in_eval_batch_cuts(self, monkeypatch):
        model = _small_model()
        x = _rng(23).normal(size=(8, 2, 5, 5)).astype(np.float32)
        uncut, _ = model.bottom.forward(x)
        _cut_rows(monkeypatch, x, 3)
        rows = _recorded_rows(monkeypatch, model.bottom)
        z = model.forward_bottom(x)
        assert rows == [2, 3, 3]
        np.testing.assert_allclose(z, uncut, rtol=1e-5, atol=1e-6)

    def test_accuracy_and_loss_match_the_uncut_logits(self, monkeypatch):
        model = _small_model()
        x = _rng(24).normal(size=(8, 2, 5, 5)).astype(np.float32)
        y = _rng(25).integers(0, 3, size=8)
        logits, _ = model.forward(x)
        ref_loss, _ = softmax_cross_entropy(logits, y)
        ref_acc = (logits.argmax(axis=1) == y).mean()
        _cut_rows(monkeypatch, x, 3)
        acc, loss = evaluate_accuracy(model, x, y)
        assert acc == ref_acc
        assert loss == pytest.approx(ref_loss, rel=1e-5)

    def test_empty_set_scores_zero_accuracy_and_nan_loss(self):
        model = _small_model()
        acc, loss = evaluate_accuracy(model, np.zeros((0, 2, 5, 5), np.float32),
                                      np.zeros(0, dtype=np.int64))
        assert acc == 0.0
        assert math.isnan(loss)


@pytest.fixture(scope="module")
def paper_batch():
    """The default genome at paper shape and one B=64 batch of 3x32x32."""
    space = SpaceConfig(input_shape=(3, 32, 32), d_rep=128)
    rng = _rng(31)
    model = materialize(genome_from_string("C3x32-C3x64-Pavg"), space, rng)
    x = rng.normal(size=(64, 3, 32, 32)).astype(np.float32)
    return model, x, rng.integers(0, 10, size=64)


@pytest.fixture(scope="module")
def desk_model():
    """The default genome at desk shape (3x8x8, d_rep 16)."""
    space = SpaceConfig(input_shape=(3, 8, 8), d_rep=16)
    return materialize(genome_from_string("C3x32-C3x64-Pavg"), space, _rng(35))


class TestBatchCuts:
    @pytest.mark.parametrize("n", [32, 333])
    def test_desk_batches_run_whole(self, desk_model, monkeypatch, n):
        # gradient batches at desk shape stay under CUT_ABOVE and run whole
        x = _rng(36).normal(size=(n, 3, 8, 8)).astype(np.float32)
        y = _rng(37).integers(0, 3, size=n)
        rows = _recorded_rows(monkeypatch, desk_model)
        loss_and_per_sample_grads(desk_model, x, y)
        assert rows == [n]

    def test_desk_evaluation_runs_in_cuts_in_bounded_memory(self, desk_model,
                                                            monkeypatch):
        x = _rng(38).normal(size=(333, 3, 8, 8)).astype(np.float32)
        whole, _ = desk_model.bottom.forward(x)
        tracemalloc.start()
        try:
            z = desk_model.forward_bottom(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(z, whole)
        # 34.2 MiB when the whole shard ran as one batch
        assert peak < 12 * 2**20
        rows = _recorded_rows(monkeypatch, desk_model.bottom)
        desk_model.forward_bottom(x)
        assert sum(rows) == 333 and max(rows) <= 64
        assert max(rows) - min(rows) <= 1

    def test_paper_batch_is_cut(self):
        cuts = nn_model.batch_cuts(np.zeros((64, 3, 32, 32), np.float32))
        assert [cut.stop - cut.start for cut in cuts] == [4] * 16
        assert [cut.start for cut in cuts] == list(range(0, 64, 4))

    @pytest.mark.parametrize("n", [43, 47, 133])
    def test_cuts_cover_the_batch_in_near_equal_runs(self, n):
        cuts = nn_model.batch_cuts(np.zeros((n, 3, 32, 32), np.float32))
        sizes = [cut.stop - cut.start for cut in cuts]
        assert cuts[0].start == 0 and cuts[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(cuts, cuts[1:]))
        assert max(sizes) <= 4 and max(sizes) - min(sizes) <= 1
        assert min(sizes) >= 2

    def test_empty_input_returns_an_empty_result(self, paper_batch):
        model, x, _ = paper_batch
        assert nn_model.batch_cuts(x[:0]) == [slice(0, 0)]
        assert model.forward_bottom(x[:0]).shape == (0, 128)

    def test_cut_and_uncut_agree_bit_for_bit(self, paper_batch, monkeypatch):
        model, x, y = paper_batch
        loss, psg, out = loss_and_per_sample_grads(model, x, y)
        np.testing.assert_array_equal(model.forward_bottom(x), model.bottom.forward(x)[0])
        _one_cut(monkeypatch)
        ref_loss, ref_psg, ref_out = loss_and_per_sample_grads(model, x, y)
        assert loss == ref_loss
        np.testing.assert_array_equal(out, ref_out)
        for got, ref in zip(psg, ref_psg, strict=True):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("rows", [2, 3, 4])
    def test_a_rows_gradients_do_not_depend_on_its_cut(self, paper_batch, rows):
        model, x, y = paper_batch
        # the whole 64-row batch through the layers, as one cut runs it
        out, cache = model.forward(x)
        _, psg = model.backward(softmax_cross_entropy(out, y)[1], cache)
        _, short, _ = loss_and_per_sample_grads(model, x[8:8 + rows], y[8:8 + rows])
        for got, ref in zip(short, psg, strict=True):
            np.testing.assert_array_equal(got, ref[8:8 + rows])

    @pytest.mark.parametrize("rows", [2, 3, 32])
    def test_a_desk_rows_gradients_do_not_depend_on_its_batch(self, desk_model, rows):
        # the 77-row batch of a desk-search hpo trial, run whole
        x = _rng(39).normal(size=(77, 3, 8, 8)).astype(np.float32)
        y = _rng(40).integers(0, 3, size=77)
        _, psg, _ = loss_and_per_sample_grads(desk_model, x, y)
        _, short, _ = loss_and_per_sample_grads(desk_model, x[8:8 + rows], y[8:8 + rows])
        for got, ref in zip(short, psg, strict=True):
            np.testing.assert_array_equal(got, ref[8:8 + rows])

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_odd_remainder_cut_agrees_within_tolerance(self, monkeypatch, dtype, rtol):
        model = _small_model().astype(dtype)
        x = _rng(32).normal(size=(7, 2, 5, 5)).astype(dtype)
        y = _rng(33).integers(0, 3, size=7)
        ref_loss, ref_psg, ref_out = loss_and_per_sample_grads(model, x, y)
        _cut_rows(monkeypatch, x, 2)
        rows = _recorded_rows(monkeypatch, model)
        loss, psg, out = loss_and_per_sample_grads(model, x, y)
        assert rows == [1, 2, 2, 2]
        assert loss == pytest.approx(ref_loss, rel=rtol)
        np.testing.assert_allclose(out, ref_out, rtol=rtol, atol=rtol)
        for got, ref in zip(psg, ref_psg, strict=True):
            np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol)

    def test_dp_step_moves_the_parameters_identically(self, paper_batch, monkeypatch):
        model, x, y = paper_batch
        dp = DPConfig(clip_norm=1.0, noise_multiplier=1.0, sampling_rate=0.1, delta=1e-5)
        ledger = PrivacyLedger(dp)
        start = model.get_flat()

        def step():
            model.set_flat(start)
            loss = dp_sgd_step(model, x, y, ledger, 0.1, _rng(34))
            return loss, model.get_flat()

        cut_loss, cut_params = step()
        _one_cut(monkeypatch)
        uncut_loss, uncut_params = step()
        model.set_flat(start)
        assert cut_loss == uncut_loss
        np.testing.assert_array_equal(cut_params, uncut_params)
        assert not np.array_equal(cut_params, start)


class TestBatchSamplers:
    def test_plain_sgd_over_shuffled_batches_matches_the_epoch_loop(self):
        rng = _rng(17)
        x = rng.normal(size=(37, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=37)
        parts = _init(Sequential([Linear(4, 3)]), 18)
        ref = _init(Sequential([Linear(4, 3)]), 18)
        losses = train_plain_sgd(parts, x, y, shuffled_batches(37, 8, 3, _rng(19)),
                                 eta=0.1)
        # one permutation per epoch, cut into batches of 8 (the last one short)
        ref_rng, ref_losses = _rng(19), []
        for _ in range(3):
            order = ref_rng.permutation(37)
            for start in range(0, 37, 8):
                idx = order[start:start + 8]
                loss, grads, _ = batch_gradient(ref, x[idx], y[idx])
                apply_update(ref, grads, 0.1)
                ref_losses.append(loss)
        assert len(losses) == 3 * 5
        assert losses == ref_losses
        np.testing.assert_array_equal(parts.get_flat(), ref.get_flat())

    @pytest.mark.parametrize("sampler", [shuffled_batches, drawn_batches])
    def test_batch_size_is_clamped_to_n(self, sampler):
        batches = list(sampler(5, 8, 2, _rng(20)))
        assert len(batches) == 2
        for idx in batches:
            assert sorted(idx) == list(range(5))
