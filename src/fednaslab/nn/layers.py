"""Numpy layer kernels with explicit per-sample backward passes.

Every backward keeps the batch axis in its weight-gradient contraction, so
per-sample gradients come out exact and vectorized. Channel contractions
run on BLAS: the batch axis is kept through batched matmul over
(n, channels, positions) views, and a contraction that sums over the batch
anyway, such as TransposeConv's input gradient, is one GEMM over all
n * positions rows.

Layers form one tree. A primitive owns a flat parameter vector; a container
(ConvBlock, Sequential, and the Model built on Sequential) owns none and
lists its sublayers in children(). Parameter access walks that tree once,
in Layer. A layer's backward returns (grad_wrt_input, [per_sample_grads
...]) where the list holds one [n, p_i] array per parameterized primitive
in the layer's tree, in the same order as param_layers(). Parameter-free
layers return an empty list.

A primitive's constructor states its parameter layout once (Layer._layout):
the weight shape, the bias count and the fan-in. The flat vector is the
weight block, then the biases; Layer allocates, slices (_views) and
initializes it: weights uniform in +-1/sqrt(fan_in), biases zero.

Layer code is dtype-generic: arrays keep whatever float dtype the params
and inputs carry (float32 by default, float64 in gradient checks).
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from ..errors import ShapeMismatchError


class Layer:
    """Base layer. Primitives allocate a flat self.params through _layout;
    containers leave it empty and return their sublayers from children()."""

    def __init__(self):
        self.params = np.zeros(0, dtype=np.float32)

    def _layout(self, weight_shape, n_bias, fan_in):
        """Allocate a primitive's zeroed flat vector: weights, then biases."""
        self.weight_shape, self.n_bias, self.fan_in = weight_shape, n_bias, fan_in
        self.params = np.zeros(math.prod(weight_shape) + n_bias, dtype=np.float32)

    def _views(self):
        """Views into params: the shaped weights and the (maybe empty) biases."""
        n_weights = self.params.size - self.n_bias
        return self.params[:n_weights].reshape(self.weight_shape), self.params[n_weights:]

    def __repr__(self):
        """The class and its constructor's arguments, each read back from
        the attribute of the same name."""
        names = list(inspect.signature(type(self).__init__).parameters)[1:]
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({args})"

    def children(self):
        return []

    def param_layers(self):
        """The parameterized primitives of this tree, in parameter order."""
        found = [self] if self.params.size else []
        for child in self.children():
            found.extend(child.param_layers())
        return found

    @property
    def n_params(self) -> int:
        return self.params.size + sum(child.n_params for child in self.children())

    def init_params(self, rng: np.random.Generator) -> None:
        """Draw this layer's weights and zero its biases, then each child's."""
        if self.params.size:
            bound = 1.0 / np.sqrt(self.fan_in)
            weights = rng.uniform(-bound, bound, size=self.params.size - self.n_bias)
            self.params = np.concatenate(
                [weights, np.zeros(self.n_bias)]).astype(self.params.dtype)
        for child in self.children():
            child.init_params(rng)

    def forward(self, x):
        raise NotImplementedError

    def backward(self, gout, cache):
        raise NotImplementedError

    def astype(self, dtype):
        self.params = self.params.astype(dtype)
        for child in self.children():
            child.astype(dtype)
        return self

    def _bad_input(self, x, expected: str):
        raise ShapeMismatchError(
            f"{self!r} expected {expected}, got input shape {tuple(x.shape)}"
        )


class DepthwiseConv(Layer):
    """Per-channel k x k convolution, stride 1, zero 'same' padding, no bias."""

    def __init__(self, channels: int, kernel: int):
        super().__init__()
        if kernel not in (3, 5):
            raise ValueError(f"depthwise kernel must be 3 or 5, got {kernel}")
        self.channels = channels
        self.kernel = kernel
        self._layout((channels, kernel, kernel), 0, kernel * kernel)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            self._bad_input(x, f"[n, {self.channels}, h, w]")
        k, p = self.kernel, self.kernel // 2
        w, _ = self._views()
        n, c, H, W = x.shape
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        y = np.zeros_like(x)
        for a in range(k):
            for b in range(k):
                y += w[:, a, b][None, :, None, None] * xp[:, :, a:a + H, b:b + W]
        return y, (xp, x.shape)

    def backward(self, gout, cache):
        xp, xshape = cache
        n, c, H, W = xshape
        k, p = self.kernel, self.kernel // 2
        w, _ = self._views()
        gxp = np.zeros_like(xp)
        gw = np.empty((n, c, k, k), dtype=gout.dtype)
        for a in range(k):
            for b in range(k):
                window = xp[:, :, a:a + H, b:b + W]
                gxp[:, :, a:a + H, b:b + W] += w[:, a, b][None, :, None, None] * gout
                gw[:, :, a, b] = np.einsum("nchw,nchw->nc", window, gout)
        gin = gxp[:, :, p:p + H, p:p + W]
        return gin, [gw.reshape(n, -1)]


class PointwiseConv(Layer):
    """1 x 1 convolution mixing channels; bias optional (projection shortcuts skip it)."""

    def __init__(self, c_in: int, c_out: int, bias: bool = True):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self.bias = bias
        self._layout((c_in, c_out), c_out if bias else 0, c_in)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            self._bad_input(x, f"[n, {self.c_in}, h, w]")
        w, b = self._views()
        n, c, H, W = x.shape
        y = np.matmul(w.T, x.reshape(n, c, H * W)).reshape(n, self.c_out, H, W)
        if self.bias:
            y += b[None, :, None, None]
        return y, x

    def backward(self, gout, cache):
        x = cache
        w, _ = self._views()
        n, c, H, W = x.shape
        g3 = gout.reshape(n, self.c_out, H * W)
        gin = np.matmul(w, g3).reshape(n, c, H, W)
        gw = np.matmul(x.reshape(n, c, H * W), g3.transpose(0, 2, 1)).reshape(n, -1)
        if self.bias:
            gb = gout.sum(axis=(2, 3))
            return gin, [np.concatenate([gw, gb], axis=1)]
        return gin, [gw]


class PerSampleNorm(Layer):
    """Normalization over channel groups within each sample (no cross-sample statistics).

    Group size is min(8, C); each group is normalized over its channels and
    all spatial positions, then scaled/shifted by per-channel affine params.
    """

    EPS = 1e-5

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.group_size = min(8, channels)
        n_groups = -(-channels // self.group_size)
        self.group_slices = []
        start = 0
        for part in np.array_split(np.arange(channels), n_groups):
            self.group_slices.append(slice(start, start + part.size))
            start += part.size
        self._layout((channels,), channels, None)
        self.init_params(None)

    def init_params(self, rng):
        """gamma ones, beta zeros; draws nothing from `rng`."""
        c = self.channels
        self.params = np.concatenate([np.ones(c), np.zeros(c)]).astype(self.params.dtype)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            self._bad_input(x, f"[n, {self.channels}, h, w]")
        gamma, beta = self._views()
        y = np.empty_like(x)
        xhat_full = np.empty_like(x)
        istds = []
        for sl in self.group_slices:
            xs = x[:, sl]
            mu = xs.mean(axis=(1, 2, 3), keepdims=True)
            var = xs.var(axis=(1, 2, 3), keepdims=True)
            istd = 1.0 / np.sqrt(var + self.EPS)
            xhat = (xs - mu) * istd
            xhat_full[:, sl] = xhat
            y[:, sl] = gamma[sl][None, :, None, None] * xhat + beta[sl][None, :, None, None]
            istds.append(istd)
        return y, (xhat_full, istds)

    def backward(self, gout, cache):
        xhat_full, istds = cache
        gamma, _ = self._views()
        gin = np.empty_like(gout)
        for sl, istd in zip(self.group_slices, istds):
            g = gout[:, sl]
            xhat = xhat_full[:, sl]
            dxhat = g * gamma[sl][None, :, None, None]
            m1 = dxhat.mean(axis=(1, 2, 3), keepdims=True)
            m2 = (dxhat * xhat).mean(axis=(1, 2, 3), keepdims=True)
            gin[:, sl] = istd * (dxhat - m1 - xhat * m2)
        dgamma = np.einsum("nchw,nchw->nc", gout, xhat_full)
        dbeta = gout.sum(axis=(2, 3))
        return gin, [np.concatenate([dgamma, dbeta], axis=1)]


class ReLU(Layer):
    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, gout, cache):
        return gout * cache, []


class AvgPool(Layer):
    """2 x 2 average pooling, stride 2; odd trailing rows/columns are dropped."""

    def forward(self, x):
        if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2:
            self._bad_input(x, "[n, c, h>=2, w>=2]")
        H2, W2 = x.shape[2] // 2 * 2, x.shape[3] // 2 * 2
        # (top pair) + (bottom pair) adds in the order a reshape-mean over
        # each window does, and scaling by 1/4 is exact
        y = (x[:, :, 0:H2:2, 0:W2:2] + x[:, :, 0:H2:2, 1:W2:2]) + (
            x[:, :, 1:H2:2, 0:W2:2] + x[:, :, 1:H2:2, 1:W2:2]
        )
        y *= 0.25
        return y, x.shape

    def backward(self, gout, cache):
        n, c, H, W = cache
        H2, W2 = H // 2 * 2, W // 2 * 2
        gin = np.zeros((n, c, H, W), dtype=gout.dtype)
        g = gout * 0.25
        for a in (0, 1):
            for b in (0, 1):
                gin[:, :, a:H2:2, b:W2:2] = g
        return gin, []


class MaxPool(Layer):
    """2 x 2 max pooling, stride 2; gradient routed to the argmax of each window."""

    def forward(self, x):
        if x.ndim != 4 or x.shape[2] < 2 or x.shape[3] < 2:
            self._bad_input(x, "[n, c, h>=2, w>=2]")
        n, c, H, W = x.shape
        H2, W2 = H // 2, W // 2
        xw = (
            x[:, :, : H2 * 2, : W2 * 2]
            .reshape(n, c, H2, 2, W2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, H2, W2, 4)
        )
        idx = xw.argmax(axis=-1)
        y = np.take_along_axis(xw, idx[..., None], axis=-1)[..., 0]
        return y, (idx, x.shape)

    def backward(self, gout, cache):
        idx, (n, c, H, W) = cache
        H2, W2 = H // 2, W // 2
        gw = np.zeros((n, c, H2, W2, 4), dtype=gout.dtype)
        np.put_along_axis(gw, idx[..., None], gout[..., None], axis=-1)
        gin = np.zeros((n, c, H, W), dtype=gout.dtype)
        gin[:, :, : H2 * 2, : W2 * 2] = (
            gw.reshape(n, c, H2, W2, 2, 2)
            .transpose(0, 1, 2, 4, 3, 5)
            .reshape(n, c, H2 * 2, W2 * 2)
        )
        return gin, []


class GlobalAvgPool(Layer):
    """Collapse spatial dims to a per-channel mean: [n, c, h, w] -> [n, c]."""

    def forward(self, x):
        if x.ndim != 4:
            self._bad_input(x, "[n, c, h, w]")
        return x.mean(axis=(2, 3)), x.shape

    def backward(self, gout, cache):
        n, c, H, W = cache
        gin = np.broadcast_to(
            gout[:, :, None, None] / (H * W), (n, c, H, W)
        ).astype(gout.dtype, copy=True)
        return gin, []


class Linear(Layer):
    def __init__(self, d_in: int, d_out: int):
        super().__init__()
        self.d_in = d_in
        self.d_out = d_out
        self._layout((d_in, d_out), d_out, d_in)

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.d_in:
            self._bad_input(x, f"[n, {self.d_in}]")
        w, b = self._views()
        return x @ w + b, x

    def backward(self, gout, cache):
        x = cache
        w, _ = self._views()
        n = x.shape[0]
        gin = gout @ w.T
        gw = np.einsum("ni,no->nio", x, gout).reshape(n, -1)
        return gin, [np.concatenate([gw, gout], axis=1)]


class TransposeConv(Layer):
    """2 x 2 transposed convolution with stride 2 (exact x2 upsampling, no overlap)."""

    def __init__(self, c_in: int, c_out: int):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self._layout((c_in, c_out, 2, 2), c_out, c_in)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            self._bad_input(x, f"[n, {self.c_in}, h, w]")
        w, b = self._views()
        n, c, H, W = x.shape
        d = self.c_out
        # channels last: one (n*H*W, c) @ (c, d*2*2) GEMM, then interleave
        # the 2 x 2 taps into the doubled spatial axes
        y = x.transpose(0, 2, 3, 1).reshape(n * H * W, c) @ w.reshape(c, d * 4)
        y = y.reshape(n, H, W, d, 2, 2).transpose(0, 3, 1, 4, 2, 5)
        y = y.reshape(n, d, H * 2, W * 2)
        y += b[None, :, None, None]
        return y, x

    def backward(self, gout, cache):
        x = cache
        w, _ = self._views()
        n, c, H, W = x.shape
        d = self.c_out
        # gt[n, i*W + j, (d, a, b)] = gout[n, d, 2i + a, 2j + b]
        gt = gout.reshape(n, d, H, 2, W, 2).transpose(0, 2, 4, 1, 3, 5)
        gt = gt.reshape(n, H * W, d * 4)
        gin = gt.reshape(n * H * W, d * 4) @ w.reshape(c, d * 4).T
        gin = gin.reshape(n, H, W, c).transpose(0, 3, 1, 2)
        gw = np.matmul(x.reshape(n, c, H * W), gt).reshape(n, -1)
        gb = gout.sum(axis=(2, 3))
        return gin, [np.concatenate([gw, gb], axis=1)]


class Reshape(Layer):
    """Parameter-free view change of the per-sample shape (decoder stem)."""

    def __init__(self, shape):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x):
        return x.reshape(x.shape[0], *self.shape), x.shape

    def backward(self, gout, cache):
        return gout.reshape(cache), []


class ConvBlock(Layer):
    """Residual unit: relu(norm(pointwise(depthwise(x))) + shortcut(x)).

    The shortcut is identity when channel counts match, else a bias-free
    1 x 1 projection. Children own their parameter arrays; the block's own
    params stay empty.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int):
        super().__init__()
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        self.dw = DepthwiseConv(c_in, kernel)
        self.pw = PointwiseConv(c_in, c_out, bias=True)
        self.norm = PerSampleNorm(c_out)
        self.proj = PointwiseConv(c_in, c_out, bias=False) if c_in != c_out else None

    def children(self):
        kids = [self.dw, self.pw, self.norm]
        return kids if self.proj is None else kids + [self.proj]

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.c_in:
            self._bad_input(x, f"[n, {self.c_in}, h, w]")
        h1, c_dw = self.dw.forward(x)
        h2, c_pw = self.pw.forward(h1)
        h3, c_norm = self.norm.forward(h2)
        if self.proj is not None:
            s, c_proj = self.proj.forward(x)
        else:
            s, c_proj = x, None
        pre = h3 + s
        mask = pre > 0
        return pre * mask, (c_dw, c_pw, c_norm, c_proj, mask)

    def backward(self, gout, cache):
        c_dw, c_pw, c_norm, c_proj, mask = cache
        g = gout * mask
        g_norm, psg_norm = self.norm.backward(g, c_norm)
        g_pw, psg_pw = self.pw.backward(g_norm, c_pw)
        g_dw, psg_dw = self.dw.backward(g_pw, c_dw)
        if self.proj is not None:
            g_proj, psg_proj = self.proj.backward(g, c_proj)
            gin = g_dw + g_proj
        else:
            psg_proj = []
            gin = g_dw + g
        return gin, psg_dw + psg_pw + psg_norm + psg_proj


class Sequential(Layer):
    """Ordered layer stack: each layer's output feeds the next."""

    def __init__(self, layers):
        super().__init__()
        self.layers = list(layers)

    def children(self):
        return self.layers

    def forward(self, x):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x)
            caches.append(cache)
        return x, caches

    def backward(self, gout, caches):
        psg_rev = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            gout, psg = layer.backward(gout, cache)
            psg_rev.append(psg)
        flat = []
        for psg in reversed(psg_rev):
            flat.extend(psg)
        return gout, flat

    def get_flat(self):
        layers = self.param_layers()
        if not layers:
            return np.zeros(0, dtype=np.float32)
        return np.concatenate([l.params for l in layers])

    def set_flat(self, vec):
        vec = np.asarray(vec)
        if vec.size != self.n_params:
            raise ShapeMismatchError(
                f"flat vector has {vec.size} values, stack holds {self.n_params} params"
            )
        off = 0
        for layer in self.param_layers():
            layer.params = vec[off : off + layer.n_params].astype(
                layer.params.dtype, copy=True
            )
            off += layer.n_params
