"""Numpy layer kernels with one backward in two modes.

backward(gout, cache, per_sample) computes the input gradient the same way
in both modes; the flag sets only the weight gradient. In per-sample mode
(the default, and the mode DP-SGD needs) the weight-gradient contraction
keeps the batch axis, so each sample's gradient comes out exact and
vectorized: batched matmul over (n, channels, positions) views, and k^2
einsums for the depthwise kernel. With the flag off each primitive returns
the gradient summed over the batch: Linear as one GEMM, DepthwiseConv as
one batched GEMM of row stacks per row offset, PointwiseConv and
TransposeConv as their batched matmul summed over n, and PerSampleNorm as
the sum of the [n, C] terms its input gradient needs anyway.
Input-gradient contractions, which sum over the batch in both modes, run on
BLAS. The depthwise conv runs as banded GEMMs: each of its k row offsets is
one batched GEMM of every sample's rows against per-channel banded (W, W)
matrices (row-wise lowering, as in MEC, Cho & Brand 2017).

Layers form one tree. A primitive owns a flat parameter vector; a container
(ConvBlock, Sequential, and the Model built on Sequential) owns none and
lists its sublayers in children(). Parameter access walks that tree once,
in Layer. A layer's backward returns (grad_wrt_input, grads) where grads
holds one array per parameterized primitive in the layer's tree, in the
same order as param_layers(): [n, p_i] per-sample rows in per-sample mode,
the batch-summed [p_i] otherwise. Containers pass the flag down.
Parameter-free layers return an empty list.

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

    def backward(self, gout, cache, per_sample=True):
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


def _row_stack(x, p):
    """[n, c, H, W] -> channels-first rows [c, 2p + n(H + p), W]: p zero rows,
    then each sample's H rows followed by p zero rows, then p more. One gap of
    p zero rows pads both neighbours, so the rows a .. a + n(H + p) of the
    stack are, per sample, its H rows shifted by a - p, then p spare rows."""
    n, c, H, W = x.shape
    rows = np.zeros((c, 2 * p + n * (H + p), W), dtype=x.dtype)
    _sample_rows(rows, n, H, p, p)[:] = x.transpose(1, 0, 2, 3)
    return rows


def _sample_rows(rows, n, H, p, offset):
    """View [c, n, H, W] of a row stack's sample rows, shifted by offset - p."""
    c, _, W = rows.shape
    return rows[:, offset:offset + n * (H + p)].reshape(c, n, H + p, W)[:, :, :H]


def _banded_conv(rows, w, n, H):
    """'Same' depthwise conv of a row stack with w [c, k, k] -> [n, c, H, W].

    Row offset a is one batched GEMM: the stack's rows a .. a + n(H + p)
    times, per channel, the banded (W, W) matrix that holds w[c, a, b] on
    the diagonal j_in - j_out = b - p. The band's edges are the zero padding
    along W, so only H needs padded rows.
    """
    c, k, _ = w.shape
    p, W = k // 2, rows.shape[2]
    span = H + p
    shift = np.arange(W)[:, None] - np.arange(W)[None, :] + p
    inside = (shift >= 0) & (shift < k)
    bands = np.where(inside, w[:, :, np.clip(shift, 0, k - 1)], 0)
    out = np.matmul(rows[:, :n * span], bands[:, 0])
    for a in range(1, k):
        out += np.matmul(rows[:, a:a + n * span], bands[:, a])
    return np.ascontiguousarray(out.reshape(c, n, span, W)[:, :, :H].transpose(1, 0, 2, 3))


class DepthwiseConv(Layer):
    """Per-channel k x k convolution, stride 1, zero 'same' padding, no bias.

    Forward and input gradient run as k banded GEMMs over a row stack
    (_banded_conv): the input gradient is the same conv of the output
    gradient with the kernel flipped in both axes.
    """

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
        w, _ = self._views()
        n, _, H, _ = x.shape
        rows = _row_stack(x, self.kernel // 2)
        return _banded_conv(rows, w, n, H), (rows, x.shape)

    def backward(self, gout, cache, per_sample=True):
        rows, (n, c, H, W) = cache
        k, p = self.kernel, self.kernel // 2
        w, _ = self._views()
        g_rows = _row_stack(gout, p)
        gin = _banded_conv(g_rows, w[:, ::-1, ::-1], n, H)
        if not per_sample:
            # the stacks' rows a + t and p + t pair x[i + a - p] with gout[i]
            # of one sample, or meet a zero gap row, so pairs[a, c] sums
            # x[.., i + a - p, j_in] * gout[.., i, j_out] over samples and
            # rows, and gw[c, a, b] is its diagonal j_in - j_out = b - p
            span = n * (H + p)
            g_t = g_rows[:, p:p + span]
            pairs = np.stack([np.matmul(rows[:, a:a + span].transpose(0, 2, 1), g_t)
                              for a in range(k)])
            gw = np.stack([np.trace(pairs, offset=p - b, axis1=2, axis2=3)
                           for b in range(k)], axis=-1)
            return gin, [gw.transpose(1, 0, 2).reshape(-1)]
        # gw[n, c, a, b] = sum_ij x[n, c, i + a - p, j + b - p] * gout[n, c, i, j]
        g = _sample_rows(g_rows, n, H, p, p)
        gw = np.empty((n, c, k, k), dtype=gout.dtype)
        for a in range(k):
            window = _sample_rows(rows, n, H, p, a)
            for b in range(k):
                lo, hi = max(0, p - b), min(W, W + p - b)
                gw[:, :, a, b] = np.einsum(
                    "cnhw,cnhw->nc", window[..., lo + b - p:hi + b - p], g[..., lo:hi])
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

    def backward(self, gout, cache, per_sample=True):
        x = cache
        w, _ = self._views()
        n, c, H, W = x.shape
        g3 = gout.reshape(n, self.c_out, H * W)
        gin = np.matmul(w, g3).reshape(n, c, H, W)
        gw = np.matmul(x.reshape(n, c, H * W), g3.transpose(0, 2, 1)).reshape(n, -1)
        if not per_sample:
            # summing the batched matmul beats one tensordot GEMM, whose
            # operand transposes cost more than the sum at 32x32 maps
            gw = gw.sum(axis=0)
        if self.bias:
            gb = gout.sum(axis=(2, 3) if per_sample else (0, 2, 3))
            return gin, [np.concatenate([gw, gb], axis=-1)]
        return gin, [gw]


class PerSampleNorm(Layer):
    """Normalization over channel groups within each sample (no cross-sample statistics).

    The C channels split into ceil(C / 8) contiguous groups of near-equal
    size, as np.array_split cuts them (C = 20 gives 7, 7, 6). Each group is
    normalized over its channels and all spatial positions, then
    scaled/shifted by per-channel affine params. Statistics are per-channel
    reductions folded into groups with np.add.reduceat, one path for every
    group layout.
    """

    EPS = 1e-5

    def __init__(self, channels: int):
        super().__init__()
        self.channels = channels
        self.group_sizes = np.array(
            [part.size for part in np.array_split(np.arange(channels), -(-channels // 8))])
        self.group_starts = np.cumsum(self.group_sizes) - self.group_sizes
        self._layout((channels,), channels, None)
        self.init_params(None)

    def init_params(self, rng):
        """gamma ones, beta zeros; draws nothing from `rng`."""
        c = self.channels
        self.params = np.concatenate([np.ones(c), np.zeros(c)]).astype(self.params.dtype)

    def _group_mean(self, per_channel, hw):
        """[n, C] per-channel sums -> each channel's group mean, [n, C]."""
        count = (self.group_sizes * hw).astype(per_channel.dtype)
        sums = np.add.reduceat(per_channel, self.group_starts, axis=1)
        return np.repeat(sums / count, self.group_sizes, axis=1)

    def forward(self, x):
        if x.ndim != 4 or x.shape[1] != self.channels:
            self._bad_input(x, f"[n, {self.channels}, h, w]")
        gamma, beta = self._views()
        hw = x.shape[2] * x.shape[3]
        xc = x - self._group_mean(x.sum(axis=(2, 3)), hw)[:, :, None, None]
        var = self._group_mean(np.einsum("nchw,nchw->nc", xc, xc), hw)
        istd = 1.0 / np.sqrt(var + self.EPS)
        y = xc * (gamma * istd)[:, :, None, None]
        y += beta[None, :, None, None]
        return y, (xc, istd)

    def backward(self, gout, cache, per_sample=True):
        xc, istd = cache
        gamma, _ = self._views()
        hw = gout.shape[2] * gout.shape[3]
        dgamma = np.einsum("nchw,nchw->nc", gout, xc) * istd
        dbeta = gout.sum(axis=(2, 3))
        # with dxhat = gout * gamma, the group means of dxhat and of
        # dxhat * xhat are those of dbeta * gamma and dgamma * gamma
        m1 = self._group_mean(dbeta * gamma, hw)
        m2 = self._group_mean(dgamma * gamma, hw)
        gin = gout * (gamma * istd)[:, :, None, None]
        gin -= xc * (m2 * istd * istd)[:, :, None, None]
        gin -= (m1 * istd)[:, :, None, None]
        grads = np.concatenate([dgamma, dbeta], axis=1)
        return gin, [grads if per_sample else grads.sum(axis=0)]


class ReLU(Layer):
    def forward(self, x):
        mask = x > 0
        return x * mask, mask

    def backward(self, gout, cache, per_sample=True):
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

    def backward(self, gout, cache, per_sample=True):
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

    def backward(self, gout, cache, per_sample=True):
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

    def backward(self, gout, cache, per_sample=True):
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

    def backward(self, gout, cache, per_sample=True):
        x = cache
        w, _ = self._views()
        n = x.shape[0]
        # a contiguous w.T keeps each row's input gradient the same bits at
        # any row count past one; OpenBLAS's transposed-operand GEMM does not
        gin = gout @ np.ascontiguousarray(w.T)
        if not per_sample:
            return gin, [np.concatenate([(x.T @ gout).reshape(-1), gout.sum(axis=0)])]
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

    def backward(self, gout, cache, per_sample=True):
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
        if not per_sample:
            # as in PointwiseConv; one GEMM over all n*H*W rows pays a
            # channels-last copy of x and ran slower at every decoder shape
            gw = gw.sum(axis=0)
        gb = gout.sum(axis=(2, 3) if per_sample else (0, 2, 3))
        return gin, [np.concatenate([gw, gb], axis=-1)]


class Reshape(Layer):
    """Parameter-free view change of the per-sample shape (decoder stem)."""

    def __init__(self, shape):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x):
        return x.reshape(x.shape[0], *self.shape), x.shape

    def backward(self, gout, cache, per_sample=True):
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
        # h3 is the norm's fresh output, so the residual and ReLU run in place
        h3 += s
        mask = h3 > 0
        h3 *= mask
        return h3, (c_dw, c_pw, c_norm, c_proj, mask)

    def backward(self, gout, cache, per_sample=True):
        c_dw, c_pw, c_norm, c_proj, mask = cache
        g = gout * mask
        g_norm, psg_norm = self.norm.backward(g, c_norm, per_sample)
        g_pw, psg_pw = self.pw.backward(g_norm, c_pw, per_sample)
        g_dw, psg_dw = self.dw.backward(g_pw, c_dw, per_sample)
        if self.proj is not None:
            g_proj, psg_proj = self.proj.backward(g, c_proj, per_sample)
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

    def backward(self, gout, caches, per_sample=True):
        psg_rev = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            gout, psg = layer.backward(gout, cache, per_sample)
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
