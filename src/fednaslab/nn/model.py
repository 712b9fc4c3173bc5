"""Split model (client bottom + shared-width head), losses, and training
helpers; every trainer takes one layer stack.

Every per-sample computation here is row-wise: no layer mixes samples, and
row i of a loss gradient is sample i's own. So a batch runs in cuts
(batch_cuts), each forwarded, and for gradients backpropagated, while its
activations still sit in cache; outputs are the cuts' results stacked, and
gradients the cuts' per-sample rows stacked or, in plain mode, their
batch sums added. Model.forward_bottom and loss_and_per_sample_grads are the
two entry points, and every evaluation, emission, DP step and plain
gradient goes through one of them. An evaluation forward runs every input
in cuts; a gradient batch runs whole up to CUT_ABOVE bytes. Only DP-SGD
asks for per-sample gradients; every plain path (batch_gradient) runs the
layers' backward with per_sample off and gets one [p_i] sum per layer
back, not the [n, P] matrix.
"""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from .layers import Layer, Sequential

# batch_cuts splits an input into near-equal cuts of at most CUT_BYTES each.
# At 3x32x32 float32 that is 4 rows a cut, and each activation of a
# 64-channel block is then 1 MiB, inside a 2 MiB L2; uncut, a 64-row batch
# writes and rereads 16 MiB per layer. At 3x8x8 it is 64 rows a cut.
#
# Model.forward_bottom cuts every input, whatever its size. Its callers
# (shard emission, test evaluation, the inversion probe's auxiliary set)
# forward a few hundred desk rows or a few dozen paper rows at once, and
# such a batch, run whole, set the stage's peak RSS. For the default genome
# the forward's tracemalloc peak fell from 34.2 to 5.8 MiB on a 333-row desk
# shard and from 43.8 to 6.5 MiB on a 27-row paper test set, and perfbench's
# peak_rss_mb from 74 to 48 MB (desk-attack), 68 to 50 MB (desk-dp-train)
# and 96 to 66 MB (paper-dp-train).
#
# loss_and_per_sample_grads keeps a batch of at most CUT_ABOVE bytes whole,
# so no desk gradient batch (3x8x8, up to 682 rows) is cut. Each cut of a
# gradient batch costs one more walk of the stack, and its per-sample rows
# are concatenated afterwards; with desk gradient batches cut into 64 rows
# as well, perfbench's desk-search wall_s rose 4% (the cut side won 1 of 5
# pairs).
#
# Cuts are near-equal: while CUT_BYTES holds three rows or more, as at both
# shapes, no cut of an input of two rows or more holds a single row. A
# single row's matmuls take the GEMV path and round differently from the
# same row inside a GEMM; in a cut of two rows or more a row gets the same
# bits as in the whole batch.
CUT_ABOVE = 512 * 1024
CUT_BYTES = 48 * 1024


def batch_cuts(x):
    """Row slices covering x in order: the fewest near-equal runs of at
    most CUT_BYTES each (at least one row), or one empty slice for an empty
    x."""
    n = len(x)
    if n == 0:
        return [slice(0, 0)]
    rows = max(1, CUT_BYTES // (x.nbytes // n))
    count = -(-n // rows)
    bounds = [i * n // count for i in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def softmax_cross_entropy(logits, labels):
    """Mean CE loss and the per-sample gradient wrt logits.

    Each row of the gradient is the derivative of that sample's own loss
    (softmax - onehot), so the batch-mean gradient is the row mean.
    """
    if logits.ndim != 2:
        raise ShapeMismatchError(f"logits must be [n, k], got {logits.shape}")
    if not np.isfinite(logits).all():
        raise NonFiniteError("logits are not finite")
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    total = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(total)
    loss = float(-log_probs[np.arange(n), labels].mean(dtype=np.float64))
    dlogits = exp / total
    dlogits[np.arange(n), labels] -= 1.0
    if not np.isfinite(loss):
        raise NonFiniteError("cross-entropy loss is not finite")
    return loss, dlogits


def mse(pred, target):
    """Mean squared error (mean over samples and elements) and per-sample gradient."""
    if pred.shape != target.shape:
        raise ShapeMismatchError(f"mse shapes differ: {pred.shape} vs {target.shape}")
    diff = pred - target
    per_elem = diff.size // diff.shape[0]
    loss = float(np.mean(diff.astype(np.float64) ** 2))
    if not np.isfinite(loss):
        raise NonFiniteError("mse loss is not finite")
    return loss, (2.0 / per_elem) * diff


class Model(Sequential):
    """Client model: the two-layer stack of a representation bottom and a
    classification head.

    bottom maps images [n, c, h, w] to representations [n, d_rep]; head maps
    representations to class logits. The head's parameter vector is what the
    server retrains and broadcasts; the flat vector is the bottom's followed
    by the head's.
    """

    def __init__(self, bottom: Sequential, head: Sequential):
        super().__init__([bottom, head])
        self.bottom = bottom
        self.head = head

    def forward_bottom(self, x):
        """Evaluation forward through the bottom, one cut at a time
        (batch_cuts) whatever the size of x: representations [n, d_rep],
        checked finite."""
        z = np.concatenate([self.bottom.forward(x[cut])[0] for cut in batch_cuts(x)])
        if not np.isfinite(z).all():
            raise NonFiniteError("bottom produced non-finite representations")
        return z

    def logits(self, x):
        """Evaluation forward pass: class logits, checked finite. The bottom
        runs in cuts (forward_bottom), the head in one batch."""
        out, _ = self.head.forward(self.forward_bottom(x))
        if not np.isfinite(out).all():
            raise NonFiniteError("head produced non-finite logits")
        return out


def loss_and_per_sample_grads(model: Layer, x, target, loss=softmax_cross_entropy,
                              per_sample=True):
    """Forward through one layer stack, then backprop one loss per sample.

    `loss(output, target)` returns the mean loss and the per-sample
    gradient wrt the output. Returns (mean_loss, grads, output) where grads
    holds one array per parameterized primitive layer of the stack, in
    parameter order. In per-sample mode each is [n, p_i], and row i is the
    gradient of sample i's own loss. With per_sample off each is the [p_i]
    sum of those rows, contracted inside the layers' backward.

    A batch of at most CUT_ABOVE bytes runs whole; a larger one runs
    forward, loss gradient and backward one cut at a time (batch_cuts); the
    cuts' outputs are stacked, their gradients stacked (per-sample) or
    added (plain), and the mean loss is taken once over the whole output.

    The name covers both modes because the stage benchmark traces this
    function by name and reads the size of its result.
    """
    outs, grads = [], []
    for cut in [slice(0, len(x))] if x.nbytes <= CUT_ABOVE else batch_cuts(x):
        out, cache = model.forward(x[cut])
        loss_value, gout = loss(out, target[cut])
        outs.append(out)
        grads.append(model.backward(gout, cache, per_sample)[1])
    if len(outs) == 1:
        return loss_value, grads[0], out
    out = np.concatenate(outs)
    loss_value, _ = loss(out, target)
    join = np.concatenate if per_sample else sum
    return loss_value, [join(layer_grads) for layer_grads in zip(*grads)], out


def batch_gradient(model: Layer, x, target, loss=softmax_cross_entropy):
    """Mean loss and the batch-mean gradient per primitive layer: plain
    mode's batch sums divided by the batch size."""
    loss_value, sums, out = loss_and_per_sample_grads(model, x, target, loss=loss,
                                                      per_sample=False)
    return loss_value, [total / len(x) for total in sums], out


def apply_update(model: Layer, deltas, eta):
    """params <- params - eta * delta for each primitive layer, in order."""
    layers = model.param_layers()
    if len(layers) != len(deltas):
        raise ShapeMismatchError(
            f"{len(deltas)} update vectors for {len(layers)} parameterized layers"
        )
    for layer, delta in zip(layers, deltas):
        layer.params = layer.params - (eta * delta).astype(layer.params.dtype)


def shuffled_batches(n, batch_size, epochs, rng):
    """Index batches for `epochs` passes over n samples: each pass is one
    fresh permutation cut into runs of `batch_size` (the last may be short).
    Lazy, so draws made between two batches come from `rng` in step order."""
    batch_size = min(batch_size, n)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def drawn_batches(n, batch_size, steps, rng):
    """`steps` index batches, each drawn uniformly without replacement from
    n samples, independently of the others. Lazy, like shuffled_batches."""
    batch_size = min(batch_size, n)
    for _ in range(steps):
        yield rng.choice(n, size=batch_size, replace=False)


def train_plain_sgd(model: Layer, x, y, batches, *, eta):
    """Minibatch SGD without any privacy machinery, one step per index batch
    that `batches` yields. Returns per-step losses."""
    losses = []
    for idx in batches:
        loss_value, grads, _ = batch_gradient(model, x[idx], y[idx])
        apply_update(model, grads, eta)
        losses.append(loss_value)
    return losses


def evaluate_accuracy(model: Model, x, y):
    """(top-1 accuracy, mean cross-entropy) of one evaluation pass over
    (x, y). An empty set scores accuracy 0.0 and a NaN loss."""
    n = len(y)
    if n == 0:
        return 0.0, np.nan
    logits = model.logits(x)
    loss, _ = softmax_cross_entropy(logits, y)
    return int((logits.argmax(axis=1) == y).sum()) / n, loss


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """Minimal Adam over a list of primitive layers (decoder training only)."""

    def __init__(self, layers, lr):
        self.layers = list(layers)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros(l.n_params, dtype=np.float64) for l in self.layers]
        self.v = [np.zeros(l.n_params, dtype=np.float64) for l in self.layers]

    def step(self, grads):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for i, (layer, g) in enumerate(zip(self.layers, grads)):
            g = g.astype(np.float64)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            delta = self.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
            layer.params = layer.params - delta.astype(layer.params.dtype)
