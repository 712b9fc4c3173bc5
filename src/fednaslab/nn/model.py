"""Split model (client bottom + shared-width head), losses, and training
helpers; every trainer takes one layer stack."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from .layers import Layer, Sequential

# most rows one evaluation forward through the bottom takes at once
EVAL_BATCH = 512


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
        """Evaluation forward through the bottom, in cuts of at most
        EVAL_BATCH rows (an empty input is one empty cut): representations
        [n, d_rep], checked finite."""
        z = np.concatenate([self.bottom.forward(x[start:start + EVAL_BATCH])[0]
                            for start in range(0, max(len(x), 1), EVAL_BATCH)])
        if not np.isfinite(z).all():
            raise NonFiniteError("bottom produced non-finite representations")
        return z

    def logits(self, x):
        """Evaluation forward pass: class logits, checked finite. The bottom
        runs in EVAL_BATCH cuts (forward_bottom), the head in one batch."""
        out, _ = self.head.forward(self.forward_bottom(x))
        if not np.isfinite(out).all():
            raise NonFiniteError("head produced non-finite logits")
        return out


def loss_and_per_sample_grads(model: Layer, x, target, loss=softmax_cross_entropy):
    """Forward through one layer stack, then backprop one loss per sample.

    `loss(output, target)` returns the mean loss and the per-sample
    gradient wrt the output. Returns (mean_loss, psg_list, output) where
    psg_list holds one [n, p_i] array per parameterized primitive layer of
    the stack, in parameter order. Row i of each array is the gradient of
    sample i's own loss.
    """
    out, cache = model.forward(x)
    loss_value, gout = loss(out, target)
    _, psg_list = model.backward(gout, cache)
    return loss_value, psg_list, out


def batch_gradient(model: Layer, x, target, loss=softmax_cross_entropy):
    """Mean loss and the batch-mean gradient per primitive layer."""
    loss_value, psg_list, out = loss_and_per_sample_grads(model, x, target, loss=loss)
    grads = [psg.mean(axis=0) for psg in psg_list]
    return loss_value, grads, out


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
