"""Split model (client bottom + shared-width head), losses, and training helpers."""

from __future__ import annotations

import numpy as np

from ..errors import NonFiniteError, ShapeMismatchError
from .layers import Sequential

# inference minibatch for evaluation passes (accuracy and held-out loss)
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


_LOSSES = {"ce": softmax_cross_entropy, "mse": mse}


class Model:
    """Client model: a representation bottom and a classification head.

    bottom maps images [n, c, h, w] to representations [n, d_rep]; head maps
    representations to class logits. The head's parameter vector is what the
    server retrains and broadcasts.
    """

    def __init__(self, bottom: Sequential, head: Sequential, in_shape, d_rep, num_classes):
        self.bottom = bottom
        self.head = head
        self.in_shape = tuple(in_shape)
        self.d_rep = int(d_rep)
        self.num_classes = int(num_classes)

    def __repr__(self):
        return (
            f"Model(in_shape={self.in_shape}, d_rep={self.d_rep}, "
            f"num_classes={self.num_classes}, params={self.n_params})"
        )

    @property
    def parts(self):
        return [self.bottom, self.head]

    @property
    def n_params(self):
        return self.bottom.n_params + self.head.n_params

    def param_layers(self):
        return self.bottom.param_layers() + self.head.param_layers()

    def forward_bottom(self, x):
        z, _ = self.bottom.forward(x)
        if not np.isfinite(z).all():
            raise NonFiniteError("bottom produced non-finite representations")
        return z

    def forward(self, x):
        z = self.forward_bottom(x)
        logits, _ = self.head.forward(z)
        if not np.isfinite(logits).all():
            raise NonFiniteError("head produced non-finite logits")
        return z, logits

    def get_flat(self):
        return np.concatenate([self.bottom.get_flat(), self.head.get_flat()])

    def set_flat(self, vec):
        nb = self.bottom.n_params
        self.bottom.set_flat(vec[:nb])
        self.head.set_flat(vec[nb:])

    def astype(self, dtype):
        self.bottom.astype(dtype)
        self.head.astype(dtype)
        return self


def loss_and_per_sample_grads(parts, x, target, loss="ce"):
    """Forward through a list of Sequentials, then backprop one loss per sample.

    Returns (mean_loss, psg_list, output) where psg_list holds one [n, p_i]
    array per parameterized primitive layer across all parts, in parameter
    order. Row i of each array is the gradient of sample i's own loss.
    """
    stack = Sequential(parts)
    out, caches = stack.forward(x)
    loss_value, gout = _LOSSES[loss](out, target)
    _, psg_list = stack.backward(gout, caches)
    return loss_value, psg_list, out


def per_sample_gradients(model: Model, x, labels):
    """Per-sample gradients of the CE loss wrt every model parameter: [n, P]."""
    _, psg_list, _ = loss_and_per_sample_grads(model.parts, x, labels)
    return np.concatenate(psg_list, axis=1)


def batch_gradient(parts, x, target, loss="ce"):
    """Mean loss and the batch-mean gradient per primitive layer."""
    loss_value, psg_list, out = loss_and_per_sample_grads(parts, x, target, loss=loss)
    grads = [psg.mean(axis=0) for psg in psg_list]
    return loss_value, grads, out


def apply_update(parts, deltas, eta):
    """params <- params - eta * delta for each primitive layer, in order."""
    layers = Sequential(parts).param_layers()
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


def train_plain_sgd(parts, x, y, batches, *, eta):
    """Minibatch SGD without any privacy machinery, one step per index batch
    that `batches` yields. Returns per-step losses."""
    losses = []
    for idx in batches:
        loss_value, grads, _ = batch_gradient(parts, x[idx], y[idx])
        apply_update(parts, grads, eta)
        losses.append(loss_value)
    return losses


def evaluate_accuracy(model: Model, x, y):
    """Top-1 accuracy, computed in EVAL_BATCH-sized batches."""
    n = x.shape[0]
    if n == 0:
        return 0.0
    hits = 0
    for start in range(0, n, EVAL_BATCH):
        _, logits = model.forward(x[start : start + EVAL_BATCH])
        hits += int((logits.argmax(axis=1) == y[start : start + EVAL_BATCH]).sum())
    return hits / n


class Adam:
    """Minimal Adam over a list of primitive layers (decoder training only)."""

    def __init__(self, layers, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.layers = list(layers)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros(l.n_params, dtype=np.float64) for l in self.layers]
        self.v = [np.zeros(l.n_params, dtype=np.float64) for l in self.layers]

    def step(self, grads):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, (layer, g) in enumerate(zip(self.layers, grads)):
            g = g.astype(np.float64)
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            mhat = self.m[i] / (1 - b1**self.t)
            vhat = self.v[i] / (1 - b2**self.t)
            delta = self.lr * mhat / (np.sqrt(vhat) + self.eps)
            layer.params = layer.params - delta.astype(layer.params.dtype)
