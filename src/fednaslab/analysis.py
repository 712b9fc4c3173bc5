"""Convergence-bound calculators and an empirical inversion probe.

The first half of this module evaluates the closed-form bounds that govern
the federated optimizer: the per-round loss bound for noisy local training,
its extension across a head-aggregation step, the averaged-gradient bound
after T rounds, and the two learning-rate feasibility conditions coupling
them. All calculators are pure float arithmetic over a frozen constants
record; nothing here trains a model.

The second half measures privacy leakage empirically: given a trained
representation encoder, an attacker with auxiliary data fits a transposed-
convolution decoder to invert representations back to images, and the mean
squared reconstruction error on held-out victim inputs quantifies how much
the representations reveal.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InfeasibleError, NonFiniteError
from .nn.layers import Linear, ReLU, Reshape, Sequential, TransposeConv
from .nn.model import Adam, Model, batch_gradient, mse, shuffled_batches
from .records import write_csv

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# constants record


@dataclasses.dataclass(frozen=True)
class ConvergenceConstants:
    """Problem constants shared by every bound calculator.

    B_grad      bound on the gradient norm of the local loss
    L           smoothness constant of the local loss
    var_sigma2  variance of the stochastic gradient estimator
    noise_delta magnitude of the per-coordinate privacy noise
    C           clipping threshold applied to per-sample gradients
    d           parameter dimension of the locally trained stack
    E           local steps per communication round
    eta_w       local learning rate
    eta_theta   server-side head learning rate
    alpha_dev   bound on the deviation between local and shared heads
    p           descent coefficient produced by clipping (caller-supplied;
                a practical instantiation is min(1, C / B_grad))
    Delta       initial optimality gap (caller-supplied, e.g. measured
                initial loss minus the best loss observed)
    G           gradient-energy scale in the local-rate condition
                (caller-supplied, e.g. a measured running average of
                squared gradient norms)
    T           number of communication rounds

    The noise magnitude `noise_delta` is unrelated to the failure
    probability of a privacy guarantee; the two live in different types on
    purpose.
    """

    B_grad: float
    L: float
    var_sigma2: float
    noise_delta: float
    C: float
    d: int
    E: int
    eta_w: float
    eta_theta: float
    alpha_dev: float
    p: float
    Delta: float
    G: float
    T: int

    def __post_init__(self):
        strictly_positive = {
            "B_grad": self.B_grad, "L": self.L, "p": self.p, "G": self.G,
        }
        for name, value in strictly_positive.items():
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        non_negative = {
            "var_sigma2": self.var_sigma2, "noise_delta": self.noise_delta,
            "C": self.C, "eta_w": self.eta_w, "eta_theta": self.eta_theta,
            "alpha_dev": self.alpha_dev, "Delta": self.Delta,
        }
        for name, value in non_negative.items():
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and >= 0, got {value}")
        for name, value in (("d", self.d), ("E", self.E), ("T", self.T)):
            if int(value) != value or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value}")


def _noise_energy(c: ConvergenceConstants) -> float:
    """Combined second moment of gradient stochasticity and privacy noise."""
    return c.var_sigma2 + c.d * c.noise_delta**2 * c.C**2


# ---------------------------------------------------------------------------
# bound calculators


def theorem1_rhs(c: ConvergenceConstants, loss0: float,
                 grad_norm_sq_sum: float) -> float:
    """Upper bound on the expected local loss after one round of local steps.

    `loss0` is the loss entering the round and `grad_norm_sq_sum` the summed
    squared gradient norms over the round's E local steps (measured or
    synthetic — the calculator does not check it).
    """
    eta = c.eta_w
    descent = (eta * c.p - c.L * eta**2 / 2.0) * grad_norm_sq_sum
    noise = (c.E * c.L * eta**2 / 2.0) * _noise_energy(c)
    return loss0 - descent + noise


def corollary1_rhs(c: ConvergenceConstants, loss0: float,
                   grad_norm_sq_sum: float) -> float:
    """Loss bound across a full round including the head-aggregation step.

    Extends `theorem1_rhs` by the drift terms a shared, retrained head
    introduces: one for the local steps taken against a stale head, one for
    the server update itself, and one for the bounded deviation between the
    personal and shared heads.
    """
    extras = (c.eta_w * c.E * c.B_grad**2
              + c.eta_theta * c.B_grad
              + c.L / 2.0 * c.alpha_dev**2)
    return theorem1_rhs(c, loss0, grad_norm_sq_sum) + extras


def corollary2_avg_grad_bound(c: ConvergenceConstants) -> float:
    """Bound on the average squared gradient norm after T rounds.

    Raises InfeasibleError when the local learning rate is too large for
    the descent coefficient to be positive, i.e. when
    eta_w * p - L * eta_w^2 / 2 <= 0.
    """
    denom = c.eta_w * c.p - c.L * c.eta_w**2 / 2.0
    if denom <= 0:
        raise InfeasibleError(
            f"local rate eta_w={c.eta_w} gives non-positive descent "
            f"coefficient {denom}; reduce eta_w below {2 * c.p / c.L}"
        )
    numer = (c.Delta / c.T
             + (c.E * c.L * c.eta_w**2 / 2.0) * _noise_energy(c)
             + c.eta_w * c.E * c.B_grad**2
             + c.eta_theta * c.B_grad
             + c.L / 2.0 * c.alpha_dev**2)
    return numer / denom


class EtaThetaBound(NamedTuple):
    """(value, feasible) — the largest admissible head rate and whether any
    positive head rate is admissible at all."""

    value: float
    feasible: bool


def max_eta_theta(c: ConvergenceConstants) -> EtaThetaBound:
    """Largest head learning rate compatible with the deviation bound.

    Returns (alpha_dev - eta_w * E * B_grad) / B_grad when that is positive;
    otherwise returns 0 with feasible=False, meaning the local rate already
    exhausts the deviation budget and only a frozen head is admissible.
    """
    raw = (c.alpha_dev - c.eta_w * c.E * c.B_grad) / c.B_grad
    if raw <= 0:
        if raw < 0:
            logger.warning(
                "head-rate bound infeasible: alpha_dev=%g < eta_w*E*B=%g",
                c.alpha_dev, c.eta_w * c.E * c.B_grad)
        return EtaThetaBound(0.0, False)
    return EtaThetaBound(raw, True)


def check_eta_w(c: ConvergenceConstants) -> dict:
    """Evaluate the local-rate condition term by term.

    The admissible region for eta_w is bounded by a three-term expression
    sharing the denominator L * (G + E * noise) * B_grad, where noise is the
    combined gradient/privacy second moment. Returns every term so reports
    can audit the arithmetic:

      feasible    eta_w <= rhs
      rhs         the full right-hand side
      term_drift  (p*G - E*B^2) / denominator
      term_root   sqrt((p*G - E*B^2)^2 + 2*L*(G + E*noise)) / denominator
      term_head   (eta_theta*B + (L/2)*alpha^2) / denominator
      denominator the shared denominator

    Raises InfeasibleError if the radicand under the square root is
    negative (impossible for validated constants, but reported rather than
    masked if a caller bypasses validation).
    """
    noise = _noise_energy(c)
    scale = c.G + c.E * noise
    denom = c.L * scale * c.B_grad
    if denom == 0:
        raise InfeasibleError("local-rate condition has zero denominator")
    drift = c.p * c.G - c.E * c.B_grad**2
    radicand = drift**2 + 2.0 * c.L * scale
    if radicand < 0:
        raise InfeasibleError(
            f"negative radicand {radicand} in the local-rate condition")
    term_drift = drift / denom
    term_root = math.sqrt(radicand) / denom
    term_head = (c.eta_theta * c.B_grad + c.L / 2.0 * c.alpha_dev**2) / denom
    rhs = term_drift + term_root + term_head
    return {
        "feasible": c.eta_w <= rhs,
        "rhs": rhs,
        "term_drift": term_drift,
        "term_root": term_root,
        "term_head": term_head,
        "denominator": denom,
    }


# ---------------------------------------------------------------------------
# representation-inversion probe


# The decoder's minibatch and the width of its first upsampling block.
DECODER_BATCH = 64
DECODER_CHANNELS = 32


@dataclasses.dataclass(frozen=True)
class AttackSpec:
    """The `attack` config section: the inversion probe's schedule and its
    decoder's training recipe."""

    seeds: int = 5
    decoder_epochs: int = 40
    decoder_lr: float = 1e-3
    aux_fraction: float = 0.5
    victim_count: int = 40

    def __post_init__(self):
        if self.seeds < 1:
            raise ConfigError(f"attack.seeds must be >= 1, got {self.seeds}")
        if self.decoder_epochs < 1:
            raise ConfigError("attack.decoder_epochs must be >= 1")
        if self.decoder_lr <= 0:
            raise ConfigError("attack.decoder_lr must be > 0")
        if not (0.0 < self.aux_fraction < 1.0):
            raise ConfigError(
                f"attack.aux_fraction must be in (0, 1), got {self.aux_fraction}")
        if self.victim_count < 1:
            raise ConfigError("attack.victim_count must be >= 1")


@dataclasses.dataclass
class AttackReport:
    """Outcome of one inversion attempt against one encoder."""

    eps_label: float
    mse: float
    per_sample: np.ndarray
    seed: int
    failed: bool = False

    def __post_init__(self):
        if not self.failed and not (self.mse >= 0):
            raise ConfigError(f"reconstruction MSE must be >= 0, got {self.mse}")


def build_decoder(d_rep: int, image_shape,
                  rng: np.random.Generator) -> Sequential:
    """Transposed-convolution decoder from a representation to an image.

    The stack is a linear projection to a small spatial grid followed by
    2x-upsampling blocks until the target resolution is reached. Images must
    be square with a power-of-two side of at least 4.
    """
    c_out, h, w = image_shape
    if h != w or h < 4 or (h & (h - 1)) != 0:
        raise ConfigError(
            f"decoder needs a square power-of-two image side >= 4, got {h}x{w}")
    start = 2 if h <= 16 else 4
    n_up = int(math.log2(h // start))
    layers = [
        Linear(d_rep, DECODER_CHANNELS * start * start),
        Reshape((DECODER_CHANNELS, start, start)),
        ReLU(),
    ]
    chan = DECODER_CHANNELS
    for i in range(n_up):
        nxt = c_out if i == n_up - 1 else max(8, chan // 2)
        layers.append(TransposeConv(chan, nxt))
        if i != n_up - 1:
            layers.append(ReLU())
        chan = nxt
    decoder = Sequential(layers)
    decoder.init_params(rng)
    return decoder


def inversion_attack(model: Model, aux_images: np.ndarray,
                     victim_images: np.ndarray, spec: AttackSpec,
                     rng: np.random.Generator, *,
                     eps_label: float = math.inf, seed: int = 0) -> AttackReport:
    """Fit a decoder on auxiliary data, then score it on victim inputs.

    The attacker is assumed to know the encoder (worst case) and to hold
    auxiliary images from the same distribution but disjoint from the
    victim shard — that disjointness is the caller's contract. The decoder
    minimizes per-pixel MSE on the auxiliary pairs (x, encode(x)) for
    `spec.decoder_epochs` epochs of Adam at `spec.decoder_lr`; the
    report carries the mean and per-sample reconstruction errors of the
    victim images. Decoder divergence is reported via `failed`, not raised.
    """
    aux = np.asarray(aux_images, dtype=np.float32)
    victim = np.asarray(victim_images, dtype=np.float32)
    if aux.ndim != 4 or victim.ndim != 4 or aux.shape[1:] != victim.shape[1:]:
        raise ConfigError(
            f"aux {aux.shape} and victim {victim.shape} must be [n, c, h, w] "
            "with matching image shapes")
    z_aux = model.forward_bottom(aux)
    decoder = build_decoder(z_aux.shape[1], aux.shape[1:], rng)
    optimizer = Adam(decoder.param_layers(), lr=spec.decoder_lr)
    per_sample = np.full(victim.shape[0], np.inf)
    try:
        for idx in shuffled_batches(aux.shape[0], DECODER_BATCH,
                                    spec.decoder_epochs, rng):
            _, grads, _ = batch_gradient(decoder, z_aux[idx], aux[idx], loss=mse)
            optimizer.step(grads)
    except (NonFiniteError, FloatingPointError):
        logger.warning("decoder training diverged (eps label %g, seed %d)",
                       eps_label, seed)
    else:
        recon, _ = decoder.forward(model.forward_bottom(victim))
        per_sample = np.mean((recon.astype(np.float64) - victim) ** 2,
                             axis=(1, 2, 3))
    if not np.isfinite(per_sample).all():
        return AttackReport(eps_label, math.inf,
                            np.full(victim.shape[0], np.inf), seed,
                            failed=True)
    return AttackReport(eps_label, float(per_sample.mean()), per_sample, seed)


def write_attack_csv(path, reports: list[AttackReport]) -> None:
    """One row per attack: the privacy label, the victim MSE, and the seed."""
    write_csv(path, ["eps", "mse", "seed"],
              ([f"{r.eps_label:g}", f"{r.mse:.8g}", r.seed] for r in reports))
