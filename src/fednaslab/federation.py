"""Simulated federated runtime over split models.

Each client owns a personal representation bottom and a copy of the shared
head. A round samples participants, trains them locally (DP-SGD under a
per-client privacy ledger, or plain SGD for an infinite budget), uploads
per-sample representations over a fixed little-endian wire format, retrains
the head on the pooled samples server-side, and broadcasts the head back to
every client bit-exactly.

A client's ledger holds its mechanism, eps budget and step count, and covers
its local DP-SGD steps only. The uploaded representations z_i = f(theta,
x_i) read the raw samples x_i, so they, their labels and the server's head
training on them are released outside the ledger's guarantee, and no server
work touches a ledger.
"""

from __future__ import annotations

import copy
import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExhaustedError,
    ConfigError,
    FedNasError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
)
from .data import Dataset
from .hpo import HyperConfig
from .nn.layers import Sequential
from .nn.model import (
    Model,
    apply_update,  # noqa: F401  unused; perfbench/spans.py traces it here
    batch_gradient,  # noqa: F401  unused; perfbench/spans.py traces it here
    drawn_batches,
    evaluate_accuracy,
    shuffled_batches,
    softmax_cross_entropy,
    train_plain_sgd,
)
from .privacy import (
    PrivacyLedger,
    max_steps_within_budget,  # noqa: F401  unused; perfbench/spans.py traces it here
    train_dp_sgd,
)
from .records import write_csv
from .space import Genome, SpaceConfig, materialize

logger = logging.getLogger(__name__)

MAGIC = b"DPFN"
WIRE_VERSION = 1
_HEADER = struct.Struct("<4sHIIII")  # magic, version, client_id, n, d_rep, m_k
HEADER_BYTES = _HEADER.size  # 22
LABEL_BYTES = 2


@dataclass(frozen=True)
class TrainSpec:
    """The `train` config section: the federated schedule, the server's
    head-training recipe, and the fallback local recipe used when no
    hyperparameter-search output is supplied.

    `sigma` may be the string "auto", meaning: calibrate the noise
    multiplier per client to the smallest value whose whole-run cost fits
    the client's budget.
    """

    rounds: int = 20
    local_epochs: int = 2
    eta: float = 0.02
    batch_size: int = 32
    clip: float = 1.0
    sigma: float | str = 0.0
    head_epochs: int = 5
    eta_theta: float = 0.01
    head_batch: int = 64
    target_acc: float | None = None

    def __post_init__(self):
        if self.rounds < 1 or self.local_epochs < 1:
            raise ConfigError(
                f"train.rounds and train.local_epochs must be >= 1, got "
                f"{self.rounds}, {self.local_epochs}")
        if self.eta <= 0 or self.batch_size < 1 or self.clip <= 0:
            raise ConfigError("train.eta and train.clip must be > 0, "
                              "train.batch_size >= 1")
        if isinstance(self.sigma, str):
            if self.sigma != "auto":
                raise ConfigError(
                    f'train.sigma must be a number or "auto", got {self.sigma!r}')
        elif self.sigma < 0:
            raise ConfigError(f"train.sigma must be >= 0, got {self.sigma}")
        if self.head_epochs < 1 or self.eta_theta <= 0 or self.head_batch < 1:
            raise ConfigError("bad train head parameters")
        if self.target_acc is not None and not (0.0 < self.target_acc <= 1.0):
            raise ConfigError(f"train.target_acc must be in (0, 1], got {self.target_acc}")


@dataclass
class ClientState:
    """One simulated client: personal bottom, shared-head copy, privacy ledger."""

    client_id: int
    genome: Genome
    model: Model
    hyper: HyperConfig
    shard: np.ndarray
    test_idx: np.ndarray
    ledger: PrivacyLedger
    rounds_trained: int = 0

    def __post_init__(self):
        self.shard = np.asarray(self.shard, dtype=np.int64)
        self.test_idx = np.asarray(self.test_idx, dtype=np.int64)
        if self.client_id < 0 or self.client_id >= 2**32:
            raise ConfigError(f"client_id must fit u32, got {self.client_id}")
        if len(self.shard) < 1:
            raise ConfigError(f"client {self.client_id} has an empty shard")
        if len(self.test_idx) < 1:
            raise ConfigError(f"client {self.client_id} has no test samples")

    @property
    def m_k(self) -> int:
        return len(self.shard)

    @classmethod
    def create(cls, client_id: int, genome: Genome, space: SpaceConfig,
               hyper: HyperConfig, shard, test_idx, eps_budget: float,
               rng: np.random.Generator, *, delta: float) -> "ClientState":
        """Materialize the model and open the ledger of its mechanism and budget.

        The mechanism is pinned at creation (`hyper.mechanism` on the shard,
        which rejects an empty one) so that composed privacy accounting
        stays valid across rounds.
        """
        dp = hyper.mechanism(len(shard), delta)
        model = materialize(genome, space, rng)
        return cls(client_id, genome, model, hyper, shard, test_idx,
                   PrivacyLedger(dp, eps_budget))


@dataclass
class RepresentationBatch:
    """Per-sample representations and labels uploaded by one client."""

    client_id: int
    z: np.ndarray
    y: np.ndarray
    m_k: int

    def __post_init__(self):
        self.z = np.ascontiguousarray(self.z, dtype=np.float32)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.z.ndim != 2 or len(self.z) != len(self.y):
            raise ConfigError(
                f"batch shape mismatch: z {self.z.shape} vs {len(self.y)} labels"
            )
        if len(self.z) > self.m_k:
            raise ConfigError(
                f"client {self.client_id}: n={len(self.z)} exceeds m_k={self.m_k}"
            )
        if not np.isfinite(self.z).all():
            raise NonFiniteError(
                f"client {self.client_id} produced non-finite representations"
            )

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def d_rep(self) -> int:
        return self.z.shape[1]


def encode_batch(batch: RepresentationBatch) -> bytes:
    """Serialize: 22-byte header, n*d_rep little-endian f32 row-major, n u16."""
    if batch.y.size and batch.y.max() >= 2**16:
        raise ConfigError(f"labels must fit u16, got max {batch.y.max()}")
    header = _HEADER.pack(MAGIC, WIRE_VERSION, batch.client_id, batch.n,
                          batch.d_rep, batch.m_k)
    return (header
            + batch.z.astype("<f4", copy=False).tobytes(order="C")
            + batch.y.astype("<u2").tobytes())


def decode_batch(buf: bytes) -> RepresentationBatch:
    if len(buf) < HEADER_BYTES:
        raise ParseError(
            f"batch shorter than the {HEADER_BYTES}-byte header: {len(buf)}"
        )
    magic, version, client_id, n, d_rep, m_k = _HEADER.unpack_from(buf, 0)
    if magic != MAGIC:
        raise ParseError(f"bad magic {magic!r} at byte 0")
    if version != WIRE_VERSION:
        raise ParseError(f"unsupported wire version {version} at byte 4")
    z_bytes = 4 * n * d_rep
    expected = HEADER_BYTES + z_bytes + LABEL_BYTES * n
    if len(buf) != expected:
        raise ParseError(
            f"batch length {len(buf)} != expected {expected} "
            f"(payload starts at byte {HEADER_BYTES})"
        )
    z = np.frombuffer(buf, dtype="<f4", count=n * d_rep,
                      offset=HEADER_BYTES).reshape(n, d_rep)
    y = np.frombuffer(buf, dtype="<u2", count=n,
                      offset=HEADER_BYTES + z_bytes).astype(np.int64)
    return RepresentationBatch(client_id, z.copy(), y, m_k)


def comm_bytes(item) -> int:
    """Communication cost of one message, payload bytes only.

    An empty upload still costs its fixed header. Head messages (parameter
    vectors) cost 4 bytes per value.
    """
    if isinstance(item, RepresentationBatch):
        if item.n == 0:
            return HEADER_BYTES
        return item.n * (4 * item.d_rep + LABEL_BYTES)
    arr = np.asarray(item)
    return 4 * arr.size


def local_steps(epochs: int, m_k: int, batch: int) -> int:
    """DP-SGD steps in one round of `epochs` local passes over a shard of
    `m_k` samples in batches of `batch`."""
    return math.ceil(epochs * m_k / batch)


def local_train(client: ClientState, dataset: Dataset, epochs: int,
                rng: np.random.Generator) -> list[float]:
    """Train the client's full model (bottom and head jointly) for `epochs`
    local passes; returns per-step losses.

    A finite ledger budget trains through train_dp_sgd under the client's
    ledger, whose plan pre-check is the only budget check: if the plan does
    not fit, it raises BudgetExhaustedError before any step runs and the
    caller should skip this client's round. An infinite budget trains
    without any privacy machinery.
    """
    if epochs < 0:
        raise ConfigError(f"epochs must be >= 0, got {epochs}")
    if epochs == 0:
        return []
    x = dataset.images[client.shard]
    y = dataset.labels[client.shard]
    # the rows train_dp_sgd draws at the ledger's rate
    batch = round(client.ledger.dp.sampling_rate * client.m_k)
    steps = local_steps(epochs, client.m_k, batch)
    if math.isinf(client.ledger.budget):
        losses = train_plain_sgd(client.model, x, y,
                                 drawn_batches(client.m_k, batch, steps, rng),
                                 eta=client.hyper.eta)
    else:
        losses = train_dp_sgd(client.model, x, y, client.ledger,
                              eta=client.hyper.eta, steps=steps, rng=rng)
    client.rounds_trained += 1
    return losses


def emit_representations(client: ClientState, dataset: Dataset) -> RepresentationBatch:
    """Forward the full local shard through the bottom in evaluation mode.

    No ledger change, but not post-processing of the private parameters:
    each z_i = f(theta, x_i) reads its raw sample x_i, so the upload is
    released outside the ledger's guarantee.
    """
    if client.rounds_trained < 1:
        raise ConfigError(
            f"client {client.client_id} must train before emitting"
        )
    z = client.model.forward_bottom(dataset.images[client.shard])
    return RepresentationBatch(client.client_id, z,
                               dataset.labels[client.shard], client.m_k)


def head_objective_pooled(head: Sequential, batches: list[RepresentationBatch]) -> float:
    """Mean cross-entropy over all uploaded samples pooled uniformly."""
    z = np.vstack([b.z for b in batches])
    y = np.concatenate([b.y for b in batches])
    logits, _ = head.forward(z)
    loss, _ = softmax_cross_entropy(logits, y)
    return loss


def head_objective_weighted(head: Sequential, batches: list[RepresentationBatch]) -> float:
    """Sum over clients of (m_k / m) times the client's own mean loss.

    Equals the pooled objective whenever each client uploads its full shard
    (n_k == m_k), since both reduce to a per-sample mean.
    """
    m = sum(b.m_k for b in batches)
    total = 0.0
    for b in batches:
        logits, _ = head.forward(b.z)
        loss, _ = softmax_cross_entropy(logits, b.y)
        total += (b.m_k / m) * loss
    return total


def aggregate_and_update_head(head: Sequential, batches: list[RepresentationBatch],
                              spec: TrainSpec, *,
                              rng: np.random.Generator) -> np.ndarray:
    """Retrain the shared head on pooled uploads with the `spec.head_*`
    recipe; returns the new flat params.

    Uniform per-sample weighting over the pooled set is algebraically the
    client-size-weighted mean of per-client mean losses, which is the
    objective being minimized.
    """
    if not batches:
        raise ConfigError("aggregation needs at least one uploaded batch")
    d_reps = {b.client_id: b.d_rep for b in batches}
    if len(set(d_reps.values())) != 1:
        raise ShapeMismatchError(f"representation widths differ: {d_reps}")
    z = np.vstack([b.z for b in batches])
    y = np.concatenate([b.y for b in batches])
    train_plain_sgd(head, z, y,
                    shuffled_batches(len(y), spec.head_batch, spec.head_epochs, rng),
                    eta=spec.eta_theta)
    return head.get_flat().astype(np.float32, copy=True)


def broadcast(theta: np.ndarray, clients: list[ClientState]) -> None:
    """Overwrite every client's head with `theta`, bit-exactly."""
    theta = np.asarray(theta, dtype=np.float32)
    for client in clients:
        if client.model.head.n_params != theta.size:
            raise ShapeMismatchError(
                f"client {client.client_id} head has "
                f"{client.model.head.n_params} params, broadcast has {theta.size}"
            )
        client.model.head.set_flat(theta.copy())


@dataclass(frozen=True)
class ClientRound:
    """One client's line in a round report."""

    client_id: int
    participated: bool
    val_acc: float
    loss: float
    eps_spent: float
    bytes_up: int
    bytes_down: int
    note: str = ""


@dataclass
class RoundReport:
    round_index: int
    rows: list[ClientRound]

    @property
    def mean_acc(self) -> float:
        return float(np.mean([r.val_acc for r in self.rows]))

    @property
    def std_acc(self) -> float:
        return float(np.std([r.val_acc for r in self.rows]))


def write_round_csv(path, reports: list[RoundReport]) -> None:
    write_csv(path, ["round", "client", "val_acc", "loss", "eps_spent",
                     "bytes_up", "bytes_down"],
              ([report.round_index, r.client_id, f"{r.val_acc:.6f}",
                f"{r.loss:.6f}", f"{r.eps_spent:.6f}", r.bytes_up, r.bytes_down]
               for report in reports for r in report.rows))


def run_rounds(spec: TrainSpec, clients: list[ClientState],
               dataset: Dataset, rng: np.random.Generator, *,
               participation: float = 1.0,
               aggregate: bool = True) -> list[RoundReport]:
    """Drive the full simulation for `spec.rounds` rounds.

    Each round trains a `participation` fraction of the clients (at least
    one); `aggregate=False` is the local-training baseline, with no
    communication. Per-(round, client) seeding keeps every client's
    trajectory independent of which other clients participate or fail;
    failures are isolated to the failing client's round. The returned
    reports carry one row per client per round (participants and spectators
    alike); the broadcast overwrites, and is charged to, every client.

    The server keeps its own head, the last broadcast, and starts every
    update from it. Each client materializes its own initial head, so the
    first update starts from client 0's (θ₀); it is copied, not sent, and no
    broadcast is charged for it.
    """
    if not clients:
        raise ConfigError("need at least one client")
    ids = [c.client_id for c in clients]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"duplicate client ids: {sorted(ids)}")
    run_seed = int(rng.integers(2**63 - 1))
    head = copy.deepcopy(clients[0].model.head)
    reports: list[RoundReport] = []
    for t in range(1, spec.rounds + 1):
        k_part = max(1, round(participation * len(clients)))
        chosen = sorted(rng.choice(len(clients), size=k_part, replace=False))
        uploads: list[RepresentationBatch] = []
        stats = {c.client_id: {"up": 0, "down": 0, "note": ""} for c in clients}
        for pos in chosen:
            client = clients[pos]
            crng = np.random.default_rng((run_seed, t, client.client_id))
            try:
                local_train(client, dataset, spec.local_epochs, crng)
                if aggregate:
                    batch = emit_representations(client, dataset)
                    uploads.append(decode_batch(encode_batch(batch)))
                    stats[client.client_id]["up"] = comm_bytes(batch)
            except (BudgetExhaustedError, NonFiniteError) as err:
                stats[client.client_id]["note"] = type(err).__name__
                logger.warning("round %d: client %d skipped: %s",
                               t, client.client_id, err)
        if uploads:
            srng = np.random.default_rng((run_seed, t, 2**32))
            theta = aggregate_and_update_head(head, uploads, spec, rng=srng)
            broadcast(theta, clients)
            down = comm_bytes(theta)
            for entry in stats.values():
                entry["down"] = down
        elif aggregate:
            logger.warning("round %d: no uploads, head unchanged", t)
        rows = []
        for client in clients:
            # 0.0 at an infinite budget, whose plain steps charge nothing
            spent = client.ledger.eps_spent()
            if spent > client.ledger.budget + 1e-9:
                raise FedNasError(
                    f"budget safety violated: client {client.client_id} "
                    f"spent {spent} of {client.ledger.budget}")
            x_te = dataset.images[client.test_idx]
            y_te = dataset.labels[client.test_idx]
            try:
                acc, loss = evaluate_accuracy(client.model, x_te, y_te)
            except NonFiniteError:
                acc, loss = 0.0, math.inf
                logger.warning("round %d: client %d evaluation diverged",
                               t, client.client_id)
            s = stats[client.client_id]
            rows.append(ClientRound(
                client.client_id, client.client_id in
                {clients[p].client_id for p in chosen}, acc, loss, spent,
                s["up"], s["down"], s["note"],
            ))
        reports.append(RoundReport(t, rows))
        logger.info("round %d: mean acc %.4f (std %.4f)", t,
                    reports[-1].mean_acc, reports[-1].std_acc)
    return reports


def summarize(reports: list[RoundReport], target_acc: float | None) -> dict:
    """Final-round accuracy summary plus rounds-to-target."""
    last = reports[-1]
    rounds_to_target = None
    if target_acc is not None:
        for report in reports:
            if report.mean_acc >= target_acc:
                rounds_to_target = report.round_index
                break
    return {
        "mean_acc": round(last.mean_acc, 6),
        "std_acc": round(last.std_acc, 6),
        "rounds_to_target": rounds_to_target,
    }
