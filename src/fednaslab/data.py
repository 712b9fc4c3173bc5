"""Dataset ingestion and non-IID partitioning.

Covers the classic binary image format (one label byte — or a coarse/fine
label pair — followed by 3072 channel-planar pixel bytes per record), a
synthetic Gaussian-blob generator for fast runs, and two heterogeneous
partitioning schemes: per-class Dirichlet proportions and fixed class
subsets with geometrically skewed sampling.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError

logger = logging.getLogger(__name__)

_IMAGE_BYTES = 3072  # 3 channel planes of 32x32
_REC10 = 1 + _IMAGE_BYTES
_REC100 = 2 + _IMAGE_BYTES

# per-pixel standard deviation of the synthetic blobs
SYNTH_NOISE = 0.1


@dataclass
class Dataset:
    """Images [N, 3, H, W] as float in [0, 1] plus integer labels.

    `coarse_labels` is kept only for the two-label binary format so a loaded
    file can be re-serialized byte-for-byte.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int
    coarse_labels: np.ndarray | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4 or self.images.shape[0] != len(self.labels):
            raise ConfigError(
                f"images {self.images.shape} do not match {len(self.labels)} labels"
            )
        if len(self.labels) < 1:
            raise ConfigError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ConfigError(
                f"labels outside [0, {self.num_classes}): "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self):
        return len(self.labels)


@dataclass
class PartitionPlan:
    """Disjoint per-client index lists over one dataset."""

    client_indices: list[np.ndarray]
    scheme: str

    def __post_init__(self):
        self.client_indices = [
            np.asarray(ix, dtype=np.int64) for ix in self.client_indices
        ]

    def validate(self, n_total: int) -> None:
        """Exact disjoint-cover check against range(n_total)."""
        merged = np.concatenate(self.client_indices) if self.client_indices else \
            np.empty(0, dtype=np.int64)
        if len(merged) != n_total or len(np.unique(merged)) != len(merged):
            raise ConfigError(
                f"plan is not a disjoint cover: {len(merged)} assignments "
                f"over {n_total} samples"
            )
        if n_total and (merged.min() < 0 or merged.max() >= n_total):
            raise ConfigError("plan references out-of-range indices")


def load_cifar_binary(path) -> Dataset:
    """Parse a binary record file into a dataset.

    Record size decides the variant: 3073 bytes (single label) or 3074
    (coarse then fine label; the fine label becomes `labels`). A length
    divisible by both is read as the single-label variant.
    """
    with open(path, "rb") as fh:
        raw = np.frombuffer(fh.read(), dtype=np.uint8)
    if len(raw) == 0:
        raise ParseError(f"{path}: empty file")
    if len(raw) % _REC10 == 0:
        rec, n_labels, num_classes = _REC10, 1, 10
    elif len(raw) % _REC100 == 0:
        rec, n_labels, num_classes = _REC100, 2, 100
    else:
        offset = (len(raw) // _REC10) * _REC10
        raise ParseError(
            f"{path}: length {len(raw)} is not a multiple of {_REC10} or "
            f"{_REC100}; trailing fragment starts at byte {offset}"
        )
    records = raw.reshape(-1, rec)
    fine = records[:, n_labels - 1].astype(np.int64)
    bad = np.flatnonzero(fine >= num_classes)
    if len(bad):
        at = int(bad[0])
        raise ParseError(
            f"{path}: label {fine[at]} out of range at byte "
            f"{at * rec + n_labels - 1} (record {at})"
        )
    coarse = None
    if n_labels == 2:
        coarse = records[:, 0].astype(np.int64)
        bad = np.flatnonzero(coarse >= 20)
        if len(bad):
            at = int(bad[0])
            raise ParseError(
                f"{path}: coarse label {coarse[at]} out of range at byte "
                f"{at * rec} (record {at})"
            )
    images = records[:, n_labels:].reshape(-1, 3, 32, 32).astype(np.float32) / 255.0
    return Dataset(images, fine, num_classes, coarse)


def _largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer allocation of `total` proportional to `weights` (floor, then
    distribute the shortfall by descending fractional part; ties by index)."""
    weights = np.asarray(weights, dtype=np.float64)
    if total == 0:
        return np.zeros(len(weights), dtype=np.int64)
    shares = weights / weights.sum() * total
    counts = np.floor(shares).astype(np.int64)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(shares - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _min_one_repair(counts: np.ndarray, pool: int) -> np.ndarray:
    """Give every recipient at least one item when the pool allows, stealing
    from the largest allocations."""
    counts = counts.copy()
    if pool >= len(counts):
        while (counts == 0).any():
            counts[int(np.argmax(counts == 0))] += 1
            counts[int(np.argmax(counts))] -= 1
    return counts


def partition_dirichlet(labels, n_clients: int, alpha: float,
                        rng: np.random.Generator) -> PartitionPlan:
    """Per-class client proportions drawn from a symmetric Dirichlet.

    Small alpha concentrates each class on few clients (severe heterogeneity);
    large alpha approaches an IID split. If any client ends up empty the whole
    plan is redrawn, up to 100 times, after which the empty plan is accepted
    with a warning.
    """
    labels = np.asarray(labels)
    if n_clients < 1:
        raise ConfigError(f"n_clients must be >= 1, got {n_clients}")
    if alpha <= 0:
        raise ConfigError(f"alpha must be > 0, got {alpha}")
    classes = np.unique(labels)
    for attempt in range(101):
        buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for c in classes:
            idx = rng.permutation(np.flatnonzero(labels == c))
            props = rng.dirichlet(np.full(n_clients, alpha))
            counts = _largest_remainder(props, len(idx))
            stops = np.cumsum(counts)[:-1]
            for k, part in enumerate(np.split(idx, stops)):
                buckets[k].append(part)
        sizes = [sum(len(p) for p in parts) for parts in buckets]
        if min(sizes) > 0:
            break
        if attempt == 100:
            logger.warning(
                "dirichlet partition left a client empty after 100 redraws "
                "(n=%d, K=%d, alpha=%g): accepting as-is",
                len(labels), n_clients, alpha,
            )
    return PartitionPlan(
        [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
         for parts in buckets],
        scheme=f"dirichlet({alpha})",
    )


def partition_class_subset(labels, n_clients: int, classes_per_client: int,
                           skew: float, rng: np.random.Generator) -> PartitionPlan:
    """Fixed class subsets per client with geometric within-client skew.

    Class ids are dealt round-robin so every class lands on at least one
    client; a client's j-th assigned class gets relative weight (1-skew)^j,
    and each class's samples are divided among its holders proportionally to
    those weights (largest remainder, then a minimum-one repair).
    """
    labels = np.asarray(labels)
    classes = np.unique(labels)
    num_classes = len(classes)
    if not (1 <= classes_per_client <= num_classes):
        raise ConfigError(
            f"classes_per_client must be in [1, {num_classes}], "
            f"got {classes_per_client}"
        )
    if not (0.0 <= skew < 1.0):
        raise ConfigError(f"skew must be in [0, 1), got {skew}")
    if n_clients * classes_per_client < num_classes:
        raise ConfigError(
            f"{n_clients} clients x {classes_per_client} classes cannot "
            f"cover {num_classes} classes"
        )
    # deal consecutive class blocks: slot j of client k gets class
    # (k*cpc + j) mod C — distinct within a client, and the running counter
    # sweeps every class id when K*cpc >= C
    assigned = [
        [int(classes[(k * classes_per_client + j) % num_classes])
         for j in range(classes_per_client)]
        for k in range(n_clients)
    ]
    weight_of = {
        (k, c): (1.0 - skew) ** j
        for k, cls in enumerate(assigned) for j, c in enumerate(cls)
    }
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
    for c in classes:
        holders = [k for k in range(n_clients) if (k, int(c)) in weight_of]
        idx = rng.permutation(np.flatnonzero(labels == c))
        weights = np.array([weight_of[(k, int(c))] for k in holders])
        counts = _min_one_repair(_largest_remainder(weights, len(idx)), len(idx))
        stops = np.cumsum(counts)[:-1]
        for k, part in zip(holders, np.split(idx, stops)):
            buckets[k].append(part)
    return PartitionPlan(
        [np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
         for parts in buckets],
        scheme=f"class-subset({classes_per_client},{skew})",
    )


@dataclass(frozen=True)
class SplitSets:
    """Index sets carved out of one client shard."""

    nas_train: np.ndarray
    nas_val: np.ndarray
    nas_test: np.ndarray
    fed_remainder: np.ndarray

    @property
    def train(self) -> np.ndarray:
        """Federated-training samples: the post-search remainder when the
        shard was large enough to leave one, otherwise the search-training
        subset."""
        return self.fed_remainder if len(self.fed_remainder) else self.nas_train


def split_nas_subsets(indices, labels, rng: np.random.Generator) -> SplitSets:
    """Carve 500/100/100 search subsets out of a shard, stratified by label;
    whatever is left feeds federated training.

    Shards under 700 samples fall back to a proportional 5:1:1 split (with a
    warning) and leave no remainder.
    """
    indices = np.asarray(indices, dtype=np.int64)
    labels = np.asarray(labels)
    n = len(indices)
    if n >= 700:
        sizes = (500, 100, 100)
    else:
        sizes = tuple(map(int, _largest_remainder(np.array([5.0, 1.0, 1.0]), n)))
        logger.warning(
            "shard of %d is under 700: proportional split %s, no remainder",
            n, sizes,
        )
    shard_labels = labels[indices]
    classes = np.unique(shard_labels)
    per_class = {int(c): rng.permutation(indices[shard_labels == c])
                 for c in classes}
    taken = {int(c): 0 for c in classes}
    parts = []
    for size in sizes:
        remaining = np.array(
            [len(per_class[int(c)]) - taken[int(c)] for c in classes],
            dtype=np.float64,
        )
        quota = _largest_remainder(remaining, size)
        quota = np.minimum(quota, remaining.astype(np.int64))
        # top up if rounding against depleted classes left a shortfall
        short = size - quota.sum()
        while short > 0:
            room = remaining - quota
            give = int(np.argmax(room))
            quota[give] += 1
            short -= 1
        chunk = []
        for c, q in zip(classes, quota):
            c = int(c)
            chunk.append(per_class[c][taken[c]:taken[c] + int(q)])
            taken[c] += int(q)
        parts.append(np.sort(np.concatenate(chunk)))
    rest = np.sort(np.concatenate(
        [per_class[int(c)][taken[int(c)]:] for c in classes]
    )) if classes.size else np.empty(0, dtype=np.int64)
    return SplitSets(parts[0], parts[1], parts[2], rest)


def synth_dataset(num_classes: int, per_class: int, image_hw: int,
                  separation: float, rng: np.random.Generator) -> Dataset:
    """Class-conditional Gaussian blobs around 0.5 with unit-norm class
    directions scaled by `separation`; separation 0 makes classes
    statistically identical.

    Directions mix a per-channel constant with a coarse 2x2 spatial pattern,
    so the class signal survives spatial pooling (models that reduce images
    to channel statistics can still tell classes apart)."""
    if num_classes < 2 or per_class < 1 or image_hw < 1:
        raise ConfigError(
            f"bad synth shape: classes={num_classes}, per_class={per_class}, "
            f"hw={image_hw}"
        )
    shape = (3, image_hw, image_hw)
    dc = np.broadcast_to(
        rng.normal(size=(num_classes, 3, 1, 1)), (num_classes,) + shape
    )
    quad = rng.normal(size=(num_classes, 3, 2, 2))
    half = (image_hw + 1) // 2
    coarse = np.repeat(np.repeat(quad, half, axis=2), half, axis=3)
    directions = dc + coarse[:, :, :image_hw, :image_hw]
    directions = directions / np.sqrt(
        (directions ** 2).sum(axis=(1, 2, 3), keepdims=True)
    )
    labels = np.repeat(np.arange(num_classes), per_class)
    images = 0.5 + separation * directions[labels] + rng.normal(
        scale=SYNTH_NOISE, size=(len(labels),) + shape
    )
    order = rng.permutation(len(labels))
    return Dataset(
        np.clip(images, 0.0, 1.0).astype(np.float32)[order],
        labels[order],
        num_classes,
    )
