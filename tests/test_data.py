"""Dataset loading, partitioning, and split tests.

The binary loader is checked against hand-assembled byte strings and a
write-then-read round trip; partitioners against exact set algebra and
Monte-Carlo distributional oracles; the synthetic generator against a
closed-form nearest-centroid classifier.
"""

import numpy as np
import pytest

from fednaslab.data import (
    Dataset,
    PartitionPlan,
    SplitSets,
    load_cifar_binary,
    partition_class_subset,
    partition_dirichlet,
    split_nas_subsets,
    synth_dataset,
)
from fednaslab.errors import ConfigError, ParseError


def write_cifar_binary(dataset: Dataset, path) -> None:
    """Serialize back to the binary record format (round-trip partner of
    `load_cifar_binary`; pixel floats are mapped to the nearest u8)."""
    n = len(dataset.images)
    pixels = np.clip(np.rint(dataset.images * 255.0), 0, 255).astype(np.uint8)
    cols = [dataset.labels.astype(np.uint8)[:, None]]
    if dataset.coarse_labels is not None:
        cols.insert(0, dataset.coarse_labels.astype(np.uint8)[:, None])
    records = np.hstack(cols + [pixels.reshape(n, 3 * 32 * 32)])
    with open(path, "wb") as fh:
        fh.write(records.tobytes())


def _total_variation(p, q):
    return 0.5 * np.abs(p - q).sum()


def _class_distribution(labels, num_classes):
    counts = np.bincount(labels, minlength=num_classes).astype(np.float64)
    return counts / counts.sum()


def _centroid_split_accuracy(ds: Dataset, rng):
    """Nearest-centroid accuracy with a 50/50 train/test split — a
    closed-form separability oracle independent of any package model."""
    n = len(ds)
    order = rng.permutation(n)
    half = n // 2
    tr, te = order[:half], order[half:]
    flat = ds.images.reshape(n, -1).astype(np.float64)
    centroids = np.stack([
        flat[tr][ds.labels[tr] == c].mean(axis=0) for c in range(ds.num_classes)
    ])
    d2 = ((flat[te][:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return (d2.argmin(axis=1) == ds.labels[te]).mean()


class TestBinaryLoader:
    def test_single_zero_record(self, tmp_path):
        path = tmp_path / "one.bin"
        path.write_bytes(bytes(3073))
        ds = load_cifar_binary(path)
        assert len(ds) == 1
        assert ds.num_classes == 10
        assert ds.labels[0] == 0
        assert ds.coarse_labels is None
        assert ds.images.shape == (1, 3, 32, 32)
        assert ds.images.max() == 0.0  # all black

    def test_pixel_scaling_and_plane_order(self, tmp_path):
        rec = bytearray(3073)
        rec[0] = 7  # label
        rec[1] = 255  # first red-plane pixel
        rec[1 + 1024] = 128  # first green-plane pixel
        rec[1 + 2048] = 51  # first blue-plane pixel
        path = tmp_path / "px.bin"
        path.write_bytes(bytes(rec))
        ds = load_cifar_binary(path)
        assert ds.labels[0] == 7
        assert ds.images[0, 0, 0, 0] == pytest.approx(1.0)
        assert ds.images[0, 1, 0, 0] == pytest.approx(128 / 255)
        assert ds.images[0, 2, 0, 0] == pytest.approx(51 / 255)

    def test_two_label_variant(self, tmp_path):
        rec = bytearray(3074)
        rec[0] = 19  # coarse
        rec[1] = 99  # fine
        path = tmp_path / "fine.bin"
        path.write_bytes(bytes(rec))
        ds = load_cifar_binary(path)
        assert ds.num_classes == 100
        assert ds.labels[0] == 99
        assert ds.coarse_labels is not None and ds.coarse_labels[0] == 19

    def test_truncated_file_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.bin"
        path.write_bytes(bytes(3073 * 2 + 17))
        with pytest.raises(ParseError, match=str(3073 * 2)):
            load_cifar_binary(path)

    def test_label_out_of_range_reports_offset(self, tmp_path):
        rec = bytearray(3073 * 3)
        rec[3073 * 2] = 11  # third record's label byte
        path = tmp_path / "badlabel.bin"
        path.write_bytes(bytes(rec))
        with pytest.raises(ParseError, match=str(3073 * 2)):
            load_cifar_binary(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ParseError):
            load_cifar_binary(path)

    def test_round_trip_is_byte_faithful(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 12
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n)
        records[:, 1:] = rng.integers(0, 256, (n, 3072))
        src = tmp_path / "src.bin"
        src.write_bytes(records.tobytes())
        ds = load_cifar_binary(src)
        out = tmp_path / "out.bin"
        write_cifar_binary(ds, out)
        assert out.read_bytes() == src.read_bytes()

    def test_round_trip_two_label_variant(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 5
        records = np.empty((n, 3074), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 20, n)
        records[:, 1] = rng.integers(0, 100, n)
        records[:, 2:] = rng.integers(0, 256, (n, 3072))
        src = tmp_path / "src100.bin"
        src.write_bytes(records.tobytes())
        out = tmp_path / "out100.bin"
        write_cifar_binary(load_cifar_binary(src), out)
        assert out.read_bytes() == src.read_bytes()


class TestDatasetAndPlanTypes:
    def test_dataset_validation(self):
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 3, 4, 4)), np.array([0, 5]), num_classes=3)
        with pytest.raises(ConfigError):
            Dataset(np.zeros((2, 3, 4, 4)), np.array([0]), num_classes=3)

    def test_plan_validate_catches_overlap_and_gaps(self):
        good = PartitionPlan([np.array([0, 2]), np.array([1, 3])], "t")
        good.validate(4)
        with pytest.raises(ConfigError):
            PartitionPlan([np.array([0, 1]), np.array([1, 2])], "t").validate(3)
        with pytest.raises(ConfigError):
            PartitionPlan([np.array([0])], "t").validate(2)


class TestDirichletPartition:
    def test_disjoint_cover(self):
        rng = np.random.default_rng(2)
        labels = rng.integers(0, 10, 997)
        for alpha in (0.1, 1.0, 100.0):
            plan = partition_dirichlet(labels, 7, alpha, rng)
            plan.validate(len(labels))

    def test_deterministic_under_seed(self):
        labels = np.random.default_rng(3).integers(0, 10, 500)
        a = partition_dirichlet(labels, 5, 0.5, np.random.default_rng(9))
        b = partition_dirichlet(labels, 5, 0.5, np.random.default_rng(9))
        assert all(
            np.array_equal(x, y)
            for x, y in zip(a.client_indices, b.client_indices)
        )

    def test_huge_alpha_approaches_iid(self):
        # every client's class histogram within 2% total variation of global
        labels = np.repeat(np.arange(10), 500)
        global_dist = _class_distribution(labels, 10)
        for seed in range(20):
            plan = partition_dirichlet(labels, 5, 1e6, np.random.default_rng(seed))
            for idx in plan.client_indices:
                dist = _class_distribution(labels[idx], 10)
                assert _total_variation(dist, global_dist) <= 0.02

    def test_small_alpha_concentrates_classes(self):
        # alpha = 0.1, K = 10: the median client leans >= 50% on one class
        labels = np.repeat(np.arange(10), 500)
        medians = []
        for seed in range(20):
            plan = partition_dirichlet(labels, 10, 0.1, np.random.default_rng(seed))
            shares = [
                _class_distribution(labels[idx], 10).max()
                for idx in plan.client_indices if len(idx)
            ]
            medians.append(np.median(shares))
        assert np.median(medians) >= 0.5

    def test_empty_client_accepted_with_warning_after_redraws(self, caplog):
        labels = np.zeros(3, dtype=np.int64)  # 3 samples cannot fill 5 clients
        with caplog.at_level("WARNING", logger="fednaslab.data"):
            plan = partition_dirichlet(labels, 5, 1.0, np.random.default_rng(4))
        assert any("100 redraws" in r.message for r in caplog.records)
        plan.validate(3)
        assert min(len(ix) for ix in plan.client_indices) == 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            partition_dirichlet(np.zeros(5, int), 0, 1.0, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            partition_dirichlet(np.zeros(5, int), 2, 0.0, np.random.default_rng(0))


class TestClassSubsetPartition:
    def test_each_client_sees_exactly_its_classes(self):
        labels = np.repeat(np.arange(10), 500)
        rng = np.random.default_rng(5)
        plan = partition_class_subset(labels, 10, 3, 0.5, rng)
        plan.validate(len(labels))
        for idx in plan.client_indices:
            assert len(np.unique(labels[idx])) == 3

    def test_disjoint_cover_over_random_configs(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            num_classes = int(rng.integers(4, 11))
            labels = rng.integers(0, num_classes, int(rng.integers(200, 800)))
            # keep every class present
            labels[:num_classes] = np.arange(num_classes)
            cpc = int(rng.integers(1, num_classes + 1))
            k = int(np.ceil(num_classes / cpc)) + int(rng.integers(0, 4))
            plan = partition_class_subset(labels, k, cpc, 0.5, rng)
            plan.validate(len(labels))

    def test_degenerate_case_is_near_iid(self):
        labels = np.repeat(np.arange(10), 500)
        plan = partition_class_subset(labels, 5, 10, 0.0,
                                      np.random.default_rng(7))
        global_dist = _class_distribution(labels, 10)
        for idx in plan.client_indices:
            dist = _class_distribution(labels[idx], 10)
            assert _total_variation(dist, global_dist) <= 0.02

    def test_skew_orders_class_sizes_within_client(self):
        labels = np.repeat(np.arange(10), 500)
        plan = partition_class_subset(labels, 10, 3, 0.5,
                                      np.random.default_rng(8))
        # first-assigned class of each client should dominate its shard
        for k, idx in enumerate(plan.client_indices):
            counts = np.bincount(labels[idx], minlength=10)
            assert counts.argmax() == (3 * k) % 10  # slot 0 of client k

    def test_coverage_requirement_enforced(self):
        labels = np.repeat(np.arange(10), 10)
        with pytest.raises(ConfigError):
            partition_class_subset(labels, 2, 3, 0.5, np.random.default_rng(9))
        with pytest.raises(ConfigError):
            partition_class_subset(labels, 5, 3, 1.0, np.random.default_rng(9))


class TestSplitNasSubsets:
    def test_standard_sizes_with_remainder(self):
        labels = np.repeat(np.arange(10), 100)
        indices = np.arange(1000)
        s = split_nas_subsets(indices, labels, np.random.default_rng(10))
        assert (len(s.nas_train), len(s.nas_val), len(s.nas_test)) == (500, 100, 100)
        assert len(s.fed_remainder) == 300

    def test_small_shard_proportional_with_warning(self, caplog):
        labels = np.repeat(np.arange(7), 10)
        with caplog.at_level("WARNING", logger="fednaslab.data"):
            s = split_nas_subsets(np.arange(70), labels, np.random.default_rng(11))
        assert any("under 700" in r.message for r in caplog.records)
        assert (len(s.nas_train), len(s.nas_val), len(s.nas_test)) == (50, 10, 10)
        assert len(s.fed_remainder) == 0

    def test_pairwise_disjoint_and_complete(self):
        rng = np.random.default_rng(12)
        indices = rng.choice(5000, size=1200, replace=False)
        labels = rng.integers(0, 10, 5000)
        s = split_nas_subsets(indices, labels, rng)
        sets = [set(s.nas_train), set(s.nas_val), set(s.nas_test),
                set(s.fed_remainder)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not (sets[i] & sets[j])
        assert set().union(*sets) == set(indices.tolist())

    def test_stratification_matches_largest_remainder_oracle(self):
        # 60/25/15 class mix over 1000: nas_train's per-class counts should
        # match the proportional allocation computed directly here.
        labels = np.concatenate([
            np.zeros(600, int), np.ones(250, int), np.full(150, 2)
        ])
        indices = np.arange(1000)
        s = split_nas_subsets(indices, labels, np.random.default_rng(13))
        counts = np.bincount(labels[s.nas_train], minlength=3)
        shares = np.array([600, 250, 150]) / 1000 * 500
        floor = np.floor(shares).astype(int)
        short = 500 - floor.sum()
        order = np.argsort(-(shares - floor), kind="stable")
        floor[order[:short]] += 1
        assert np.array_equal(counts, floor)

    def test_deterministic_under_seed(self):
        labels = np.random.default_rng(14).integers(0, 10, 900)
        a = split_nas_subsets(np.arange(900), labels, np.random.default_rng(15))
        b = split_nas_subsets(np.arange(900), labels, np.random.default_rng(15))
        assert np.array_equal(a.nas_train, b.nas_train)
        assert np.array_equal(a.fed_remainder, b.fed_remainder)


class TestSynthDataset:
    def test_balanced_and_reproducible(self):
        a = synth_dataset(4, 25, 8, 0.4, np.random.default_rng(16))
        b = synth_dataset(4, 25, 8, 0.4, np.random.default_rng(16))
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(np.bincount(a.labels), [25, 25, 25, 25])
        assert a.images.dtype == np.float32
        assert a.images.min() >= 0.0 and a.images.max() <= 1.0

    def test_zero_separation_is_chance_level(self):
        ds = synth_dataset(4, 250, 8, 0.0, np.random.default_rng(17))
        acc = _centroid_split_accuracy(ds, np.random.default_rng(18))
        assert acc <= 0.40  # chance is 0.25

    def test_large_separation_is_separable(self):
        ds = synth_dataset(4, 250, 8, 0.5, np.random.default_rng(19))
        acc = _centroid_split_accuracy(ds, np.random.default_rng(20))
        assert acc >= 0.99

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            synth_dataset(1, 10, 8, 0.1, np.random.default_rng(0))
        with pytest.raises(ConfigError):
            synth_dataset(2, 0, 8, 0.1, np.random.default_rng(0))
