"""Federated runtime tests.

Wire messages are checked byte-by-byte against hand-packed structs, the
pooled head objective against the client-size-weighted form it must equal,
budget handling against the accountant's own step-capacity oracle, and the
full round loop for isolation, determinism, and budget safety.
"""

import json
import math
import struct

import numpy as np
import pytest

from fednaslab import federation, privacy
from fednaslab.data import synth_dataset
from fednaslab.errors import (
    BudgetExhaustedError,
    ConfigError,
    FedNasError,
    NonFiniteError,
    ParseError,
    ShapeMismatchError,
)
from fednaslab.federation import (
    HEADER_BYTES,
    ClientState,
    RepresentationBatch,
    TrainSpec,
    aggregate_and_update_head,
    broadcast,
    comm_bytes,
    decode_batch,
    emit_representations,
    encode_batch,
    head_objective_pooled,
    head_objective_weighted,
    local_train,
    run_rounds,
    summarize,
    write_round_csv,
)
from fednaslab.hpo import HyperConfig
from fednaslab.nn.model import Model, softmax_cross_entropy
from fednaslab.privacy import DPConfig, PrivacyLedger, privacy_cost, train_dp_sgd
from fednaslab.records import write_json
from fednaslab.space import SpaceConfig, materialize, sample_random_genome

SMALL = SpaceConfig(
    input_shape=(3, 8, 8), d_rep=16, num_classes=2, min_len=3, max_len=4
)


def _dataset(seed=0, per_class=150, separation=0.5):
    return synth_dataset(2, per_class, 8, separation, np.random.default_rng(seed))


def _client(dataset, client_id=0, *, eps=math.inf, seed=0, eta=0.05,
            batch=32, clip=10.0, sigma=0.0, shard=None, test_idx=None,
            genome_seed=3):
    n = len(dataset)
    if shard is None:
        shard = np.arange(0, int(0.7 * n))
    if test_idx is None:
        test_idx = np.arange(int(0.7 * n), n)
    genome = sample_random_genome(SMALL, np.random.default_rng(genome_seed))
    hyper = HyperConfig(eta=eta, batch_size=batch, clip=clip, sigma=sigma)
    return ClientState.create(client_id, genome, SMALL, hyper, shard,
                              test_idx, eps, np.random.default_rng(seed),
                              delta=1e-5)


def _batch(rng, client_id=0, n=20, d_rep=16, m_k=None, num_classes=2):
    z = rng.normal(size=(n, d_rep)).astype(np.float32)
    y = rng.integers(0, num_classes, n)
    return RepresentationBatch(client_id, z, y, m_k if m_k is not None else n)


class TestWireCodec:
    def test_header_and_payload_layout(self):
        z = np.array([[1.0]], dtype=np.float32)
        batch = RepresentationBatch(7, z, np.array([3]), 5)
        buf = encode_batch(batch)
        assert buf[:4] == b"DPFN"
        assert struct.unpack_from("<H", buf, 4)[0] == 1
        assert struct.unpack_from("<I", buf, 6)[0] == 7  # client id
        assert struct.unpack_from("<I", buf, 10)[0] == 1  # n
        assert struct.unpack_from("<I", buf, 14)[0] == 1  # d_rep
        assert struct.unpack_from("<I", buf, 18)[0] == 5  # m_k
        assert buf[HEADER_BYTES:HEADER_BYTES + 4] == struct.pack("<f", 1.0)
        assert buf[HEADER_BYTES + 4:] == struct.pack("<H", 3)
        assert len(buf) == HEADER_BYTES + 4 + 2

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        batch = _batch(rng, client_id=11, n=17, d_rep=9, m_k=40)
        back = decode_batch(encode_batch(batch))
        assert back.client_id == 11 and back.m_k == 40
        assert np.array_equal(back.z, batch.z)
        assert np.array_equal(back.y, batch.y)

    def test_bad_magic_version_and_lengths(self):
        buf = encode_batch(_batch(np.random.default_rng(2)))
        with pytest.raises(ParseError, match="byte 0"):
            decode_batch(b"NOPE" + buf[4:])
        with pytest.raises(ParseError, match="byte 4"):
            decode_batch(buf[:4] + struct.pack("<H", 9) + buf[6:])
        with pytest.raises(ParseError):
            decode_batch(buf[:-1])
        with pytest.raises(ParseError):
            decode_batch(buf + b"\x00")
        with pytest.raises(ParseError):
            decode_batch(buf[:10])

    def test_label_must_fit_two_bytes(self):
        z = np.zeros((1, 4), dtype=np.float32)
        batch = RepresentationBatch(0, z, np.array([2**16]), 1)
        with pytest.raises(ConfigError):
            encode_batch(batch)

    def test_comm_bytes_formulas(self):
        rng = np.random.default_rng(4)
        batch = _batch(rng, n=100, d_rep=128, num_classes=2)
        assert comm_bytes(batch) == 100 * 128 * 4 + 100 * 2 == 51_400
        theta = np.zeros(128 * 10 + 10, dtype=np.float32)
        assert comm_bytes(theta) == 1290 * 4 == 5_160
        empty = RepresentationBatch(0, np.empty((0, 16), np.float32),
                                    np.empty(0, np.int64), 5)
        assert comm_bytes(empty) == HEADER_BYTES == 22

    def test_batch_invariants(self):
        z = np.zeros((3, 4), dtype=np.float32)
        with pytest.raises(ConfigError):
            RepresentationBatch(0, z, np.zeros(3, int), m_k=2)  # n > m_k
        z_bad = z.copy()
        z_bad[1, 1] = np.nan
        with pytest.raises(NonFiniteError):
            RepresentationBatch(0, z_bad, np.zeros(3, int), m_k=3)


class TestClientState:
    def test_create_pins_sampling_rate(self):
        ds = _dataset()
        client = _client(ds, batch=32)
        assert client.ledger.dp.sampling_rate == pytest.approx(
            32 / client.m_k
        )
        assert client.m_k == len(client.shard)
        # the ledger holds the recipe's one mechanism: rate min(B, n) / n
        mechanism = client.hyper.mechanism(client.m_k, 1e-5)
        assert client.ledger.dp == mechanism
        assert mechanism.sampling_rate == 32 / client.m_k
        assert (mechanism.clip_norm, mechanism.noise_multiplier,
                mechanism.delta) == (10.0, 0.0, 1e-5)

    def test_oversized_batch_clamped_to_full_shard(self):
        ds = _dataset()
        client = _client(ds, batch=10_000)
        assert client.ledger.dp.sampling_rate == 1.0
        assert client.hyper.mechanism(client.m_k, 1e-5).sampling_rate == 1.0
        assert client.hyper.mechanism(1, 1e-5).sampling_rate == 1.0

    def test_empty_shard_or_test_rejected(self):
        ds = _dataset()
        with pytest.raises(ConfigError):
            _client(ds, shard=np.array([], dtype=int))
        with pytest.raises(ConfigError):
            _client(ds, test_idx=np.array([], dtype=int))
        with pytest.raises(ConfigError, match="n >= 1"):
            HyperConfig(eta=0.05, batch_size=32, clip=1.0, sigma=1.0).mechanism(
                0, 1e-5)


class TestLocalTrain:
    def test_zero_epochs_is_identity(self):
        ds = _dataset()
        client = _client(ds, eps=5.0, sigma=1.5)
        before = client.model.get_flat().copy()
        losses = local_train(client, ds, 0, np.random.default_rng(0))
        assert losses == []
        assert np.array_equal(client.model.get_flat(), before)
        assert client.ledger.steps == 0
        assert client.rounds_trained == 0

    def test_infinite_budget_trains_without_ledger_spend(self):
        ds = _dataset()
        client = _client(ds, eps=math.inf)
        before = client.model.get_flat().copy()
        losses = local_train(client, ds, 1, np.random.default_rng(1))
        steps = math.ceil(client.m_k / 32)
        assert len(losses) == steps
        assert client.ledger.steps == 0
        assert not np.array_equal(client.model.get_flat(), before)
        assert client.rounds_trained == 1

    def test_degenerate_dp_matches_plain_trace(self):
        # sigma = 0 with an enormous clip reduces DP-SGD to plain SGD; the
        # infinite-budget path must produce the same per-step losses given
        # the same seed and initialization.
        ds = _dataset(5)
        plain = _client(ds, eps=math.inf, seed=9)
        losses_plain = local_train(plain, ds, 2, np.random.default_rng(7))
        noiseless = _client(ds, eps=math.inf, seed=9)  # identical init
        x = ds.images[noiseless.shard]
        y = ds.labels[noiseless.shard]
        dp = DPConfig(1e9, 0.0, 32 / noiseless.m_k, 1e-5)
        losses_dp = train_dp_sgd(
            noiseless.model, x, y, PrivacyLedger(dp), eta=0.05,
            steps=len(losses_plain), rng=np.random.default_rng(7),
        )
        assert np.allclose(losses_plain, losses_dp, atol=1e-5)

    def test_budget_precheck_blocks_whole_plan(self):
        ds = _dataset()
        client = _client(ds, eps=0.9, sigma=1.2, batch=64)
        admissible = 0  # brute-force oracle: largest step count within budget
        while privacy_cost(client.ledger.dp, admissible + 1) <= 0.9:
            admissible += 1
        steps_per_round = math.ceil(2 * client.m_k / 64)
        rounds_that_fit = admissible // steps_per_round
        for _ in range(rounds_that_fit):
            local_train(client, ds, 2, np.random.default_rng(2))
        assert client.ledger.steps == rounds_that_fit * steps_per_round
        assert client.ledger.eps_spent() <= 0.9
        before = client.model.get_flat().copy()
        steps_before = client.ledger.steps
        rounds_before = client.rounds_trained
        with pytest.raises(BudgetExhaustedError):
            local_train(client, ds, 2, np.random.default_rng(3))
        # nothing ran: no partial spend, no parameter movement
        assert client.ledger.steps == steps_before
        assert client.rounds_trained == rounds_before
        assert np.array_equal(client.model.get_flat(), before)

    def test_dp_training_spends_ledger(self):
        ds = _dataset()
        client = _client(ds, eps=5.0, sigma=1.5, batch=64)
        local_train(client, ds, 1, np.random.default_rng(4))
        assert client.ledger.steps == math.ceil(client.m_k / 64)
        assert 0 < client.ledger.eps_spent() <= 5.0


class TestEmitRepresentations:
    def test_requires_prior_training(self):
        ds = _dataset()
        client = _client(ds)
        with pytest.raises(ConfigError):
            emit_representations(client, ds)

    def test_full_shard_emitted_and_pure(self):
        ds = _dataset()
        client = _client(ds)
        local_train(client, ds, 1, np.random.default_rng(5))
        steps_before = client.ledger.steps
        a = emit_representations(client, ds)
        b = emit_representations(client, ds)
        assert a.n == client.m_k == a.m_k
        assert a.z.dtype == np.float32
        assert np.array_equal(a.z, b.z)  # purity: same params, same inputs
        assert client.ledger.steps == steps_before  # emitting spends nothing


class TestHeadObjectives:
    def _head(self, seed=6):
        genome = sample_random_genome(SMALL, np.random.default_rng(2))
        return materialize(genome, SMALL, np.random.default_rng(seed)).head

    def test_pooled_equals_weighted_on_full_shards(self):
        head = self._head()
        rng = np.random.default_rng(7)
        for _ in range(20):
            sizes = rng.integers(5, 60, size=int(rng.integers(2, 6)))
            batches = [
                _batch(rng, client_id=i, n=int(s)) for i, s in enumerate(sizes)
            ]
            pooled = head_objective_pooled(head, batches)
            weighted = head_objective_weighted(head, batches)
            assert abs(pooled - weighted) <= 1e-6

    def test_single_client_weight_is_one(self):
        head = self._head()
        batch = _batch(np.random.default_rng(8), n=30)
        pooled = head_objective_pooled(head, [batch])
        logits, _ = head.forward(batch.z)
        direct, _ = softmax_cross_entropy(logits, batch.y)
        assert pooled == pytest.approx(direct, abs=1e-12)

    def test_two_client_weights_follow_sizes(self):
        head = self._head()
        rng = np.random.default_rng(9)
        b1 = _batch(rng, client_id=0, n=100)
        b2 = _batch(rng, client_id=1, n=300)
        l1 = head_objective_pooled(head, [b1])
        l2 = head_objective_pooled(head, [b2])
        weighted = head_objective_weighted(head, [b1, b2])
        assert weighted == pytest.approx(0.25 * l1 + 0.75 * l2, abs=1e-9)


class TestAggregateAndBroadcast:
    def test_aggregation_reduces_pooled_loss(self):
        ds = _dataset()
        client = _client(ds)
        local_train(client, ds, 1, np.random.default_rng(10))
        batch = emit_representations(client, ds)
        head = client.model.head
        before = head_objective_pooled(head, [batch])
        aggregate_and_update_head(head, [batch],
                                  TrainSpec(head_epochs=5, eta_theta=0.01),
                                  rng=np.random.default_rng(11))
        after = head_objective_pooled(head, [batch])
        assert after < before

    def test_rejects_empty_and_mismatched_widths(self):
        rng = np.random.default_rng(12)
        head = materialize(
            sample_random_genome(SMALL, np.random.default_rng(2)), SMALL,
            np.random.default_rng(0),
        ).head
        with pytest.raises(ConfigError):
            aggregate_and_update_head(head, [], TrainSpec(), rng=rng)
        bad = [_batch(rng, client_id=3, d_rep=16), _batch(rng, client_id=9, d_rep=8)]
        with pytest.raises(ShapeMismatchError, match="3.*9|9.*3"):
            aggregate_and_update_head(head, bad, TrainSpec(), rng=rng)

    def test_broadcast_bit_exact_and_bottom_untouched(self):
        ds = _dataset()
        clients = [_client(ds, client_id=i, seed=i) for i in range(3)]
        theta = np.random.default_rng(13).normal(size=clients[0].model.head.n_params)
        theta = theta.astype(np.float32)
        bottoms = [c.model.bottom.get_flat().copy() for c in clients]
        broadcast(theta, clients)
        for c, b in zip(clients, bottoms):
            assert np.array_equal(c.model.head.get_flat(), theta)
            assert np.array_equal(c.model.bottom.get_flat(), b)

    def test_broadcast_size_mismatch(self):
        ds = _dataset()
        client = _client(ds)
        with pytest.raises(ShapeMismatchError):
            broadcast(np.zeros(3, dtype=np.float32), [client])


class TestRunRounds:
    def test_single_client_separable_reaches_090(self):
        # Shallow genome and a modest learning rate keep the trajectory well
        # inside the stable regime, so this asserts pipeline correctness
        # rather than optimizer luck.
        ds = _dataset(20, per_class=150, separation=1.5)
        client = _client(ds, eps=math.inf, eta=0.02, genome_seed=1)
        spec = TrainSpec(rounds=2, local_epochs=8)
        reports = run_rounds(spec, [client], ds, np.random.default_rng(21))
        assert reports[-1].rows[0].val_acc >= 0.9

    def test_full_participation_trains_everyone(self):
        ds = _dataset(22)
        clients = [_client(ds, client_id=i, seed=i, genome_seed=i)
                   for i in range(3)]
        spec = TrainSpec(rounds=2, local_epochs=1)
        reports = run_rounds(spec, clients, ds, np.random.default_rng(23))
        for report in reports:
            assert all(r.participated for r in report.rows)
            assert all(r.bytes_up > 0 for r in report.rows)

    def test_round_scores_each_client_with_one_evaluation_pass(self, monkeypatch):
        ds = _dataset(22)
        clients = [_client(ds, client_id=i, seed=i) for i in range(3)]
        calls, logits = [], Model.logits

        def counting(model, x):
            calls.append(model)
            return logits(model, x)

        monkeypatch.setattr(Model, "logits", counting)
        reports = run_rounds(TrainSpec(rounds=1, local_epochs=1), clients, ds,
                             np.random.default_rng(23))
        assert calls == [c.model for c in clients]
        assert all(math.isfinite(r.loss) for r in reports[0].rows)

    def test_partial_participation_counts(self):
        ds = _dataset(24)
        clients = [_client(ds, client_id=i, seed=i) for i in range(5)]
        spec = TrainSpec(rounds=3, local_epochs=1)
        reports = run_rounds(spec, clients, ds, np.random.default_rng(25),
                             participation=0.4)
        for report in reports:
            assert sum(r.participated for r in report.rows) == 2

    def test_broadcast_charges_every_client_bytes_down(self):
        # the broadcast overwrites every head, spectators' included
        ds = _dataset(24)
        clients = [_client(ds, client_id=i, seed=i) for i in range(5)]
        head_bytes = 4 * clients[0].model.head.n_params
        reports = run_rounds(TrainSpec(rounds=3, local_epochs=1), clients, ds,
                             np.random.default_rng(25), participation=0.4)
        uploading = [r for r in reports if any(row.bytes_up for row in r.rows)]
        assert uploading
        for report in uploading:
            assert sum(not row.participated for row in report.rows) == 3
            assert [row.bytes_down for row in report.rows] == [head_bytes] * 5

    def test_budget_exhaustion_isolated_and_safe(self):
        ds = _dataset(26)
        limited = _client(ds, client_id=0, eps=0.35, sigma=1.1, batch=64)
        healthy = [_client(ds, client_id=i, seed=i) for i in (1, 2)]
        spec = TrainSpec(rounds=4, local_epochs=2)
        reports = run_rounds(spec, [limited] + healthy, ds,
                             np.random.default_rng(27))
        notes = [r.rows[0].note for r in reports]
        assert "BudgetExhaustedError" in notes  # it eventually runs dry
        assert limited.ledger.eps_spent() <= 0.35
        # healthy clients kept uploading every round
        for report in reports:
            for row in report.rows[1:]:
                assert row.bytes_up > 0
        # spend freezes once exhausted
        frozen = [r.rows[0].eps_spent for r in reports if r.rows[0].note]
        assert all(s == frozen[0] for s in frozen)

    def test_accountant_refines_each_point_once(self, monkeypatch):
        # a round's plan pre-check at steps + k and the ledger read after
        # those k steps ask for the same (q, sigma, delta, steps) point
        ds = _dataset(26)
        clients = [_client(ds, client_id=i, seed=i, eps=50.0, sigma=s, batch=64)
                   for i, s in ((0, 1.1), (1, 1.3))]
        asked, refinements = [], [0]
        real_cost, real_minimize = privacy.privacy_cost, privacy._minimize_bounded

        def cost(dp, steps):
            value = real_cost(dp, steps)
            asked.append(((dp.sampling_rate, dp.noise_multiplier, dp.delta, steps), value))
            return value

        def minimize(*args, **kwargs):
            refinements[0] += 1
            return real_minimize(*args, **kwargs)

        monkeypatch.setattr(privacy, "privacy_cost", cost)
        monkeypatch.setattr(privacy, "_minimize_bounded", minimize)
        privacy._refined_cost.cache_clear()
        reports = run_rounds(TrainSpec(rounds=2, local_epochs=1), clients, ds,
                             np.random.default_rng(27))
        monkeypatch.undo()
        points = {key for key, _ in asked}
        assert len(asked) == 8 and len(points) == 4
        assert refinements[0] == len(points)
        # every value the run read equals a cold, unmemoized refinement
        for (q, sigma, delta, steps), value in asked:
            privacy._refined_cost.cache_clear()
            assert privacy_cost(DPConfig(1.0, sigma, q, delta), steps) == value
        spent = {row.eps_spent for report in reports for row in report.rows}
        assert spent == {value for _, value in asked}

    def test_overspent_ledger_stops_the_run(self):
        # the budget-safety check raises, so it also holds under python -O
        ds = _dataset(26)
        client = _client(ds, eps=0.35, sigma=1.1, batch=64)
        client.ledger.steps += 1000
        assert client.ledger.eps_spent() > 0.35
        with pytest.raises(FedNasError, match="budget safety violated"):
            run_rounds(TrainSpec(rounds=1, local_epochs=1), [client], ds,
                       np.random.default_rng(27))

    def test_update_starts_from_the_last_broadcast(self, monkeypatch):
        # client 0 takes part every round, so local training moves its head;
        # the server's update must still start from the previous broadcast,
        # and in round 1 from client 0's initial head
        ds = _dataset(30)
        clients = [_client(ds, client_id=i, seed=i) for i in range(2)]
        broadcasts = [clients[0].model.head.get_flat().copy()]
        starts, update = [], federation.aggregate_and_update_head

        def recording(head, batches, spec, *, rng):
            starts.append(head.get_flat().copy())
            theta = update(head, batches, spec, rng=rng)
            broadcasts.append(theta.copy())
            return theta

        monkeypatch.setattr(federation, "aggregate_and_update_head", recording)
        reports = run_rounds(TrainSpec(rounds=3, local_epochs=1), clients, ds,
                             np.random.default_rng(31))
        assert all(row.participated for r in reports for row in r.rows)
        assert len(starts) == 3
        for start, previous in zip(starts, broadcasts):
            np.testing.assert_array_equal(start, previous)

    def test_heads_synchronized_bottoms_diverge(self):
        ds = _dataset(28)
        # identical init (same creation seed), disjoint single-class shards
        y = ds.labels
        shard0 = np.flatnonzero(y == 0)[:80]
        shard1 = np.flatnonzero(y == 1)[:80]
        test = np.concatenate([
            np.flatnonzero(y == 0)[80:120], np.flatnonzero(y == 1)[80:120]
        ])
        clients = [
            _client(ds, client_id=i, seed=42, shard=s, test_idx=test)
            for i, s in enumerate((shard0, shard1))
        ]
        assert np.array_equal(clients[0].model.get_flat(),
                              clients[1].model.get_flat())
        spec = TrainSpec(rounds=2, local_epochs=2)
        run_rounds(spec, clients, ds, np.random.default_rng(29))
        assert np.array_equal(clients[0].model.head.get_flat(),
                              clients[1].model.head.get_flat())
        assert not np.array_equal(clients[0].model.bottom.get_flat(),
                                  clients[1].model.bottom.get_flat())

    def test_deterministic_reports_and_csv(self, tmp_path):
        outputs = []
        for run in range(2):
            ds = _dataset(30)
            clients = [_client(ds, client_id=i, seed=i) for i in range(3)]
            spec = TrainSpec(rounds=2, local_epochs=1, target_acc=0.5)
            csv_path = tmp_path / f"rounds_{run}.csv"
            summary_path = tmp_path / f"summary_{run}.json"
            reports = run_rounds(spec, clients, ds, np.random.default_rng(31))
            write_round_csv(csv_path, reports)
            write_json(summary_path, summarize(reports, spec.target_acc))
            outputs.append((csv_path.read_bytes(), summary_path.read_bytes()))
        assert outputs[0] == outputs[1]
        header = outputs[0][0].decode().splitlines()[0]
        assert header == "round,client,val_acc,loss,eps_spent,bytes_up,bytes_down"
        summary = json.loads(outputs[0][1])
        assert set(summary) == {"mean_acc", "std_acc", "rounds_to_target"}

    def test_summary_rounds_to_target(self):
        ds = _dataset(32)
        client = _client(ds, eps=math.inf, eta=0.1)
        spec = TrainSpec(rounds=3, local_epochs=3, target_acc=0.85)
        reports = run_rounds(spec, [client], ds, np.random.default_rng(33))
        summary = summarize(reports, 0.85)
        hits = [r.round_index for r in reports if r.mean_acc >= 0.85]
        assert summary["rounds_to_target"] == (hits[0] if hits else None)
        assert summarize(reports, None)["rounds_to_target"] is None
        unreachable = summarize(reports, 2.0)
        assert unreachable["rounds_to_target"] is None

    def test_duplicate_ids_rejected(self):
        ds = _dataset(34)
        clients = [_client(ds, client_id=1), _client(ds, client_id=1)]
        with pytest.raises(ConfigError):
            run_rounds(TrainSpec(rounds=1, local_epochs=1), clients, ds,
                       np.random.default_rng(35))
