"""Release acceptance suite: one test per numbered acceptance criterion.

Each test states its claim, checks it at the stated tolerance against an
independent oracle where one exists, and is named so that `pytest -v`
prints a single pass/fail line per criterion. The slow end-to-end checks
(criteria 8 and 12) run real multi-round federated simulations and carry
explicit wall-clock guards where the criterion states one.
"""

import csv
import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import sympy
import yaml
from click.testing import CliRunner

from fednaslab.analysis import (
    AttackSpec,
    ConvergenceConstants,
    corollary1_rhs,
    corollary2_avg_grad_bound,
    inversion_attack,
    max_eta_theta,
    theorem1_rhs,
)
from fednaslab.cli import DEFAULT_GENOME, main
from fednaslab.data import partition_dirichlet, split_nas_subsets, synth_dataset
from fednaslab.federation import (
    HEADER_BYTES,
    ClientState,
    RepresentationBatch,
    TrainSpec,
    comm_bytes,
    encode_batch,
    head_objective_pooled,
    head_objective_weighted,
    run_rounds,
)
from fednaslab.ga import GAConfig, roulette_indices, run_ga
from fednaslab.hpo import (
    BOSpec,
    DPTrialEvaluator,
    HyperConfig,
    SearchDomain,
    Surrogate,
    expected_improvement_values,
    planned_cost,
    run_bo,
)
from fednaslab.nn.layers import Linear, Sequential
from fednaslab.nn.model import (
    apply_update,
    batch_gradient,
    loss_and_per_sample_grads,
)
from fednaslab.privacy import (
    DPConfig,
    PrivacyLedger,
    calibrate_sigma,
    dp_sgd_step,
    privacy_cost,
    train_dp_sgd,
)
from fednaslab.space import (
    SpaceConfig,
    genome_from_string,
    materialize,
    param_count,
    sample_random_genome,
)

# ---------------------------------------------------------------------------
# criterion 1: per-sample gradients against central finite differences


def _per_sample_ce(model, x, y):
    """Per-sample cross-entropy computed from scratch (forward only)."""
    out, _ = model.forward(x)
    shifted = out - out.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -logp[np.arange(out.shape[0]), y]


def _central_fd(model, x, y, h=1e-5):
    """Central finite differences of each sample's own loss, [n, P]."""
    n_params = sum(layer.n_params for layer in model.param_layers())
    fd = np.zeros((x.shape[0], n_params))
    col = 0
    for layer in model.param_layers():
        base = layer.params.copy()
        for j in range(layer.n_params):
            layer.params = base.copy()
            layer.params[j] = base[j] + h
            lp = _per_sample_ce(model, x, y)
            layer.params = base.copy()
            layer.params[j] = base[j] - h
            lm = _per_sample_ce(model, x, y)
            layer.params = base.copy()
            fd[:, col] = (lp - lm) / (2 * h)
            col += 1
    return fd


def test_criterion_01_per_sample_gradients_match_finite_differences():
    start = time.monotonic()
    space = SpaceConfig((3, 8, 8), d_rep=8, num_classes=3, min_len=1,
                        max_len=4, channel_choices=(4, 8), kernel_choices=(3,))
    x = np.random.default_rng(7).normal(scale=0.5, size=(4, 3, 8, 8))
    y = np.array([0, 1, 2, 1])
    for text in ("C3x4-Pavg", "C3x4-C3x8-Pmax"):
        model = materialize(genome_from_string(text), space,
                            np.random.default_rng(101))
        model.astype(np.float64)
        # randomize every parameter so no ReLU kink or pool tie sits exactly
        # at the evaluation point
        prng = np.random.default_rng(99)
        for layer in model.param_layers():
            layer.params = prng.normal(scale=0.4, size=layer.n_params)
        psg = np.concatenate(loss_and_per_sample_grads(model, x, y)[1], axis=1)
        fd = _central_fd(model, x, y)
        err = np.abs(psg - fd)
        tol = 1e-6 + 1e-3 * np.abs(fd)
        assert (err <= tol).all(), f"{text}: worst FD mismatch {err.max():.3e}"
        # the batch gradient must be the row mean of the per-sample matrix
        _, grads, _ = batch_gradient(model, x, y)
        flat_batch = np.concatenate(grads)
        assert np.abs(psg.mean(axis=0) - flat_batch).max() <= 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (limit 30s)"
    print(f"[criterion 01] PASS per-sample grads == FD, mean == batch "
          f"({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: the noiseless, unclipped private step is plain SGD


def test_criterion_02_dp_step_with_zero_noise_matches_plain_sgd():
    space = SpaceConfig((3, 8, 8), d_rep=8, num_classes=2, min_len=1,
                        max_len=3, channel_choices=(8,), kernel_choices=(3,))
    genome = genome_from_string("C3x8-Pavg")
    ds = synth_dataset(2, 40, 8, 1.0, np.random.default_rng((200, 0)))
    model_a = materialize(genome, space, np.random.default_rng(202))
    model_b = materialize(genome, space, np.random.default_rng(202))
    assert np.array_equal(model_a.get_flat(), model_b.get_flat())
    ledger = PrivacyLedger(DPConfig(1e9, 0.0, 1.0, 1e-5))
    batch_rng = np.random.default_rng(203)
    n = len(ds.images)
    for step in range(50):
        idx = batch_rng.choice(n, size=16, replace=False)
        xb, yb = ds.images[idx], ds.labels[idx]
        dp_sgd_step(model_a, xb, yb, ledger, eta=0.05,
                    rng=np.random.default_rng(0))
        _, grads, _ = batch_gradient(model_b, xb, yb)
        apply_update(model_b, grads, 0.05)
        gap = np.abs(model_a.get_flat() - model_b.get_flat()).max()
        assert gap <= 1e-5, f"trajectories diverged at step {step}: {gap:.3e}"
    print("[criterion 02] PASS 50-step trajectories identical within 1e-5")


# ---------------------------------------------------------------------------
# criterion 3: accountant analytic value and monotonicity


def test_criterion_03_accountant_analytic_value_and_monotonicity():
    # at sampling rate 1 and one step the optimal order is 1 + sqrt(2 ln(1/delta))
    # giving cost 1/2 + sqrt(2 ln(1/delta)) for unit noise
    analytic = 0.5 + math.sqrt(2.0 * math.log(1e5))
    got = privacy_cost(DPConfig(1.0, 1.0, 1.0, 1e-5), 1)
    assert abs(got - analytic) <= 1e-6, f"{got} vs analytic {analytic}"

    # monotonicity across a random 10x10x10 grid: more steps or a larger
    # sampling rate never cheapens the bill, more noise never raises it
    rng = np.random.default_rng(301)
    steps_ax = np.sort(rng.choice(np.arange(1, 400), size=10, replace=False))
    q_ax = np.sort(rng.uniform(0.02, 1.0, size=10))
    sig_ax = np.sort(rng.uniform(0.4, 6.0, size=10))
    cost = np.empty((10, 10, 10))
    for i, s in enumerate(steps_ax):
        for j, q in enumerate(q_ax):
            for k, sg in enumerate(sig_ax):
                cost[i, j, k] = privacy_cost(
                    DPConfig(1.0, float(sg), float(q), 1e-5), int(s))
    slack = 1e-9 * np.maximum(1.0, np.abs(cost))
    assert (np.diff(cost, axis=0) >= -slack[:-1]).all(), "cost fell as steps rose"
    assert (np.diff(cost, axis=1) >= -slack[:, :-1]).all(), "cost fell as q rose"
    assert (np.diff(cost, axis=2) <= slack[:, :, :-1]).all(), "cost rose as sigma rose"
    print(f"[criterion 03] PASS analytic diff {abs(got - analytic):.1e}, "
          f"1000-point grid monotone")


# ---------------------------------------------------------------------------
# criterion 4: the search loop finds a known optimum under an edit-distance score


def _edit_distance(a, b):
    """Levenshtein over block tokens; substituting within the same block
    kind (conv for conv, pool for pool) costs half a point."""
    ta = [g.token() for g in a]
    tb = [g.token() for g in b]
    la, lb = len(ta), len(tb)
    d = np.zeros((la + 1, lb + 1))
    d[:, 0] = np.arange(la + 1)
    d[0, :] = np.arange(lb + 1)
    for i in range(1, la + 1):
        for j in range(1, lb + 1):
            if ta[i - 1] == tb[j - 1]:
                sub = 0.0
            elif ta[i - 1][0] == tb[j - 1][0]:
                sub = 0.5
            else:
                sub = 1.0
            d[i, j] = min(d[i - 1, j] + 1.0, d[i, j - 1] + 1.0,
                          d[i - 1, j - 1] + sub)
    return float(d[la, lb])


def test_criterion_04_ga_finds_optimum_elitism_and_roulette_stats():
    start = time.monotonic()
    space = SpaceConfig((3, 8, 8), 16, 2, 3, 4,
                        channel_choices=(16, 32), kernel_choices=(3,))
    target = genome_from_string("C3x16-C3x32-Pavg")

    def fitness(genome, seed):
        return 1.0 / (1.0 + _edit_distance(genome, target))

    cfg = GAConfig(pop_size=10, generations=20, p_mut=0.4)
    wins = monotone = 0
    for seed in range(20):
        res = run_ga(cfg, space, fitness, np.random.default_rng((400, seed)))
        wins += res.best_fitness == 1.0
        best = [rec.best_acc for rec in res.history]
        monotone += all(b >= a - 1e-12 for a, b in zip(best, best[1:]))
    assert wins >= 18, f"optimum found in only {wins}/20 seeds"
    assert monotone == 20, f"best fitness regressed in {20 - monotone} runs"

    # first draw of fitness-proportional selection: observed counts within
    # three binomial standard deviations of expectation over 1e5 draws
    fit = np.array([1.0, 2.0, 3.0, 4.0, 10.0])
    rng = np.random.default_rng(11)
    counts = np.zeros(len(fit))
    draws = 100_000
    for _ in range(draws):
        counts[roulette_indices(fit, 1, rng)[0]] += 1
    p = fit / fit.sum()
    dev = np.abs(counts - draws * p) / np.sqrt(draws * p * (1 - p))
    assert dev.max() <= 3.0, f"roulette first-draw deviation {dev.max():.2f} sigma"

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s (limit 60s)"
    print(f"[criterion 04] PASS wins {wins}/20, elitism 20/20, "
          f"roulette {dev.max():.2f} sigma ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: surrogate posterior against hand and dense oracles


def _matern52_scalar(a, b, lengthscales, signal_var):
    r = math.sqrt(sum(((ai - bi) / li) ** 2
                      for ai, bi, li in zip(a, b, lengthscales)))
    s5r = math.sqrt(5.0) * r
    return signal_var * (1.0 + s5r + 5.0 * r * r / 3.0) * math.exp(-s5r)


def test_criterion_05_gp_posterior_oracles_and_ei_values():
    # two points: posterior mean/variance from the explicit 2x2 inverse
    x = [(0.2, 0.3), (0.7, 0.6)]
    y = (0.4, 0.8)
    ls = (0.5, 0.8)
    sv = 1.7
    s = Surrogate(np.array(x), np.array(y), np.array(ls), sv)
    jit = s.jitter
    k01 = _matern52_scalar(x[0], x[1], ls, sv)
    k00 = sv + jit
    det = k00 * k00 - k01 * k01
    ybar = (y[0] + y[1]) / 2.0
    r0, r1 = y[0] - ybar, y[1] - ybar
    a0 = (k00 * r0 - k01 * r1) / det
    a1 = (k00 * r1 - k01 * r0) / det
    for q in ((0.1, 0.9), (0.5, 0.5), (0.2, 0.3), (0.9, 0.1)):
        ks0 = _matern52_scalar(q, x[0], ls, sv)
        ks1 = _matern52_scalar(q, x[1], ls, sv)
        mean_hand = ybar + ks0 * a0 + ks1 * a1
        quad = (ks0 * ks0 * k00 - 2 * ks0 * ks1 * k01 + ks1 * ks1 * k00) / det
        var_hand = max(sv - quad, 0.0)
        (mu,), (var,) = s.posterior(q)
        assert abs(mu - mean_hand) <= 1e-8, f"mean at {q}: {mu} vs {mean_hand}"
        assert abs(var - var_hand) <= 1e-8, f"var at {q}: {var} vs {var_hand}"

    # three points: dense linear-algebra oracle with the same jitter
    rng = np.random.default_rng(501)
    x3 = rng.uniform(size=(3, 4))
    y3 = rng.uniform(size=3)
    ls3 = rng.uniform(0.3, 2.0, size=4)
    sv3 = 0.9
    s3 = Surrogate(x3, y3, ls3, sv3)
    kmat = np.array([[_matern52_scalar(a, b, ls3, sv3) for b in x3] for a in x3])
    kmat += s3.jitter * np.eye(3)
    kinv = np.linalg.inv(kmat)
    resid = y3 - y3.mean()
    for _ in range(5):
        q = rng.uniform(size=4)
        kstar = np.array([_matern52_scalar(q, b, ls3, sv3) for b in x3])
        mean_dense = y3.mean() + kstar @ kinv @ resid
        var_dense = max(sv3 - kstar @ kinv @ kstar, 0.0)
        (mu,), (var,) = s3.posterior(q)
        assert abs(mu - mean_dense) <= 1e-8
        assert abs(var - var_dense) <= 1e-8

    # expected improvement: at mu == incumbent with unit spread the value is
    # the standard normal density at zero; with zero spread it vanishes
    ei_unit = expected_improvement_values(
        np.array([0.7]), np.array([1.0]), 0.7, 0.0)[0]
    assert abs(ei_unit - 1.0 / math.sqrt(2.0 * math.pi)) <= 1e-4
    ei_zero = expected_improvement_values(
        np.array([0.7]), np.array([0.0]), 0.7, 0.0)[0]
    assert ei_zero <= 1e-6
    print(f"[criterion 05] PASS posteriors within 1e-8, "
          f"EI(0,1)={ei_unit:.5f}, EI at incumbent {ei_zero:.1e}")


# ---------------------------------------------------------------------------
# criterion 6: constrained tuning never trains over budget


def test_criterion_06_hpo_trains_only_within_budget():
    budget = 5.0
    space = SpaceConfig((3, 8, 8), 16, 2, 3, 4)
    genome = genome_from_string(DEFAULT_GENOME)
    ds = synth_dataset(2, 300, 8, 1.5, np.random.default_rng((600, 0)))
    part = partition_dirichlet(ds.labels, 5, 0.5, np.random.default_rng((600, 1)))
    spec = BOSpec(k_init=3, n_iter=4, trial_epochs=3)
    audited = trained = 0
    for k, shard in enumerate(part.client_indices):
        split = split_nas_subsets(shard, ds.labels,
                                  np.random.default_rng((600, 2, k)))
        tr, va = split.nas_train, split.nas_val
        domain = SearchDomain(spec, dataset_size=len(tr))
        evaluator = DPTrialEvaluator(
            genome, space, ds.images[tr], ds.labels[tr],
            ds.images[va], ds.labels[va], domain,
            seed=600 * 1000 + k, delta=1e-5)
        res = run_bo(evaluator, domain, budget, delta=1e-5,
                     rng=np.random.default_rng((600, 20, k)))
        # audit the trace: recompute every cost from scratch; any trial that
        # actually trained must have fit the budget
        for rec in res.trace:
            audited += 1
            recomputed = planned_cost(rec.config, domain, 1e-5)
            assert abs(recomputed - rec.eps_planned) <= 1e-9 * max(1.0, recomputed)
            if rec.val_acc is not None:
                trained += 1
                assert rec.feasible
                assert rec.eps_planned <= budget + 1e-9, (
                    f"client {k} trained a trial at eps {rec.eps_planned}")
    assert trained >= 5 * 3, f"only {trained} trials trained across 5 clients"

    # a published low-budget recipe must fit the trial plan at eps=5
    # full-shard batches
    steps = SearchDomain(BOSpec(trial_epochs=3), 100).trial_steps(100)
    cost = privacy_cost(DPConfig(0.5, 1.92, 1.0, 1e-5), steps)
    assert cost <= budget, f"reference config costs {cost:.4f} > {budget}"
    print(f"[criterion 06] PASS {audited} trials audited, {trained} trained, "
          f"reference config {cost:.4f} <= {budget}")


# ---------------------------------------------------------------------------
# criterion 7: pooled head loss equals the shard-weighted client mean


def test_criterion_07_pooled_loss_equals_weighted_client_mean():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(100):
        n_clients = int(rng.integers(2, 6))
        d_rep = int(rng.integers(2, 17))
        classes = int(rng.integers(2, 6))
        head = Sequential([Linear(d_rep, classes)])
        head.init_params(rng)
        batches = []
        for cid in range(n_clients):
            m_k = int(rng.integers(1, 41))
            z = rng.normal(size=(m_k, d_rep))
            labels = rng.integers(0, classes, size=m_k)
            batches.append(RepresentationBatch(cid, z, labels, m_k))
        pooled = head_objective_pooled(head, batches)
        weighted = head_objective_weighted(head, batches)
        worst = max(worst, abs(pooled - weighted))
        assert abs(pooled - weighted) <= 1e-6
    print(f"[criterion 07] PASS 100 fixtures, worst gap {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 8: end-to-end desk run reaches target and degrades with privacy


def _federated_final_acc(eps_budget, run_seed, ds, splits, genome, space):
    """One full federated run; returns (final mean acc, best mean acc)."""
    clients = []
    for k, split in enumerate(splits):
        train_idx = split.train
        m_k = len(train_idx)
        batch = min(32, m_k)
        if math.isinf(eps_budget):
            sigma = 0.0
        else:
            q = min(batch / m_k, 1.0)
            total_steps = 20 * math.ceil(2 * m_k / batch)
            sigma = calibrate_sigma(q, total_steps, eps_budget, 1e-5)
        hyper = HyperConfig(0.05, batch, 4.0, sigma)
        clients.append(ClientState.create(
            k, genome, space, hyper, train_idx, split.nas_test,
            eps_budget, np.random.default_rng((run_seed, 3, k)), delta=1e-5))
    spec = TrainSpec(rounds=20, local_epochs=2)
    reports = run_rounds(spec, clients, ds, np.random.default_rng((run_seed, 3)))
    accs = [rep.mean_acc for rep in reports]
    return accs[-1], max(accs)


def test_criterion_08_federated_run_hits_target_and_orders_by_privacy():
    start = time.monotonic()
    space = SpaceConfig((3, 8, 8), 16, 2, 3, 4)
    genome = genome_from_string("C5x32-Pavg-Pmax")
    ds = synth_dataset(2, 300, 8, 1.5, np.random.default_rng((5, 0)))
    part = partition_dirichlet(ds.labels, 5, 0.1, np.random.default_rng((5, 1)))
    splits = [
        split_nas_subsets(part.client_indices[k], ds.labels,
                          np.random.default_rng((5, 2, k)))
        for k in range(5)
    ]
    levels = (math.inf, 5.0, 0.5)
    ordered = 0
    for run_seed in range(5):
        finals = []
        for eps in levels:
            final, best = _federated_final_acc(eps, run_seed, ds, splits,
                                               genome, space)
            if math.isinf(eps):
                # the clean arm must hit the desk target inside 20 rounds
                assert best >= 0.90, (
                    f"seed {run_seed}: clean run peaked at {best:.3f}")
            finals.append(final)
        ok = all(b >= a - 1e-12 for a, b in zip(finals[::-1], finals[::-1][1:]))
        ordered += ok
        print(f"[criterion 08] seed {run_seed}: "
              f"acc(inf)={finals[0]:.3f} acc(5)={finals[1]:.3f} "
              f"acc(0.5)={finals[2]:.3f} ordered={ok}")
    elapsed = time.monotonic() - start
    assert ordered >= 4, f"privacy ordering held in only {ordered}/5 seeds"
    assert elapsed < 600.0, f"criterion 8 took {elapsed:.0f}s (limit 600s)"
    print(f"[criterion 08] PASS ordering {ordered}/5 ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 9: every random genome stays deployable on a desk machine


def test_criterion_09_random_genomes_fit_size_budget():
    space = SpaceConfig()  # default bounds
    rng = np.random.default_rng(900)
    limit = 2 * 1024 * 1024
    largest = 0
    for _ in range(100):
        genome = sample_random_genome(space, rng)
        model = materialize(genome, space, rng)
        assert model.n_params == param_count(genome, space)
        size = 4 * model.n_params
        largest = max(largest, size)
        assert size < limit, f"{genome} needs {size} bytes"
    print(f"[criterion 09] PASS 100 genomes, largest {largest / 1e6:.2f} MB")


# ---------------------------------------------------------------------------
# criterion 10: exact wire costs and budget accounting during federation


def test_criterion_10_comm_bytes_exact_and_budget_respected():
    z = np.zeros((100, 128), dtype=np.float32)
    labels = np.zeros(100, dtype=np.int64)
    batch = RepresentationBatch(7, z, labels, 100)
    assert comm_bytes(batch) == 51_400
    assert len(encode_batch(batch)) == HEADER_BYTES + 51_400
    theta = np.zeros(128 * 10 + 10, dtype=np.float32)
    assert comm_bytes(theta) == 4 * theta.size

    # a small private federation: the per-round spend must stay inside the
    # budget for every client in every round, and grow monotonically
    budget = 3.0
    space = SpaceConfig((3, 8, 8), 16, 2, 3, 4)
    genome = genome_from_string(DEFAULT_GENOME)
    ds = synth_dataset(2, 80, 8, 1.5, np.random.default_rng((1000, 0)))
    part = partition_dirichlet(ds.labels, 2, 100.0, np.random.default_rng((1000, 1)))
    rounds, local_epochs = 5, 1
    clients = []
    for k, shard in enumerate(part.client_indices):
        cut = (3 * len(shard)) // 4
        train_idx, test_idx = shard[:cut], shard[cut:]
        m_k = len(train_idx)
        bsz = min(16, m_k)
        q = min(bsz / m_k, 1.0)
        total_steps = rounds * math.ceil(local_epochs * m_k / bsz)
        sigma = calibrate_sigma(q, total_steps, budget, 1e-5)
        hyper = HyperConfig(0.05, bsz, 1.0, sigma)
        clients.append(ClientState.create(
            k, genome, space, hyper, train_idx, test_idx, budget,
            np.random.default_rng((1000, 3, k)), delta=1e-5))
    spec = TrainSpec(rounds=rounds, local_epochs=local_epochs)
    reports = run_rounds(spec, clients, ds, np.random.default_rng((1000, 3)))
    last_spend = {c.client_id: 0.0 for c in clients}
    for report in reports:
        for row in report.rows:
            assert row.participated, f"round {report.round_index}: {row.note}"
            assert row.eps_spent <= budget + 1e-9, (
                f"client {row.client_id} spent {row.eps_spent} > {budget}")
            assert row.eps_spent >= last_spend[row.client_id] - 1e-12
            last_spend[row.client_id] = row.eps_spent
    print(f"[criterion 10] PASS upload 51,400 B exact; final spends "
          f"{[f'{v:.3f}' for v in last_spend.values()]} <= {budget}")


# ---------------------------------------------------------------------------
# criterion 11: bound calculators against an exact substitution oracle


def _oracle_values(c, loss0, gsum):
    """All four bounds re-derived in exact rational arithmetic."""
    s = {name: sympy.Rational(getattr(c, name)) for name in (
        "B_grad", "L", "var_sigma2", "noise_delta", "C", "d", "E",
        "eta_w", "eta_theta", "alpha_dev", "p", "Delta", "G", "T")}
    noise = s["var_sigma2"] + s["d"] * s["noise_delta"] ** 2 * s["C"] ** 2
    eta = s["eta_w"]
    th1 = (sympy.Rational(loss0)
           - (eta * s["p"] - s["L"] * eta ** 2 / 2) * sympy.Rational(gsum)
           + (s["E"] * s["L"] * eta ** 2 / 2) * noise)
    cor1 = (th1 + eta * s["E"] * s["B_grad"] ** 2
            + s["eta_theta"] * s["B_grad"]
            + s["L"] / 2 * s["alpha_dev"] ** 2)
    denom = eta * s["p"] - s["L"] * eta ** 2 / 2
    numer = (s["Delta"] / s["T"]
             + (s["E"] * s["L"] * eta ** 2 / 2) * noise
             + eta * s["E"] * s["B_grad"] ** 2
             + s["eta_theta"] * s["B_grad"]
             + s["L"] / 2 * s["alpha_dev"] ** 2)
    cor2 = numer / denom
    head_raw = (s["alpha_dev"] - eta * s["E"] * s["B_grad"]) / s["B_grad"]
    return float(th1), float(cor1), float(cor2), float(head_raw)


def _random_constants(rng):
    L = float(rng.uniform(0.1, 4.0))
    p = float(rng.uniform(0.1, 1.0))
    return ConvergenceConstants(
        B_grad=float(rng.uniform(0.1, 5.0)),
        L=L,
        var_sigma2=float(rng.uniform(0.0, 4.0)),
        noise_delta=float(rng.uniform(0.0, 2.0)),
        C=float(rng.uniform(0.0, 4.0)),
        d=int(rng.integers(1, 10_000)),
        E=int(rng.integers(1, 50)),
        eta_w=float(rng.uniform(0.05, 0.95)) * 2 * p / L,  # keeps descent > 0
        eta_theta=float(rng.uniform(0.0, 0.5)),
        alpha_dev=float(rng.uniform(0.0, 3.0)),
        p=p,
        Delta=float(rng.uniform(0.1, 10.0)),
        G=float(rng.uniform(0.1, 20.0)),
        T=int(rng.integers(1, 1000)),
    )


def test_criterion_11_bound_calculators_match_substitution_oracle():
    rng = np.random.default_rng(1100)
    worst = 0.0
    for _ in range(100):
        c = _random_constants(rng)
        loss0 = float(rng.uniform(0.0, 5.0))
        gsum = float(rng.uniform(0.0, 50.0))
        th1_o, cor1_o, cor2_o, head_o = _oracle_values(c, loss0, gsum)
        checks = [
            (theorem1_rhs(c, loss0, gsum), th1_o),
            (corollary1_rhs(c, loss0, gsum), cor1_o),
            (corollary2_avg_grad_bound(c), cor2_o),
        ]
        bound = max_eta_theta(c)
        checks.append((bound.value, max(head_o, 0.0)))
        assert bound.feasible == (head_o > 0)
        for got, want in checks:
            gap = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, gap)
            assert gap <= 1e-10, f"{got} vs oracle {want}"

    # the T-averaged gradient bound must decrease as rounds accumulate
    base = _random_constants(np.random.default_rng(1101))
    values = [corollary2_avg_grad_bound(dataclasses.replace(base, T=t))
              for t in (1, 2, 5, 10, 50, 100, 1000)]
    assert all(b < a for a, b in zip(values, values[1:])), values
    print(f"[criterion 11] PASS 100 random sets, worst rel gap {worst:.1e}; "
          f"T-sweep decreasing")


# ---------------------------------------------------------------------------
# criterion 12: reconstruction error grows as the privacy budget tightens


def test_criterion_12_inversion_error_orders_with_privacy():
    space = SpaceConfig((3, 8, 8), 16, 2, 3, 4)
    genome = genome_from_string("C5x32-Pavg-Pmax")
    ds = synth_dataset(2, 150, 8, 1.5, np.random.default_rng((9, 0)))
    order = np.random.default_rng((9, 1)).permutation(len(ds.images))
    aux = ds.images[order[:260]]
    victims = ds.images[order[260:300]]
    # noise multipliers calibrated to each budget at the plan each run
    # draws: 50-row batches of the 300 rows, 60 steps
    ref_q, ref_steps = 50 / 300, 60
    levels = (math.inf, 50.0, 5.0, 0.5)
    sigmas = {math.inf: 0.0}
    for eps in levels[1:]:
        sigmas[eps] = calibrate_sigma(ref_q, ref_steps, eps, 1e-5)
    clip = 128.0
    ordered = 0
    for seed in range(5):
        mses = []
        for j, eps in enumerate(levels):
            model = materialize(genome, space, np.random.default_rng((9, 2)))
            train_dp_sgd(model, ds.images, ds.labels,
                         PrivacyLedger(DPConfig(clip, sigmas[eps], ref_q, 1e-5)),
                         eta=0.5, steps=ref_steps,
                         rng=np.random.default_rng((seed, 7, j)))
            report = inversion_attack(model, aux, victims,
                                      AttackSpec(decoder_epochs=60),
                                      np.random.default_rng((seed, 8, j)),
                                      eps_label=eps, seed=seed)
            mses.append(report.mse)
        ok = all(b >= a - 1e-12 for a, b in zip(mses, mses[1:]))
        ordered += ok
        print(f"[criterion 12] seed {seed}: "
              f"mse={['%.4g' % m for m in mses]} ordered={ok}")
    assert ordered >= 3, f"reconstruction ordering held in only {ordered}/5 seeds"
    print(f"[criterion 12] PASS ordering {ordered}/5 over eps {levels}")


# ---------------------------------------------------------------------------
# criterion 13: identical config and seed give byte-identical artifacts


_TINY = {
    "profile": "desk",
    "seed": 5,
    "dataset": {"per_class": 60},
    "clients": {"count": 2},
    "ga": {"pop_size": 4, "generations": 2, "eval_epochs": 1},
    "bo": {"k_init": 2, "n_iter": 1, "trial_epochs": 1},
    "train": {"rounds": 2, "local_epochs": 1},
    "attack": {"seeds": 2, "decoder_epochs": 3, "victim_count": 10},
}


def test_criterion_13_reruns_are_byte_identical(tmp_path):
    runner = CliRunner()
    out_dirs = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = tmp_path / f"config_{name}.yaml"
        config.write_text(yaml.safe_dump({**_TINY, "output_dir": str(out)}))
        for command in ("nas", "hpo", "train"):
            result = runner.invoke(main, [command, "-c", str(config)])
            assert result.exit_code == 0, f"{name}/{command}: {result.output}"
        result = runner.invoke(main, [
            "attack", "-c", str(config),
            "--model", f"inf={out / 'model_client0.npz'}",
            "--model", f"0.5={out / 'model_client1.npz'}",
        ])
        assert result.exit_code == 0, f"{name}/attack: {result.output}"
        out_dirs.append(out)
    first, second = out_dirs
    csvs = sorted(p.relative_to(first) for p in first.rglob("*.csv"))
    assert len(csvs) >= 6, f"expected the full artifact set, found {csvs}"
    for rel in csvs:
        a = (first / rel).read_bytes()
        b = (second / rel).read_bytes()
        assert a == b, f"{rel} differs between identical runs"
    print(f"[criterion 13] PASS {len(csvs)} CSV artifacts byte-identical")
