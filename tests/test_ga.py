"""Search-loop contracts: operator behavior, selection statistics, and
whole-run convergence on a training-free objective.

Oracles: token-level edit distance is implemented here independently
(dynamic programming); operator reachability is certified by constructing an
explicit op path to the target and validating every intermediate genome;
selection frequencies are checked against exact probabilities.
"""

import numpy as np
import pytest

from fednaslab.errors import ConfigError
from fednaslab.ga import (
    GAConfig,
    Individual,
    TrainingEvaluator,
    crossover,
    environmental_select,
    init_population,
    mutate,
    roulette_indices,
    run_ga,
    tournament_select,
    write_ga_trace,
)
from fednaslab.space import (
    Genome,
    SpaceConfig,
    conv_gene,
    genome_from_string,
    pool_gene,
    sample_random_genome,
    validate_genome,
)

SPACE = SpaceConfig()
TARGET = genome_from_string("C3x16-Pavg-C3x16")


def _lev(a, b):
    """Token edit distance, straight DP."""
    m, n = len(a), len(b)
    d = np.zeros((m + 1, n + 1), dtype=int)
    d[:, 0] = np.arange(m + 1)
    d[0, :] = np.arange(n + 1)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i, j] = min(
                d[i - 1, j] + 1,
                d[i, j - 1] + 1,
                d[i - 1, j - 1] + (a[i - 1] != b[j - 1]),
            )
    return int(d[m, n])


def _target_fitness(target):
    tokens = [g.token() for g in target.genes]

    def fit(genome, seed):
        mine = [g.token() for g in genome.genes]
        return 1.0 - _lev(mine, tokens) / max(len(mine), len(tokens))

    return fit


class _QueuedRng:
    """Deterministic stand-in for a Generator: pops pre-planned draws."""

    def __init__(self, integers=(), choices=(), floats=()):
        self._ints = list(integers)
        self._choices = list(choices)
        self._floats = list(floats)

    def integers(self, lo, hi=None):
        v = self._ints.pop(0)
        if hi is not None:
            assert lo <= v < hi, f"queued draw {v} outside [{lo}, {hi})"
        return v

    def choice(self, n, size=None, replace=True, p=None):
        return self._choices.pop(0)

    def random(self):
        return self._floats.pop(0)


class TestInitPopulation:
    def test_valid_and_unique_in_large_space(self):
        cfg = GAConfig(pop_size=10)
        pop = init_population(cfg, SPACE, np.random.default_rng(0))
        assert len(pop) == 10
        keys = [ind.genome.key for ind in pop]
        assert len(set(keys)) == 10
        for ind in pop:
            assert validate_genome(ind.genome, SPACE) == []

    def test_seed_determinism(self):
        cfg = GAConfig(pop_size=10)
        a = init_population(cfg, SPACE, np.random.default_rng(7))
        b = init_population(cfg, SPACE, np.random.default_rng(7))
        assert [i.genome.key for i in a] == [i.genome.key for i in b]

    def test_tiny_space_allows_duplicates(self):
        tiny = SpaceConfig(
            input_shape=(3, 8, 8),
            min_len=1,
            max_len=1,
            channel_choices=(16,),
            kernel_choices=(3,),
            pool_types=("avg",),
        )
        pop = init_population(GAConfig(pop_size=4), tiny, np.random.default_rng(0))
        keys = {ind.genome.key for ind in pop}
        assert len(pop) == 4
        assert len(keys) <= 2  # alphabet holds only C3x16 and Pavg

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            GAConfig(pop_size=3)
        with pytest.raises(ConfigError):
            GAConfig(p_mut=1.5)


class TestTournament:
    def test_higher_fitness_wins(self):
        pop = [
            Individual(genome_from_string("C3x16-C3x16-C3x16"), 0.7),
            Individual(genome_from_string("C5x32-C5x32-C5x32"), 0.9),
        ]
        rng = np.random.default_rng(0)
        for _ in range(50):
            assert tournament_select(pop, rng, SPACE).fitness == 0.9

    def test_tie_prefers_smaller_network(self):
        pop = [
            Individual(genome_from_string("C5x64-C5x64-C5x64"), 0.5),
            Individual(genome_from_string("C3x16-C3x16-C3x16"), 0.5),
        ]
        rng = np.random.default_rng(0)
        for _ in range(50):
            winner = tournament_select(pop, rng, SPACE)
            assert winner.genome.key == "C3x16-C3x16-C3x16"

    def test_selection_probability_of_best(self):
        # best of 4 distinct fitnesses sits in 3 of the C(4,2)=6 pairs
        pop = [
            Individual(genome_from_string("C3x16-C3x16-C3x16"), f)
            for f in (0.2, 0.4, 0.6, 0.8)
        ]
        rng = np.random.default_rng(1)
        n = 20_000
        hits = sum(tournament_select(pop, rng, SPACE).fitness == 0.8 for _ in range(n))
        p_hat = hits / n
        tol = 3.0 * np.sqrt(0.5 * 0.5 / n)
        assert abs(p_hat - 0.5) < tol

    def test_unevaluated_individual_rejected(self):
        pop = [Individual(TARGET), Individual(TARGET)]
        with pytest.raises(ValueError):
            tournament_select(pop, np.random.default_rng(0), SPACE)


class TestCrossover:
    def test_hand_spliced_children(self):
        wide = SpaceConfig(min_len=2, max_len=12)
        p1 = genome_from_string("C3x16-C5x32-Pavg")
        p2 = genome_from_string("C3x64-C5x16")
        rng = _QueuedRng(integers=[1, 1])
        c1, c2 = crossover(p1, p2, wide, rng)
        assert c1.key == "C3x16-C5x16"
        assert c2.key == "C3x64-C5x32-Pavg"

    def test_length_one_parent_passes_through(self):
        p1 = Genome((conv_gene(3, 16),))
        p2 = genome_from_string("C3x64-C5x16-Pavg")
        c1, c2 = crossover(p1, p2, SPACE, np.random.default_rng(0))
        assert c1 is p1 and c2 is p2

    def test_gene_conservation(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p1 = sample_random_genome(SPACE, rng)
            p2 = sample_random_genome(SPACE, rng)
            c1, c2 = crossover(p1, p2, SPACE, rng)
            if c1 is p1:  # repair gave up; parents returned
                continue
            before = sorted(g.token() for g in p1.genes + p2.genes)
            after = sorted(g.token() for g in c1.genes + c2.genes)
            assert before == after
            assert validate_genome(c1, SPACE) == []
            assert validate_genome(c2, SPACE) == []


class TestMutate:
    def test_length_bounds_respected(self):
        rng = np.random.default_rng(4)
        shortest = Genome(tuple(conv_gene(3, 16) for _ in range(SPACE.min_len)))
        for _ in range(200):
            assert len(mutate(shortest, SPACE, rng)) >= SPACE.min_len
        longest = Genome(tuple(conv_gene(3, 16) for _ in range(SPACE.max_len)))
        for _ in range(200):
            assert len(mutate(longest, SPACE, rng)) <= SPACE.max_len

    def test_exchange_swaps_positions(self):
        g = genome_from_string("C3x16-C5x32-Pavg")
        # ops legal at min length: [add, alter, exchange] -> queued index 2
        rng = _QueuedRng(integers=[2], choices=[np.array([0, 2])])
        out = mutate(g, SPACE, rng)
        assert out.key == "Pavg-C5x32-C3x16"

    def test_mutants_always_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            g = sample_random_genome(SPACE, rng)
            m = mutate(g, SPACE, rng)
            assert validate_genome(m, SPACE) == []

    def test_attribute_domains_closed(self):
        rng = np.random.default_rng(6)
        g = genome_from_string("C3x16-Pavg-C5x64")
        for _ in range(200):
            m = mutate(g, SPACE, rng)
            for gene in m.genes:
                if gene.kind == "conv":
                    assert gene.kernel in SPACE.kernel_choices
                    assert gene.channels in SPACE.channel_choices
                else:
                    assert gene.pool in SPACE.pool_types


class TestEnvironmentalSelect:
    def _inds(self, fits):
        return [Individual(TARGET, f) for f in fits]

    def test_elitism_forces_best(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            picked = environmental_select(self._inds([0.9, 0.1]), 1, rng)
            assert picked[0].fitness == 0.9

    def test_first_draw_frequencies_match_fitness(self):
        # exact first-draw law is fitness / sum(fitness)
        fits = np.array([0.5, 0.3, 0.2])
        rng = np.random.default_rng(8)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[roulette_indices(fits, 1, rng)[0]] += 1
        for i, p in enumerate(fits):
            tol = 3.0 * np.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) < tol

    def test_identity_when_pool_equals_n(self):
        pool = self._inds([0.4, 0.2, 0.9, 0.5])
        picked = environmental_select(pool, 4, np.random.default_rng(9))
        assert sorted(id(i) for i in picked) == sorted(id(i) for i in pool)

    def test_all_zero_fitness_falls_back_to_uniform(self):
        pool = self._inds([0.0, 0.0, 0.0, 0.0])
        picked = environmental_select(pool, 2, np.random.default_rng(10))
        assert len(picked) == 2
        assert len({id(i) for i in picked}) == 2

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            environmental_select(self._inds([0.5]), 2, np.random.default_rng(0))
        with pytest.raises(ValueError):
            environmental_select([Individual(TARGET)], 1, np.random.default_rng(0))


def _blob_data(rng, n, shape=(3, 8, 8)):
    """Two classes separated along per-channel DC components."""
    x = (rng.normal(size=(n,) + shape) * 0.1).astype(np.float32)
    y = rng.integers(0, 2, size=n)
    x[y == 1, 0] += 0.8
    x[y == 0, 1] += 0.8
    return x, y


def _centroid_oracle_accuracy(x_train, y_train, x_val, y_val):
    """Closed-form nearest-centroid classifier on flattened inputs."""
    flat_tr = x_train.reshape(len(x_train), -1).astype(np.float64)
    flat_va = x_val.reshape(len(x_val), -1).astype(np.float64)
    mu0 = flat_tr[y_train == 0].mean(axis=0)
    mu1 = flat_tr[y_train == 1].mean(axis=0)
    d0 = ((flat_va - mu0) ** 2).sum(axis=1)
    d1 = ((flat_va - mu1) ** 2).sum(axis=1)
    return ((d1 < d0).astype(int) == y_val).mean()


class TestTrainingEvaluator:
    SMALL = SpaceConfig(
        input_shape=(3, 8, 8), d_rep=16, num_classes=2, min_len=3, max_len=4
    )

    def test_separable_blobs_learned_by_any_genome(self):
        rng = np.random.default_rng(11)
        x_tr, y_tr = _blob_data(rng, 240)
        x_va, y_va = _blob_data(rng, 100)
        # data is linearly separable before trusting the trained number
        assert _centroid_oracle_accuracy(x_tr, y_tr, x_va, y_va) >= 0.99
        ev = TrainingEvaluator(
            self.SMALL, x_tr, y_tr, x_va, y_va, epochs=5, eta=0.1, batch_size=32
        )
        for seed in (0, 1):
            g = sample_random_genome(self.SMALL, np.random.default_rng(seed))
            acc = ev(g, seed=123)
            assert acc >= 0.95
            assert abs(acc * 100 - round(acc * 100)) < 1e-9  # 100-sample val grid

    def test_cache_hit_skips_retraining(self):
        rng = np.random.default_rng(12)
        x_tr, y_tr = _blob_data(rng, 60)
        x_va, y_va = _blob_data(rng, 20)
        ev = TrainingEvaluator(
            self.SMALL, x_tr, y_tr, x_va, y_va, epochs=1, eta=0.1, batch_size=16
        )
        g = sample_random_genome(self.SMALL, np.random.default_rng(3))
        first = ev(g, seed=5)
        ev.cache[(g.key, 5)] = -123.0  # sentinel: a second call must not retrain
        assert ev(g, seed=5) == -123.0
        assert first >= 0.0


def _op_path_to_target(start, target, space):
    """Explicit operator path start -> target; every step is a single Add /
    Remove / Alter outcome that the mutation operator can emit with positive
    probability. Returns all intermediates for validation."""
    path = [start]
    g = start

    def push(new):
        nonlocal g
        g = new
        path.append(g)

    while len(g) > len(target):  # Remove (legal while above min length)
        push(Genome(g.genes[:-1]))
    while len(g) < len(target):  # Add a conv gene (always legal)
        push(Genome(g.genes + (conv_gene(space.kernel_choices[0],
                                         space.channel_choices[0]),)))
    # pool -> conv replacements first so the pool budget only shrinks
    for i in range(len(target)):
        if g.genes[i].kind == "pool" and target.genes[i].kind == "conv":
            push(Genome(g.genes[:i] + (target.genes[i],) + g.genes[i + 1:]))
    for i in range(len(target)):
        mine, want = g.genes[i], target.genes[i]
        if mine == want:
            continue
        if want.kind == "pool" and mine.kind == "conv":
            # Add the pool at i, then Remove the conv shifted to i+1
            push(Genome(g.genes[:i] + (want,) + g.genes[i:]))
            push(Genome(g.genes[:i + 1] + g.genes[i + 2:]))
        elif want.kind == "pool":
            push(Genome(g.genes[:i] + (want,) + g.genes[i + 1:]))  # Alter type
        else:
            if mine.kernel != want.kernel:  # Alter kernel
                push(Genome(g.genes[:i] + (conv_gene(want.kernel, mine.channels),)
                            + g.genes[i + 1:]))
            if g.genes[i].channels != want.channels:  # Alter channels
                push(Genome(g.genes[:i] + (want,) + g.genes[i + 1:]))
    assert g.key == target.key
    return path


class TestRunGA:
    def test_target_reachable_via_operators(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            start = sample_random_genome(SPACE, rng)
            path = _op_path_to_target(start, TARGET, SPACE)
            for genome in path:
                assert validate_genome(genome, SPACE) == []

    def test_finds_hidden_target_and_elitism_monotone(self):
        fit = _target_fitness(TARGET)
        wins = 0
        for seed in range(20):
            cfg = GAConfig(pop_size=10, generations=20, p_cross=0.9, p_mut=1.0)
            res = run_ga(cfg, SPACE, fit, np.random.default_rng(seed))
            best_trace = [rec.best_acc for rec in res.history]
            assert best_trace == sorted(best_trace)  # elitism in every run
            wins += res.best_fitness == 1.0
        assert wins >= 18

    def test_zero_generations_returns_initial_best(self):
        fit = _target_fitness(TARGET)
        cfg = GAConfig(pop_size=10, generations=0)
        rng = np.random.default_rng(21)
        res = run_ga(cfg, SPACE, fit, rng)
        assert len(res.history) == 1
        pop = init_population(GAConfig(pop_size=10), SPACE,
                              np.random.default_rng(21))
        # replay: skip the eval-seed draw, then the same population is sampled
        rng2 = np.random.default_rng(21)
        rng2.integers(2**31 - 1)
        pop = init_population(GAConfig(pop_size=10), SPACE, rng2)
        best = max(fit(ind.genome, 0) for ind in pop)
        assert res.best_fitness == best

    def test_run_determinism_and_trace_bytes(self, tmp_path):
        fit = _target_fitness(TARGET)
        cfg = GAConfig(pop_size=10, generations=5, p_mut=1.0)
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        results = []
        for p in paths:
            res = run_ga(cfg, SPACE, fit, np.random.default_rng(33))
            write_ga_trace(p, res.history)
            results.append(res)
        assert results[0].best_genome.key == results[1].best_genome.key
        a, b = paths[0].read_bytes(), paths[1].read_bytes()
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "gen,best_acc,mean_acc,best_genome"
        assert len(a.decode().splitlines()) == cfg.generations + 2

    def test_history_rows_well_formed(self):
        fit = _target_fitness(TARGET)
        res = run_ga(GAConfig(pop_size=4, generations=3), SPACE, fit,
                     np.random.default_rng(2))
        for rec in res.history:
            assert 0.0 <= rec.mean_acc <= rec.best_acc <= 1.0
            assert validate_genome(genome_from_string(rec.best_genome), SPACE) == []
