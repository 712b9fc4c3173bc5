"""Genetic search over block genomes.

Per-client architecture search: a small population of genomes evolves under
tournament parent selection, single-cut crossover, four structural mutations,
and an environmental-selection step that combines fitness-proportional
(roulette) survival with elitism. Fitness is pluggable: the federated
pipeline trains candidate networks briefly and scores validation accuracy,
while tests can drive the loop with cheap synthetic objectives.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NonFiniteError
from .nn.model import evaluate_accuracy, shuffled_batches, train_plain_sgd
from .records import write_csv
from .space import (
    Genome,
    SpaceConfig,
    conv_gene,
    legal_genes,
    materialize,
    param_count,
    pool_gene,
    sample_random_genome,
    validate_genome,
)

logger = logging.getLogger(__name__)


@dataclass
class Individual:
    genome: Genome
    fitness: float | None = None

    def require_fitness(self) -> float:
        if self.fitness is None:
            raise ValueError(f"individual {self.genome.key} has no fitness yet")
        return self.fitness


@dataclass(frozen=True)
class GAConfig:
    """Knobs for one search run.

    pop_size must be even so crossover pairs tile a generation exactly.
    eval_epochs is forwarded to training-based fitness evaluators.
    """

    pop_size: int = 10
    generations: int = 20
    p_cross: float = 0.9
    p_mut: float = 0.2
    eval_epochs: int = 5

    def __post_init__(self):
        if self.pop_size < 2 or self.pop_size % 2 != 0:
            raise ConfigError(f"pop_size must be even and >= 2, got {self.pop_size}")
        if self.generations < 0:
            raise ConfigError(f"generations must be >= 0, got {self.generations}")
        for name in ("p_cross", "p_mut"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.eval_epochs < 1:
            raise ConfigError(f"eval_epochs must be >= 1, got {self.eval_epochs}")


@dataclass(frozen=True)
class GenerationRecord:
    gen: int
    best_acc: float
    mean_acc: float
    best_genome: str


@dataclass
class GAResult:
    best_genome: Genome
    best_fitness: float
    history: list[GenerationRecord] = field(default_factory=list)


def init_population(cfg: GAConfig, space: SpaceConfig,
                    rng: np.random.Generator) -> list[Individual]:
    """Sample pop_size valid genomes, retrying duplicates a bounded number
    of times before letting them through (tiny spaces can't fill uniquely)."""
    seen: set[str] = set()
    out: list[Individual] = []
    retries = 0
    while len(out) < cfg.pop_size:
        g = sample_random_genome(space, rng)
        if g.key in seen and retries < 100:
            retries += 1
            continue
        seen.add(g.key)
        out.append(Individual(g))
    return out


def tournament_select(pop: list[Individual], rng: np.random.Generator,
                      space: SpaceConfig) -> Individual:
    """Binary tournament: two distinct entrants, higher fitness wins; ties go
    to the smaller network, then to a coin flip."""
    if len(pop) < 2:
        raise ValueError("tournament needs a population of at least 2")
    i, j = rng.choice(len(pop), size=2, replace=False)
    a, b = pop[int(i)], pop[int(j)]
    fa, fb = a.require_fitness(), b.require_fitness()
    if fa != fb:
        return a if fa > fb else b
    pa, pb = param_count(a.genome, space), param_count(b.genome, space)
    if pa != pb:
        return a if pa < pb else b
    return a if rng.random() < 0.5 else b


def crossover(p1: Genome, p2: Genome, space: SpaceConfig,
              rng: np.random.Generator) -> tuple[Genome, Genome]:
    """Single-cut splice: child1 = head(p1) + tail(p2), child2 the mirror.

    Cut points are interior, so a length-1 parent has no legal cut and the
    parents come back unchanged. Invalid children (length or pool-budget
    violations) are re-drawn up to 10 times before giving up likewise.
    """
    if len(p1) < 2 or len(p2) < 2:
        return p1, p2
    for _ in range(10):
        c1 = int(rng.integers(1, len(p1)))
        c2 = int(rng.integers(1, len(p2)))
        child1 = Genome(p1.genes[:c1] + p2.genes[c2:])
        child2 = Genome(p2.genes[:c2] + p1.genes[c1:])
        if not validate_genome(child1, space) and not validate_genome(child2, space):
            return child1, child2
    return p1, p2


def _mutate_add(g: Genome, space: SpaceConfig, rng: np.random.Generator) -> Genome:
    pool = legal_genes(space, g.n_pools())
    gene = pool[int(rng.integers(len(pool)))]
    pos = int(rng.integers(len(g) + 1))
    return Genome(g.genes[:pos] + (gene,) + g.genes[pos:])


def _mutate_remove(g: Genome, space: SpaceConfig, rng: np.random.Generator) -> Genome:
    pos = int(rng.integers(len(g)))
    return Genome(g.genes[:pos] + g.genes[pos + 1:])


def _mutate_alter(g: Genome, space: SpaceConfig, rng: np.random.Generator) -> Genome:
    # one attribute per application: finer-grained local moves than redrawing
    # the whole gene
    pos = int(rng.integers(len(g)))
    old = g.genes[pos]
    if old.kind == "conv":
        if rng.random() < 0.5:
            gene = conv_gene(int(rng.choice(space.kernel_choices)), old.channels)
        else:
            gene = conv_gene(old.kernel, int(rng.choice(space.channel_choices)))
    else:
        gene = pool_gene(str(rng.choice(space.pool_types)))
    return Genome(g.genes[:pos] + (gene,) + g.genes[pos + 1:])


def _mutate_exchange(g: Genome, space: SpaceConfig, rng: np.random.Generator) -> Genome:
    i, j = rng.choice(len(g), size=2, replace=False)
    genes = list(g.genes)
    genes[int(i)], genes[int(j)] = genes[int(j)], genes[int(i)]
    return Genome(tuple(genes))


def mutate(g: Genome, space: SpaceConfig, rng: np.random.Generator) -> Genome:
    """Apply one structural operator chosen uniformly among those legal for
    the genome's current length; retry invalid results, then fall back to
    returning the genome unchanged."""
    ops = []
    if len(g) < space.max_len:
        ops.append(_mutate_add)
    if len(g) > space.min_len:
        ops.append(_mutate_remove)
    ops.append(_mutate_alter)
    if len(g) >= 2:
        ops.append(_mutate_exchange)
    for _ in range(10):
        op = ops[int(rng.integers(len(ops)))]
        child = op(g, space, rng)
        if not validate_genome(child, space):
            return child
    return g


def roulette_indices(fitnesses: np.ndarray, n: int,
                     rng: np.random.Generator) -> list[int]:
    """Sequential fitness-proportional draws without replacement.

    Each draw picks index i with probability fitness_i / sum(remaining);
    once the remaining mass hits zero the leftovers are drawn uniformly.
    Returned in draw order (the first element is the first pick).
    """
    fit = np.asarray(fitnesses, dtype=np.float64)
    if np.any(fit < 0):
        raise ValueError("roulette selection needs non-negative fitnesses")
    remaining = list(range(fit.size))
    picked: list[int] = []
    for _ in range(n):
        weights = fit[remaining]
        total = weights.sum()
        if total <= 0.0:
            k = int(rng.integers(len(remaining)))
        else:
            k = int(rng.choice(len(remaining), p=weights / total))
        picked.append(remaining.pop(k))
    return picked


def environmental_select(pool: list[Individual], n: int,
                         rng: np.random.Generator) -> list[Individual]:
    """Pick the next generation from parents + offspring by roulette, then
    force the pool's best individual in (replacing the weakest pick) if the
    draw missed it."""
    if len(pool) < n:
        raise ValueError(f"pool of {len(pool)} cannot fill a population of {n}")
    fits = np.array([ind.require_fitness() for ind in pool], dtype=np.float64)
    if np.all(fits == 0.0):
        logger.warning("all-zero fitness pool: falling back to uniform selection")
        idx = [int(i) for i in rng.choice(len(pool), size=n, replace=False)]
    else:
        idx = roulette_indices(fits, n, rng)
    best = int(np.argmax(fits))
    if best not in idx:
        weakest = min(range(len(idx)), key=lambda k: fits[idx[k]])
        idx[weakest] = best
    return [pool[i] for i in idx]


class TrainingEvaluator:
    """Fitness = top-1 validation accuracy after a short plain-SGD fit.

    Results are cached by (genome key, seed) so re-evaluating a surviving
    individual is free. A non-finite loss during training is treated as a
    degenerate architecture and scored 0.
    """

    def __init__(self, space: SpaceConfig, x_train, y_train, x_val, y_val, *,
                 epochs: int, eta: float, batch_size: int):
        self.space = space
        self.x_train, self.y_train = x_train, y_train
        self.x_val, self.y_val = x_val, y_val
        self.epochs = epochs
        self.eta = eta
        self.batch_size = batch_size
        self.cache: dict[tuple[str, int], float] = {}

    def __call__(self, genome: Genome, seed: int) -> float:
        key = (genome.key, int(seed))
        if key in self.cache:
            return self.cache[key]
        rng = np.random.default_rng(seed)
        model = materialize(genome, self.space, rng)
        try:
            batches = shuffled_batches(len(self.y_train), self.batch_size,
                                       self.epochs, rng)
            train_plain_sgd(model, self.x_train, self.y_train, batches,
                            eta=self.eta)
            acc, _ = evaluate_accuracy(model, self.x_val, self.y_val)
        except NonFiniteError:
            logger.warning("non-finite loss while scoring %s: fitness set to 0",
                           genome.key)
            acc = 0.0
        self.cache[key] = float(acc)
        return self.cache[key]


def write_ga_trace(path, history: list[GenerationRecord]) -> None:
    write_csv(path, ["gen", "best_acc", "mean_acc", "best_genome"],
              ([rec.gen, f"{rec.best_acc:.6f}", f"{rec.mean_acc:.6f}",
                rec.best_genome] for rec in history))


def run_ga(cfg: GAConfig, space: SpaceConfig, fitness,
           rng: np.random.Generator) -> GAResult:
    """Run the full search loop and return the all-time best genome.

    `fitness` is any callable (genome, seed) -> score in [0, 1]; one shared
    evaluation seed is drawn up front so equal genomes score equally within
    a run. Per-generation records land in `history` (`write_ga_trace`).
    """
    eval_seed = int(rng.integers(2**31 - 1))
    pop = init_population(cfg, space, rng)
    for ind in pop:
        ind.fitness = float(fitness(ind.genome, eval_seed))

    def best_of(group: list[Individual]) -> Individual:
        return max(group, key=lambda ind: ind.require_fitness())

    champion = best_of(pop)
    best_genome, best_fit = champion.genome, champion.require_fitness()
    history: list[GenerationRecord] = []

    def record(gen: int) -> None:
        fits = [ind.require_fitness() for ind in pop]
        history.append(GenerationRecord(gen, best_fit, float(np.mean(fits)),
                                        str(best_genome)))
        logger.debug("gen %d best=%.4f mean=%.4f", gen, best_fit,
                     float(np.mean(fits)))

    record(0)
    for gen in range(1, cfg.generations + 1):
        offspring: list[Individual] = []
        while len(offspring) < cfg.pop_size:
            pa = tournament_select(pop, rng, space)
            pb = tournament_select(pop, rng, space)
            if rng.random() < cfg.p_cross:
                g1, g2 = crossover(pa.genome, pb.genome, space, rng)
            else:
                g1, g2 = pa.genome, pb.genome
            for child in (g1, g2):
                if rng.random() < cfg.p_mut:
                    child = mutate(child, space, rng)
                offspring.append(Individual(child))
        offspring = offspring[:cfg.pop_size]
        for ind in offspring:
            ind.fitness = float(fitness(ind.genome, eval_seed))
        pop = environmental_select(pop + offspring, cfg.pop_size, rng)
        gen_best = best_of(pop)
        if gen_best.require_fitness() > best_fit:
            best_genome, best_fit = gen_best.genome, gen_best.require_fitness()
        record(gen)

    return GAResult(best_genome, best_fit, history)
