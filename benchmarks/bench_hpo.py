"""Kernel timings for the Bayesian hyperparameter search.

Times:

- gp_fit on n = 3, 12 and 35 observations (uniform points in the 4-d unit
  cube, uniform scores): 3 is the largest fit of a desk-search hpo stage,
  35 the last fit of a search of 5 initial trials and 30 iterations, as
  tests/test_hpo.py's test_quadratic_bowl_finds_optimum runs;
- propose_next on desk-search's hpo domain (the first client's 238-sample
  nas_train subset, q in [0.32, 0.34], 2 trial epochs) from a surrogate
  fitted on 3 in-domain trials, at eps = inf (no candidate priced) and at
  eps = 5, delta = 1e-5 (the search's budget), each call with a fresh
  generator so every round proposes from the same pool.

The file name does not match test_*.py, so the tier-1 suite does not
collect it. Run it on one BLAS thread, as the stage benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_hpo.py --benchmark-json out.json

Point PYTHONPATH at another checkout's src to time that version, and
compare runs by each case's `extra_info["scaled_median_s"]`, the median
scaled to the reference host speed (benchmarks/conftest.py).
"""

import math

import numpy as np
import pytest

from fednaslab.hpo import BOSpec, SearchDomain, gp_fit, planned_cost, propose_next

DELTA = 1e-5
# desk-search's hpo section and its first client's search shard
DOMAIN = SearchDomain(BOSpec(k_init=2, n_iter=1, trial_epochs=2,
                             q_range=(0.32, 0.34)), dataset_size=238)


@pytest.mark.parametrize("n", [3, 12, 35])
def test_gp_fit(benchmark, n):
    rng = np.random.default_rng(n)
    x, y = rng.random((n, 4)), rng.random(n)
    benchmark.group = "gp-fit"
    surrogate = benchmark(gp_fit, x, y)
    assert math.isfinite(surrogate.log_marginal_likelihood())


@pytest.mark.parametrize("eps", ["inf", "5"])
def test_propose_next(benchmark, eps):
    budget = float(eps)
    rng = np.random.default_rng(0)
    xs = np.array([DOMAIN.to_unit(DOMAIN.from_unit(rng.random(4)))
                   for _ in range(3)])
    ys = rng.random(3)
    surrogate = gp_fit(xs, ys)

    def fresh_generator():
        return (surrogate, DOMAIN, budget, DELTA, np.random.default_rng(1),
                float(ys.max())), {}

    benchmark.group = "propose-next"
    config = benchmark.pedantic(propose_next, setup=fresh_generator, rounds=20)
    assert planned_cost(config, DOMAIN, DELTA) <= budget
