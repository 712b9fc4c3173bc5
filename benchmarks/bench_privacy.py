"""Kernel timings for the RDP accountant.

Times, at the two desk-dp-train shard shapes (q = 32/333 and 32/267, 22
steps, eps = 5, delta = 1e-5):

- calibrate_sigma, starting from an empty refined-cost memo, as a fresh
  `fednaslab train` process does;
- privacy_cost at the calibrated sigma, cold (the memo emptied before each
  call, so the grid minimum and the refinement run) and memoized (as a
  round's ledger read after its plan pre-check finds it);
- privacy_cost_integer_orders on the two sigma-grid passes that bracket
  the calibration: the coarse pass over every 16th point of the 257-point
  grid, and the fine pass over the 15 points below the first one the
  coarse pass admits;
- privacy._int_rdp, the packed integer-order pass, at 1 pair (one grid
  minimum) and 32 pairs (one chunk of hpo candidates).

The file name does not match test_*.py, so the tier-1 suite does not
collect it. Run it on one BLAS thread, as the stage benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_privacy.py --benchmark-json out.json

Point PYTHONPATH at another checkout's src to time that version, and
compare runs by each case's `extra_info["scaled_median_s"]`, the median
scaled to the reference host speed (benchmarks/conftest.py).
"""

import numpy as np
import pytest

from fednaslab import privacy
from fednaslab.privacy import (
    DPConfig,
    calibrate_sigma,
    privacy_cost,
    privacy_cost_integer_orders,
)

STEPS = 22
EPS = 5.0
DELTA = 1e-5
# shard name -> sampling rate (batch 32 over the shard)
SHARDS = {"shard333": 32 / 333, "shard267": 32 / 267}
STRIDE = privacy._SIGMA_STRIDE


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_calibrate_sigma(benchmark, shard):
    q = SHARDS[shard]
    benchmark.group = f"calibrate-{shard}"
    sigma = benchmark.pedantic(
        calibrate_sigma, args=(q, STEPS, EPS, DELTA),
        setup=privacy._refined_cost.cache_clear, rounds=5,
    )
    assert privacy_cost(DPConfig(1.0, sigma, q, DELTA), STEPS) <= EPS


def _calibrated(shard):
    q = SHARDS[shard]
    return DPConfig(1.0, calibrate_sigma(q, STEPS, EPS, DELTA), q, DELTA)


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_privacy_cost_cold(benchmark, shard):
    dp = _calibrated(shard)
    benchmark.group = f"privacy-cost-{shard}"
    eps = benchmark.pedantic(
        privacy_cost, args=(dp, STEPS), setup=privacy._refined_cost.cache_clear,
        rounds=10,
    )
    assert eps <= EPS


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_privacy_cost_memoized(benchmark, shard):
    dp = _calibrated(shard)
    privacy_cost(dp, STEPS)
    benchmark.group = f"privacy-cost-{shard}"
    assert benchmark(privacy_cost, dp, STEPS) <= EPS


def _bracket_passes(q):
    """calibrate_sigma's coarse and fine sigma points for the shard."""
    grid = np.geomspace(0.05, 512.0, privacy._SIGMA_GRID)
    coarse = grid[::STRIDE]
    first = int(np.flatnonzero(
        privacy_cost_integer_orders(q, coarse, STEPS, DELTA) <= EPS)[0]) * STRIDE
    return {"coarse": coarse, "fine": grid[first - STRIDE + 1:first]}


@pytest.mark.parametrize("sigma_pass", ["coarse", "fine"])
@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_integer_orders_sigma_pass(benchmark, shard, sigma_pass):
    sigmas = _bracket_passes(SHARDS[shard])[sigma_pass]
    benchmark.group = f"integer-orders-{shard}"
    eps = benchmark(privacy_cost_integer_orders, SHARDS[shard], sigmas, STEPS, DELTA)
    assert np.isfinite(eps).all()


@pytest.mark.parametrize("pairs", [1, 32])
def test_int_rdp(benchmark, pairs):
    rng = np.random.default_rng(pairs)
    qs = rng.uniform(0.01, 0.9, pairs)
    sigmas = rng.uniform(0.5, 5.0, pairs)
    benchmark.group = "int-rdp"
    rdp = benchmark(privacy._int_rdp, qs, sigmas, privacy._INT_ORDER_GRID)
    assert rdp.shape == (pairs, privacy._INT_ORDER_GRID.size)
