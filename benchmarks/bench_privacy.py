"""Kernel timings for the RDP accountant.

Times, at the two desk-dp-train shard shapes (q = 32/333 and 32/267, 22
steps, eps = 5, delta = 1e-5):

- calibrate_sigma, starting from empty memos, as a fresh `fednaslab train`
  process does;
- privacy_cost at the calibrated sigma, cold (both memos emptied before
  each call), warm (the curve memoized, the refined cost not, so only the
  refinement runs) and memoized (the refined cost too, as a round's ledger
  read after its plan pre-check finds it);
- privacy_cost_integer_orders over the 257-point sigma grid that brackets
  the calibration.

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


def _clear_memos():
    privacy._grid_curve.cache_clear()
    privacy._refined_cost.cache_clear()


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_calibrate_sigma(benchmark, shard):
    q = SHARDS[shard]
    benchmark.group = f"calibrate-{shard}"
    sigma = benchmark.pedantic(
        calibrate_sigma, args=(q, STEPS, EPS, DELTA),
        setup=_clear_memos, rounds=5,
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
        privacy_cost, args=(dp, STEPS), setup=_clear_memos, rounds=10,
    )
    assert eps <= EPS


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_privacy_cost_warm(benchmark, shard):
    dp = _calibrated(shard)
    privacy_cost(dp, STEPS)
    benchmark.group = f"privacy-cost-{shard}"
    eps = benchmark.pedantic(
        privacy_cost, args=(dp, STEPS),
        setup=privacy._refined_cost.cache_clear, rounds=20,
    )
    assert eps <= EPS


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_privacy_cost_memoized(benchmark, shard):
    dp = _calibrated(shard)
    privacy_cost(dp, STEPS)
    benchmark.group = f"privacy-cost-{shard}"
    assert benchmark(privacy_cost, dp, STEPS) <= EPS


@pytest.mark.parametrize("shard", sorted(SHARDS))
def test_integer_orders_sigma_grid(benchmark, shard):
    sigmas = np.geomspace(0.05, 512.0, 257)
    benchmark.group = f"integer-orders-{shard}"
    eps = benchmark(privacy_cost_integer_orders, SHARDS[shard], sigmas, STEPS, DELTA)
    assert np.isfinite(eps).all()
