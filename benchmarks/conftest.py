"""Host-speed scaling for every kernel benchmark.

The hosts these benchmarks run on share their cores, and a core's speed
swings by a third within seconds, so one kernel's time reads 0.7x to 1.4x
between runs of the same code. Around each benchmark this file times the
fixed numpy kernel parts of perfbench/hostspeed.py (its desk and paper
parts, in thread CPU time), `SAMPLES` times before the benchmark and
`SAMPLES` times after, and turns them into hostspeed.speed_factor's factor:
above 1 when the host ran faster than the reference host, below when
slower. Each benchmark's `extra_info` gets

- `host_speed`: that factor;
- `scaled_median_s`: the benchmark's median times the factor, the median
  the reference host would have measured.

Compare two runs by `scaled_median_s`. The probe adds about 0.1 s to each
benchmark and nothing to its timed rounds.
"""

import importlib.util
import os
import pathlib
import time

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_hostspeed",
    pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "hostspeed.py")
hostspeed = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(hostspeed)

# hostspeed.speed_factor reads the MIN_SAMPLES samples nearest the interval
# on each core, so both sides of it hold that many
SAMPLES = hostspeed.MIN_SAMPLES


@pytest.fixture(scope="session")
def kernel_inputs():
    """The probe's own inputs, with the kernel run once untimed so that no
    sample pays numpy's first-call set-up."""
    rng = np.random.default_rng(0)
    small = rng.standard_normal((4, 64, 8, 8)).astype(np.float32)
    large = rng.standard_normal((4, 64, 32, 32)).astype(np.float32)
    w = rng.standard_normal((64, 64)).astype(np.float32)
    _sample((small, large, w))
    return small, large, w


def _sample(inputs) -> tuple:
    """(cpu, start, end, desk_cpu_s, paper_cpu_s), as the probe writes it."""
    small, large, w = inputs
    t0, c0 = time.monotonic(), time.thread_time()
    hostspeed._desk_part(small, w)
    c1 = time.thread_time()
    hostspeed._paper_part(large, w)
    c2, t1 = time.thread_time(), time.monotonic()
    cpu = hostspeed.current_cpu(os.getpid())
    return (0 if cpu is None else cpu, t0, t1, c1 - c0, c2 - c1)


@pytest.fixture(autouse=True)
def host_speed(request):
    if "benchmark" not in request.fixturenames:
        yield
        return
    benchmark = request.getfixturevalue("benchmark")
    inputs = request.getfixturevalue("kernel_inputs")
    samples = [_sample(inputs) for _ in range(SAMPLES)]
    start = time.monotonic()
    yield
    end = time.monotonic()
    samples += [_sample(inputs) for _ in range(SAMPLES)]
    if benchmark.stats is None:
        return
    factor = hostspeed.speed_factor(samples, [], start, end)
    benchmark.extra_info["host_speed"] = factor
    benchmark.extra_info["scaled_median_s"] = benchmark.stats.stats.median * factor
