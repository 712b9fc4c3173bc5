"""Kernel timings and memory peaks for the evaluation forward and the
per-sample gradients.

Times Model.forward_bottom for the default genome C3x32-C3x64-Pavg at desk
shape (3x8x8 images, d_rep 16) and paper shape (3x32x32 images, d_rep 128)
with n = 512 and 1024 samples, and evaluate_accuracy at desk shape. This is
the forward that representation emission, accuracy, the round's loss and
the inversion probe's auxiliary set all run. It also times
loss_and_per_sample_grads on one B=64 paper batch for the default genome
and C5x64-C5x64-Pavg-C5x64: the per-sample gradients of one DP step; and
privacy.dp_sgd_step for the default genome on the 77-row batch of a
desk-search hpo trial and on one B=64 paper batch: those gradients, then
their clipped, noised sum. Each case also stores the tracemalloc peak of
one untimed call, in MiB, under `extra_info["tracemalloc_peak_mib"]`.
With paper batches run in 4-row cuts (nn.model.batch_cuts), the
paper-shape forward peaks at 5.6-5.9 MiB at n = 512 and 1024 (830 MiB with
the former 512-row cuts), and the per-sample gradients at 12.2 MiB and
18.8 MiB (140 MiB and 209 MiB uncut). The DP step peaks at 10.8 MiB at
desk shape and 12.2 MiB at paper shape. Before ConvBlock freed the
activations no cache holds, the forward peaked at 6.8-7.1 MiB and the
per-sample gradients at 13.4 and 19.4 MiB.
With every evaluation input run in cuts, 64 rows at desk shape, the
desk-shape forward peaks at 5.6 MiB at n = 512 and 1024 (6.6 MiB before
ConvBlock freed its spent activations); when inputs of
at most 512 KiB ran whole it peaked at 52.5 MiB at n = 512 (and 34.2 MiB
on a 333-row desk shard, 43.8 MiB on a 27-row paper test set).

The file name does not match test_*.py, so the tier-1 suite does not
run its cases; tests/test_imports.py only imports it. Run it on one BLAS
thread, as the stage benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_eval.py --benchmark-json out.json

Point PYTHONPATH at another checkout's src to time that version, and
compare runs by each case's `extra_info["scaled_median_s"]`, the median
scaled to the reference host speed (benchmarks/conftest.py).

That scaling does not steady these cases. Across four runs of the same
forward_bottom code on a shared 2-core host, `scaled_median_s` read 56 to
105 ms at desk-1024 and 600 to 1205 ms at paper-1024, so a kernel gain
under about 2x cannot be read from one run of 5 rounds. The tracemalloc
peaks repeated exactly; compare those.
"""

import tracemalloc

import numpy as np
import pytest

from fednaslab.nn.model import evaluate_accuracy, loss_and_per_sample_grads
from fednaslab.privacy import DPConfig, PrivacyLedger, dp_sgd_step
from fednaslab.space import SpaceConfig, genome_from_string, materialize

GENOME = "C3x32-C3x64-Pavg"
SPACES = {
    "desk": SpaceConfig(input_shape=(3, 8, 8), d_rep=16),
    "paper": SpaceConfig(input_shape=(3, 32, 32), d_rep=128),
}


def _setup(shape, n, genome=GENOME):
    space = SPACES[shape]
    rng = np.random.default_rng(0)
    model = materialize(genome_from_string(genome), space, rng)
    x = rng.normal(size=(n, *space.input_shape)).astype(np.float32)
    y = rng.integers(0, space.num_classes, size=n)
    return model, x, y


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("shape", ["desk", "paper"])
def test_forward_bottom(benchmark, shape, n):
    model, x, _ = _setup(shape, n)
    benchmark.group = f"forward_bottom-{shape}"
    benchmark.extra_info["tracemalloc_peak_mib"] = _peak_mib(model.forward_bottom, x)
    z = benchmark.pedantic(model.forward_bottom, (x,), rounds=5, iterations=1,
                           warmup_rounds=1)
    assert z.shape == (n, SPACES[shape].d_rep)


@pytest.mark.parametrize("n", [512, 1024])
def test_evaluate_accuracy(benchmark, n):
    model, x, y = _setup("desk", n)
    benchmark.group = "evaluate_accuracy-desk"
    benchmark.extra_info["tracemalloc_peak_mib"] = _peak_mib(
        evaluate_accuracy, model, x, y)
    # a float at checkouts before it also returned the loss
    scores = benchmark.pedantic(evaluate_accuracy, (model, x, y), rounds=5,
                                iterations=1, warmup_rounds=1)
    assert np.isfinite(scores).all()


@pytest.mark.parametrize("genome", [GENOME, "C5x64-C5x64-Pavg-C5x64"])
def test_loss_and_per_sample_grads(benchmark, genome):
    model, x, y = _setup("paper", 64, genome)
    benchmark.group = f"loss_and_per_sample_grads-paper-{genome}"
    benchmark.extra_info["tracemalloc_peak_mib"] = _peak_mib(
        loss_and_per_sample_grads, model, x, y)
    _, psg, _ = benchmark.pedantic(loss_and_per_sample_grads, (model, x, y),
                                   rounds=5, iterations=1, warmup_rounds=1)
    assert sum(p.shape[1] for p in psg) == model.n_params


@pytest.mark.parametrize("shape,batch", [("desk", 77), ("paper", 64)])
def test_dp_sgd_step(benchmark, shape, batch):
    model, x, y = _setup(shape, batch)
    ledger = PrivacyLedger(DPConfig(1.0, 1.0, 0.1, 1e-5))
    rng = np.random.default_rng(1)
    benchmark.group = f"dp_sgd_step-{shape}-{batch}"
    benchmark.extra_info["tracemalloc_peak_mib"] = _peak_mib(
        dp_sgd_step, model, x, y, ledger, 0.01, rng)
    loss = benchmark.pedantic(dp_sgd_step, (model, x, y, ledger, 0.01, rng),
                              rounds=20 if shape == "desk" else 5, iterations=1,
                              warmup_rounds=1)
    assert np.isfinite(loss)
