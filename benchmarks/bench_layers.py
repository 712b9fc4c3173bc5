"""Kernel timings for the layers of the DP training path and the decoder.

Times forward and backward of DepthwiseConv (kernels 3 and 5),
PointwiseConv, PerSampleNorm, TransposeConv, AvgPool, Linear and ConvBlock
at desk shape (n=32, 8x8 maps) and paper shape (n=64, 32x32 maps), float32.
The "stem" cases and ConvBlock(32, 64, 3) are the shapes the default genome
C3x32-C3x64-Pavg runs at paper shape: the first block's depthwise conv on
the 3 image channels and its norm over 32 channels, and the second block
whole, so its in-place residual add and ReLU show in a kernel time.
The "cut" cases are the 4-row cuts that nn.model.batch_cuts makes of a
B=64 paper batch, next to the same layer at the full batch ("block"/"paper"):
the second block's depthwise conv of the default genome (32 channels, k3)
and of C5x64-C5x64-Pavg-C5x64 (64 channels, k5). 16 cut calls do the work of
one full-batch call.
TransposeConv takes the half-side input whose output has that side, as in
the inversion decoder; Linear is the adaptation layer after global pooling
(desk 64 -> d_rep 16, paper 64 -> d_rep 128). test_backward times the
per-sample mode that DP-SGD runs; test_backward_plain times the plain mode
(per_sample=False) that every other training path runs, for the
parameterized layers at desk shape and at the 4-row paper cut, in the same
benchmark group as the per-sample case. The file name does not match
test_*.py, so the tier-1 suite does not collect it. Run it on one BLAS thread, as the stage
benchmark does:

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python -m pytest benchmarks/bench_layers.py --benchmark-json out.json

Point PYTHONPATH at another checkout's src to time that version, and
compare runs by each case's `extra_info["scaled_median_s"]`, the median
scaled to the reference host speed (benchmarks/conftest.py).
"""

import numpy as np
import pytest

from fednaslab.nn.layers import (
    AvgPool,
    ConvBlock,
    DepthwiseConv,
    Linear,
    PerSampleNorm,
    PointwiseConv,
    TransposeConv,
)

# name -> (layer factory, input shape)
CASES = {
    "depthwise3-desk": (lambda: DepthwiseConv(32, 3), (32, 32, 8, 8)),
    "depthwise3-paper": (lambda: DepthwiseConv(64, 3), (64, 64, 32, 32)),
    "depthwise5-desk": (lambda: DepthwiseConv(32, 5), (32, 32, 8, 8)),
    "depthwise5-paper": (lambda: DepthwiseConv(64, 5), (64, 64, 32, 32)),
    "depthwise3-stem-paper": (lambda: DepthwiseConv(3, 3), (64, 3, 32, 32)),
    "depthwise3-block-paper": (lambda: DepthwiseConv(32, 3), (64, 32, 32, 32)),
    "depthwise3-block-cut": (lambda: DepthwiseConv(32, 3), (4, 32, 32, 32)),
    "depthwise5-cut": (lambda: DepthwiseConv(64, 5), (4, 64, 32, 32)),
    "norm-desk": (lambda: PerSampleNorm(32), (32, 32, 8, 8)),
    "norm-paper": (lambda: PerSampleNorm(64), (64, 64, 32, 32)),
    "norm-stem-paper": (lambda: PerSampleNorm(32), (64, 32, 32, 32)),
    "convblock-desk": (lambda: ConvBlock(32, 64, 3), (32, 32, 8, 8)),
    "convblock-paper": (lambda: ConvBlock(32, 64, 3), (64, 32, 32, 32)),
    "linear-desk": (lambda: Linear(64, 16), (32, 64)),
    "linear-paper": (lambda: Linear(64, 128), (64, 64)),
    "linear-cut": (lambda: Linear(64, 128), (4, 64)),
    "pointwise-desk": (lambda: PointwiseConv(32, 64), (32, 32, 8, 8)),
    "pointwise-paper": (lambda: PointwiseConv(32, 64), (64, 32, 32, 32)),
    "pointwise-cut": (lambda: PointwiseConv(32, 64), (4, 32, 32, 32)),
    "transpose-desk": (lambda: TransposeConv(32, 16), (32, 32, 4, 4)),
    "transpose-paper": (lambda: TransposeConv(32, 16), (64, 32, 16, 16)),
    "transpose-cut": (lambda: TransposeConv(32, 16), (4, 32, 16, 16)),
    "avgpool-desk": (AvgPool, (32, 64, 8, 8)),
    "avgpool-paper": (AvgPool, (64, 64, 32, 32)),
}
PLAIN_CASES = [
    "depthwise3-desk", "depthwise5-desk", "depthwise3-block-cut", "depthwise5-cut",
    "pointwise-desk", "pointwise-cut", "linear-desk", "linear-cut",
    "transpose-desk", "transpose-cut",
]


def _setup(case):
    make, shape = CASES[case]
    rng = np.random.default_rng(0)
    layer = make()
    layer.init_params(rng)
    x = rng.normal(size=shape).astype(np.float32)
    y, cache = layer.forward(x)
    gout = rng.normal(size=y.shape).astype(np.float32)
    return layer, x, cache, gout


@pytest.mark.parametrize("case", sorted(CASES))
def test_forward(benchmark, case):
    layer, x, _, _ = _setup(case)
    benchmark.group = case
    y, _ = benchmark(layer.forward, x)
    assert np.isfinite(y).all()


@pytest.mark.parametrize("case", sorted(CASES))
def test_backward(benchmark, case):
    layer, _, cache, gout = _setup(case)
    benchmark.group = case
    gin, psg = benchmark(layer.backward, gout, cache)
    assert np.isfinite(gin).all()
    assert all(p.shape[0] == gout.shape[0] for p in psg)


@pytest.mark.parametrize("case", PLAIN_CASES)
def test_backward_plain(benchmark, case):
    layer, _, cache, gout = _setup(case)
    benchmark.group = case
    gin, sums = benchmark(layer.backward, gout, cache, False)
    assert np.isfinite(gin).all()
    assert [g.shape for g in sums] == [(layer.n_params,)]
