"""Differentially private SGD and Renyi-divergence accounting.

The accountant computes the Renyi divergence of the subsampled Gaussian
mechanism per step (exact binomial sum at integer orders, a stable
log-space series with Gaussian-tail terms at fractional orders), composes
linearly over steps, and converts to (eps, delta) by minimizing over
orders. The fixed order grid {1.25, 1.5, ..., 64} is reported, and the
conversion refines the minimizing order continuously between the best grid
order's neighbors so the returned eps is not quantized by the grid.

The conversion prices only the grid orders that can hold its minimum: all
63 integer orders, in one packed pass, and the fractional orders that a
convexity lower bound from the integer orders cannot rule out (see
`_grid_eps`), typically 4 of the 190. The minimum and its order are those
of the full grid, bit for bit. The refined cost is memoized per (q, sigma,
delta, steps) point in a bounded LRU cache: a round's plan pre-check at
steps + k and the ledger read after those k steps ask for the same point,
and refine it once.

The package imports no scipy at run time; scipy's import was most of every
command's start-up. Each scipy call the accountant made has a numpy or
`math` replacement here, checked against scipy in tests/test_privacy.py:

- scipy.optimize.brentq and minimize_scalar(method="bounded"): `_brentq`
  (Zeros/brentq.c) and `_minimize_bounded` (_minimize_scalar_bounded) are
  ported operation for operation and return the same floats.
- scipy.special.gammaln for the integer orders' binomials: log C(a, i) from
  the exact `math.comb` up to order 64, from `math.lgamma` above; the table
  is within 1e-13 of gammaln.
- gammaln and gammasgn in the fractional-order series: |binom(alpha, i)| by
  its ratio recurrence and its sign by parity (see `_log_a_frac_vec`). log A
  is within rtol 1e-10 (atol 1e-15 where log A is near 0) of the scipy
  series, and closer than it to a 30-digit sum where gammaln's cancellation
  parts them.
- scipy.special.log_ndtr: `_log_ndtr`, within rtol 1e-15 and atol 5e-16 of
  it on [-1e4, 40].

Batches are drawn uniformly without replacement but accounted with the
subsampled (Poisson-style) bound, the standard approximation in DP-SGD
implementations.

Every DP-SGD run (a client's `train` rounds or one `hpo` trial) runs under
a PrivacyLedger of its mechanism, budget and step count, which
`hpo.HyperConfig.mechanism` builds from the run's recipe. The ledger is a DP
step's only handle: the step reads the mechanism from it and charges itself
to it. A client's ledger covers its local DP-SGD steps only. The
representations and labels a client uploads are computed from its raw
samples (z_i = f(theta, x_i) reads x_i directly), so they and the server's
head training on them are released outside the ledger's guarantee.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhaustedError, InfeasibleError, NonFiniteError
from .nn.model import apply_update, drawn_batches, loss_and_per_sample_grads

DEFAULT_ORDERS = np.arange(1.25, 64.0 + 1e-9, 0.25)

# sentinel step allowance for an infinite budget
STEP_CAP = 10_000_000

# refinement may extend past the grid when the minimizer sits on the edge
_MAX_ORDER = 8192.0

_INT_TOL = 1e-9


@dataclass(frozen=True)
class DPConfig:
    """Per-step mechanism parameters: clip norm C, noise multiplier sigma,
    sampling rate q, and the delta used for conversion."""

    clip_norm: float
    noise_multiplier: float
    sampling_rate: float
    delta: float

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not (0.0 < self.sampling_rate <= 1.0):
            raise ValueError(f"sampling_rate must be in (0, 1], got {self.sampling_rate}")
        if not (0.0 < self.clip_norm < math.inf):
            raise ValueError(f"clip_norm must be positive and finite, got {self.clip_norm}")
        if not (0.0 <= self.noise_multiplier < math.inf):
            raise ValueError(
                f"noise_multiplier must be >= 0 and finite, got {self.noise_multiplier}")
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


_INT_ORDER_GRID = np.arange(2, 65, dtype=np.float64)
# log C(a, i) from the exact integers, for the grid's orders 2..64
_INT_LOGBINOM = {
    a: np.array([math.log(math.comb(a, i)) for i in range(a + 1)])
    for a in range(2, 65)
}


class _Packing:
    """The binomial terms of integer orders laid end to end: order a's
    slice (`slices`, first slot in `starts`) holds i = 0..a with
    log C(a, i), a - i and i^2 - i. Coefficients above order 64 (refinement
    past the grid's right edge) come from math.lgamma, not the table."""

    def __init__(self, orders):
        logs = []
        for a in orders:
            log_binom = _INT_LOGBINOM.get(a)
            if log_binom is None:
                log_fact = np.array([math.lgamma(k + 1.0) for k in range(a + 1)])
                log_binom = log_fact[a] - log_fact - log_fact[::-1]
            logs.append(log_binom)
        self.sizes = np.array(orders) + 1
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.slices = [slice(start, start + size)
                       for start, size in zip(self.starts.tolist(), self.sizes.tolist())]
        # the order (column of a [pairs, orders] array) each slot belongs to
        self.owner = np.repeat(np.arange(self.sizes.size), self.sizes)
        self.i = np.concatenate([np.arange(a + 1.0) for a in orders])
        self.a_minus_i = np.repeat(np.array(orders, dtype=np.float64), self.sizes) - self.i
        self.i2_minus_i = self.i * self.i - self.i
        self.log_binom = np.concatenate(logs)


_GRID_PACKING = _Packing(range(2, 65))

# pairs per block of the packed pass: 16 x 2,142 terms keeps each of its
# two temporaries near 270 KB, whatever the number of pairs
_PAIR_BLOCK = 16


def _log_a_packed(lq: np.ndarray, l1q: np.ndarray, inv2s2: np.ndarray,
                  packing: _Packing) -> np.ndarray:
    """log E[(mu/mu0)^a] at each packed integer order a >= 2 via the exact
    binomial sum, as a [pairs, orders] array.

    lq, l1q and inv2s2 are log(q), log(1 - q) and 1 / (2 sigma^2) of each
    (q, sigma) pair, 0 < q < 1. Every order's terms come from one packed
    pass per block of pairs; the max over a slice is exact whatever order
    it takes, and each slice is summed on its own, so every value has the
    bits of a per-order log-sum-exp."""
    out = np.empty((lq.size, packing.sizes.size))
    for lo in range(0, lq.size, _PAIR_BLOCK):
        rows = slice(lo, lo + _PAIR_BLOCK)
        # two block-sized arrays, updated in place: the terms sum left to
        # right, log C + i log q + (a - i) log(1 - q) + (i^2 - i) / (2 sigma^2)
        terms = packing.i * lq[rows, None]
        np.add(packing.log_binom, terms, out=terms)
        part = packing.a_minus_i * l1q[rows, None]
        terms += part
        np.multiply(packing.i2_minus_i, inv2s2[rows, None], out=part)
        terms += part
        peak = np.maximum.reduceat(terms, packing.starts, axis=1)
        terms -= np.take(peak, packing.owner, axis=1, out=part, mode="clip")
        np.exp(terms, out=terms)
        sums = np.empty_like(peak)
        for k, order in enumerate(packing.slices):
            np.add.reduce(terms[:, order], axis=1, out=sums[:, k])
        out[rows] = peak + np.log(sums)
    return out


# log Phi takes the asymptotic series below _NDTR_LOW, where Phi nears the
# bottom of the float range, and math.erfc above it
_NDTR_LOW = -26.0
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# (-1)^k (2k - 1)!!, highest k first: the Mills-ratio series
# -x Phi(x) / phi(x) ~ sum_k c_k x^-2k, whose first omitted term is below
# 2e-18 at -26
_MILLS = tuple(float((-1) ** k * math.prod(range(1, 2 * k, 2))) for k in range(8, -1, -1))


def _log_ndtr(x) -> np.ndarray:
    """log Phi(x), the log of the standard normal CDF, elementwise.

    Above _NDTR_LOW it is log Phi(x) for x <= 0 and log1p(-Phi(-x)) for
    x > 0, from Phi(-|x|) = erfc(|x| / sqrt 2) / 2; math.erfc takes one
    element at a time, so callers pass the fewest distinct arguments they
    can. Below, it is the Mills-ratio series, vectorized."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)
    band = x >= _NDTR_LOW
    r = x[band]
    tail = 0.5 * np.fromiter(map(math.erfc, (np.abs(r) * math.sqrt(0.5)).tolist()),
                             np.float64, r.size)
    log_phi = np.log1p(-tail)
    np.log(tail, out=log_phi, where=r <= 0.0)
    out[band] = log_phi
    r = x[~band]
    t = 1.0 / (r * r)
    series = _MILLS[0] * t + _MILLS[1]
    for c in _MILLS[2:]:
        series *= t
        series += c
    out[~band] = np.log(series) - np.log(-r) - 0.5 * r * r - _HALF_LOG_2PI
    return out


def _log_a_frac_vec(q: float, sigma: float, alphas: np.ndarray) -> np.ndarray:
    """log E[(mu/mu0)^alpha] for non-integer alphas, vectorized over orders.

    Series terms are accumulated in log space with signed buckets, in
    geometrically growing blocks of the series index i (the quadratic and
    linear index terms cancel exactly in the tail, leaving a polynomial
    decay that can need tens of thousands of terms at small orders).
    Because A >= 1, truncating once a block's final term sits 30 nats below
    both zero and the accumulated total leaves a negligible remainder; the
    relative guard also protects regimes where terms start tiny and rise.

    |binom(alpha, i)| follows the ratio recurrence: its log is a running sum
    of log|alpha - i| - log(i + 1), and it is negative where Gamma(j + 1) is,
    j = alpha - i. Every term that depends on j (log|j|, its sign, the
    Gaussian tail log Phi((j - z0) / sigma)) takes the same values for all
    orders with one fractional part, shifted by floor(alpha): so each block
    evaluates them once per fractional part, on j = top - k for the part's
    largest order top, and each order reads its window k = i + (top - alpha).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.size
    if n == 0:
        return np.zeros(0)
    z0 = sigma * sigma * math.log(1.0 / q - 1.0) + 0.5
    lq, l1q = math.log(q), math.log1p(-q)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    whole = np.floor(alphas)
    # alpha - floor(alpha) is exact, so orders of one part share it exactly
    frac = alphas - whole
    if n == 1:
        # a refinement probe: one order is its own part
        fracs, group, top = frac, np.zeros(1, dtype=np.intp), whole
    else:
        fracs, group = np.unique(frac, return_inverse=True)
        top = np.zeros(fracs.size)
        np.maximum.at(top, group, whole)
    shift = (top[group] - whole).astype(np.intp)
    span = int(shift.max())
    # top + frac is the part's largest order, and top + frac - k rounds to
    # the same float as alpha - i
    top_alpha = (top + fracs)[:, None]
    top = top[:, None]
    # log|binom(alpha, i)| at the block's first i, then the running sum
    coef = np.zeros((n, 1))
    # per order and branch: the log sums of the positive terms, then of the
    # negative ones
    acc = np.full((n, 2, 2), -np.inf)
    active = np.arange(n)
    i_start = 0
    block = 64
    with np.errstate(divide="ignore", invalid="ignore"):
        while active.size:
            if i_start > 2_000_000:
                raise InfeasibleError(
                    f"accountant series failed to converge (q={q}, sigma={sigma})"
                )
            k = np.arange(i_start, i_start + block + span, dtype=np.float64)
            i = k[:block]
            # the parts' runs of j, then the block's i: one branch's j-terms
            # are the other's i-terms with the tail's argument negated
            x = np.concatenate([(top_alpha - k).ravel(), i])
            gap = (x - z0) / sigma
            gap[-block:] *= -1.0
            runs = np.empty((5, x.size))
            np.log(np.abs(x), out=runs[0])
            np.multiply(x, l1q, out=runs[1])
            runs[2] = x * lq + (x * x - x) * inv2s2 + _log_ndtr(gap)
            # the sign masks: binom(alpha, i) < 0 where Gamma(j + 1) < 0,
            # j + 1 in (-1, 0), (-3, -2), ...
            past = k - top
            runs[4, :-block] = ((past >= 2.0) & (past % 2.0 == 0.0)).ravel()
            runs[3] = 1.0 - runs[4]
            window = (group[active] * k.size + shift[active])[:, None] + np.arange(block)
            terms = np.take(runs, window, axis=1)
            # the running sum over [carry, log|j| - log(i + 1), ...]
            running = np.empty((active.size, block + 1))
            running[:, :1] = coef[active]
            np.subtract(terms[0], np.log1p(i), out=running[:, 1:])
            np.cumsum(running, axis=1, out=running)
            coef[active] = running[:, -1:]
            log_s = terms[1:3]
            log_s += running[:, :-1]
            log_s[0] += runs[2, -block:]
            log_s[1] += runs[1, -block:]
            peak = log_s.max(axis=2).T[:, :, None]
            scaled = np.exp(log_s.transpose(1, 0, 2) - peak)
            # (order, branch, sign) sums of the scaled terms
            sums = np.matmul(scaled, terms[3:].transpose(1, 2, 0))
            updated = np.logaddexp(acc[active], np.log(sums) + peak)
            acc[active] = updated
            last = log_s[:, :, -1].max(axis=0)
            done = last < np.minimum(updated[:, :, 0].max(axis=1), 0.0) - 30.0
            active = active[~done]
            i_start += block
            block = min(block * 2, 8192)
        # log(e^pos - e^neg) per branch; positives dominate
        pos, neg = acc[:, :, 0], acc[:, :, 1]
        signed = pos + np.log1p(-np.exp(np.minimum(neg - pos, 0.0)))
    signed = np.where(np.isneginf(neg), pos, signed)
    return np.logaddexp(signed[:, 0], signed[:, 1])


def rdp_orders(dp: DPConfig, orders=None) -> np.ndarray:
    """Per-step Renyi divergence at each order (DEFAULT_ORDERS without
    `orders`), as a new array."""
    orders = DEFAULT_ORDERS if orders is None else np.asarray(orders, dtype=np.float64)
    return _rdp(dp.sampling_rate, dp.noise_multiplier, orders)


def _rdp(q: float, sigma: float, orders: np.ndarray) -> np.ndarray:
    if sigma == 0:
        return np.full(orders.shape, np.inf)
    if q == 1.0:
        return orders / (2.0 * sigma * sigma)
    out = np.empty(orders.shape, dtype=np.float64)
    near = np.round(orders)
    is_int = (np.abs(orders - near) < _INT_TOL) & (near >= 2)
    if is_int.any():
        out[is_int] = _int_rdp(np.array([q]), np.array([sigma]), orders[is_int])[0]
    if not is_int.all():
        frac = orders[~is_int]
        # the moment E[(mu/mu0)^alpha] is >= 1, so the divergence is
        # nonnegative; clamp away truncation-level negatives
        out[~is_int] = np.maximum(_log_a_frac_vec(q, sigma, frac) / (frac - 1.0), 0.0)
    return out


def _int_rdp(qs: np.ndarray, sigmas: np.ndarray, orders: np.ndarray) -> np.ndarray:
    """Per-step Renyi divergence of each (q, sigma) pair at integer orders
    >= 2, as a [pairs, orders] array: inf at sigma = 0, a / (2 sigma^2) at
    q = 1, and the exact binomial sum of `_log_a_packed` below that,
    clamped at 0. Each order divides by its float value minus 1, so an
    order within _INT_TOL of an integer keeps its own bits."""
    out = np.full((qs.size, orders.size), np.inf)
    full = (sigmas > 0.0) & (qs >= 1.0)
    out[full] = orders / (2.0 * sigmas[full, None] ** 2)
    sub = (sigmas > 0.0) & (qs < 1.0)
    if sub.any():
        whole = [int(round(a)) for a in orders]
        packing = _GRID_PACKING if whole == list(range(2, 65)) else _Packing(whole)
        lq, l1q = np.log(qs[sub]), np.log1p(-qs[sub])
        inv2s2 = 1.0 / (2.0 * sigmas[sub] ** 2)
        out[sub] = _log_a_packed(lq, l1q, inv2s2, packing) / (orders - 1.0)
    return np.maximum(out, 0.0)


def privacy_cost_integer_orders(qs, sigmas, steps, delta: float) -> np.ndarray:
    """Vectorized epsilon over the integer-order subgrid {2, ..., 64}.

    Minimizing over a subset of the order grid can only raise the result, so
    this upper-bounds privacy_cost at the same arguments: admitting a config
    by this bound is always safe. Integer orders avoid the slow alternating
    series entirely (exact all-positive binomial sums with precomputed
    coefficients), which makes scoring ~1000 candidate configs at once cheap
    enough for acquisition-time feasibility filtering.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    qs, sigmas, steps = np.broadcast_arrays(
        np.asarray(qs, dtype=np.float64),
        np.asarray(sigmas, dtype=np.float64),
        np.asarray(steps, dtype=np.float64),
    )
    if not np.all((qs > 0.0) & (qs <= 1.0)):
        raise ValueError("sampling rates must lie in (0, 1]")
    if not (np.all(sigmas >= 0.0) and np.all(steps >= 0.0)):
        raise ValueError("sigma and steps must be non-negative")
    eps = np.where(steps == 0.0, 0.0, np.inf)
    live = steps > 0.0
    rdp = _int_rdp(qs[live], sigmas[live], _INT_ORDER_GRID)
    eps[live] = (steps[live, None] * rdp
                 + math.log(1.0 / delta) / (_INT_ORDER_GRID - 1.0)).min(axis=1)
    return eps


def privacy_cost(dp: DPConfig, steps: int) -> float:
    """(eps, delta)-cost of `steps` compositions of the mechanism.

    Composition is linear in the Renyi domain; conversion takes
    min over orders of [steps * rdp(order) + ln(1/delta) / (order - 1)],
    first on DEFAULT_ORDERS and then continuously between the best grid
    order's neighbors, so the result never exceeds the grid-only value.
    The grid minimum prices the integer orders and only the fractional
    orders a convexity bound leaves in contention (`_grid_eps`); it is the
    full grid's minimum at the full grid's order.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return 0.0
    if dp.noise_multiplier == 0:
        return math.inf
    return _refined_cost(float(dp.sampling_rate), float(dp.noise_multiplier),
                         float(dp.delta), steps)


# DEFAULT_ORDERS' integer orders 2..64 and its fractional ones, each
# fractional order alpha with the integer k below it
_INT_AT = np.flatnonzero(DEFAULT_ORDERS % 1.0 == 0.0)
_FRAC_AT = np.flatnonzero(DEFAULT_ORDERS % 1.0 != 0.0)
_FRAC_K = np.floor(DEFAULT_ORDERS[_FRAC_AT]).astype(np.intp)
_FRAC_UP = DEFAULT_ORDERS[_FRAC_AT] - _FRAC_K

# a fractional order is priced unless its lower bound clears the best
# integer-order eps by this relative margin, which covers the rounding of
# the bound and the series' truncation
_PRUNE_RTOL = 1e-9

# one entry is a float and its key; the bound keeps a long search over many
# (q, sigma, delta, steps) points from growing the process without limit
_COST_CACHE_SIZE = 256


def _grid_eps(q: float, sigma: float, log_inv_delta: float, steps: int) -> np.ndarray:
    """eps on DEFAULT_ORDERS where it can be the grid minimum, inf where a
    lower bound shows it cannot.

    The integer orders are always priced. The log-moment f(alpha) = (alpha
    - 1) rdp(alpha) is convex in alpha with f(1) = 0, so on (k, k + 1) it
    lies above the secants through (k - 1, k) and through (k + 1, k + 2),
    extended; a fractional order is priced only when that bound leaves its
    eps within _PRUNE_RTOL of the best integer-order eps. Each priced value
    has the bits the full-grid curve gives it, so the argmin and the
    minimum are the full grid's."""
    eps = np.full(DEFAULT_ORDERS.size, np.inf)
    rdp = _rdp(q, sigma, _INT_ORDER_GRID)
    eps[_INT_AT] = steps * rdp + log_inv_delta / (_INT_ORDER_GRID - 1.0)
    # f at orders 0..64 (order 0 unused) and the secant slopes between
    # orders j and j + 1, -inf and inf past the ends so no bound is taken
    f = np.concatenate(([np.nan, 0.0], rdp * (_INT_ORDER_GRID - 1.0)))
    k, up = _FRAC_K, _FRAC_UP
    with np.errstate(invalid="ignore"):
        slope = np.concatenate(([-np.inf], np.diff(f[1:]), [np.inf]))
        low = np.maximum(np.maximum(f[k] + up * slope[k - 1],
                                    f[k + 1] - (1.0 - up) * slope[k + 1]), 0.0)
        bound = (steps * low + log_inv_delta) / (DEFAULT_ORDERS[_FRAC_AT] - 1.0)
        # NaN anywhere prunes nothing
        priced = _FRAC_AT[~(bound > eps[_INT_AT].min() * (1.0 + _PRUNE_RTOL))]
    orders = DEFAULT_ORDERS[priced]
    eps[priced] = steps * _rdp(q, sigma, orders) + log_inv_delta / (orders - 1.0)
    return eps


@functools.lru_cache(maxsize=_COST_CACHE_SIZE)
def _refined_cost(q: float, sigma: float, delta: float, steps: int) -> float:
    orders = DEFAULT_ORDERS
    log_inv_delta = math.log(1.0 / delta)
    eps_grid = _grid_eps(q, sigma, log_inv_delta, steps)
    best = int(np.argmin(eps_grid))

    def objective(alpha: float) -> float:
        return (steps * float(_rdp(q, sigma, np.array([alpha]))[0])
                + log_inv_delta / (alpha - 1.0))

    lo = orders[best - 1] if best > 0 else 1.0 + 1e-6
    hi = orders[best + 1] if best < orders.size - 1 else orders[best]
    if best == orders.size - 1:
        # minimizer sits on the right edge: extend the bracket by doubling
        upper = orders[best]
        value = eps_grid[best]
        while upper < _MAX_ORDER:
            probe = min(upper * 2.0, _MAX_ORDER)
            pv = objective(probe)
            if pv >= value:
                hi = probe
                break
            lo, upper, value = upper, probe, pv
        else:
            hi = _MAX_ORDER
        hi = max(hi, upper)
    return float(min(eps_grid[best], _minimize_bounded(objective, lo, hi, xatol=1e-8)))


_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.2e-16)
_MINIMIZE_MAXFUN = 500


def _minimize_bounded(func, lo: float, hi: float, *, xatol: float) -> float:
    """Least value of func on [lo, hi] found by Brent's bounded minimizer:
    golden-section steps with parabolic interpolation, as
    scipy.optimize.minimize_scalar(method="bounded") takes them, so the
    result equals that call's `.fun`."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("Optimization bounds must be finite scalars.")
    if lo > hi:
        raise ValueError("The lower bound exceeds the upper bound.")
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the three best points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * (np.sign(xm - xf) + ((xm - xf) == 0))
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN * e
        x = xf + (np.sign(rat) + (rat == 0)) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MINIMIZE_MAXFUN:
            break
    return fx


_BRENTQ_MAXITER = 100
_BRENTQ_MIN_RTOL = 4 * np.finfo(float).eps


def _brentq(f, a: float, b: float, *, xtol: float, rtol: float) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method,
    evaluating f at the same points as scipy.optimize.brentq and raising the
    same errors: ValueError for a bad tolerance, a NaN value or a bracket
    whose ends share a sign, RuntimeError after 100 iterations."""
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_MIN_RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_MIN_RTOL:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    def negative(v: float) -> bool:
        return math.copysign(1.0, v) < 0

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if negative(fpre) == negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENTQ_MAXITER):
        if fpre != 0 and fcur != 0 and negative(fpre) != negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENTQ_MAXITER} "
                       f"iterations, value is {xcur}.")


def max_steps_within_budget(dp: DPConfig, eps_budget: float) -> int:
    """Largest step count whose composed cost stays within the budget."""
    if eps_budget == math.inf:
        return STEP_CAP
    if eps_budget <= 0 or dp.noise_multiplier == 0:
        return 0
    if privacy_cost(dp, 1) > eps_budget:
        return 0
    lo, hi = 1, 2
    while hi <= STEP_CAP and privacy_cost(dp, hi) <= eps_budget:
        lo, hi = hi, hi * 2
    if hi > STEP_CAP:
        return STEP_CAP
    # invariant: cost(lo) <= budget < cost(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if privacy_cost(dp, mid) <= eps_budget:
            lo = mid
        else:
            hi = mid
    return lo


# log-spaced sigma grid for the bracketing pass: 257 points on the default
# [0.05, 512] give a spacing of about 4%. The bound is priced on every
# 16th point first, ends included (256 = 16 x 16), then on the 15 points
# below the first of those it admits.
_SIGMA_GRID = 257
_SIGMA_STRIDE = 16
_SIGMA_RTOL = 1e-12


def _first_admitted(q: float, grid: np.ndarray, steps: int, delta: float,
                    eps_budget: float) -> int:
    """Index of the first sigma on the grid that the integer-order bound
    admits, grid.size if it admits none. The bound falls as sigma grows, so
    the admitted points are a suffix of the grid: the coarse pass finds the
    stride that holds its first point, the fine pass the point itself."""
    coarse = np.flatnonzero(
        privacy_cost_integer_orders(q, grid[::_SIGMA_STRIDE], steps, delta) <= eps_budget)
    if not coarse.size:
        return grid.size
    first = int(coarse[0]) * _SIGMA_STRIDE
    if first == 0:
        return 0
    fine = grid[first - _SIGMA_STRIDE + 1:first]
    hits = np.flatnonzero(privacy_cost_integer_orders(q, fine, steps, delta) <= eps_budget)
    return first - fine.size + int(hits[0]) if hits.size else first


def calibrate_sigma(
    q: float, steps: int, eps_budget: float, delta: float, lo: float = 0.05, hi: float = 512.0
) -> float:
    """Smallest noise multiplier whose cost over `steps` stays within the
    budget, to a relative tolerance of 1e-12. The returned sigma's refined
    privacy_cost is <= eps_budget: it was either evaluated, or implied by
    the integer-order bound, which is never below it. Infinite budget means
    no noise.

    The integer-order bound, coarse to fine on a log-spaced grid over
    [lo, hi] (`_first_admitted`), brackets the answer and settles both ends
    where it can: the refined cost prices hi only when the bound does not
    admit hi, and lo only when the bound does not admit lo and the bracket
    walks down to it. The bracket steps down the grid, in doubling strides,
    while the refined cost admits the point below, and Brent's method
    closes it on the refined cost."""
    if eps_budget == math.inf:
        return 0.0
    if eps_budget <= 0:
        raise InfeasibleError(f"eps budget must be positive, got {eps_budget}")
    # reject a bad q, delta or step count with the errors the refined cost
    # raises, before the bound pass raises its own
    DPConfig(1.0, hi, q, delta)
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    excess_at: dict[float, float] = {}

    def excess(sigma: float) -> float:
        # the root-finder re-reads the bracket ends; evaluate each sigma once
        if sigma not in excess_at:
            cost = privacy_cost(DPConfig(1.0, sigma, q, delta), steps)
            excess_at[sigma] = cost - eps_budget
        return excess_at[sigma]

    grid = np.geomspace(lo, hi, _SIGMA_GRID)
    top = _first_admitted(q, grid, steps, delta, eps_budget)
    if top == grid.size:
        if excess(hi) > 0:
            raise InfeasibleError(
                f"even sigma={hi} cannot meet eps={eps_budget} over {steps} steps"
            )
        # the bound admits no point at all: start from hi, which the
        # refined cost admits
        top -= 1
    if top == 0:
        return lo
    # strides double, so a bound far above the refined cost (optimal orders
    # below 2, where the integer grid is coarse) costs log2 steps, not one
    # per grid point
    stride = 1
    while (below := max(top - stride, 0)) > 0 and excess(float(grid[below])) <= 0:
        top, stride = below, stride * 2
    # grid[0] is lo itself
    if below == 0 and excess(lo) <= 0:
        return lo
    _brentq(excess, float(grid[below]), float(grid[top]),
            xtol=_SIGMA_RTOL * lo, rtol=_SIGMA_RTOL)
    return min(sigma for sigma, over in excess_at.items() if over <= 0)


@dataclass
class PrivacyLedger:
    """The one record of a DP-SGD run: its mechanism, its eps budget and the
    noisy steps taken so far; eps_spent is derived, never stored."""

    dp: DPConfig
    budget: float = math.inf
    steps: int = 0

    def eps_spent(self) -> float:
        return privacy_cost(self.dp, self.steps)


def dp_sgd_step(model, x, y, ledger: PrivacyLedger, eta: float,
                rng: np.random.Generator) -> float:
    """One noisy step under the ledger's mechanism: clip each sample's
    gradient to C, sum, add N(0, (sigma C)^2), average over the batch,
    descend, and charge the ledger one step. Returns the pre-step mean loss.

    The update is computed in full and checked finite before any parameter
    moves; a non-finite update rejects the step and charges nothing."""
    dp = ledger.dp
    loss_value, psg_list, _ = loss_and_per_sample_grads(model, x, y)
    sq = np.zeros(x.shape[0], dtype=np.float64)
    for psg in psg_list:
        p64 = psg.astype(np.float64)
        sq += np.einsum("np,np->n", p64, p64)
    norms = np.sqrt(sq)
    factors = np.minimum(1.0, dp.clip_norm / np.maximum(norms, 1e-12))
    batch = x.shape[0]
    noise_scale = dp.noise_multiplier * dp.clip_norm
    deltas = []
    for psg in psg_list:
        summed = (psg * factors[:, None].astype(psg.dtype)).sum(axis=0)
        if noise_scale > 0:
            summed = summed + rng.normal(0.0, noise_scale, size=summed.shape)
        deltas.append(summed / batch)
    for delta in deltas:
        if not np.isfinite(delta).all():
            raise NonFiniteError("dp-sgd update is not finite; step rejected")
    apply_update(model, deltas, eta)
    ledger.steps += 1
    return loss_value


def train_dp_sgd(model, x, y, ledger: PrivacyLedger, *, eta: float, steps: int,
                 rng: np.random.Generator) -> list[float]:
    """Run `steps` DP-SGD steps under the ledger's mechanism and charge each
    to it. Each step draws round(q * len(x)) rows uniformly without
    replacement at the ledger's sampling rate q, the rate the accountant
    prices (see the module docstring on the sampler it assumes).

    A finite ledger budget pre-checks the whole plan; if it does not fit,
    nothing runs (no partial spend)."""
    dp, n = ledger.dp, x.shape[0]
    if ledger.budget != math.inf:
        if privacy_cost(dp, ledger.steps + steps) > ledger.budget:
            raise BudgetExhaustedError(
                f"{steps} more steps would exceed eps={ledger.budget} "
                f"(already spent {ledger.steps} steps)"
            )
    return [dp_sgd_step(model, x[idx], y[idx], ledger, eta, rng)
            for idx in drawn_batches(n, round(dp.sampling_rate * n), steps, rng)]
