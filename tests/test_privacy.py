"""Accountant oracles and DP-SGD mechanism tests.

The subsampled-Gaussian Renyi divergence has a defining integral
  A_alpha = E_{z~N(0,sigma^2)}[((1-q) + q e^{(2z-1)/(2 sigma^2)})^alpha],
  rdp = log(A_alpha) / (alpha - 1)
which a dense log-domain trapezoid evaluates independently of the
binomial-series implementation under test.
"""

import math

import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.special import logsumexp

from fednaslab import privacy
from fednaslab.errors import BudgetExhaustedError, InfeasibleError, NonFiniteError
from fednaslab.nn.layers import ConvBlock, GlobalAvgPool, Linear, Sequential
from fednaslab.privacy import (
    DEFAULT_ORDERS,
    STEP_CAP,
    DPConfig,
    PrivacyLedger,
    calibrate_sigma,
    dp_sgd_step,
    max_steps_within_budget,
    privacy_cost,
    privacy_cost_integer_orders,
    rdp_orders,
    train_dp_sgd,
)


def grid_eps(dp, steps, orders=None):
    """Epsilon minimized over a fixed order grid only (no refinement between
    grid orders), from the per-step curve `rdp_orders` returns; without
    `orders`, the default grid. Never below the refined privacy_cost."""
    rdp = rdp_orders(dp, orders)
    orders = DEFAULT_ORDERS if orders is None else np.asarray(orders, dtype=np.float64)
    return float(np.min(steps * rdp + math.log(1.0 / dp.delta) / (orders - 1.0)))


def _log_a_int(lq, l1q, inv2s2, a):
    """log E[(mu/mu0)^a] at integer order a >= 2 by the exact binomial sum,
    one order at a time: the kernel the packed `privacy._log_a_packed`
    replaced. lq, l1q and inv2s2 are log(q), log(1 - q) and 1 / (2 sigma^2)
    of each (q, sigma) pair; coefficients above order 64 come from
    math.lgamma instead of the table."""
    i = np.arange(a + 1, dtype=np.float64)
    log_binom = privacy._INT_LOGBINOM.get(a)
    if log_binom is None:
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(a + 1)])
        log_binom = log_fact[a] - log_fact - log_fact[::-1]
    terms = (
        log_binom
        + i * lq[..., None]
        + (a - i) * l1q[..., None]
        + (i * i - i) * inv2s2[..., None]
    )
    peak = terms.max(axis=-1)
    return peak + np.log(np.exp(terms - peak[..., None]).sum(axis=-1))


def _ref_int_rdp(qs, sigmas, orders):
    """privacy._int_rdp with one `_log_a_int` call per order."""
    out = np.full((qs.size, orders.size), np.inf)
    full = (sigmas > 0.0) & (qs >= 1.0)
    out[full] = orders / (2.0 * sigmas[full, None] ** 2)
    sub = (sigmas > 0.0) & (qs < 1.0)
    if sub.any():
        lq, l1q = np.log(qs[sub]), np.log1p(-qs[sub])
        inv2s2 = 1.0 / (2.0 * sigmas[sub] ** 2)
        out[sub] = np.column_stack([_log_a_int(lq, l1q, inv2s2, int(round(a)))
                                    for a in orders]) / (orders - 1.0)
    return np.maximum(out, 0.0)


def oracle_rdp(q, sigma, alpha, n=600_001):
    """Quadrature oracle for the per-step Renyi divergence.

    Large values come from a dense log-domain trapezoid; tiny values (where
    log A would cancel) integrate A - 1 directly with adaptive quadrature.
    """
    if q == 1.0:
        return alpha / (2 * sigma**2)
    lo = -1.0 - 40.0 * sigma
    hi = 1.2 * alpha + 40.0 * sigma + 1.0
    z = np.linspace(lo, hi, n)
    w = (2 * z - 1) / (2 * sigma**2)
    logmix = np.where(
        w > 600.0,
        math.log(q) + w,
        np.log1p(q * np.expm1(np.minimum(w, 600.0))),
    )
    log_integrand = (
        alpha * logmix - z**2 / (2 * sigma**2) - math.log(sigma * math.sqrt(2 * math.pi))
    )
    log_a = logsumexp(log_integrand) + math.log(z[1] - z[0])
    if log_a > 1e-2:
        return log_a / (alpha - 1)

    def a_minus_one(zz):
        ww = (2 * zz - 1) / (2 * sigma**2)
        lm = math.log(q) + ww if ww > 600.0 else math.log1p(q * math.expm1(ww))
        dens = math.exp(-zz * zz / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        return math.expm1(alpha * lm) * dens

    val, _ = integrate.quad(
        a_minus_one,
        -50.0 * sigma,
        alpha + 50.0 * sigma,
        limit=500,
        epsabs=1e-16,
        epsrel=1e-12,
        points=[0.0, 1.0, alpha],
    )
    return math.log1p(val) / (alpha - 1)


def analytic_full_batch_eps(sigma, steps, delta):
    """Closed-form conversion optimum for q=1 (Gaussian mechanism)."""
    L = math.log(1.0 / delta)
    return steps / (2 * sigma**2) + math.sqrt(2 * L * steps) / sigma


class TestAccountantOracle:
    @pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [0.7, 1.0, 2.0, 4.0])
    def test_rdp_matches_quadrature(self, q, sigma):
        dp = DPConfig(1.0, sigma, q, 1e-5)
        # 128 sits above the precomputed binomial table, where refinement
        # past the grid's right edge probes integer orders
        alphas = np.array([1.25, 2.0, 3.5, 7.0, 16.0, 31.75, 64.0, 128.0])
        got = rdp_orders(dp, alphas)
        want = np.array([oracle_rdp(q, sigma, a) for a in alphas])
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-12)

    def test_full_batch_matches_analytic(self):
        # q=1 collapses to the plain Gaussian mechanism with a closed form
        for sigma, steps, delta in [(1.0, 1, 1e-5), (1.92, 3, 1e-5), (3.0, 40, 1e-6)]:
            dp = DPConfig(1.0, sigma, 1.0, delta)
            got = privacy_cost(dp, steps)
            want = analytic_full_batch_eps(sigma, steps, delta)
            assert abs(got - want) < 1e-6, (sigma, steps, got, want)

    def test_grid_only_upper_bounds_refined(self):
        dp = DPConfig(1.0, 1.3, 0.2, 1e-5)
        coarse = grid_eps(dp, 25)
        fine = privacy_cost(dp, 25)
        assert fine <= coarse + 1e-12
        assert fine > 0

    def test_monotonicity_random_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            q = float(rng.uniform(0.02, 1.0))
            sigma = float(rng.uniform(0.6, 5.0))
            steps = int(rng.integers(1, 400))
            dp = DPConfig(1.0, sigma, q, 1e-5)
            base = grid_eps(dp, steps)
            more_steps = grid_eps(dp, steps + int(rng.integers(1, 100)))
            assert more_steps >= base - 1e-12
            if q < 0.9:
                dp_hi_q = DPConfig(1.0, sigma, min(1.0, q * 1.5), 1e-5)
                assert grid_eps(dp_hi_q, steps) >= base - 1e-12
            dp_hi_sigma = DPConfig(1.0, sigma * 1.5, q, 1e-5)
            assert grid_eps(dp_hi_sigma, steps) <= base + 1e-12

    @pytest.mark.parametrize("q", [0.05, 0.2, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [0.8, 1.3, 2.5])
    def test_integer_orders_agree_exactly(self, q, sigma):
        # one integer-order kernel behind both paths: the grid-only cost on
        # orders {2, ..., 64} is the vectorized filter's value, bit for bit
        dp = DPConfig(1.0, sigma, q, 1e-5)
        for steps in (1, 10, 300):
            scalar = grid_eps(dp, steps, np.arange(2, 65.0))
            vector = privacy_cost_integer_orders(q, sigma, steps, 1e-5)
            assert scalar == float(vector), (steps, scalar, float(vector))

    def test_degenerate_cases(self):
        dp = DPConfig(1.0, 0.0, 0.5, 1e-5)
        assert privacy_cost(dp, 1) == math.inf
        dp2 = DPConfig(1.0, 1.0, 0.5, 1e-5)
        assert privacy_cost(dp2, 0) == 0.0

    @pytest.mark.parametrize("clip, sigma", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_mechanism_rejected(self, clip, sigma):
        # NaN passed both sign checks, and privacy_cost then ran the
        # fractional series to its 2M-term limit
        with pytest.raises(ValueError):
            DPConfig(clip, sigma, 0.1, 1e-5)

    @pytest.mark.parametrize("q, sigma, steps", [
        (math.nan, 1.0, 10), (0.1, math.nan, 10), (0.1, 1.0, math.nan),
        (np.array([0.1, math.nan]), 1.0, 10)])
    def test_integer_orders_reject_nan(self, q, sigma, steps):
        with pytest.raises(ValueError):
            privacy_cost_integer_orders(q, sigma, steps, 1e-5)

    def test_edge_extension_stays_sane(self):
        # tiny cost regime pushes the optimal order past the grid edge
        dp = DPConfig(1.0, 50.0, 0.01, 1e-5)
        grid_only = grid_eps(dp, 10)
        refined = privacy_cost(dp, 10)
        assert 0 < refined <= grid_only


def _ref_log_a_frac(q, sigma, alphas):
    """The scipy series that privacy._log_a_frac_vec replaced: the same
    blocks and truncation, with |binom(alpha, i)| from gammaln, its sign
    from gammasgn, and the Gaussian tails from log_ndtr, each evaluated on
    the whole (order, index) block."""
    def masked_logsumexp(values, mask):
        vals = np.where(mask, values, -np.inf)
        peak = vals.max(axis=1)
        safe = np.where(np.isfinite(peak), peak, 0.0)
        with np.errstate(divide="ignore"):
            out = safe + np.log(np.exp(vals - safe[:, None]).sum(axis=1))
        return np.where(np.isfinite(peak), out, -np.inf)

    alphas = np.asarray(alphas, dtype=np.float64)
    n = alphas.size
    z0 = sigma * sigma * math.log(1.0 / q - 1.0) + 0.5
    lq, l1q = math.log(q), math.log1p(-q)
    inv2s2 = 1.0 / (2.0 * sigma * sigma)
    a0p, a0n, a1p, a1n = (np.full(n, -np.inf) for _ in range(4))
    active = np.ones(n, dtype=bool)
    i_start, block = 0, 64
    while active.any():
        idx = np.flatnonzero(active)
        al = alphas[idx][:, None]
        i = np.arange(i_start, i_start + block, dtype=np.float64)[None, :]
        j = al - i
        log_coef = (special.gammaln(al + 1.0) - special.gammaln(i + 1.0)
                    - special.gammaln(j + 1.0))
        sign = special.gammasgn(j + 1.0)
        log_s0 = (log_coef + i * lq + j * l1q + (i * i - i) * inv2s2
                  + special.log_ndtr((z0 - i[0]) / sigma)[None, :])
        log_s1 = (log_coef + j * lq + i * l1q + (j * j - j) * inv2s2
                  + special.log_ndtr((j - z0) / sigma))
        pos = sign > 0
        a0p[idx] = np.logaddexp(a0p[idx], masked_logsumexp(log_s0, pos))
        a1p[idx] = np.logaddexp(a1p[idx], masked_logsumexp(log_s1, pos))
        a0n[idx] = np.logaddexp(a0n[idx], masked_logsumexp(log_s0, ~pos))
        a1n[idx] = np.logaddexp(a1n[idx], masked_logsumexp(log_s1, ~pos))
        acc = np.maximum(a0p[idx], a1p[idx])
        last = np.maximum(log_s0[:, -1], log_s1[:, -1])
        active[idx[(last < -30.0) & (last < acc - 30.0)]] = False
        i_start += block
        block = min(block * 2, 8192)

    def signed(lp, ln_):
        with np.errstate(invalid="ignore"):
            out = lp + np.log1p(-np.exp(np.minimum(ln_ - lp, 0.0)))
        return np.where(np.isneginf(ln_), lp, out)

    return np.logaddexp(signed(a0p, a0n), signed(a1p, a1n))


def _exact_log_a(q, sigma, alpha, terms):
    """log A_alpha by the same series summed in 30-digit arithmetic."""
    import mpmath

    with mpmath.workdps(30):
        q, sigma, alpha = mpmath.mpf(q), mpmath.mpf(sigma), mpmath.mpf(alpha)
        z0 = sigma * sigma * mpmath.log(1 / q - 1) + mpmath.mpf(1) / 2
        total, coef = mpmath.mpf(0), mpmath.mpf(1)
        for i in range(terms):
            j = alpha - i
            total += coef * (
                q**i * (1 - q) ** j * mpmath.exp((i * i - i) / (2 * sigma**2))
                * mpmath.ncdf((z0 - i) / sigma)
                + q**j * (1 - q) ** i * mpmath.exp((j * j - j) / (2 * sigma**2))
                * mpmath.ncdf((j - z0) / sigma))
            coef *= (alpha - i) / (i + 1)
        return float(mpmath.log(total))


class TestScipyParity:
    """The numpy kernels of the accountant against the scipy functions and
    the scipy series they replaced."""

    # below 2, on and off the 0.25 lattice, and up to the refinement's cap
    ALPHAS = np.concatenate([
        DEFAULT_ORDERS[DEFAULT_ORDERS % 1.0 != 0.0],
        [1.0001, 1.1, 1.3, 1.9, 2.7, 7.3333, 100.5, 1000.1, 8191.5],
    ])

    @pytest.mark.parametrize("q", [0.01, 32 / 333, 0.33, 0.9])
    @pytest.mark.parametrize("sigma", [0.5, 0.99, 3.0, 8.0])
    def test_fractional_series_matches_scipy_series(self, q, sigma):
        got = privacy._log_a_frac_vec(q, sigma, self.ALPHAS)
        want = _ref_log_a_frac(q, sigma, self.ALPHAS)
        # log A near 0 carries an absolute rounding floor in both series
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-15)

    def test_one_order_at_a_time_matches_the_vector(self):
        # refinement probes single orders; each order reads its own window
        q, sigma = 32 / 333, 0.99
        together = privacy._log_a_frac_vec(q, sigma, self.ALPHAS)
        alone = [privacy._log_a_frac_vec(q, sigma, np.array([a]))[0]
                 for a in self.ALPHAS]
        np.testing.assert_allclose(alone, together, rtol=1e-13, atol=1e-16)

    @pytest.mark.parametrize("q, sigma, alpha, terms", [
        (0.01, 100.0, 16.5, 300),
        (0.001, 30.0, 36.75, 400),
        (0.001, 30.0, 511.9, 1500),
    ])
    def test_closer_to_exact_where_gammaln_cancels(self, q, sigma, alpha, terms):
        # log A of 1e-6 to 1e-4: gammaln's cancellation costs the scipy
        # series 1e-9 of it, beyond the parity grid's rtol, while the ratio
        # recurrence stays within 2e-10 of the 30-digit sum
        exact = _exact_log_a(q, sigma, alpha, terms)
        got = privacy._log_a_frac_vec(q, sigma, np.array([alpha]))[0]
        ref = _ref_log_a_frac(q, sigma, np.array([alpha]))[0]
        assert abs(got - exact) <= 2e-10 * abs(exact)
        assert abs(got - exact) < abs(ref - exact)

    def test_log_ndtr_matches_scipy(self):
        tiny = np.finfo(float).eps
        x = np.concatenate([
            np.linspace(-1e4, 40.0, 100_001),
            np.linspace(-40.0, 10.0, 100_001),
            # both sides of each branch point, and both zeros
            [privacy._NDTR_LOW * (1 + tiny), privacy._NDTR_LOW,
             privacy._NDTR_LOW * (1 - tiny), -tiny, -0.0, 0.0, tiny],
        ])
        np.testing.assert_allclose(privacy._log_ndtr(x), special.log_ndtr(x),
                                   rtol=1e-15, atol=5e-16)
        ends = np.array([-np.inf, np.inf, np.nan])
        np.testing.assert_array_equal(privacy._log_ndtr(ends), [-np.inf, 0.0, np.nan])

    def test_integer_binomials_match_gammaln(self):
        for a, table in privacy._INT_LOGBINOM.items():
            i = np.arange(a + 1.0)
            want = special.gammaln(a + 1.0) - special.gammaln(i + 1.0) - special.gammaln(a - i + 1.0)
            np.testing.assert_allclose(table, want, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("a", [65, 128, 1024])
    def test_integer_orders_above_the_table_match_gammaln(self, a):
        qs, sigmas = np.array([0.01, 0.1, 0.5]), np.array([1.0, 2.0, 8.0])
        lq, l1q, inv2s2 = np.log(qs), np.log1p(-qs), 1.0 / (2.0 * sigmas**2)
        i = np.arange(a + 1.0)
        log_binom = special.gammaln(a + 1.0) - special.gammaln(i + 1.0) - special.gammaln(a - i + 1.0)
        terms = (log_binom + i * lq[:, None] + (a - i) * l1q[:, None]
                 + (i * i - i) * inv2s2[:, None])
        want = logsumexp(terms, axis=1)
        np.testing.assert_allclose(_log_a_int(lq, l1q, inv2s2, a), want, rtol=1e-12)


class TestBudgets:
    def test_max_steps_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            q = float(rng.uniform(0.3, 1.0))
            sigma = float(rng.uniform(0.8, 2.0))
            dp = DPConfig(1.0, sigma, q, 1e-5)
            budget = privacy_cost(dp, int(rng.integers(3, 60))) * 1.0001
            got = max_steps_within_budget(dp, budget)
            assert privacy_cost(dp, got) <= budget
            assert privacy_cost(dp, got + 1) > budget

    def test_max_steps_sentinels(self):
        dp = DPConfig(1.0, 1.0, 0.5, 1e-5)
        assert max_steps_within_budget(dp, math.inf) == STEP_CAP
        assert max_steps_within_budget(dp, 0.0) == 0
        assert max_steps_within_budget(DPConfig(1.0, 0.0, 0.5, 1e-5), 5.0) == 0

    def test_calibrate_sigma_tight_and_feasible(self):
        sigma = calibrate_sigma(1.0, 10, 3.0, 1e-5)
        assert privacy_cost(DPConfig(1.0, sigma, 1.0, 1e-5), 10) <= 3.0
        assert privacy_cost(DPConfig(1.0, sigma * 0.98, 1.0, 1e-5), 10) > 3.0
        assert calibrate_sigma(0.5, 10, math.inf, 1e-5) == 0.0
        with pytest.raises(InfeasibleError):
            calibrate_sigma(1.0, 10_000, 1e-4, 1e-5)

    def test_ledger_derives_eps_from_steps(self):
        dp = DPConfig(0.5, 1.92, 1.0, 1e-5)
        ledger = PrivacyLedger(dp)
        ledger.steps += 3
        assert ledger.steps == 3
        assert abs(ledger.eps_spent() - privacy_cost(dp, 3)) < 1e-12


def reference_sigma(q, steps, eps_budget, delta, lo=0.05, hi=512.0):
    """The 60-step bisection on the refined cost that calibrate_sigma replaced."""
    def cost(sigma):
        return privacy_cost(DPConfig(1.0, sigma, q, delta), steps)

    if cost(hi) > eps_budget:
        raise InfeasibleError("reference: infeasible")
    if cost(lo) <= eps_budget:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if cost(mid) <= eps_budget:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.fixture
def refined_calls(monkeypatch):
    """Counts privacy_cost calls made from inside the privacy module."""
    count = [0]
    real = privacy.privacy_cost

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(privacy, "privacy_cost", counting)
    return count


class TestCalibrateSigma:
    MAX_REFINED_CALLS = 10

    @pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 1.0])
    def test_matches_bisection(self, q, refined_calls):
        for steps in (10, 500):
            for eps in (1.0, 8.0):
                refined_calls[0] = 0
                got = calibrate_sigma(q, steps, eps, 1e-5)
                assert refined_calls[0] <= self.MAX_REFINED_CALLS, (steps, eps)
                want = reference_sigma(q, steps, eps, 1e-5)
                np.testing.assert_allclose(got, want, rtol=1e-9, err_msg=f"{steps} {eps}")
                assert privacy_cost(DPConfig(1.0, got, q, 1e-5), steps) <= eps

    def test_bound_far_above_refined_cost(self, refined_calls):
        # optimal orders below 2: the integer-order bound admits sigma about a
        # third above the answer, nine grid points away
        got = calibrate_sigma(1.0, 10_000, 6000.0, 1e-5)
        assert refined_calls[0] <= self.MAX_REFINED_CALLS
        np.testing.assert_allclose(got, reference_sigma(1.0, 10_000, 6000.0, 1e-5), rtol=1e-9)
        assert privacy_cost(DPConfig(1.0, got, 1.0, 1e-5), 10_000) <= 6000.0

    def test_no_grid_point_admitted_by_integer_bound(self, refined_calls):
        # the budget is the refined cost at hi itself, which the coarser
        # integer-order bound exceeds everywhere on [lo, hi]
        q, steps, hi = 0.01, 1, 1.0
        eps = privacy_cost(DPConfig(1.0, hi, q, 1e-5), steps)
        grid = np.geomspace(0.05, hi, 257)
        assert not (privacy_cost_integer_orders(q, grid, steps, 1e-5) <= eps).any()
        got = calibrate_sigma(q, steps, eps, 1e-5, hi=hi)
        assert refined_calls[0] <= self.MAX_REFINED_CALLS
        np.testing.assert_allclose(got, reference_sigma(q, steps, eps, 1e-5, hi=hi), rtol=1e-9)
        assert privacy_cost(DPConfig(1.0, got, q, 1e-5), steps) <= eps

    def test_guards(self, refined_calls):
        assert calibrate_sigma(0.1, 10, math.inf, 1e-5) == 0.0
        assert refined_calls[0] == 0
        with pytest.raises(InfeasibleError):
            calibrate_sigma(0.1, 10, 0.0, 1e-5)
        with pytest.raises(InfeasibleError):
            calibrate_sigma(0.5, 10_000, 1e-4, 1e-5)
        # lo already within budget by the integer-order bound, which is never
        # below the refined cost: returned without a refined evaluation
        refined_calls[0] = 0
        assert calibrate_sigma(0.01, 1, 50.0, 1e-5, lo=0.5) == 0.5
        assert refined_calls[0] == 0

    # (q, steps, eps, lo): a budget midway between the refined cost at lo,
    # which admits it, and the integer-order bound, which does not
    LO_CASE = (0.01, 1, 0.5 * (privacy_cost(DPConfig(1.0, 1.0, 0.01, 1e-5), 1)
                              + float(privacy_cost_integer_orders(0.01, 1.0, 1, 1e-5))), 1.0)

    def test_lo_admitted_by_refined_cost_only(self, refined_calls):
        # the bracket walks down to lo and prices it there
        q, steps, eps, lo = self.LO_CASE
        assert privacy_cost_integer_orders(q, lo, steps, 1e-5) > eps
        refined_calls[0] = 0
        assert calibrate_sigma(q, steps, eps, 1e-5, lo=lo) == lo
        assert 0 < refined_calls[0] <= self.MAX_REFINED_CALLS

    @staticmethod
    def _ref_calibrate_sigma(q, steps, eps_budget, delta, lo=0.05, hi=512.0):
        # the calibration as written before the bound settled the guards:
        # the refined cost priced hi and lo before the grid pass
        if eps_budget == math.inf:
            return 0.0
        if eps_budget <= 0:
            raise InfeasibleError(f"eps budget must be positive, got {eps_budget}")
        excess_at = {}

        def excess(sigma):
            if sigma not in excess_at:
                cost = privacy_cost(DPConfig(1.0, sigma, q, delta), steps)
                excess_at[sigma] = cost - eps_budget
            return excess_at[sigma]

        if excess(hi) > 0:
            raise InfeasibleError(
                f"even sigma={hi} cannot meet eps={eps_budget} over {steps} steps")
        if excess(lo) <= 0:
            return lo
        grid = np.geomspace(lo, hi, privacy._SIGMA_GRID)
        admitted = np.flatnonzero(
            privacy_cost_integer_orders(q, grid, steps, delta) <= eps_budget)
        top = int(admitted[0]) if admitted.size else grid.size - 1
        stride = 1
        while (below := max(top - stride, 0)) > 0 and excess(float(grid[below])) <= 0:
            top, stride = below, stride * 2
        privacy._brentq(excess, float(grid[below]), float(grid[top]),
                        xtol=privacy._SIGMA_RTOL * lo, rtol=privacy._SIGMA_RTOL)
        return min(sigma for sigma, over in excess_at.items() if over <= 0)

    @staticmethod
    def _outcome(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (InfeasibleError, ValueError) as exc:
            return type(exc), str(exc)

    def test_same_bits_as_pricing_both_ends(self):
        cases = [(q, steps, eps, 0.05, hi)
                 for q in (0.01, 32 / 333, 0.5, 1.0)
                 for steps in (1, 22, 500)
                 for eps in (1e-4, 1.0, 5.0, 50.0)
                 for hi in (512.0, 1.0)]
        # test_no_grid_point_admitted_by_integer_bound's case
        cases.append((0.01, 1, privacy_cost(DPConfig(1.0, 1.0, 0.01, 1e-5), 1), 0.05, 1.0))
        # test_lo_admitted_by_refined_cost_only's case
        cases.append(self.LO_CASE + (512.0,))
        exits = set()
        for q, steps, eps, lo, hi in cases:
            want = self._outcome(self._ref_calibrate_sigma, q, steps, eps, 1e-5, lo, hi)
            got = self._outcome(calibrate_sigma, q, steps, eps, 1e-5, lo, hi)
            assert got == want, (q, steps, eps, lo, hi)
            exits.add("raised" if isinstance(want, tuple)
                      else "lo" if want == lo else "root")
        assert exits == {"raised", "lo", "root"}

    @pytest.mark.parametrize("q, steps, delta", [
        (0.0, 10, 1e-5), (1.5, 10, 1e-5), (0.1, 10, 0.0), (0.1, 10, 1.0),
        (0.1, -1, 1e-5)])
    def test_invalid_arguments_raise_as_before(self, q, steps, delta):
        want = self._outcome(self._ref_calibrate_sigma, q, steps, 1.0, delta)
        assert want[0] is ValueError
        assert self._outcome(calibrate_sigma, q, steps, 1.0, delta) == want


class TestCurveMemo:
    """The refined-cost memo, the accountant's only cache: curves are
    computed afresh on every call."""

    def test_cached_equals_uncached(self):
        for q, sigma in [(0.01, 0.9), (0.2, 1.3), (0.5, 3.0), (1.0, 2.0)]:
            dp = DPConfig(1.0, sigma, q, 1e-5)
            np.testing.assert_array_equal(rdp_orders(dp), rdp_orders(dp, DEFAULT_ORDERS.copy()))
            for steps in (1, 40, 2000):
                cached = privacy_cost(dp, steps)
                assert privacy_cost(dp, steps) == cached
                privacy._refined_cost.cache_clear()
                assert privacy_cost(dp, steps) == cached

    def test_curve_is_a_new_array(self):
        # a caller that writes into a curve changes no later curve or cost
        dp = DPConfig(1.0, 1.1, 0.3, 1e-5)
        curve = rdp_orders(dp)
        want, cost = curve.copy(), privacy_cost(dp, 30)
        curve[:] = 0.0
        privacy._refined_cost.cache_clear()
        np.testing.assert_array_equal(rdp_orders(dp), want)
        assert privacy_cost(dp, 30) == cost

    def test_curve_ignores_clip_and_delta(self):
        a = rdp_orders(DPConfig(0.5, 1.7, 0.25, 1e-5))
        b = rdp_orders(DPConfig(4.0, 1.7, 0.25, 1e-3))
        np.testing.assert_array_equal(a, b)

    def test_custom_orders_bypass_cache(self):
        # curves, on the default grid or any other, neither read nor fill
        # the refined-cost memo
        dp = DPConfig(1.0, 1.4, 0.15, 1e-5)
        before = privacy._refined_cost.cache_info()
        grid_eps(dp, 25, DEFAULT_ORDERS)
        grid_eps(dp, 25, np.arange(2, 65.0))
        rdp_orders(dp)
        rdp_orders(dp, np.array([1.5, 3.0]))
        assert privacy._refined_cost.cache_info() == before

    def test_refined_cost_keyed_without_clip(self):
        privacy._refined_cost.cache_clear()
        a = privacy_cost(DPConfig(0.5, 1.3, 0.2, 1e-5), 17)
        b = privacy_cost(DPConfig(4.0, 1.3, 0.2, 1e-5), 17)
        assert a == b
        info = privacy._refined_cost.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)
        privacy_cost(DPConfig(4.0, 1.3, 0.2, 1e-6), 17)
        privacy_cost(DPConfig(4.0, 1.3, 0.2, 1e-5), 18)
        assert privacy._refined_cost.cache_info().misses == 3

    def test_refined_cost_memo_is_bounded(self):
        maxsize = privacy._refined_cost.cache_info().maxsize
        privacy._refined_cost.cache_clear()
        dp = DPConfig(1.0, 1.0, 1.0, 1e-5)
        for steps in range(1, maxsize + 6):
            privacy_cost(dp, steps)
        assert privacy._refined_cost.cache_info().currsize == maxsize
        privacy._refined_cost.cache_clear()

    def test_cache_is_bounded(self):
        # over many (q, sigma) pairs, as a long search asks for; q = 1
        # costs are closed-form, so filling the memo is cheap
        maxsize = privacy._refined_cost.cache_info().maxsize
        assert maxsize is not None
        privacy._refined_cost.cache_clear()
        for k in range(maxsize + 5):
            privacy_cost(DPConfig(1.0, 1.0 + k / 64.0, 1.0, 1e-5), 3)
        assert privacy._refined_cost.cache_info().currsize == maxsize
        privacy._refined_cost.cache_clear()


class TestPricedOrders:
    """The accountant prices a subset of orders and sigma points; each
    result equals the full pass it replaced."""

    @staticmethod
    def _pairs(rng, n):
        qs = np.exp(rng.uniform(math.log(1e-3), 0.0, n))
        sigmas = np.exp(rng.uniform(math.log(0.05), math.log(600.0), n))
        # q = 1 and sigma = 0 rows take their own branches
        qs[::7], sigmas[::11] = 1.0, 0.0
        return qs, sigmas

    @pytest.mark.parametrize("pairs", [1, 16, 17, 257])
    def test_packed_int_rdp_matches_per_order_oracle(self, pairs):
        # one block, a full block, a block and a row, the old sigma bracket;
        # past the table, and an order within _INT_TOL of an integer
        qs, sigmas = self._pairs(np.random.default_rng(pairs), pairs)
        for orders in (privacy._INT_ORDER_GRID, np.array([65.0, 3.0 + 1e-10, 128.0])):
            np.testing.assert_array_equal(privacy._int_rdp(qs, sigmas, orders),
                                          _ref_int_rdp(qs, sigmas, orders))

    # (q, sigma, steps, delta, the full grid's argmin, or None): the best
    # order at 1.25, past 64 (refinement extends the bracket), q = 1 and
    # sigma = 0
    EDGES = [(1.0, 0.5, 1000, 1e-5, 0), (0.5, 0.5, 2000, 1e-5, 0),
             (0.01, 50.0, 10, 1e-5, DEFAULT_ORDERS.size - 1),
             (1.0, 2.0, 7, 1e-5, None), (1.0, 30.0, 3, 1e-9, None),
             (0.3, 0.0, 10, 1e-5, 0)]

    def test_pruned_grid_minimum_matches_full_grid(self):
        rng = np.random.default_rng(24)
        cases = [(float(np.exp(rng.uniform(math.log(1e-3), 0.0))),
                  float(np.exp(rng.uniform(math.log(0.3), math.log(60.0)))),
                  int(np.exp(rng.uniform(0.0, math.log(20_000)))),
                  float(10.0 ** rng.uniform(-9.0, -2.0)), None) for _ in range(40)]
        priced = []
        for q, sigma, steps, delta, want_best in cases + self.EDGES:
            log_inv_delta = math.log(1.0 / delta)
            full = steps * rdp_orders(DPConfig(1.0, sigma, q, delta)) + log_inv_delta / (
                DEFAULT_ORDERS - 1.0)
            got = privacy._grid_eps(q, sigma, log_inv_delta, steps)
            best = int(np.argmin(full))
            assert int(np.argmin(got)) == best, (q, sigma, steps, delta)
            assert got[best] == full[best], (q, sigma, steps, delta)
            if want_best is not None:
                assert best == want_best, (q, sigma, steps, delta)
            if sigma > 0:
                priced.append(np.isfinite(got[privacy._FRAC_AT]).sum())
        # the pruning prunes: a handful of the 190 fractional orders
        assert max(priced) <= 12

    def test_coarse_to_fine_bracket_matches_full_pass(self):
        rng = np.random.default_rng(25)
        firsts = set()
        for _ in range(100):
            q = float(np.exp(rng.uniform(math.log(1e-3), 0.0)))
            steps = int(np.exp(rng.uniform(0.0, math.log(20_000))))
            delta = float(10.0 ** rng.uniform(-9.0, -2.0))
            eps = float(np.exp(rng.uniform(math.log(0.05), math.log(200.0))))
            lo = float(np.exp(rng.uniform(math.log(0.05), math.log(2.0))))
            grid = np.geomspace(lo, lo * np.exp(rng.uniform(0.1, 10.0)), privacy._SIGMA_GRID)
            admitted = np.flatnonzero(
                privacy_cost_integer_orders(q, grid, steps, delta) <= eps)
            want = int(admitted[0]) if admitted.size else grid.size
            assert privacy._first_admitted(q, grid, steps, delta, eps) == want
            firsts.add(want)
        # none admitted, all admitted, on a coarse point and between two
        assert {0, privacy._SIGMA_GRID} <= firsts
        inside = firsts - {0, privacy._SIGMA_GRID}
        assert {f % privacy._SIGMA_STRIDE == 0 for f in inside} == {True, False}


class TestBrentq:
    """privacy._brentq against scipy.optimize.brentq, which it copies."""

    @staticmethod
    def _both(f, a, b, xtol=2e-12, rtol=1e-12):
        """(outcome, evaluation points) of each solver: the root, or the
        exception type it raised."""
        runs = []
        for solve in (optimize.brentq, privacy._brentq):
            seen = []

            def recorded(x):
                seen.append(x)
                return f(x)

            try:
                outcome = solve(recorded, a, b, xtol=xtol, rtol=rtol)
            except (ValueError, RuntimeError) as exc:
                outcome = type(exc)
            runs.append((outcome, seen))
        return runs

    def test_same_evaluations_and_root(self):
        rng = np.random.default_rng(5)
        shapes = [
            lambda x, r, c: math.tanh(c * (x - r)),
            lambda x, r, c: (x - r) ** 3 + c * (x - r),
            lambda x, r, c: math.expm1(x - r) + 1e-3 * c * (x - r),
            lambda x, r, c: (x - r) * abs(x - r) + c * 1e-6,
        ]
        for trial in range(120):
            r, c = rng.uniform(-2.0, 2.0), abs(rng.normal()) + 0.01
            a, b = r - rng.uniform(0.1, 5.0), r + rng.uniform(0.1, 5.0)
            if trial % 2:
                a, b = b, a
            shape = shapes[trial % len(shapes)]
            tol = [(2e-12, 1e-12), (1e-6, 1e-9), (1e-300, 4 * np.finfo(float).eps)][trial % 3]
            (ref, ref_seen), (got, seen) = self._both(
                lambda x: shape(x, r, c), a, b, *tol)
            assert got == ref and seen == ref_seen, trial

    def test_same_evaluations_on_calibration_excess(self):
        # the function calibrate_sigma hands the root-finder
        for q, steps, eps in [(0.1, 22, 5.0), (0.01, 500, 1.0), (1.0, 10, 3.0)]:
            def excess(sigma):
                return privacy_cost(DPConfig(1.0, sigma, q, 1e-5), steps) - eps
            (ref, ref_seen), (got, seen) = self._both(excess, 0.3, 40.0)
            assert got == ref and seen == ref_seen

    @pytest.mark.parametrize("f,a,b,kwargs,error", [
        (lambda x: x * x + 1.0, -1.0, 2.0, {}, ValueError),
        (lambda x: x - 1.0 if x < 1.5 else math.nan, 0.0, 2.0, {}, ValueError),
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {}, ValueError),
        (lambda x: 1.0 if x > 0 else -1.0, -1e300, 1e300,
         {"xtol": 1e-300, "rtol": 4 * np.finfo(float).eps}, RuntimeError),
        (lambda x: x, -1.0, 2.0, {"xtol": 0.0}, ValueError),
        (lambda x: x, -1.0, 2.0, {"rtol": 1e-17}, ValueError),
    ], ids=["same-sign", "nan-at-end", "nan-inside", "no-convergence",
            "xtol", "rtol"])
    def test_same_errors(self, f, a, b, kwargs, error):
        (ref, ref_seen), (got, seen) = self._both(f, a, b, **kwargs)
        assert ref is error and got is error
        assert seen == ref_seen

    def test_root_at_bracket_end(self):
        (ref, _), (got, _) = self._both(lambda x: x - 1.0, 1.0, 3.0)
        assert got == ref == 1.0


def _scipy_bounded(func, lo, hi, *, xatol):
    return optimize.minimize_scalar(func, bounds=(lo, hi), method="bounded",
                                    options={"xatol": xatol}).fun


class TestMinimizeBounded:
    """privacy._minimize_bounded against minimize_scalar(method="bounded")."""

    def test_same_fun_on_accountant_objectives(self):
        rng = np.random.default_rng(6)
        log_inv_delta = math.log(1e5)
        for _ in range(60):
            q = float(np.exp(rng.uniform(math.log(0.005), 0.0)))
            sigma = float(np.exp(rng.uniform(math.log(0.4), math.log(20.0))))
            steps = int(rng.integers(1, 5000))
            rdp = rdp_orders(DPConfig(1.0, sigma, q, 1e-5))
            best = int(np.argmin(steps * rdp + log_inv_delta / (DEFAULT_ORDERS - 1.0)))
            lo = DEFAULT_ORDERS[max(best - 1, 0)]
            hi = DEFAULT_ORDERS[min(best + 1, DEFAULT_ORDERS.size - 1)]

            def objective(alpha):
                return (steps * float(privacy._rdp(q, sigma, np.array([alpha]))[0])
                        + log_inv_delta / (alpha - 1.0))

            ref = _scipy_bounded(objective, lo, hi, xatol=1e-8)
            assert privacy._minimize_bounded(objective, lo, hi, xatol=1e-8) == ref

    def test_privacy_cost_unchanged_with_scipy_minimizer(self, monkeypatch):
        # the whole refinement, edge extension included, against the scipy
        # minimizer in the same place
        rng = np.random.default_rng(8)
        cells = [(0.01, 50.0, 10), (0.3, 1.1, 40), (1.0, 2.0, 7)]
        cells += [(float(rng.uniform(0.01, 1.0)), float(rng.uniform(0.5, 10.0)),
                   int(rng.integers(1, 3000))) for _ in range(12)]
        for q, sigma, steps in cells:
            dp = DPConfig(1.0, sigma, q, 1e-5)
            privacy._refined_cost.cache_clear()
            local = privacy_cost(dp, steps)
            with monkeypatch.context() as patch:
                patch.setattr(privacy, "_minimize_bounded", _scipy_bounded)
                privacy._refined_cost.cache_clear()
                assert privacy_cost(dp, steps) == local, (q, sigma, steps)
        privacy._refined_cost.cache_clear()

    @pytest.mark.parametrize("lo,hi", [(2.0, 1.0), (1.0, math.inf), (math.nan, 2.0)])
    def test_bad_bounds_raise_like_scipy(self, lo, hi):
        with pytest.raises(ValueError):
            _scipy_bounded(lambda x: x * x, lo, hi, xatol=1e-8)
        with pytest.raises(ValueError):
            privacy._minimize_bounded(lambda x: x * x, lo, hi, xatol=1e-8)

    def test_evaluation_cap_stops_the_search(self, monkeypatch):
        seen = []

        def f(x):
            seen.append(x)
            return (x - 0.3) ** 2

        monkeypatch.setattr(privacy, "_MINIMIZE_MAXFUN", 5)
        fun = privacy._minimize_bounded(f, 0.0, 1.0, xatol=1e-12)
        values = [(x - 0.3) ** 2 for x in seen]
        assert len(seen) == 5 and fun == min(values)


def _tiny_stack(seed=0):
    lin = Linear(4, 3)
    lin.init_params(np.random.default_rng(seed))
    return Sequential([lin])


class TestDpSgd:
    def test_degenerates_to_plain_sgd(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(16, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=16)
        parts_dp = _tiny_stack(3)
        parts_plain = _tiny_stack(3)
        ledger = PrivacyLedger(DPConfig(1e9, 0.0, 1.0, 1e-5))
        from fednaslab.nn.model import apply_update, batch_gradient

        for _ in range(20):
            dp_sgd_step(parts_dp, x, y, ledger, 0.1, np.random.default_rng(0))
            _, grads, _ = batch_gradient(parts_plain, x, y)
            apply_update(parts_plain, grads, 0.1)
        np.testing.assert_allclose(
            parts_dp.get_flat(), parts_plain.get_flat(), atol=1e-5
        )

    @pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-5), (np.float64, 1e-12)])
    def test_clipped_update_is_the_mean_of_clipped_rows(self, dtype, rtol, monkeypatch):
        # sigma = 0 and C below most per-sample norms: the update is exactly
        # the clipped weighted sum, checked against a row-by-row reference
        from fednaslab.nn.model import loss_and_per_sample_grads

        rng = np.random.default_rng(11)
        model = Sequential([ConvBlock(2, 8, 3), GlobalAvgPool(), Linear(8, 3)])
        model.init_params(rng)
        model.astype(dtype)
        x = rng.normal(size=(12, 2, 5, 5)).astype(dtype)
        y = rng.integers(0, 3, size=12)
        _, psg, _ = loss_and_per_sample_grads(model, x, y)
        rows = np.concatenate(psg, axis=1).astype(np.float64)
        norms = np.linalg.norm(rows, axis=1)
        clip = float(np.quantile(norms, 0.25))
        assert (norms > clip).sum() >= 9
        ref = np.mean([row * min(1.0, clip / norm) for row, norm in zip(rows, norms)],
                      axis=0)
        updates = []
        monkeypatch.setattr(privacy, "apply_update",
                            lambda model, deltas, eta: updates.append(deltas))
        ledger = PrivacyLedger(DPConfig(clip, 0.0, 1.0, 1e-5))
        dp_sgd_step(model, x, y, ledger, 0.1, np.random.default_rng(0))
        [deltas] = updates
        assert [d.dtype for d in deltas] == [np.dtype(dtype)] * len(psg)
        got = np.concatenate(deltas).astype(np.float64)
        np.testing.assert_allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max())
        assert ledger.steps == 1

    def test_noise_std_scaling(self):
        # empirical per-coordinate update noise must be sigma*C/B
        rng = np.random.default_rng(4)
        x = rng.normal(size=(8, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=8)
        parts = _tiny_stack(5)
        base = parts.get_flat()
        dp = DPConfig(0.7, 2.0, 1.0, 1e-5)
        eta, B = 1.0, 8
        noise_rng = np.random.default_rng(6)
        # expected update without noise, from the same clipped sum
        quiet = _tiny_stack(5)
        dp_sgd_step(quiet, x, y, PrivacyLedger(DPConfig(0.7, 0.0, 1.0, 1e-5)),
                    eta, noise_rng)
        mean_update = base - quiet.get_flat()
        samples = []
        ledger = PrivacyLedger(dp)
        for _ in range(4000):
            parts.set_flat(base)
            dp_sgd_step(parts, x, y, ledger, eta, noise_rng)
            samples.append(base - parts.get_flat() - mean_update)
        flat = np.concatenate(samples)
        want = dp.noise_multiplier * dp.clip_norm / B
        got = flat.std()
        tol = 3 * want / math.sqrt(2 * flat.size)
        assert abs(got - want) < tol, (got, want, tol)

    def test_ledger_counts_and_budget_gate(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(12, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=12)
        parts = _tiny_stack(8)
        dp = DPConfig(1.0, 1.0, 0.5, 1e-5)
        ledger = PrivacyLedger(dp)
        train_dp_sgd(parts, x, y, ledger, eta=0.05, steps=4,
                     rng=np.random.default_rng(9))
        assert ledger.steps == 4
        ledger.budget = privacy_cost(dp, 5)  # admits 5 steps total
        before = parts.get_flat().copy()
        with pytest.raises(BudgetExhaustedError):
            train_dp_sgd(parts, x, y, ledger, eta=0.05, steps=2,
                         rng=np.random.default_rng(10))
        # nothing ran: no partial spend, no parameter movement
        assert ledger.steps == 4
        np.testing.assert_array_equal(parts.get_flat(), before)

    def test_non_finite_step_rejected(self):
        parts = _tiny_stack(11)
        x = np.full((4, 4), np.nan, dtype=np.float32)
        y = np.zeros(4, dtype=int)
        before = parts.get_flat().copy()
        ledger = PrivacyLedger(DPConfig(1.0, 1.0, 1.0, 1e-5))
        with pytest.raises(NonFiniteError):
            dp_sgd_step(parts, x, y, ledger, 0.1, np.random.default_rng(0))
        np.testing.assert_array_equal(parts.get_flat(), before)
        assert ledger.steps == 0

    def test_determinism(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(10, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=10)
        outs = []
        for _ in range(2):
            parts = _tiny_stack(13)
            train_dp_sgd(
                parts, x, y, PrivacyLedger(DPConfig(1.0, 1.5, 0.5, 1e-5)),
                eta=0.1, steps=6, rng=np.random.default_rng(14),
            )
            outs.append(parts.get_flat())
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("q, n, batch", [(0.5, 10, 5), (0.3, 10, 3),
                                             (1.0, 10, 10), (0.25, 12, 3)])
    def test_batch_and_noise_draws_alternate_on_one_generator(self, q, n, batch):
        # each step draws round(q * n) rows at the ledger's rate and then its
        # noise, from the same generator, and charges the ledger one step
        rng = np.random.default_rng(15)
        x = rng.normal(size=(n, 4)).astype(np.float32)
        y = rng.integers(0, 3, size=n)
        dp = DPConfig(1.0, 1.5, q, 1e-5)
        ledger = PrivacyLedger(dp)
        parts, ref = _tiny_stack(16), _tiny_stack(16)
        train_dp_sgd(parts, x, y, ledger, eta=0.1, steps=6,
                     rng=np.random.default_rng(17))
        ref_rng, ref_ledger = np.random.default_rng(17), PrivacyLedger(dp)
        for _ in range(6):
            idx = ref_rng.choice(n, size=batch, replace=False)
            dp_sgd_step(ref, x[idx], y[idx], ref_ledger, 0.1, ref_rng)
        np.testing.assert_array_equal(parts.get_flat(), ref.get_flat())
        assert ledger.steps == 6
