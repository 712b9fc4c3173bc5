"""Constrained hyperparameter search tests.

The GP posterior is checked against a dense linear-algebra oracle written
independently here (scalar kernel loops + explicit matrix inverse), the
acquisition function against textbook normal-CDF closed forms, and the
privacy filter against full-accountant recomputation of every logged trial.
"""

import math
import os

import numpy as np
import pytest
from scipy import linalg
from scipy.linalg import lapack
from scipy.stats import norm, qmc

from fednaslab import hpo

from fednaslab.errors import ConfigError, InfeasibleError
from fednaslab.hpo import (
    CANDIDATE_POOL,
    JITTER_MAX,
    BORecord,
    BOSpec,
    DPTrialEvaluator,
    HyperConfig,
    SearchDomain,
    Surrogate,
    expected_improvement_values,
    gp_fit,
    planned_cost,
    propose_next,
    run_bo,
    sobol_points,
    write_bo_trace,
)
from fednaslab.privacy import DPConfig, privacy_cost, privacy_cost_integer_orders
from fednaslab.space import SpaceConfig, sample_random_genome


def _matern_ref(a, b, lengthscales, signal_var):
    """Scalar-loop Matérn-5/2 matrix; independent of the package's
    broadcast implementation."""
    out = np.empty((len(a), len(b)))
    for i, p in enumerate(a):
        for j, q in enumerate(b):
            r = math.sqrt(float(np.sum(((p - q) / lengthscales) ** 2)))
            out[i, j] = (
                signal_var
                * (1.0 + math.sqrt(5.0) * r + 5.0 * r * r / 3.0)
                * math.exp(-math.sqrt(5.0) * r)
            )
    return out


def _gp_ref_posterior(x, y, xq, lengthscales, signal_var, jitter):
    """Plain GP equations via explicit matrix inverse."""
    kernel = _matern_ref(x, x, lengthscales, signal_var) + jitter * np.eye(len(x))
    k_star = _matern_ref(xq, x, lengthscales, signal_var)
    inv = np.linalg.inv(kernel)
    mean = y.mean() + k_star @ inv @ (y - y.mean())
    var = signal_var - np.einsum("ij,jk,ik->i", k_star, inv, k_star)
    return mean, var


def _analytic_eps_full_batch(sigma, steps, delta):
    """q=1 Gaussian-mechanism cost, alpha optimized in closed form."""
    return steps / (2 * sigma**2) + math.sqrt(2 * math.log(1 / delta) * steps) / sigma


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


class TestHyperConfigAndDomain:
    def test_invalid_config_fields_rejected(self):
        with pytest.raises(ConfigError):
            HyperConfig(eta=0.0, batch_size=8, clip=1.0, sigma=1.0)
        with pytest.raises(ConfigError):
            HyperConfig(eta=0.01, batch_size=0, clip=1.0, sigma=1.0)
        with pytest.raises(ConfigError):
            HyperConfig(eta=0.01, batch_size=8, clip=0.0, sigma=1.0)
        with pytest.raises(ConfigError):
            HyperConfig(eta=0.01, batch_size=8, clip=1.0, sigma=-0.1)

    def test_invalid_domain_rejected(self):
        with pytest.raises(ConfigError):
            SearchDomain(BOSpec(), dataset_size=0)
        with pytest.raises(ConfigError):
            BOSpec(eta_range=(0.1, 0.01))
        with pytest.raises(ConfigError):
            BOSpec(q_range=(0.1, 1.5))

    def test_unit_roundtrip(self):
        dom = SearchDomain(BOSpec(), dataset_size=500)
        cfg = HyperConfig(eta=0.001, batch_size=500, clip=0.5, sigma=1.92)
        back = dom.from_unit(dom.to_unit(cfg))
        assert abs(back.eta - cfg.eta) / cfg.eta < 1e-9
        assert back.batch_size == cfg.batch_size
        assert abs(back.clip - cfg.clip) / cfg.clip < 1e-9
        assert abs(back.sigma - cfg.sigma) < 1e-9

    def test_batch_size_always_valid(self):
        dom = SearchDomain(BOSpec(), dataset_size=37)
        rng = np.random.default_rng(0)
        for _ in range(300):
            cfg = dom.from_unit(rng.random(4))
            assert 1 <= cfg.batch_size <= 37
        assert dom.from_unit([0.0, 0.0, 0.0, 0.0]).batch_size >= 1
        assert dom.from_unit([1.0, 1.0, 1.0, 1.0]).batch_size == 37

    def test_eta_draws_are_log_uniform(self):
        dom = SearchDomain(BOSpec(eta_range=(1e-4, 1e-1)), dataset_size=500)
        rng = np.random.default_rng(42)
        etas = np.array([dom.from_unit(rng.random(4)).eta for _ in range(10_000)])
        geo_mean = math.sqrt(1e-4 * 1e-1)
        assert abs(np.median(etas) - geo_mean) / geo_mean < 0.10
        assert etas.min() >= 1e-4 and etas.max() <= 1e-1

    def test_trial_plan_steps(self):
        dom = SearchDomain(BOSpec(trial_epochs=3), dataset_size=500)
        assert dom.trial_steps(batch_size=500) == 3
        assert dom.trial_steps(batch_size=50) == 30
        assert dom.trial_steps(batch_size=900) == 3  # >= 1/epoch
        with pytest.raises(ConfigError):
            BOSpec(trial_epochs=0)


class TestSurrogatePosterior:
    def test_three_point_dense_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.random((3, 4))
        y = np.array([0.2, 0.8, 0.5])
        ls = np.array([0.4, 0.7, 1.0, 1.3])
        sur = Surrogate(x, y, ls, signal_var=1.3)
        xq = rng.random((6, 4))
        mu_ref, var_ref = _gp_ref_posterior(x, y, xq, ls, 1.3, sur.jitter)
        mu, var = sur.posterior(xq)
        assert np.abs(mu - mu_ref).max() < 1e-8
        assert np.abs(var - var_ref).max() < 1e-8

    def test_two_point_hand_formula(self):
        # lengthscale 1, variance 1: K and its inverse written out by hand.
        x = np.array([[0.2, 0.0, 0.0, 0.0], [0.8, 0.0, 0.0, 0.0]])
        y = np.array([0.3, 0.9])
        sur = Surrogate(x, y, np.ones(4), signal_var=1.0)
        xq = np.array([[0.5, 0.0, 0.0, 0.0]])

        def k(r):
            return (1 + math.sqrt(5) * r + 5 * r * r / 3) * math.exp(-math.sqrt(5) * r)

        j = sur.jitter
        k12 = k(0.6)
        det = (1 + j) ** 2 - k12**2
        inv = np.array([[1 + j, -k12], [-k12, 1 + j]]) / det
        ks = np.array([k(0.3), k(0.3)])
        mu_hand = y.mean() + ks @ inv @ (y - y.mean())
        var_hand = 1.0 - ks @ inv @ ks
        mu, var = sur.posterior(xq)
        assert abs(mu[0] - mu_hand) < 1e-8
        assert abs(var[0] - var_hand) < 1e-8

    def test_interpolates_observations(self):
        rng = np.random.default_rng(2)
        x = rng.random((7, 4))
        y = rng.random(7)
        sur = Surrogate(x, y, np.full(4, 0.5), signal_var=1.0)
        mu, var = sur.posterior(x)
        assert np.abs(mu - y).max() <= 1e-3
        assert var.max() <= 1e-3

    def test_far_query_reverts_to_prior(self):
        rng = np.random.default_rng(3)
        x = rng.random((5, 4))
        y = rng.random(5)
        sur = Surrogate(x, y, np.ones(4), signal_var=0.7)
        mu, var = sur.posterior(np.full((1, 4), 30.0))  # dozens of lengthscales out
        assert abs(mu[0] - y.mean()) <= 1e-3
        assert abs(var[0] - 0.7) <= 1e-3

    def test_duplicate_points_absorbed_by_jitter(self):
        x = np.vstack([np.full((4, 4), 0.5), np.full((4, 4), 0.25)])
        y = np.array([0.4, 0.4, 0.4, 0.4, 0.7, 0.7, 0.7, 0.7])
        sur = Surrogate(x, y, np.ones(4), signal_var=1.0)
        assert sur.jitter <= JITTER_MAX
        mu, var = sur.posterior(np.array([[0.5, 0.5, 0.5, 0.5]]))
        assert abs(mu[0] - 0.4) < 1e-2
        assert np.all(var >= 0.0)

    def test_variance_never_negative(self):
        rng = np.random.default_rng(4)
        x = rng.random((20, 4))
        y = rng.random(20)
        sur = Surrogate(x, y, np.full(4, 0.2), signal_var=2.0)
        _, var = sur.posterior(rng.random((200, 4)))
        assert np.all(var >= 0.0)

    def test_non_finite_input_fails_loudly(self):
        rng = np.random.default_rng(6)
        x = rng.random((5, 4))
        y = rng.random(5)
        y[2] = np.nan
        with pytest.raises(ValueError):
            Surrogate(x, y, np.ones(4), signal_var=1.0)
        x[1, 0] = np.inf
        with pytest.raises(ValueError):
            Surrogate(x, rng.random(5), np.ones(4), signal_var=1.0)


class TestScipyParity:
    """The numpy Cholesky and triangular solves against the scipy calls they
    replaced, on the kernels of random point sets."""

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_posterior_and_likelihood_match_cho_solve(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 36))
        x, y = rng.random((n, 4)), rng.random(n)
        ls = np.exp(rng.uniform(math.log(0.05), math.log(5.0), 4))
        var = float(rng.uniform(0.1, 2.0))
        sur = Surrogate(x, y, ls, var)
        kernel = hpo._matern52(x, x, ls, var) + sur.jitter * np.eye(n)
        chol = linalg.cholesky(kernel, lower=True)
        resid = y - y.mean()
        alpha = linalg.cho_solve((chol, True), resid)
        xq = rng.random((50, 4))
        k_star = hpo._matern52(xq, x, ls, var)
        v = linalg.solve_triangular(chol, k_star.T, lower=True)
        lml = (-0.5 * resid @ alpha - np.log(np.diag(chol)).sum()
               - 0.5 * n * math.log(2.0 * math.pi))
        # two backward-stable solvers part by about eps times the condition
        # number (up to 2e4 here)
        tol = 1e-14 * np.linalg.cond(kernel)
        np.testing.assert_allclose(sur.chol, chol, rtol=0, atol=tol)
        np.testing.assert_allclose(sur.alpha, alpha, rtol=0, atol=tol * np.abs(alpha).max())
        mean, variance = sur.posterior(xq)
        np.testing.assert_allclose(mean, y.mean() + k_star @ alpha, rtol=0, atol=tol)
        np.testing.assert_allclose(variance, np.maximum(var - (v * v).sum(axis=0), 0.0),
                                   rtol=0, atol=tol * var)
        assert abs(sur.log_marginal_likelihood() - lml) <= tol * max(1.0, abs(lml))

    @staticmethod
    def _rank_deficient(shift):
        # rank 3 of 8, shifted down: positive definite only once the jitter
        # exceeds the shift
        b = np.random.default_rng(0).random((8, 3))
        return b @ b.T - shift * np.eye(8)

    def _jitters_tried(self, monkeypatch, kernel):
        tried = []
        factor = np.linalg.cholesky

        def spy(matrix):
            # one jitter per member of the stack factored
            tried.extend((matrix[..., 0, 0] - kernel[0, 0]).ravel().tolist())
            return factor(matrix)

        monkeypatch.setattr(hpo, "_matern52", lambda *args: kernel)
        monkeypatch.setattr(hpo.np.linalg, "cholesky", spy)
        return tried

    def test_jitter_escalates_where_dpotrf_fails(self, monkeypatch):
        kernel = self._rank_deficient(5e-6)
        tried = self._jitters_tried(monkeypatch, kernel)
        sur = Surrogate(np.zeros((8, 4)), np.arange(8.0), np.ones(4), 1.0)
        assert tried == pytest.approx([1e-6, 1e-5])
        assert sur.jitter == pytest.approx(1e-5)
        # LAPACK's info > 0 at the jitter given up, 0 at the one kept
        assert lapack.dpotrf(kernel + 1e-6 * np.eye(8), lower=1)[1] > 0
        assert lapack.dpotrf(kernel + 1e-5 * np.eye(8), lower=1)[1] == 0

    def test_rank_deficient_kernel_escalates_then_raises(self, monkeypatch):
        kernel = self._rank_deficient(1e-3)
        tried = self._jitters_tried(monkeypatch, kernel)
        with pytest.raises(InfeasibleError):
            Surrogate(np.zeros((8, 4)), np.arange(8.0), np.ones(4), 1.0)
        assert tried == pytest.approx([1e-6, 1e-5, 1e-4])
        for jitter in tried:
            assert lapack.dpotrf(kernel + jitter * np.eye(8), lower=1)[1] > 0

    def test_expected_improvement_matches_scipy_norm(self):
        rng = np.random.default_rng(10)
        mu = rng.normal(size=2000) * 3.0
        sd = np.abs(rng.normal(size=2000)) + 1e-3
        u = (mu - 0.2 - 0.01) / sd
        want = np.maximum((mu - 0.2 - 0.01) * norm.cdf(u) + sd * norm.pdf(u), 0.0)
        got = expected_improvement_values(mu, sd, 0.2, xi=0.01)
        # the two terms cancel where u is very negative; compare at the
        # scale of the larger term
        scale = np.abs(mu - 0.21) * norm.cdf(u) + sd * norm.pdf(u)
        assert np.all(np.abs(got - want) <= 1e-13 * scale + 1e-300)


class TestGPFit:
    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(5)
        x = rng.random((10, 4))
        y = np.sin(4 * x[:, 0]) * 0.4 + 0.5
        a = gp_fit(x, y)
        b = gp_fit(x, y)
        assert np.array_equal(a.lengthscales, b.lengthscales)
        assert a.signal_var == b.signal_var
        assert a.log_marginal_likelihood() == b.log_marginal_likelihood()

    def test_fit_not_worse_than_fixed_start(self):
        rng = np.random.default_rng(6)
        x = rng.random((12, 4))
        y = x[:, 0] ** 2 + 0.1 * x[:, 1]
        fitted = gp_fit(x, y)
        naive = Surrogate(x, y, np.ones(4), signal_var=max(float(np.var(y)), 1e-4))
        assert fitted.log_marginal_likelihood() >= naive.log_marginal_likelihood()

    def test_needs_two_observations(self):
        with pytest.raises(ConfigError):
            gp_fit(np.array([[0.5, 0.5, 0.5, 0.5]]), np.array([0.5]))

    class _RefSurrogate(Surrogate):
        """The surrogate as written before it became a stack of one: one
        kernel, factored and whitened on its own."""

        def __post_init__(self):
            self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
            self.y = np.asarray(self.y, dtype=np.float64)
            self.lengthscales = np.asarray(self.lengthscales, dtype=np.float64)
            self.y_mean = float(self.y.mean())
            d = (self.x[:, None, :] / self.lengthscales
                 - self.x[None, :, :] / self.lengthscales)
            r = np.sqrt(np.maximum((d * d).sum(axis=2), 0.0))
            s5r = math.sqrt(5.0) * r
            kernel = self.signal_var * (1.0 + s5r + 5.0 * r * r / 3.0) * np.exp(-s5r)
            jitter = self.jitter
            while True:
                try:
                    chol = np.linalg.cholesky(kernel + jitter * np.eye(len(self.y)))
                    break
                except np.linalg.LinAlgError:
                    jitter *= 10.0
                    if jitter > JITTER_MAX:
                        raise InfeasibleError("singular") from None
            self.chol = chol
            self.jitter = jitter
            self.white = np.linalg.solve(chol, self.y - self.y_mean)

        def log_marginal_likelihood(self):
            return float(-0.5 * self.white @ self.white
                         - np.log(np.diag(self.chol)).sum()
                         - 0.5 * len(self.y) * math.log(2.0 * math.pi))

    @classmethod
    def _ref_gp_fit(cls, x, y):
        # the descent as written before it scored each parameter vector once,
        # one start after another, one surrogate per probe
        dims = x.shape[1]
        var0 = max(float(np.var(y)), 1e-4)
        best, best_lml = None, -np.inf
        for ls0 in hpo._LS_STARTS:
            params = np.array([ls0] * dims + [var0])
            current = cls._RefSurrogate(x, y, params[:dims], params[dims])
            lml = current.log_marginal_likelihood()
            for _ in range(3):
                improved = False
                for pi in range(dims + 1):
                    for factor in hpo._STEP_FACTORS:
                        trial = params.copy()
                        trial[pi] *= factor
                        lo, hi = hpo._LS_BOUNDS if pi < dims else hpo._VAR_BOUNDS
                        trial[pi] = min(max(trial[pi], lo), hi)
                        if trial[pi] == params[pi]:
                            continue
                        cand = cls._RefSurrogate(x, y, trial[:dims], trial[dims])
                        cand_lml = cand.log_marginal_likelihood()
                        if cand_lml > lml + 1e-10:
                            params, current, lml = trial, cand, cand_lml
                            improved = True
                if not improved:
                    break
            if lml > best_lml:
                best, best_lml = current, lml
        return best

    # x of this size holds every row twice, and two of the starts meet: they
    # propose the same vector in one probe
    DUPLICATED = 6

    @staticmethod
    def _strict_factorization(monkeypatch):
        """np.linalg.cholesky refusing, as dpotrf does at a nonpositive pivot,
        every stack in which a member's smallest eigenvalue is under 5e-6 of
        its diagonal; returns the (stack size, refused) of each call. The
        real factorization accepts a kernel of repeated rows at jitter 1e-6
        (its rounding is about 1e-13), so this makes the jitter escalate."""
        calls = []
        factor = np.linalg.cholesky

        def strict(matrix):
            smallest = np.linalg.eigvalsh(matrix)[..., 0]
            refused = bool((smallest < 5e-6 * matrix[..., 0, 0]).any())
            calls.append((len(matrix), refused))
            if refused:
                raise np.linalg.LinAlgError("not positive definite")
            return factor(matrix)

        monkeypatch.setattr(hpo.np.linalg, "cholesky", strict)
        return calls

    @pytest.mark.parametrize("n", [2, 3, 12, 30, DUPLICATED])
    def test_each_parameter_vector_is_built_once(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        x, y = rng.random((n, 4)), rng.random(n)
        if n == self.DUPLICATED:
            x[n // 2:] = x[:n // 2]
            factored = self._strict_factorization(monkeypatch)
        want = self._ref_gp_fit(x, y)
        scored, built = [], []
        score_stack = hpo._score_stack

        def counting_stack(x, y, params):
            scored.extend(p.tobytes() for p in params)
            return score_stack(x, y, params)

        class Counting(Surrogate):
            def __post_init__(self):
                built.append(np.append(self.lengthscales, self.signal_var).tobytes())
                super().__post_init__()

        monkeypatch.setattr(hpo, "_score_stack", counting_stack)
        monkeypatch.setattr(hpo, "Surrogate", Counting)
        if n == self.DUPLICATED:
            factored.clear()
        got = gp_fit(x, y)
        # every vector scored once, in stacks of at most one per start, and
        # one surrogate built for the winner
        assert len(scored) == len(set(scored))
        assert built == [np.append(got.lengthscales, got.signal_var).tobytes()]
        assert built[0] in scored
        if n == self.DUPLICATED:
            # a refused stack retried member by member, and only some of
            # its members escalated
            assert (5, True) in factored
            assert (1, True) in factored and (1, False) in factored
            assert max(size for size, _ in factored) <= len(hpo._LS_STARTS)
        assert np.array_equal(got.lengthscales, want.lengthscales)
        assert got.signal_var == want.signal_var
        assert np.array_equal(got.chol, want.chol)
        assert got.log_marginal_likelihood() == want.log_marginal_likelihood()

    def test_fitted_surrogate_interpolates(self):
        rng = np.random.default_rng(7)
        x = rng.random((9, 4))
        y = 0.3 + 0.4 * x[:, 2]
        sur = gp_fit(x, y)
        (mean,), (var,) = sur.posterior(x[4])
        assert abs(mean - y[4]) <= 1e-3
        assert var <= 1e-3


class TestExpectedImprovement:
    def test_value_at_incumbent_with_unit_sigma(self):
        # mu = y*, sigma = 1, xi = 0: EI collapses to the standard normal
        # density at zero.
        val = expected_improvement_values(
            np.array([0.5]), np.array([1.0]), 0.5, xi=0.0
        )[0]
        assert abs(val - 0.39894) < 1e-4
        assert abs(val - norm.pdf(0.0)) < 1e-12

    def test_degenerate_sigma_positive_part(self):
        vals = expected_improvement_values(
            np.array([0.8, 0.2]), np.array([0.0, 0.0]), 0.5, xi=0.0
        )
        assert vals[0] == pytest.approx(0.3, abs=1e-15)
        assert vals[1] == 0.0

    def test_hand_value_against_normal_oracle(self):
        # mu=1, sigma=2, y*=0, xi=0 -> u=0.5 -> EI = Phi(.5) + 2 phi(.5)
        val = expected_improvement_values(
            np.array([1.0]), np.array([2.0]), 0.0, xi=0.0
        )[0]
        assert abs(val - (norm.cdf(0.5) + 2 * norm.pdf(0.5))) < 1e-12

    def test_xi_shifts_the_threshold(self):
        lo = expected_improvement_values(np.array([0.5]), np.array([1.0]), 0.5, xi=0.5)[0]
        hi = expected_improvement_values(np.array([0.5]), np.array([1.0]), 0.5, xi=0.0)[0]
        assert lo < hi

    def test_near_zero_at_noiseless_incumbent(self):
        rng = np.random.default_rng(8)
        x = rng.random((6, 4))
        y = rng.random(6)
        sur = gp_fit(x, y)
        best = int(np.argmax(y))
        mean, var = sur.posterior(x[best])
        ei = expected_improvement_values(mean, np.sqrt(var), float(y[best]))[0]
        assert 0.0 <= ei <= 1e-6

    def test_monotone_in_mu(self):
        mus = np.linspace(-1.0, 2.0, 50)
        ei = expected_improvement_values(mus, np.full(50, 0.7), 0.3, xi=0.01)
        assert np.all(np.diff(ei) >= -1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(9)
        ei = expected_improvement_values(
            rng.normal(size=500), np.abs(rng.normal(size=500)), 0.2
        )
        assert np.all(ei >= 0.0)


class TestPlannedCostFilter:
    def test_integer_grid_upper_bounds_full_accountant(self):
        rng = np.random.default_rng(10)
        qs = rng.uniform(0.02, 1.0, 25)
        sigmas = rng.uniform(0.5, 4.0, 25)
        steps = rng.integers(1, 150, 25)
        fast = privacy_cost_integer_orders(qs, sigmas, steps, 1e-5)
        for i in range(25):
            exact = privacy_cost(DPConfig(1.0, sigmas[i], qs[i], 1e-5), int(steps[i]))
            assert fast[i] >= exact - 1e-9

    def test_full_batch_closed_form(self):
        sig, steps, delta = 1.92, 3, 1e-5
        got = privacy_cost_integer_orders(
            np.array([1.0]), np.array([sig]), np.array([steps]), delta
        )[0]
        alphas = np.arange(2, 65, dtype=np.float64)
        want = np.min(steps * alphas / (2 * sig**2) + np.log(1 / delta) / (alphas - 1))
        assert abs(got - want) < 1e-12

    def test_edge_cases(self):
        zero = privacy_cost_integer_orders(
            np.array([0.5]), np.array([1.0]), np.array([0]), 1e-5
        )
        assert zero[0] == 0.0
        noiseless = privacy_cost_integer_orders(
            np.array([0.5]), np.array([0.0]), np.array([10]), 1e-5
        )
        assert math.isinf(noiseless[0])

    def test_reference_full_batch_config_fits_eps_5(self):
        # eta 0.0010, sigma 1.92, clip 0.50, sampling rate 1.00 must clear an
        # eps = 5 budget at delta = 1e-5 over the desk trial length (3 epochs).
        dom = SearchDomain(BOSpec(trial_epochs=3), dataset_size=500)
        cfg = HyperConfig(eta=0.0010, batch_size=500, clip=0.50, sigma=1.92)
        cost = planned_cost(cfg, dom, 1e-5)
        analytic = _analytic_eps_full_batch(1.92, 3, 1e-5)
        assert cost <= 5.0
        # accountant sits at the closed-form optimum (never below it)
        assert analytic * (1 - 1e-12) <= cost <= analytic * 1.01
        qs = np.array([1.0])
        fast = privacy_cost_integer_orders(qs, np.array([1.92]), np.array([3]), 1e-5)
        assert fast[0] <= 5.0  # the pre-training filter admits it too


class TestProposeNext:
    def _fitted(self, dom, rng):
        xs = np.array([dom.to_unit(dom.from_unit(rng.random(4))) for _ in range(6)])
        ys = rng.random(6)
        return gp_fit(xs, ys), float(ys.max())

    def test_infinite_budget_returns_in_domain_config(self):
        dom = SearchDomain(BOSpec(trial_epochs=3), dataset_size=300)
        rng = np.random.default_rng(11)
        sur, inc = self._fitted(dom, rng)
        cfg = propose_next(sur, dom, math.inf, 1e-5, rng, inc)
        assert dom.spec.eta_range[0] <= cfg.eta <= dom.spec.eta_range[1]
        assert 1 <= cfg.batch_size <= 300
        assert dom.spec.sigma_range[0] <= cfg.sigma <= dom.spec.sigma_range[1]

    def test_forced_infeasibility_raises_with_advice(self):
        dom = SearchDomain(BOSpec(trial_epochs=3, sigma_range=(0.5, 0.6)),
                           dataset_size=300)
        sur, inc = self._fitted(dom, np.random.default_rng(12))
        messages = []
        for propose in (self._ref_propose_next, propose_next):
            with pytest.raises(InfeasibleError, match="sigma range|budget") as err:
                propose(sur, dom, 1e-3, 1e-5, np.random.default_rng(13), inc)
            messages.append(str(err.value))
        # the message of pricing the whole pool at once
        assert messages[0] == messages[1]

    def test_admitted_configs_reverified_by_full_accountant(self):
        dom = SearchDomain(BOSpec(trial_epochs=3), dataset_size=500)
        budget = 2.0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            sur, inc = self._fitted(dom, rng)
            cfg = propose_next(sur, dom, budget, 1e-5, rng, inc)
            assert planned_cost(cfg, dom, 1e-5) <= budget

    @staticmethod
    def _ref_propose_next(surrogate, domain, eps_budget, delta, rng, incumbent):
        # the proposal as written before EI-ordered pricing: every candidate
        # of the pool priced, the posterior taken on the feasible ones
        unit = sobol_points(int(math.log2(CANDIDATE_POOL)),
                            int(rng.integers(2**31 - 1)))
        configs = [domain.from_unit(u) for u in unit]
        if math.isinf(eps_budget):
            feasible = np.ones(len(configs), dtype=bool)
        else:
            feasible = hpo._planned_costs(configs, domain, delta) <= eps_budget
        if not feasible.any():
            raise InfeasibleError(
                f"no candidate of {len(configs)} fits eps={eps_budget}; widen the "
                "sigma range or raise the budget")
        idx = np.flatnonzero(feasible)
        mean, var = surrogate.posterior(unit[idx])
        ei = expected_improvement_values(mean, np.sqrt(var), incumbent)
        return configs[int(idx[int(np.argmax(ei))])]

    # on this domain under 5% of every seed's pool fits eps = 0.45
    SCARCE_BUDGET = 0.45

    @staticmethod
    def _pool_fraction_fitting(dom, seed, budget):
        pool_seed = int(np.random.default_rng(seed).integers(2**31 - 1))
        configs = [dom.from_unit(u) for u in
                   sobol_points(int(math.log2(CANDIDATE_POOL)), pool_seed)]
        return float((hpo._planned_costs(configs, dom, 1e-5) <= budget).mean())

    def test_same_choice_as_pricing_the_whole_pool(self):
        dom = SearchDomain(BOSpec(trial_epochs=3), dataset_size=500)
        for seed in range(20):
            sur, inc = self._fitted(dom, np.random.default_rng(200 + seed))
            assert 0.0 < self._pool_fraction_fitting(
                dom, (200 + seed, 1), self.SCARCE_BUDGET) < 0.05
            for budget in (math.inf, 5.0, self.SCARCE_BUDGET):
                want = self._ref_propose_next(
                    sur, dom, budget, 1e-5, np.random.default_rng((200 + seed, 1)), inc)
                got = propose_next(
                    sur, dom, budget, 1e-5, np.random.default_rng((200 + seed, 1)), inc)
                assert got == want, (seed, budget)

    def test_prices_only_the_chunks_it_reads(self, monkeypatch):
        # desk-search's hpo domain: the first shard's nas_train subset
        dom = SearchDomain(BOSpec(k_init=2, n_iter=1, trial_epochs=2,
                                  q_range=(0.32, 0.34)), dataset_size=238)
        priced = []
        planned = hpo._planned_costs

        def counting(configs, domain, delta):
            priced.append(len(configs))
            return planned(configs, domain, delta)

        monkeypatch.setattr(hpo, "_planned_costs", counting)
        for seed in range(5):
            rng = np.random.default_rng(300 + seed)
            sur, inc = self._fitted(dom, rng)
            priced.clear()
            propose_next(sur, dom, math.inf, 1e-5, rng, inc)
            assert priced == []
            propose_next(sur, dom, 5.0, 1e-5, rng, inc)
            assert priced == [hpo._FIRST_CHUNK]
        # a budget nothing fits prices the whole pool once, in doubling
        # chunks, the last one cut at the pool's end
        priced.clear()
        with pytest.raises(InfeasibleError):
            propose_next(sur, dom, 1e-3, 1e-5, rng, inc)
        assert priced == [32, 64, 128, 256, 512, 32]
        assert sum(priced) == CANDIDATE_POOL


class TestSobolPoints:
    """The local scrambled Sobol' generator against the scipy one it copies."""

    def test_candidate_pool_equals_scipy_for_many_seeds(self):
        m = int(math.log2(CANDIDATE_POOL))
        for seed in list(range(50)) + [2**31 - 2]:
            # the call propose_next made before the generator was local
            ref = qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m=m)
            got = sobol_points(m, seed)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref), seed

    @pytest.mark.parametrize("m", [0, 1, 3, 12])
    def test_other_pool_sizes_equal_scipy(self, m):
        ref = qmc.Sobol(d=4, scramble=True, seed=7).random_base2(m=m)
        assert np.array_equal(sobol_points(m, 7), ref)

    def test_points_are_a_balanced_unit_cube_sample(self):
        # each dimension of 2**m points puts one point in each of the 2**m
        # equal cells of [0, 1)
        m = 8
        pts = sobol_points(m, 3)
        assert pts.shape == (2**m, 4)
        for col in pts.T:
            assert sorted(np.floor(col * 2**m).astype(int)) == list(range(2**m))


class TestRunBO:
    def test_quadratic_bowl_finds_optimum(self):
        # Known-optimum objective on the unit cube; 18 of 20 seeds must land
        # within 5% of the peak value.
        dom = SearchDomain(BOSpec(k_init=5, n_iter=30, trial_epochs=3),
                           dataset_size=500)
        target = np.array([0.3, 0.7, 0.5, 0.2])

        def bowl(cfg):
            u = dom.to_unit(cfg)
            return float(1.0 - np.sum((u - target) ** 2))

        wins = 0
        for seed in range(20):
            res = run_bo(bowl, dom, math.inf, delta=1e-5,
                         rng=np.random.default_rng(seed))
            wins += bowl(res.best) >= 0.95
        assert wins >= 18

    def test_best_observed_never_decreases(self):
        dom = SearchDomain(BOSpec(k_init=4, n_iter=8, trial_epochs=3),
                           dataset_size=500)

        def objective(cfg):
            return 1.0 / (1.0 + abs(math.log10(cfg.eta) + 2.5))

        res = run_bo(objective, dom, math.inf, delta=1e-5,
                     rng=np.random.default_rng(21))
        accs = [r.val_acc for r in res.trace if r.val_acc is not None]
        running = np.maximum.accumulate(accs)
        assert np.array_equal(running, np.maximum.accumulate(running))
        assert res.best_observed == max(accs)

    def test_zero_iterations_uses_init_phase_only(self):
        dom = SearchDomain(BOSpec(k_init=3, n_iter=0, trial_epochs=3),
                           dataset_size=500)
        res = run_bo(lambda c: c.eta, dom, math.inf, delta=1e-5,
                     rng=np.random.default_rng(13))
        assert len(res.trace) == 3
        assert res.best in [r.config for r in res.trace]

    def test_invalid_loop_parameters(self):
        with pytest.raises(ConfigError):
            BOSpec(k_init=1)
        with pytest.raises(ConfigError):
            BOSpec(n_iter=-1)

    def test_budget_audit_every_trained_trial_fits(self):
        # Recompute every logged cost from the raw hyperparameters: trained
        # rows must fit the budget, discarded rows must exceed it.
        dom = SearchDomain(BOSpec(k_init=4, n_iter=4, trial_epochs=3),
                           dataset_size=400)
        budget = 2.5
        res = run_bo(lambda c: min(1.0, 10 * c.eta), dom, budget, delta=1e-5,
                     rng=np.random.default_rng(14))
        trained = discarded = 0
        for rec in res.trace:
            cost = planned_cost(rec.config, dom, 1e-5)
            assert abs(cost - rec.eps_planned) < 1e-9
            if rec.val_acc is not None:
                assert rec.feasible and cost <= budget
                trained += 1
            else:
                assert not rec.feasible and cost > budget
                discarded += 1
        assert trained == 8
        assert discarded >= 1  # the budget actually bit during random init
        best_cost = planned_cost(res.best, dom, 1e-5)
        assert best_cost <= budget

    def test_no_feasible_draws_raises(self):
        dom = SearchDomain(BOSpec(k_init=2, n_iter=0, trial_epochs=3),
                           dataset_size=400)
        with pytest.raises(InfeasibleError, match="sigma range|budget"):
            run_bo(lambda c: 0.5, dom, 1e-4, delta=1e-5,
                   rng=np.random.default_rng(15))

    def test_trace_csv_schema_and_reproducibility(self, tmp_path):
        dom = SearchDomain(BOSpec(k_init=3, n_iter=2, trial_epochs=3),
                           dataset_size=400)
        paths = []
        for run in range(2):
            path = tmp_path / f"bo_{run}.csv"
            res = run_bo(lambda c: min(1.0, 5 * c.eta), dom, 3.0, delta=1e-5,
                         rng=np.random.default_rng(16))
            write_bo_trace(path, res.trace)
            paths.append(path)
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        lines = first.decode().strip().split("\n")
        assert lines[0] == "iter,eta,B,C,sigma,eps_planned,val_acc,feasible"
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 8
            assert fields[7] in ("0", "1")
            if fields[7] == "0":
                assert fields[6] == ""  # discarded rows carry no accuracy


class TestDPTrialEvaluator:
    SMALL = SpaceConfig(
        input_shape=(3, 8, 8), d_rep=16, num_classes=2, min_len=3, max_len=4
    )

    def _data(self, seed=17):
        rng = np.random.default_rng(seed)
        x_tr, y_tr = _blob_data(rng, 240)
        x_va, y_va = _blob_data(rng, 100)
        assert _centroid_oracle_accuracy(x_tr, y_tr, x_va, y_va) >= 0.99
        return x_tr, y_tr, x_va, y_va

    @staticmethod
    def _domain(x_train, epochs):
        return SearchDomain(BOSpec(trial_epochs=epochs), len(x_train))

    def test_learns_separable_blobs_without_noise(self):
        x_tr, y_tr, x_va, y_va = self._data()
        genome = sample_random_genome(self.SMALL, np.random.default_rng(3))
        ev = DPTrialEvaluator(genome, self.SMALL, x_tr, y_tr, x_va, y_va,
                              self._domain(x_tr, 5), seed=1, delta=1e-5)
        acc = ev(HyperConfig(eta=0.1, batch_size=32, clip=10.0, sigma=0.0))
        assert acc >= 0.9

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_trial_scores_zero(self):
        x_tr, y_tr, x_va, y_va = self._data(18)
        genome = sample_random_genome(self.SMALL, np.random.default_rng(3))
        ev = DPTrialEvaluator(genome, self.SMALL, x_tr, y_tr, x_va, y_va,
                              self._domain(x_tr, 2), seed=1, delta=1e-5)
        acc = ev(HyperConfig(eta=1e12, batch_size=64, clip=100.0, sigma=0.0))
        assert acc == 0.0

    def test_deterministic_in_call_order(self):
        x_tr, y_tr, x_va, y_va = self._data(19)
        genome = sample_random_genome(self.SMALL, np.random.default_rng(4))
        cfgs = [
            HyperConfig(eta=0.05, batch_size=40, clip=5.0, sigma=0.5),
            HyperConfig(eta=0.02, batch_size=60, clip=2.0, sigma=1.0),
        ]
        runs = []
        for _ in range(2):
            ev = DPTrialEvaluator(genome, self.SMALL, x_tr, y_tr, x_va, y_va,
                                  self._domain(x_tr, 1), seed=7,
                                  delta=1e-5)
            runs.append([ev(c) for c in cfgs])
        assert runs[0] == runs[1]
        assert ev.calls == 2

    @pytest.mark.parametrize("batch", [40, 500])
    def test_trial_spends_exactly_its_planned_cost(self, batch, monkeypatch):
        # q = 40/240 < 1, and an oversized batch that trains at q = 1
        x_tr, y_tr, x_va, y_va = self._data(21)
        genome = sample_random_genome(self.SMALL, np.random.default_rng(5))
        domain = self._domain(x_tr, 2)
        ledgers, real = [], hpo.train_dp_sgd

        def spy(model, x, y, ledger, **kwargs):
            ledgers.append(ledger)
            return real(model, x, y, ledger, **kwargs)

        monkeypatch.setattr(hpo, "train_dp_sgd", spy)
        config = HyperConfig(eta=0.05, batch_size=batch, clip=1.0, sigma=1.2)
        DPTrialEvaluator(genome, self.SMALL, x_tr, y_tr, x_va, y_va, domain,
                         seed=2, delta=1e-5)(config)
        (ledger,) = ledgers
        assert ledger.dp.sampling_rate == min(batch, 240) / 240
        assert ledger.steps == domain.trial_steps(batch)
        assert ledger.eps_spent() == planned_cost(config, domain, 1e-5)

    def test_shard_must_match_domain(self):
        # the domain sizes the sampling rate and the steps a trial is
        # charged for, so it must describe the shard the trial trains on
        x_tr, y_tr, x_va, y_va = self._data(20)
        genome = sample_random_genome(self.SMALL, np.random.default_rng(4))
        with pytest.raises(ConfigError, match="240"):
            DPTrialEvaluator(genome, self.SMALL, x_tr, y_tr, x_va, y_va,
                             SearchDomain(BOSpec(), len(x_tr) + 1),
                             seed=1, delta=1e-5)


class TestTraceWriter:
    def test_rows_match_records(self, tmp_path):
        recs = [
            BORecord(0, HyperConfig(0.01, 32, 1.0, 2.0), 1.25, 0.75, True),
            BORecord(1, HyperConfig(0.10, 64, 0.5, 0.6), 9.00, None, False),
        ]
        path = tmp_path / "trace.csv"
        write_bo_trace(path, recs)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,eta,B,C,sigma,eps_planned,val_acc,feasible"
        assert lines[1] == "0,0.01,32,1,2,1.250000,0.750000,1"
        assert lines[2] == "1,0.1,64,0.5,0.6,9.000000,,0"
