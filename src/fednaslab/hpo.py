"""Privacy-constrained Bayesian hyperparameter search.

Searches {learning rate, batch size, clip threshold, noise multiplier} with a
Gaussian-process surrogate (Matérn-5/2, per-dimension lengthscales) and the
Expected Improvement acquisition, pruning every candidate whose planned
privacy cost would exceed the client's budget before any training happens.
The four dimensions are normalized to the unit cube (log scale for learning
rate, sampling rate, and clip norm) so one set of lengthscales is meaningful
across decades.

The package imports no scipy at run time; scipy's import was most of every
command's start-up. Each scipy call the search made has a numpy
replacement, checked against scipy in tests/test_hpo.py:

- scipy.stats.qmc.Sobol(d=4, scramble=True): `sobol_points`, a local copy
  (Joe-Kuo direction numbers, linear matrix scrambling plus a digital shift,
  Gray-code order) that returns the same points bit for bit.
- scipy.special.ndtr in expected improvement: exp of the accountant's
  `privacy._log_ndtr`; EI is within 1e-13 of the scipy.stats.norm formula,
  relative to its larger term.
- LAPACK dpotrf/dpotrs and scipy.linalg.solve_triangular in `Surrogate`:
  np.linalg.cholesky and np.linalg.solve on the triangular factor. The
  factor, alpha, the posterior and the log marginal likelihood agree with
  scipy's to about 1e-14 times the kernel's condition number, and a
  LinAlgError escalates the jitter where dpotrf's info > 0 did.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InfeasibleError, NonFiniteError
from .nn.model import evaluate_accuracy
from .privacy import (
    DPConfig,
    PrivacyLedger,
    _log_ndtr,
    privacy_cost,
    privacy_cost_integer_orders,
    train_dp_sgd,
)
from .records import write_csv
from .space import Genome, SpaceConfig, materialize

logger = logging.getLogger(__name__)

XI_DEFAULT = 0.01
CANDIDATE_POOL = 1024
JITTER_START = 1e-6
JITTER_MAX = 1e-4


@dataclass(frozen=True)
class HyperConfig:
    """One candidate training configuration."""

    eta: float
    batch_size: int
    clip: float
    sigma: float

    def __post_init__(self):
        if self.eta <= 0:
            raise ConfigError(f"eta must be > 0, got {self.eta}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.clip <= 0:
            raise ConfigError(f"clip must be > 0, got {self.clip}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    def mechanism(self, n: int, delta: float) -> DPConfig:
        """The DP-SGD mechanism of this recipe on `n` samples: its clip and
        sigma at the rate min(B, n) / n its batches draw. The only code that
        turns a recipe into a mechanism."""
        if n < 1:
            raise ConfigError(f"a mechanism needs n >= 1 samples, got {n}")
        return DPConfig(self.clip, self.sigma, min(self.batch_size, n) / n, delta)


@dataclass(frozen=True)
class BOSpec:
    """The `bo` config section: search schedule, trial length, and the box
    bounds of the four dimensions."""

    k_init: int = 3
    n_iter: int = 5
    # short enough that a full-batch trial (sampling rate 1) with sigma
    # near 2 still clears an eps = 5 budget
    trial_epochs: int = 3
    eta_range: tuple[float, float] = (1e-4, 1e-1)
    q_range: tuple[float, float] = (0.02, 1.0)
    clip_range: tuple[float, float] = (0.1, 4.0)
    sigma_range: tuple[float, float] = (0.5, 4.0)

    def __post_init__(self):
        if self.k_init < 2:
            raise ConfigError(f"bo.k_init must be >= 2, got {self.k_init}")
        if self.n_iter < 0:
            raise ConfigError(f"bo.n_iter must be >= 0, got {self.n_iter}")
        if self.trial_epochs < 1:
            raise ConfigError(f"bo.trial_epochs must be >= 1, got {self.trial_epochs}")
        for name in ("eta_range", "q_range", "clip_range", "sigma_range"):
            lo, hi = getattr(self, name)
            if not (0 < lo < hi):
                raise ConfigError(
                    f"bo.{name}: need 0 < low < high, got {(lo, hi)}")
        if self.q_range[1] > 1.0:
            raise ConfigError(
                f"bo.q_range: high must be <= 1, got {self.q_range[1]}")


@dataclass(frozen=True)
class SearchDomain:
    """One client's search: the `bo` section plus the size of the shard the
    trials train on. The shard size converts sampling rates into batch
    sizes and trial epochs into steps."""

    spec: BOSpec
    dataset_size: int

    def __post_init__(self):
        if self.dataset_size < 1:
            raise ConfigError(f"dataset_size must be >= 1, got {self.dataset_size}")

    def trial_steps(self, batch_size: int) -> int:
        """Steps of one trial: each epoch visits the shard roughly once."""
        return self.spec.trial_epochs * max(1, round(self.dataset_size / batch_size))

    def _log_unit(self, value, lo, hi):
        return math.log(value / lo) / math.log(hi / lo)

    def to_unit(self, config: HyperConfig) -> np.ndarray:
        spec = self.spec
        q = min(max(config.batch_size / self.dataset_size, spec.q_range[0]),
                spec.q_range[1])
        eta = min(max(config.eta, spec.eta_range[0]), spec.eta_range[1])
        clip = min(max(config.clip, spec.clip_range[0]), spec.clip_range[1])
        sig_lo, sig_hi = spec.sigma_range
        sigma = min(max(config.sigma, sig_lo), sig_hi)
        return np.array([
            self._log_unit(eta, *spec.eta_range),
            self._log_unit(q, *spec.q_range),
            self._log_unit(clip, *spec.clip_range),
            (sigma - sig_lo) / (sig_hi - sig_lo),
        ])

    def from_unit(self, u) -> HyperConfig:
        spec = self.spec
        u = np.clip(np.asarray(u, dtype=np.float64), 0.0, 1.0)

        def log_interp(t, lo, hi):
            return lo * (hi / lo) ** t

        q = log_interp(u[1], *spec.q_range)
        batch = int(min(max(round(q * self.dataset_size), 1), self.dataset_size))
        sig_lo, sig_hi = spec.sigma_range
        return HyperConfig(
            eta=float(log_interp(u[0], *spec.eta_range)),
            batch_size=batch,
            clip=float(log_interp(u[2], *spec.clip_range)),
            sigma=float(sig_lo + u[3] * (sig_hi - sig_lo)),
        )


def _matern52(a: np.ndarray, b: np.ndarray, lengthscales: np.ndarray,
              signal_var) -> np.ndarray:
    """Matérn-5/2 kernel matrix with per-dimension lengthscales.

    `lengthscales` [..., dims] and `signal_var` [...] may carry leading
    stack axes, which the result [..., len(a), len(b)] takes: one kernel per
    parameter vector, each the same bits as on its own.
    """
    ls = np.asarray(lengthscales)[..., None, None, :]
    d = a[:, None, :] / ls - b[None, :, :] / ls
    r = np.sqrt(np.maximum((d * d).sum(axis=-1), 0.0))
    s5r = math.sqrt(5.0) * r
    var = np.asarray(signal_var)[..., None, None]
    return var * (1.0 + s5r + 5.0 * r * r / 3.0) * np.exp(-s5r)


def _cholesky(kernels: np.ndarray, jitter: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each kernel + jitter I in a stack of
    len(jitter) kernels.

    A member whose factorization fails (a leading minor is not positive
    definite) retries alone at ten times its jitter, up to JITTER_MAX;
    `jitter` is updated in place to the values kept.
    """
    eye = np.eye(kernels.shape[-1])
    try:
        return np.linalg.cholesky(kernels + jitter[:, None, None] * eye)
    except np.linalg.LinAlgError:
        if len(jitter) > 1:
            # the error does not say which member failed: factor each alone
            return np.concatenate([_cholesky(kernels[i:i + 1], jitter[i:i + 1])
                                   for i in range(len(jitter))])
    jitter *= 10.0
    if jitter[0] > JITTER_MAX:
        raise InfeasibleError(f"kernel stayed singular up to jitter {JITTER_MAX}")
    return _cholesky(kernels, jitter)


def _gp_factors(x: np.ndarray, y: np.ndarray, lengthscales: np.ndarray,
                signal_var: np.ndarray, jitter: float):
    """The GP state of each of k parameter vectors on one data set: the
    Cholesky factors [k, n, n], the whitened residuals L^-1 (y - mean)
    [k, n] and the jitters kept [k]. One stacked kernel, factorization and
    solve; `Surrogate` is a stack of one."""
    resid = y - float(y.mean())
    kernels = _matern52(x, x, lengthscales, signal_var)
    if not (np.isfinite(kernels).all() and np.isfinite(y).all()):
        raise ValueError("GP kernel or observations are not finite")
    jitters = np.full(len(signal_var), float(jitter))
    chol = _cholesky(kernels, jitters)
    white = np.linalg.solve(chol, resid[:, None])[..., 0]
    return chol, white, jitters


def _log_marginal_likelihood(chol: np.ndarray, white: np.ndarray) -> float:
    return float(
        -0.5 * white @ white
        - np.log(np.diag(chol)).sum()
        - 0.5 * len(white) * math.log(2.0 * math.pi)
    )


@dataclass
class Surrogate:
    """GP posterior state over unit-cube points.

    The prior mean is the observation mean; `signal_var` is the kernel's
    amplitude. The Cholesky factor L and the whitened residual
    L^-1 (y - mean), which is all the marginal likelihood needs, are cached
    at construction by `_gp_factors`, as a stack of one; `alpha` =
    K^-1 (y - mean) on first use, since a fit only reads the posterior of
    the surrogate it keeps.
    """

    x: np.ndarray
    y: np.ndarray
    lengthscales: np.ndarray
    signal_var: float
    jitter: float = JITTER_START
    chol: np.ndarray = field(init=False, repr=False)
    white: np.ndarray = field(init=False, repr=False)
    y_mean: float = field(init=False)

    def __post_init__(self):
        self.x = np.atleast_2d(np.asarray(self.x, dtype=np.float64))
        self.y = np.asarray(self.y, dtype=np.float64)
        self.lengthscales = np.asarray(self.lengthscales, dtype=np.float64)
        self.y_mean = float(self.y.mean())
        chol, white, jitter = _gp_factors(
            self.x, self.y, self.lengthscales[None], np.array([self.signal_var]),
            self.jitter)
        self.chol, self.white, self.jitter = chol[0], white[0], float(jitter[0])

    @functools.cached_property
    def alpha(self) -> np.ndarray:
        return np.linalg.solve(self.chol.T, self.white)

    def posterior(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Mean and variance at each query point (vectorized)."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        k_star = _matern52(pts, self.x, self.lengthscales, self.signal_var)
        mean = self.y_mean + k_star @ self.alpha
        v = np.linalg.solve(self.chol, k_star.T)
        var = self.signal_var - (v * v).sum(axis=0)
        return mean, np.maximum(var, 0.0)

    def log_marginal_likelihood(self) -> float:
        return _log_marginal_likelihood(self.chol, self.white)


_LS_STARTS = (0.1, 0.25, 0.5, 1.0, 2.0)
_STEP_FACTORS = (0.5, 0.8, 1.25, 2.0)
_LS_BOUNDS = (0.02, 10.0)
_VAR_BOUNDS = (1e-6, 10.0)


def _score_stack(x: np.ndarray, y: np.ndarray, params: np.ndarray) -> list[float]:
    """Log marginal likelihood of each parameter vector (lengthscales, then
    signal variance) in the [k, dims + 1] stack `params`."""
    dims = x.shape[1]
    chol, white, _ = _gp_factors(x, y, params[:, :dims], params[:, dims],
                                 JITTER_START)
    return [_log_marginal_likelihood(c, w) for c, w in zip(chol, white)]


def gp_fit(x, y) -> Surrogate:
    """Maximize log marginal likelihood by deterministic coordinate descent
    from five fixed starts; no randomness, so refits are reproducible.

    The starts descend in lockstep: each probe scores the new parameter
    vectors of the starts still descending (at most five) as one stack.
    A start's path reads only its own scores, so it is the path it takes
    alone, and the fit is the one the starts make one after another."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 2:
        raise ConfigError(f"GP fit needs >= 2 observations, got {len(y)}")
    dims = x.shape[1]
    var0 = max(float(np.var(y)), 1e-4)

    # the descent revisits parameter vectors (a step and its inverse, starts
    # that meet), and a score is a deterministic function of them
    scored: dict[bytes, float] = {}

    def score(vectors: list[np.ndarray]) -> list[float]:
        fresh = {}
        for v in vectors:
            if (key := v.tobytes()) not in scored:
                fresh.setdefault(key, v)
        if fresh:
            lmls = _score_stack(x, y, np.array(list(fresh.values())))
            scored.update(zip(fresh, lmls))
        return [scored[v.tobytes()] for v in vectors]

    params = [np.array([ls0] * dims + [var0]) for ls0 in _LS_STARTS]
    lml = score(params)
    descending = range(len(params))
    for _ in range(3):  # descent passes
        improved = set()
        for pi in range(dims + 1):
            lo, hi = _LS_BOUNDS if pi < dims else _VAR_BOUNDS
            for factor in _STEP_FACTORS:
                trials = {}
                for s in descending:
                    trial = params[s].copy()
                    trial[pi] *= factor
                    trial[pi] = min(max(trial[pi], lo), hi)
                    if trial[pi] != params[s][pi]:
                        trials[s] = trial
                for s, cand_lml in zip(trials, score(list(trials.values()))):
                    if cand_lml > lml[s] + 1e-10:
                        params[s], lml[s] = trials[s], cand_lml
                        improved.add(s)
        descending = [s for s in descending if s in improved]
        if not descending:
            break
    best, best_lml = None, -np.inf
    for start_params, start_lml in zip(params, lml):
        if start_lml > best_lml:
            best, best_lml = start_params, start_lml
    return Surrogate(x, y, best[:dims], best[dims])


def expected_improvement_values(mu, sigma_p, incumbent: float,
                                xi: float = XI_DEFAULT) -> np.ndarray:
    """EI = (mu - y* - xi) Phi(u) + sigma_p phi(u); the degenerate
    sigma_p = 0 case collapses to the positive-part improvement."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma_p = np.asarray(sigma_p, dtype=np.float64)
    gap = mu - incumbent - xi
    out = np.maximum(gap, 0.0)
    pos = sigma_p > 0
    if np.any(pos):
        u = gap[pos] / sigma_p[pos]
        out = out.copy()
        out[pos] = gap[pos] * np.exp(_log_ndtr(u)) + sigma_p[pos] * np.exp(
            -0.5 * u * u
        ) / math.sqrt(2.0 * math.pi)
    return np.maximum(out, 0.0)


def _planned_costs(configs: list[HyperConfig], domain: SearchDomain,
                   delta: float) -> np.ndarray:
    qs = np.array([c.mechanism(domain.dataset_size, delta).sampling_rate
                   for c in configs])
    sigmas = np.array([c.sigma for c in configs])
    steps = np.array([domain.trial_steps(c.batch_size) for c in configs])
    return privacy_cost_integer_orders(qs, sigmas, steps, delta)


def planned_cost(config: HyperConfig, domain: SearchDomain,
                 delta: float) -> float:
    """Exact planned privacy cost of one trial (full order grid)."""
    return privacy_cost(config.mechanism(domain.dataset_size, delta),
                        domain.trial_steps(config.batch_size))


_SOBOL_BITS = 30
# Joe-Kuo primitive polynomials and initial direction numbers of dimensions
# 2-4; dimension 1 is the van der Corput sequence (every number 1)
_SOBOL_POLYS = (3, 7, 11)
_SOBOL_VINIT = ((1,), (1, 3), (1, 3, 1))


def _sobol_directions() -> np.ndarray:
    """[4, bits] direction numbers, bit `bits - 1 - j` leading in column j."""
    rows = [[1] * _SOBOL_BITS]
    for poly, vinit in zip(_SOBOL_POLYS, _SOBOL_VINIT):
        deg = poly.bit_length() - 1
        v = list(vinit)
        for j in range(deg, _SOBOL_BITS):
            new = v[j - deg]
            for k in range(deg):
                if (poly >> (deg - 1 - k)) & 1:
                    new ^= v[j - k - 1] << (k + 1)
            v.append(new)
        rows.append(v)
    return np.array(rows, dtype=np.int64) << np.arange(_SOBOL_BITS - 1, -1, -1)


_SOBOL_V = _sobol_directions()


def sobol_points(m: int, seed: int) -> np.ndarray:
    """The first 2**m points of the scrambled 4-d Sobol' sequence; equal to
    scipy.stats.qmc.Sobol(d=4, scramble=True, seed=seed).random_base2(m).

    The generator draws the digital shift first, then one lower-triangular
    scrambling matrix per dimension, whose unit diagonal keeps it invertible.
    """
    bits = _SOBOL_BITS
    dims = _SOBOL_V.shape[0]
    rng = np.random.default_rng(seed)
    shift = (rng.integers(2, size=(dims, bits), dtype=np.uint32).astype(np.int64)
             @ (np.int64(1) << np.arange(bits)))
    ltm = np.tril(rng.integers(2, size=(dims, bits, bits), dtype=np.uint32))
    ltm = ltm.astype(np.int64)
    ltm[:, np.arange(bits), np.arange(bits)] = 1
    # row p of ltm maps the direction number's bits, leading bit first, to
    # its scrambled bit p by parity
    lead_first = np.arange(bits - 1, -1, -1)
    v_bits = (_SOBOL_V[:, None, :] >> lead_first[None, :, None]) & 1
    v = (((ltm @ v_bits) & 1) << lead_first[None, :, None]).sum(axis=1)
    index = np.arange(2 ** m)
    gray = index ^ (index >> 1)
    uses = (gray[:, None] >> np.arange(m)) & 1
    quasi = np.bitwise_xor.reduce(uses[:, None, :] * v[None, :, :m], axis=2)
    return (quasi ^ shift) * 2.0 ** -bits


# candidates priced in the first chunk of `propose_next`; each later chunk
# doubles
_FIRST_CHUNK = 32


def propose_next(surrogate: Surrogate, domain: SearchDomain, eps_budget: float,
                 delta: float, rng: np.random.Generator,
                 incumbent: float) -> HyperConfig:
    """Argmax-EI over a scrambled Sobol pool, feasible candidates only.

    EI is scored over the whole pool; candidates are then priced in
    descending-EI order (ties in pool order), in chunks of _FIRST_CHUNK that
    double, and the first that fits is returned: the feasible candidate of
    highest EI, with only the chunks up to it priced. An infinite budget
    prices nothing. Feasibility uses the integer-order cost bound, which can
    only over-estimate: nothing infeasible ever gets through.
    """
    unit = sobol_points(int(math.log2(CANDIDATE_POOL)), int(rng.integers(2**31 - 1)))
    mean, var = surrogate.posterior(unit)
    ei = expected_improvement_values(mean, np.sqrt(var), incumbent)
    order = np.argsort(-ei, kind="stable")
    if math.isinf(eps_budget):
        return domain.from_unit(unit[order[0]])
    start, size = 0, _FIRST_CHUNK
    while start < len(order):
        configs = [domain.from_unit(u) for u in unit[order[start:start + size]]]
        fits = _planned_costs(configs, domain, delta) <= eps_budget
        if fits.any():
            return configs[int(np.argmax(fits))]
        start, size = start + size, 2 * size
    raise InfeasibleError(
        f"no candidate of {len(unit)} fits eps={eps_budget}; widen the "
        "sigma range or raise the budget"
    )


@dataclass(frozen=True)
class BORecord:
    trial: int
    config: HyperConfig
    eps_planned: float
    val_acc: float | None  # None = discarded without training
    feasible: bool


@dataclass
class BOResult:
    best: HyperConfig
    best_predicted: float
    best_observed: float
    trace: list[BORecord] = field(default_factory=list)


def write_bo_trace(path, trace: list[BORecord]) -> None:
    write_csv(path, ["iter", "eta", "B", "C", "sigma", "eps_planned", "val_acc",
                     "feasible"],
              ([rec.trial, f"{rec.config.eta:.8g}", rec.config.batch_size,
                f"{rec.config.clip:.8g}", f"{rec.config.sigma:.8g}",
                f"{rec.eps_planned:.6f}",
                "" if rec.val_acc is None else f"{rec.val_acc:.6f}",
                int(rec.feasible)] for rec in trace))


class DPTrialEvaluator:
    """Trains a genome's network under a candidate config and scores it.

    Each call materializes fresh weights from a per-trial seed (deterministic
    in call order), runs `domain.trial_steps` DP-SGD steps under its own
    ledger of `config.mechanism` on the shard, and returns validation
    accuracy, so a trial spends exactly what `planned_cost` charged it.
    `run_bo` has checked that cost, so the ledger's budget is infinite.
    `x_train` is the domain's shard. A diverged (non-finite) trial scores 0.
    """

    def __init__(self, genome: Genome, space: SpaceConfig, x_train, y_train,
                 x_val, y_val, domain: SearchDomain, *, seed: int,
                 delta: float):
        if len(x_train) != domain.dataset_size:
            raise ConfigError(
                f"trial shard has {len(x_train)} samples, the search domain "
                f"{domain.dataset_size}")
        self.genome = genome
        self.space = space
        self.x_train, self.y_train = x_train, y_train
        self.x_val, self.y_val = x_val, y_val
        self.domain = domain
        self.delta = delta
        self.seed = int(seed)
        self.calls = 0

    def __call__(self, config: HyperConfig) -> float:
        self.calls += 1
        rng = np.random.default_rng((self.seed, self.calls))
        model = materialize(self.genome, self.space, rng)
        dp = config.mechanism(self.domain.dataset_size, self.delta)
        try:
            train_dp_sgd(model, self.x_train, self.y_train, PrivacyLedger(dp),
                         eta=config.eta,
                         steps=self.domain.trial_steps(config.batch_size), rng=rng)
            acc, _ = evaluate_accuracy(model, self.x_val, self.y_val)
            return acc
        except NonFiniteError:
            logger.warning("trial diverged (eta=%.3g): scored 0", config.eta)
            return 0.0


def run_bo(evaluate, domain: SearchDomain, eps_budget: float, *,
           delta: float, rng: np.random.Generator) -> BOResult:
    """Full constrained-BO loop over `domain`.

    Phase one draws random configs until `domain.spec.k_init` feasible ones
    have been trial-trained (infeasible draws are logged and discarded
    untouched); phase two runs `domain.spec.n_iter` propose/train/refit
    rounds. The answer is the evaluated config the surrogate scores
    highest, ties broken by observed accuracy.
    """
    k_init, n_iter = domain.spec.k_init, domain.spec.n_iter
    trace: list[BORecord] = []
    xs: list[np.ndarray] = []
    configs: list[HyperConfig] = []
    ys: list[float] = []
    trial = 0

    def observe(config: HyperConfig, eps_planned: float) -> None:
        nonlocal trial
        acc = float(evaluate(config))
        trace.append(BORecord(trial, config, eps_planned, acc, True))
        xs.append(domain.to_unit(config))
        configs.append(config)
        ys.append(acc)
        trial += 1

    attempts = 0
    max_attempts = max(200, 100 * k_init)
    while len(ys) < k_init:
        if attempts >= max_attempts:
            raise InfeasibleError(
                f"only {len(ys)} of {k_init} random draws were feasible after "
                f"{attempts} attempts; widen the sigma range or the budget"
            )
        attempts += 1
        cand = domain.from_unit(rng.random(4))
        cost = planned_cost(cand, domain, delta)
        if cost <= eps_budget:
            observe(cand, cost)
        else:
            logger.info("draw %d over budget (%.3f > %.3f): discarded untrained",
                        trial, cost, eps_budget)
            trace.append(BORecord(trial, cand, cost, None, False))
            trial += 1

    for _ in range(n_iter):
        surrogate = gp_fit(np.array(xs), np.array(ys))
        incumbent = max(ys)
        cand = propose_next(surrogate, domain, eps_budget, delta, rng,
                            incumbent)
        observe(cand, planned_cost(cand, domain, delta))

    surrogate = gp_fit(np.array(xs), np.array(ys))
    mean, _ = surrogate.posterior(np.array(xs))
    order = sorted(
        range(len(ys)), key=lambda i: (mean[i], ys[i]), reverse=True
    )
    best_i = order[0]
    result = BOResult(configs[best_i], float(mean[best_i]), max(ys), trace)
    logger.info("BO done: best predicted %.4f (observed max %.4f)",
                result.best_predicted, result.best_observed)
    return result
