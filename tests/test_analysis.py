"""Tests for the bound calculators and the inversion probe.

The calculators are checked against an independent symbolic oracle: every
formula is re-stated here in sympy with exact rational inputs and evaluated
at high precision, so a transcription slip in either implementation shows
up as a mismatch.
"""

import dataclasses
import math

import numpy as np
import pytest
import sympy

from fednaslab.analysis import (
    AttackReport,
    AttackSpec,
    ConvergenceConstants,
    EtaThetaBound,
    build_decoder,
    check_eta_w,
    corollary1_rhs,
    corollary2_avg_grad_bound,
    inversion_attack,
    max_eta_theta,
    theorem1_rhs,
    write_attack_csv,
)
from fednaslab.errors import ConfigError, InfeasibleError
from fednaslab.privacy import DPConfig, PrivacyLedger, train_dp_sgd
from fednaslab.space import SpaceConfig, materialize, sample_random_genome

# ---------------------------------------------------------------------------
# symbolic oracle: independent restatement of every formula


def _sym(c: ConvergenceConstants):
    """Constants as exact sympy rationals (floats convert exactly)."""
    return {name: sympy.Rational(getattr(c, name)) for name in (
        "B_grad", "L", "var_sigma2", "noise_delta", "C", "d", "E",
        "eta_w", "eta_theta", "alpha_dev", "p", "Delta", "G", "T")}


def _oracle_noise(s):
    return s["var_sigma2"] + s["d"] * s["noise_delta"] ** 2 * s["C"] ** 2


def _oracle_theorem1(c, loss0, gsum):
    s = _sym(c)
    eta = s["eta_w"]
    expr = (sympy.Rational(loss0)
            - (eta * s["p"] - s["L"] * eta**2 / 2) * sympy.Rational(gsum)
            + s["E"] * s["L"] * eta**2 / 2 * _oracle_noise(s))
    return float(expr.evalf(30))


def _oracle_corollary1(c, loss0, gsum):
    s = _sym(c)
    eta = s["eta_w"]
    expr = (sympy.Rational(loss0)
            - (eta * s["p"] - s["L"] * eta**2 / 2) * sympy.Rational(gsum)
            + s["E"] * s["L"] * eta**2 / 2 * _oracle_noise(s)
            + eta * s["E"] * s["B_grad"] ** 2
            + s["eta_theta"] * s["B_grad"]
            + s["L"] / 2 * s["alpha_dev"] ** 2)
    return float(expr.evalf(30))


def _oracle_corollary2(c):
    s = _sym(c)
    eta = s["eta_w"]
    numer = (s["Delta"] / s["T"]
             + s["E"] * s["L"] * eta**2 / 2 * _oracle_noise(s)
             + eta * s["E"] * s["B_grad"] ** 2
             + s["eta_theta"] * s["B_grad"]
             + s["L"] / 2 * s["alpha_dev"] ** 2)
    denom = eta * s["p"] - s["L"] * eta**2 / 2
    return float((numer / denom).evalf(30))


def _oracle_eta_w_rhs(c):
    s = _sym(c)
    scale = s["G"] + s["E"] * _oracle_noise(s)
    denom = s["L"] * scale * s["B_grad"]
    drift = s["p"] * s["G"] - s["E"] * s["B_grad"] ** 2
    expr = (drift / denom
            + sympy.sqrt(drift**2 + 2 * s["L"] * scale) / denom
            + (s["eta_theta"] * s["B_grad"] + s["L"] / 2 * s["alpha_dev"] ** 2)
            / denom)
    return float(expr.evalf(30))


def _random_constants(rng):
    """A random constants record with a positive descent coefficient."""
    L = float(rng.uniform(0.1, 4.0))
    p = float(rng.uniform(0.1, 1.0))
    eta_w = float(rng.uniform(0.05, 0.95)) * 2 * p / L  # keeps denom > 0
    return ConvergenceConstants(
        B_grad=float(rng.uniform(0.1, 5.0)),
        L=L,
        var_sigma2=float(rng.uniform(0.0, 4.0)),
        noise_delta=float(rng.uniform(0.0, 2.0)),
        C=float(rng.uniform(0.0, 4.0)),
        d=int(rng.integers(1, 10_000)),
        E=int(rng.integers(1, 50)),
        eta_w=eta_w,
        eta_theta=float(rng.uniform(0.0, 0.5)),
        alpha_dev=float(rng.uniform(0.0, 3.0)),
        p=p,
        Delta=float(rng.uniform(0.0, 10.0)),
        G=float(rng.uniform(0.1, 20.0)),
        T=int(rng.integers(1, 1000)),
    )


_BASE = ConvergenceConstants(
    B_grad=1.0, L=1.0, var_sigma2=1.0, noise_delta=1.0, C=1.0, d=10, E=5,
    eta_w=0.01, eta_theta=0.005, alpha_dev=0.5, p=0.5, Delta=2.0, G=4.0,
    T=100)


class TestConstantsValidation:
    def test_valid_record_constructs(self):
        assert _BASE.d == 10

    @pytest.mark.parametrize("field,value", [
        ("L", 0.0), ("L", -1.0), ("B_grad", 0.0), ("p", -0.5), ("G", 0.0),
        ("var_sigma2", -0.1), ("C", -1.0), ("eta_w", -0.01),
        ("eta_theta", -1e-9), ("alpha_dev", -2.0), ("Delta", -1.0),
        ("noise_delta", math.nan), ("L", math.inf),
    ])
    def test_bad_scalars_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(_BASE, **{field: value})

    @pytest.mark.parametrize("field", ["d", "E", "T"])
    def test_counts_must_be_positive_integers(self, field):
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(_BASE, **{field: 0})
        with pytest.raises(ConfigError, match=field):
            dataclasses.replace(_BASE, **{field: 2.5})


class TestTheorem1:
    def test_zero_rate_gives_back_initial_loss(self):
        c = dataclasses.replace(_BASE, eta_w=0.0)
        assert theorem1_rhs(c, 1.7, 42.0) == 1.7

    def test_doubling_clip_quadruples_clip_noise_share(self):
        lo = dataclasses.replace(_BASE, C=1.0)
        hi = dataclasses.replace(_BASE, C=2.0)
        zero = dataclasses.replace(_BASE, C=0.0)
        share_lo = theorem1_rhs(lo, 0.0, 0.0) - theorem1_rhs(zero, 0.0, 0.0)
        share_hi = theorem1_rhs(hi, 0.0, 0.0) - theorem1_rhs(zero, 0.0, 0.0)
        assert share_hi == pytest.approx(4.0 * share_lo, rel=1e-12)

    def test_fixed_substitution_matches_oracle(self):
        c = dataclasses.replace(
            _BASE, B_grad=1.0, L=1.0, var_sigma2=1.0, noise_delta=1.0,
            C=1.0, d=10, E=5, eta_w=0.01, p=0.5)
        got = theorem1_rhs(c, 1.0, 10.0)
        want = _oracle_theorem1(c, 1.0, 10.0)
        assert got == pytest.approx(want, rel=1e-12)


class TestCorollary1:
    def test_extras_vanish_when_disabled(self):
        c = dataclasses.replace(_BASE, eta_w=0.0, eta_theta=0.0,
                                alpha_dev=0.0)
        assert corollary1_rhs(c, 3.0, 5.0) == theorem1_rhs(c, 3.0, 5.0)

    def test_never_below_single_round_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = _random_constants(rng)
            assert corollary1_rhs(c, 1.0, 2.0) >= theorem1_rhs(c, 1.0, 2.0)

    def test_monotone_in_head_deviation(self):
        values = [corollary1_rhs(dataclasses.replace(_BASE, alpha_dev=a),
                                 1.0, 1.0)
                  for a in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestCorollary2:
    def test_more_rounds_tighten_the_bound(self):
        b10 = corollary2_avg_grad_bound(dataclasses.replace(_BASE, T=10))
        b100 = corollary2_avg_grad_bound(dataclasses.replace(_BASE, T=100))
        assert b100 < b10

    def test_limit_of_many_rounds_is_the_residual(self):
        c = dataclasses.replace(_BASE, T=10**9)
        denom = c.eta_w * c.p - c.L * c.eta_w**2 / 2
        residual = (
            (c.E * c.L * c.eta_w**2 / 2)
            * (c.var_sigma2 + c.d * c.noise_delta**2 * c.C**2)
            + c.eta_w * c.E * c.B_grad**2 + c.eta_theta * c.B_grad
            + c.L / 2 * c.alpha_dev**2) / denom
        assert corollary2_avg_grad_bound(c) == pytest.approx(
            residual, rel=1e-6)

    def test_hot_rate_is_rejected(self):
        c = dataclasses.replace(_BASE, eta_w=2.0)  # >= 2p/L = 1.0
        with pytest.raises(InfeasibleError, match="eta_w"):
            corollary2_avg_grad_bound(c)

    @pytest.mark.parametrize("field,values", [
        ("var_sigma2", (0.0, 0.5, 1.0, 2.0, 4.0)),
        ("C", (0.0, 0.5, 1.0, 2.0, 4.0)),
        ("alpha_dev", (0.0, 0.5, 1.0, 2.0)),
        ("B_grad", (0.5, 1.0, 2.0, 4.0)),
    ])
    def test_monotone_in_noise_like_constants(self, field, values):
        bounds = [corollary2_avg_grad_bound(
            dataclasses.replace(_BASE, **{field: v})) for v in values]
        assert all(b >= a for a, b in zip(bounds, bounds[1:]))


class TestMaxEtaTheta:
    def test_plain_arithmetic(self):
        c = dataclasses.replace(_BASE, alpha_dev=1.0, eta_w=0.01, E=5,
                                B_grad=1.0)
        bound = max_eta_theta(c)
        assert bound.value == pytest.approx(0.95, rel=1e-12)
        assert bound.feasible

    def test_boundary_is_zero_and_infeasible(self):
        c = dataclasses.replace(_BASE, alpha_dev=0.05, eta_w=0.01, E=5,
                                B_grad=1.0)
        bound = max_eta_theta(c)
        assert bound.value == 0.0
        assert not bound.feasible

    def test_recovers_the_deviation_budget(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            c = _random_constants(rng)
            bound = max_eta_theta(c)
            if bound.feasible:
                total = bound.value * c.B_grad + c.eta_w * c.E * c.B_grad
                assert total == pytest.approx(c.alpha_dev, rel=1e-9)

    def test_unpacks_like_a_pair(self):
        value, feasible = max_eta_theta(_BASE)
        assert isinstance(value, float) and isinstance(feasible, bool)


class TestCheckEtaW:
    def test_zero_rate_feasible_when_rhs_nonnegative(self):
        c = dataclasses.replace(_BASE, eta_w=0.0)
        audit = check_eta_w(c)
        assert audit["rhs"] >= 0
        assert audit["feasible"]

    def test_terms_sum_to_rhs(self):
        audit = check_eta_w(_BASE)
        total = (audit["term_drift"] + audit["term_root"]
                 + audit["term_head"])
        assert audit["rhs"] == pytest.approx(total, rel=1e-15)

    def test_rhs_non_increasing_in_noise(self):
        # numeric sweep: grow the combined noise term through either knob
        for field, values in (("var_sigma2", (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)),
                              ("C", (0.0, 0.5, 1.0, 2.0, 4.0))):
            rhs = [check_eta_w(dataclasses.replace(_BASE, **{field: v}))["rhs"]
                   for v in values]
            assert all(b <= a + 1e-15 for a, b in zip(rhs, rhs[1:])), field

    def test_negative_radicand_reported(self):
        # force an invalid record past validation to hit the guard:
        # drift = p*G is tiny while 2*L*(G + E*noise) is clearly negative
        c = dataclasses.replace(_BASE)
        object.__setattr__(c, "G", -1e-6)
        object.__setattr__(c, "E", 0)
        with pytest.raises(InfeasibleError, match="radicand"):
            check_eta_w(c)


class TestOracleSubstitution:
    """All four calculators against the symbolic oracle on random inputs."""

    def test_hundred_random_records(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            c = _random_constants(rng)
            loss0 = float(rng.uniform(0.0, 5.0))
            gsum = float(rng.uniform(0.0, 50.0))
            assert theorem1_rhs(c, loss0, gsum) == pytest.approx(
                _oracle_theorem1(c, loss0, gsum), rel=1e-10, abs=1e-12)
            assert corollary1_rhs(c, loss0, gsum) == pytest.approx(
                _oracle_corollary1(c, loss0, gsum), rel=1e-10, abs=1e-12)
            assert corollary2_avg_grad_bound(c) == pytest.approx(
                _oracle_corollary2(c), rel=1e-10)
            assert check_eta_w(c)["rhs"] == pytest.approx(
                _oracle_eta_w_rhs(c), rel=1e-10)


# ---------------------------------------------------------------------------
# inversion probe

SMALL = SpaceConfig(input_shape=(3, 8, 8), d_rep=16, num_classes=2,
                    min_len=3, max_len=4)


def _images(rng, n):
    x = (rng.normal(size=(n, 3, 8, 8)) * 0.15 + 0.5).astype(np.float32)
    return np.clip(x, 0.0, 1.0)


def _encoder(seed):
    genome = sample_random_genome(SMALL, np.random.default_rng(1))
    return materialize(genome, SMALL, np.random.default_rng(seed))


class TestDecoderShape:
    def test_small_image_path(self):
        dec = build_decoder(16, (3, 8, 8), np.random.default_rng(0))
        z = np.random.default_rng(1).normal(size=(5, 16)).astype(np.float32)
        out, _ = dec.forward(z)
        assert out.shape == (5, 3, 8, 8)

    def test_large_image_path(self):
        dec = build_decoder(128, (3, 32, 32), np.random.default_rng(0))
        z = np.random.default_rng(1).normal(size=(2, 128)).astype(np.float32)
        out, _ = dec.forward(z)
        assert out.shape == (2, 3, 32, 32)

    @pytest.mark.parametrize("shape", [(3, 6, 6), (3, 8, 4), (3, 2, 2)])
    def test_bad_image_shapes_rejected(self, shape):
        with pytest.raises(ConfigError, match="square"):
            build_decoder(16, shape, np.random.default_rng(0))


class TestInversionAttack:
    def test_reconstruction_error_is_positive(self):
        # 16-dimensional representations cannot encode 192 pixels exactly
        rng = np.random.default_rng(3)
        model = _encoder(7)
        report = inversion_attack(
            model, _images(rng, 128), _images(rng, 32),
            AttackSpec(decoder_epochs=10), np.random.default_rng(5))
        assert not report.failed
        assert report.mse > 0
        assert report.per_sample.shape == (32,)
        assert report.mse == pytest.approx(float(report.per_sample.mean()))

    def test_duplicate_victims_score_identically(self):
        rng = np.random.default_rng(4)
        model = _encoder(8)
        one = _images(rng, 1)
        victims = np.repeat(one, 3, axis=0)
        report = inversion_attack(
            model, _images(rng, 96), victims, AttackSpec(decoder_epochs=5),
            np.random.default_rng(6))
        assert report.per_sample[0] == report.per_sample[1]
        assert report.per_sample[1] == report.per_sample[2]

    def test_training_the_decoder_helps(self):
        # more decoder epochs must not hurt on the aux distribution
        rng = np.random.default_rng(9)
        aux, victims = _images(rng, 192), _images(rng, 48)
        model = _encoder(10)
        short = inversion_attack(model, aux, victims,
                                 AttackSpec(decoder_epochs=1),
                                 np.random.default_rng(7))
        long = inversion_attack(model, aux, victims,
                                AttackSpec(decoder_epochs=25),
                                np.random.default_rng(7))
        assert long.mse < short.mse

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_sets_failure_flag(self):
        rng = np.random.default_rng(12)
        model = _encoder(11)
        report = inversion_attack(
            model, _images(rng, 64), _images(rng, 16),
            AttackSpec(decoder_epochs=3, decoder_lr=1e12),
            np.random.default_rng(8),
            eps_label=5.0, seed=3)
        assert report.failed
        assert math.isinf(report.mse)

    def test_noisy_training_obscures_representations(self):
        # an encoder scrambled by heavy privacy noise is harder to invert
        # than its fresh initialization, for most seeds
        wins = 0
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            aux, victims = _images(rng, 160), _images(rng, 40)
            x = _images(rng, 200)
            y = (x.mean(axis=(1, 2, 3)) > 0.5).astype(np.int64)
            clean = _encoder(seed)
            noisy = _encoder(seed)
            dp = DPConfig(clip_norm=1.0, noise_multiplier=6.0,
                          sampling_rate=0.25, delta=1e-5)
            train_dp_sgd(noisy, x, y, PrivacyLedger(dp), eta=2.0, steps=100,
                         rng=np.random.default_rng(seed))
            cfg = AttackSpec(decoder_epochs=12)
            mse_clean = inversion_attack(
                clean, aux, victims, cfg, np.random.default_rng(seed)).mse
            mse_noisy = inversion_attack(
                noisy, aux, victims, cfg, np.random.default_rng(seed)).mse
            wins += mse_clean < mse_noisy
        assert wins >= 3


class TestAttackCsv:
    def test_exact_rows(self, tmp_path):
        reports = [
            AttackReport(math.inf, 0.02, np.array([0.02]), 0),
            AttackReport(0.5, 0.68999999, np.array([0.69]), 4),
        ]
        path = tmp_path / "attack.csv"
        write_attack_csv(path, reports)
        text = path.read_text()
        assert text.splitlines() == [
            "eps,mse,seed", "inf,0.02,0", "0.5,0.68999999,4"]
        assert "\r" not in text
