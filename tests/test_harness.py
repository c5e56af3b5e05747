"""Harness and CLI: config parsing, trial protocol, reports, determinism."""

import concurrent.futures
import copy
import csv
import ctypes
import dataclasses
import gc
import json
import multiprocessing
import os
import pathlib
import signal
import subprocess
import sys
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from robust_ope import bandit_sim, cli, diagnostics, estimators, harness, \
    policies, robust_regression
from robust_ope.bandit_sim import LabeledDataset
from robust_ope.estimators import ESTIMATOR_KINDS, EstimatorSpec, \
    NetRewardModel, evaluate_estimator
from robust_ope.nets import TrainingFault
from robust_ope.robust_regression import RhoParams, RobustRegressor
from robust_ope.harness import (
    LOGGING_MODES,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    _estimator_specs,
    _load_dataset,
    emit_report,
    fit_trial,
    parse_config,
    run_experiment,
    run_trial,
    score_trial,
    trial_seeds,
)
from tests.oracles import TabularPolicy, make_synthetic

ROOT = pathlib.Path(__file__).resolve().parents[1]

SMALL = dict(dataset="synthetic", synthetic_n=200, synthetic_d=4,
             synthetic_k=3, trials=2, classifier_epochs=2, reward_epochs=2,
             hidden_width=8, hidden_layers=2,
             estimator_names=["DM", "IPS", "SnIPS", "DR", "TR"])


def write_config(tmp_path, body, name="exp.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestParseConfig:
    def test_round_trip_values(self, tmp_path):
        path = write_config(tmp_path, (
            "[experiment]\n"
            "dataset = synthetic\n"
            "trials = 3\n"
            "seed = 11\n"
            "estimators = DM, IPS\n"
            "[training]\n"
            "learning_rate = 0.001\n"
            "[estimator_params]\n"
            "tau = 0.7\n"))
        config = parse_config(path)
        assert config.trials == 3
        assert config.seed == 11
        assert config.estimator_names == ["DM", "IPS"]
        assert config.learning_rate == 0.001
        assert config.tau == 0.7

    def test_defaults_when_sections_absent(self, tmp_path):
        config = parse_config(write_config(tmp_path, "[experiment]\n"))
        assert config.trials == 20
        assert config.tau == 0.5 and config.shrink_cap == 0.5
        assert config.estimator_names == list(ESTIMATOR_KINDS)

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nbogus = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, "[mystery]\nx = 1\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\ntrials = soon\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_estimator_rejected(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nestimators = DM, MAGIC\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "nope.ini")

    #: name -> a file configparser cannot parse
    MALFORMED = {
        "repeated_key": b"[experiment]\ntrials = 2\ntrials = 3\n",
        "repeated_section": b"[experiment]\ntrials = 2\n[experiment]\n",
        "key_before_section": b"trials = 2\n[experiment]\n",
        "line_without_equals": b"[experiment]\ntrials\n",
        "invalid_utf8": b"[experiment]\ndataset = caf\xe9\n",
        "stray_percent": b"[experiment]\ndataset = data%s\n",
    }

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_malformed_file_is_config_error(self, tmp_path, name):
        path = tmp_path / "bad.ini"
        path.write_bytes(self.MALFORMED[name])
        with pytest.raises(ConfigError, match="cannot parse config file "
                                              ".*bad.ini"):
            parse_config(path)

    @pytest.mark.parametrize("body", [
        "[DEFAULT]\ntau = 0.7\n",
        "[DEFAULT]\ntau = 0.7\n[experiment]\ntrials = 2\n",
    ], ids=["alone", "with-section"])
    def test_default_section_keys_rejected(self, tmp_path, body):
        # configparser keeps [DEFAULT] out of sections() and copies its keys
        # into every other section
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            parse_config(write_config(tmp_path, body))

    def test_invalid_logging_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(logging_mode="surprise")


# The accepted INI surface: (section, key, field, raw value, parsed value).
# Every raw value differs from the field's default; a float field given an
# integer literal must still parse to a float.
INI_SURFACE = [
    ("experiment", "dataset", "dataset", "data/vehicle.csv",
     "data/vehicle.csv"),
    ("experiment", "label_column", "label_column", "class", "class"),
    ("experiment", "synthetic_n", "synthetic_n", "300", 300),
    ("experiment", "synthetic_d", "synthetic_d", "5", 5),
    ("experiment", "synthetic_k", "synthetic_k", "6", 6),
    ("experiment", "train_fraction", "train_fraction", "0.7", 0.7),
    ("experiment", "logging_mode", "logging_mode", "estimated", "estimated"),
    ("experiment", "trials", "trials", "3", 3),
    ("experiment", "seed", "seed", "7", 7),
    ("experiment", "estimators", "estimator_names", "TR, DM", ["TR", "DM"]),
    ("training", "learning_rate", "learning_rate", "0.001", 0.001),
    ("training", "reward_epochs", "reward_epochs", "4", 4),
    ("training", "classifier_epochs", "classifier_epochs", "2", 2),
    ("training", "batch_size", "batch_size", "16", 16),
    ("training", "hidden_width", "hidden_width", "8", 8),
    ("training", "hidden_layers", "hidden_layers", "2", 2),
    ("robust", "eta", "eta", "0.01", 0.01),
    ("robust", "mu0", "mu0", "0.25", 0.25),
    ("robust", "sigma0_sq", "sigma0_sq", "2", 2.0),
    ("robust", "rho_learning_rate", "rho_learning_rate", "0.05", 0.05),
    ("robust", "rho_max", "rho_max", "10", 10.0),
    ("robust", "ratio_max", "ratio_max", "50", 50.0),
    ("estimator_params", "tau", "tau", "0.7", 0.7),
    ("estimator_params", "shrink_cap", "shrink_cap", "0.3", 0.3),
    ("estimator_params", "w_max", "w_max", "100", 100.0),
    ("logging_policy", "beta", "beta", "0.2", 0.2),
    ("logging_policy", "temperature", "temperature", "2", 2.0),
    ("evaluation_policy", "eval_temperature", "eval_temperature", "0.5",
     0.5),
    ("diagnostics", "eta1", "eta1", "0.02", 0.02),
    ("diagnostics", "eta2", "eta2", "0.03", 0.03),
    ("diagnostics", "delta", "delta", "0.1", 0.1),
    ("diagnostics", "epsilon", "epsilon", "0.01", 0.01),
    ("diagnostics", "bigo_constant", "bigo_constant", "2", 2.0),
]
INI_SECTIONS = list(dict.fromkeys(s for s, *_ in INI_SURFACE))


class TestIniSurface:
    """The sections, keys and value types `parse_config` accepts, pinned."""

    def test_surface_covers_every_config_field(self):
        assert len(INI_SURFACE) == 33
        assert sorted(f for _, _, f, _, _ in INI_SURFACE) == \
            sorted(dataclasses.asdict(ExperimentConfig()))

    @pytest.mark.parametrize("section, key, attr, raw, parsed", INI_SURFACE,
                             ids=[f"{s}.{k}" for s, k, *_ in INI_SURFACE])
    def test_non_default_value_round_trips(self, tmp_path, section, key,
                                           attr, raw, parsed):
        assert getattr(ExperimentConfig(), attr) != parsed
        config = parse_config(
            write_config(tmp_path, f"[{section}]\n{key} = {raw}\n"))
        value = getattr(config, attr)
        assert value == parsed
        assert type(value) is type(parsed)

    @pytest.mark.parametrize("section, key, raw", [
        (s, k, r) for s, k, _, r, _ in INI_SURFACE],
        ids=[f"{s}.{k}" for s, k, *_ in INI_SURFACE])
    def test_key_in_wrong_section_rejected(self, tmp_path, section, key, raw):
        wrong = INI_SECTIONS[(INI_SECTIONS.index(section) + 1)
                             % len(INI_SECTIONS)]
        path = write_config(tmp_path, f"[{wrong}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(path)

    def test_tau_under_training_rejected(self, tmp_path):
        path = write_config(tmp_path, "[training]\ntau = 0.7\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize("path", sorted((ROOT / "configs").glob("*.ini")),
                             ids=lambda p: p.name)
    def test_shipped_configs_parse(self, path):
        assert isinstance(parse_config(path), ExperimentConfig)


class TestOutOfRangeValues:
    """Values a trial would reject mid-run are config errors up front."""

    CASES = [
        ("experiment", "train_fraction = 1.5", "train_fraction"),
        ("experiment", "seed = -1", "seed must be >= 0"),
        ("training", "batch_size = 0", "batch_size"),
        ("training", "classifier_epochs = 0",
         "classifier_epochs must be >= 1"),
        ("training", "hidden_layers = 0", "hidden_layers"),
        ("robust", "sigma0_sq = 0", "sigma0_sq"),
        ("diagnostics", "delta = 2", "delta"),
        ("diagnostics", "eta2 = -0.1", "slacks"),
        ("experiment", "estimators =", "at least one"),
        ("experiment", "estimators = DM, DM", "listed twice"),
        ("experiment", "synthetic_n = 1", "synthetic_n"),
        ("experiment", "synthetic_d = 0", "synthetic_d"),
        ("experiment", "synthetic_k = 1", "synthetic_k"),
        ("training", "hidden_width = 0", "hidden_width"),
        ("logging_policy", "temperature = 0", "temperature"),
        ("evaluation_policy", "eval_temperature = 0", "eval_temperature"),
        ("estimator_params", "tau = -1", "tau"),
        ("estimator_params", "shrink_cap = -1", "shrink_cap"),
        ("estimator_params", "w_max = 0", "w_max"),
        ("robust", "ratio_max = -1", "ratio_max"),
        ("robust", "rho_max = -1", "rho_max"),
        ("diagnostics", "epsilon = -5", "epsilon"),
        ("diagnostics", "bigo_constant = -1", "bigo_constant"),
        ("robust", "rho_learning_rate = -1", "rho_learning_rate"),
        ("robust", "eta = -1", "eta must be nonnegative"),
        ("training", "learning_rate = nan", "learning_rate must not be NaN"),
        ("robust", "ratio_max = nan", "ratio_max must not be NaN"),
        ("robust", "mu0 = nan", "mu0 must not be NaN"),
        ("robust", "mu0 = inf", "mu0 must be finite"),
        ("estimator_params", "tau = nan", "tau must not be NaN"),
        ("logging_policy", "beta = -0.5", "beta must be in"),
        ("logging_policy", "beta = 7", "beta must be in"),
        ("training", "learning_rate = inf",
         "learning_rate must be positive and finite"),
        ("robust", "rho_learning_rate = inf",
         "rho_learning_rate must be positive and finite"),
        ("robust", "eta = inf", "eta must be nonnegative and finite"),
        ("robust", "sigma0_sq = inf", "sigma0_sq must be positive and finite"),
    ]

    @pytest.mark.parametrize("section, line, message", CASES,
                             ids=[line for _, line, _ in CASES])
    def test_parse_config_rejects(self, tmp_path, section, line, message):
        path = write_config(tmp_path, f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    @pytest.mark.parametrize("section, line, message", CASES,
                             ids=[line for _, line, _ in CASES])
    def test_cli_run_exits_one(self, tmp_path, capsys, section, line,
                               message):
        path = write_config(tmp_path, f"[{section}]\n{line}\n")
        out = tmp_path / "report.csv"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "config error" in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("trials", 1.5), ("seed", 1.5), ("hidden_width", 2.5),
        ("hidden_layers", 1.5), ("synthetic_n", 100.5),
        ("reward_epochs", 1.5), ("classifier_epochs", 2.0)])
    def test_non_integer_count_from_python_rejected(self, field, value):
        # the INI parser reads counts as ints, but a config built in Python
        # can hold a float; it fails at construction, before any trial runs
        with pytest.raises(ConfigError,
                           match=f"{field} must be an integer, got {value}"):
            ExperimentConfig(**{**SMALL, field: value})

    @pytest.mark.parametrize("section, key", [
        ("robust", "rho_max"), ("robust", "ratio_max"),
        ("estimator_params", "w_max"), ("logging_policy", "temperature")])
    def test_infinite_cap_accepted(self, tmp_path, section, key):
        # in range: an infinite cap disables the clip, and an infinite
        # temperature makes the logging policy uniform
        path = write_config(tmp_path, f"[{section}]\n{key} = inf\n")
        assert getattr(parse_config(path), key) == float("inf")


class TestRunTrial:
    def test_same_seed_identical_errors(self):
        config = ExperimentConfig(**SMALL)
        from robust_ope.harness import _load_dataset
        dataset = _load_dataset(config)
        a = run_trial(config, dataset, seed=3)
        b = run_trial(config, dataset, seed=3)
        assert a.errors == b.errors
        assert a.true_value == b.true_value

    def test_error_keys_match_config(self):
        config = ExperimentConfig(**SMALL)
        from robust_ope.harness import _load_dataset
        result = run_trial(config, _load_dataset(config), seed=0)
        assert sorted(result.errors) == sorted(SMALL["estimator_names"])
        assert all(e >= 0 for e in result.errors.values())

    def test_diagnostics_attached(self):
        config = ExperimentConfig(**SMALL)
        from robust_ope.harness import _load_dataset
        result = run_trial(config, _load_dataset(config), seed=0)
        for key in ("w_max_observed", "bias_bound", "variance_bound",
                    "minimax_lower_bound"):
            assert key in result.diagnostics
            assert np.isfinite(result.diagnostics[key])

    def test_on_policy_ips_error_shrinks_with_n(self):
        # synthetic enumerable bandit with pi == p: IPS error -> 0
        bandit = make_synthetic(4, 3, seed=0)
        t = np.random.default_rng(1).uniform(0.1, 1.0, size=(4, 3))
        pol = TabularPolicy(t / t.sum(axis=1, keepdims=True))
        logged = bandit.sample_logged(10_000, pol,
                                      np.random.default_rng(2))
        est = evaluate_estimator(EstimatorSpec("IPS"), logged, pol)
        assert abs(est - bandit.exact_value(pol)) < 0.02

    @pytest.mark.parametrize("mode", ["uniform", "estimated"])
    def test_finished_trial_leaves_nothing_behind(self, mode, monkeypatch):
        """Once a trial returns, nothing in the package refers to its test
        log, policies or models, and no gc pass is needed to free them."""
        config = ExperimentConfig(**{
            **SMALL, "logging_mode": mode,
            "estimator_names": list(ESTIMATOR_KINDS)})
        dataset = _load_dataset(config)
        score, refs = estimators.evaluate_estimator, {}

        def spy(spec, logged, target, **kwargs):
            inputs = dict(kwargs, logged=logged, target=target)
            for name, value in inputs.items():
                if name != "w_max":
                    refs.setdefault(name, weakref.ref(value))
            return score(spec, logged, target, **kwargs)

        monkeypatch.setattr(estimators, "evaluate_estimator", spy)
        gc.disable()
        try:
            run_trial(config, dataset, seed=0)
            assert sorted(refs) == ["logged", "logging", "model", "robust",
                                    "robust_iid", "target"]
            assert [name for name, ref in refs.items()
                    if ref() is not None] == []
            assert len(estimators._memo) == 0
        finally:
            gc.enable()

    def test_scoring_calls_are_replayable(self, monkeypatch):
        """The benchmark records one trial's scoring and truth calls and
        replays them on resamples; pin the call shapes it relies on."""
        config = ExperimentConfig(**SMALL)
        dataset = _load_dataset(config)
        score, truth = estimators.evaluate_estimator, bandit_sim.true_value
        measure = diagnostics.measure_bound_inputs
        scored, truths, measured = [], [], []

        def record_score(*args, **kwargs):
            value = score(*args, **kwargs)
            scored.append((args, kwargs, value))
            return value

        def record_truth(*args, **kwargs):
            truths.append((args, kwargs))
            return truth(*args, **kwargs)

        def record_measure(*args, **kwargs):
            measured.append((args, kwargs))
            return measure(*args, **kwargs)

        monkeypatch.setattr(estimators, "evaluate_estimator", record_score)
        monkeypatch.setattr(bandit_sim, "true_value", record_truth)
        monkeypatch.setattr(diagnostics, "measure_bound_inputs",
                            record_measure)
        result = run_trial(config, dataset, seed=0)

        # the keywords bench/workloads.py passes when it replays the call
        ((logged, pi, logging), measure_kwargs), = measured
        assert set(measure_kwargs) == {"rho_cap", "sigma0_sq", "feats",
                                       "eta1", "eta2", "delta", "epsilon",
                                       "bigo_constant"}
        (_, score_logged, score_pi), score_kwargs, _ = scored[0]
        assert logged is score_logged and pi is score_pi
        assert logging is score_kwargs["logging"]

        ((test, target), truth_kwargs), = truths
        assert truth_kwargs == {}
        assert isinstance(test, LabeledDataset) and len(test) < len(dataset)
        assert [args[0].kind for args, _, _ in scored] == SMALL[
            "estimator_names"]
        for (spec, logged, pi), kwargs, value in scored:
            assert isinstance(spec, EstimatorSpec)
            assert pi is target
            assert np.array_equal(logged.contexts, test.contexts)
            assert np.array_equal(logged.rewards,
                                  logged.actions == test.labels)
            assert set(kwargs) == {"logging", "model", "robust",
                                   "robust_iid", "w_max"}
            assert result.errors[spec.kind] == abs(value - result.true_value)


class TestTrialGolden:
    """One small synthetic trial per logging mode, all 13 kinds, pinned."""

    CONFIG = dict(dataset="synthetic", synthetic_n=200, synthetic_d=4,
                  synthetic_k=3, trials=1, classifier_epochs=2,
                  reward_epochs=2, hidden_width=8, hidden_layers=2)
    TRUTH = 0.39823526502245465
    #: mode -> (errors in ESTIMATOR_KINDS order, diagnostics)
    GOLDEN = {
        "uniform": (
            [0.23957458678923052, 0.03588678997931721, 0.008143559692869284,
             0.034247406519179124, 0.01852652002829247, 0.2415244985315787,
             0.1815173635711318, 0.02834937753192107, 0.04109582833400777,
             0.002082041309722227, 0.004412024513781643,
             0.018944984488261096, 0.013892533544216101],
            {"w_max_observed": 2.5502182693319524,
             "bias_bound": 0.3345282975696503,
             "variance_bound": 1.3911451392787775,
             "minimax_lower_bound": 3.7383524959733385e-06}),
        "biased_known": (
            [0.2392358746582598, 0.027748278657285574, 0.008063968474027572,
             0.03160457872381456, 0.020572939332041018, 0.24131255251218955,
             0.18110532448914896, 0.031382867782217994, 0.04295221917013897,
             0.002940720802927954, 0.0047643642483865545,
             0.02416534933290626, 0.010814577069984677],
            {"w_max_observed": 2.763161850619859,
             "bias_bound": 0.3493009582977593,
             "variance_bound": 1.6329355723867556,
             "minimax_lower_bound": 4.38872322121924e-06}),
        "estimated": (
            [0.2392358746582598, 0.021606784747093766, 0.039288091082971544,
             0.02125204505150119, 0.032222281852964774, 0.2551052712282281,
             0.17855525295355792, 0.022486102933847896, 0.04295221917013897,
             0.03982237354107754, 0.0405524764726356,
             0.0025407652066500863, 0.01276523729366602],
            {"w_max_observed": 4.396057709010963,
             "bias_bound": 0.4496915833505685,
             "variance_bound": 4.13057198332717,
             "minimax_lower_bound": 1.1108420571629734e-05}),
    }

    @pytest.mark.parametrize("mode", LOGGING_MODES)
    def test_matches_golden_trial(self, mode):
        config = ExperimentConfig(**self.CONFIG, logging_mode=mode)
        result = run_trial(config, _load_dataset(config), seed=0)
        errors, diag = self.GOLDEN[mode]
        assert result.true_value == pytest.approx(self.TRUTH, rel=1e-12)
        assert list(result.errors) == list(ESTIMATOR_KINDS)
        assert list(result.errors.values()) == pytest.approx(errors,
                                                             rel=1e-12)
        assert result.diagnostics == pytest.approx(diag, rel=1e-12)


class TestBiasedSubsample:
    """The class-skewed train subsample the logging classifier is fitted on
    in `biased_known` and `estimated` mode."""

    @staticmethod
    def labeled(labels, n_classes):
        labels = np.asarray(labels)
        return LabeledDataset(np.arange(len(labels), dtype=float)[:, None],
                              labels, n_classes)

    @pytest.mark.parametrize("n_classes", [4, 5])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.0])
    def test_upper_half_of_classes_always_kept(self, n_classes, beta):
        train = self.labeled(np.arange(60) % n_classes, n_classes)
        upper = train.labels >= n_classes // 2
        for seed in range(5):
            out = harness._biased_subsample(train, beta,
                                            np.random.default_rng(seed))
            kept = out.labels >= n_classes // 2
            assert np.array_equal(out.contexts[kept], train.contexts[upper])
            assert np.array_equal(out.labels[kept], train.labels[upper])
            assert out.n_classes == n_classes

    def test_beta_zero_drops_and_one_keeps_lower_half(self):
        train = self.labeled(np.arange(60) % 4, 4)
        rng = np.random.default_rng(0)
        dropped = harness._biased_subsample(train, 0.0, rng)
        assert np.array_equal(dropped.labels, train.labels[train.labels >= 2])
        kept = harness._biased_subsample(train, 1.0, rng)
        assert np.array_equal(kept.contexts, train.contexts)
        assert np.array_equal(kept.labels, train.labels)

    @pytest.mark.parametrize("labels", [[0, 0, 0, 1], [0, 0, 1, 1]],
                             ids=["one_row", "one_class"])
    def test_too_small_subsample_falls_back_to_input(self, labels):
        # beta = 0 keeps only class 1 of 2: one row, or one class
        train = self.labeled(labels, 2)
        out = harness._biased_subsample(train, 0.0,
                                        np.random.default_rng(0))
        assert out is train


def hexed(result):
    """A trial's truth, errors and diagnostics, each as `float.hex`."""
    return (result.true_value.hex(),
            {k: v.hex() for k, v in result.errors.items()},
            {k: v.hex() for k, v in result.diagnostics.items()})


def assert_no_child():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def helper_on(monkeypatch, on=True):
    """Turn the fit helper on for fits of one step or more, or off."""
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2 if on else 1)
    monkeypatch.setattr(harness, "_MIN_OVERLAP_STEPS", 1)


class TestFitScore:
    """`run_trial` is `score_trial(config, fit_trial(...))`, and one fitted
    trial can be scored many times, with a part swapped in between."""

    #: the kinds that read the robust model's rho
    ROBUST = ["DM_R", "TR", "SnTR", "TR_SWITCH", "TR_SHRINK"]

    @staticmethod
    def fit(mode="estimated"):
        config = ExperimentConfig(**TestTrialGolden.CONFIG, logging_mode=mode)
        return config, fit_trial(config, _load_dataset(config), seed=0)

    @pytest.mark.parametrize("mode", LOGGING_MODES)
    def test_score_of_fit_is_run_trial(self, mode):
        config, fitted = self.fit(mode)
        assert hexed(score_trial(config, fitted)) == hexed(
            run_trial(config, _load_dataset(config), seed=0))

    def test_rescore_gives_same_bits(self):
        config, fitted = self.fit()
        assert hexed(score_trial(config, fitted)) == hexed(
            score_trial(config, fitted))

    def test_swapped_robust_model_moves_only_its_kinds(self):
        config, fitted = self.fit()
        before = hexed(score_trial(config, fitted))
        robust = fitted.models["robust"]
        flat = dataclasses.replace(robust, rho=RhoParams(
            robust.rho.rho_r, np.zeros_like(robust.rho.rho_xr)))
        swapped = dataclasses.replace(
            fitted, models={**fitted.models, "robust": flat})
        after = hexed(score_trial(config, swapped))
        assert [kind for kind in after[1]
                if after[1][kind] != before[1][kind]] == self.ROBUST
        assert (after[0], after[2]) == (before[0], before[2])
        # deep copies get a memo entry of their own, so equal bits show that
        # `swapped` was not scored with the original model's arrays
        assert after == hexed(score_trial(config, copy.deepcopy(swapped)))
        assert hexed(score_trial(config, fitted)) == before

    def test_fitted_trial_is_frozen(self):
        fitted = harness.FittedTrial(None, None, None, None, models={})
        with pytest.raises(dataclasses.FrozenInstanceError):
            fitted.models = {"robust": None}

    def test_run_trial_clock_spans_fit_and_score(self, monkeypatch):
        # each clock read returns the next tick
        ticks = iter(range(100))
        monkeypatch.setattr(harness, "time", SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        config, fitted = self.fit("uniform")
        assert score_trial(config, fitted).wall_clock == 1.0
        # ticks 2 and 5 bracket the trial; 3 and 4 its scoring
        result = run_trial(config, _load_dataset(config), seed=0)
        assert result.wall_clock == 3.0

    def test_fit_with_helper_leaves_no_child(self, monkeypatch):
        helper_on(monkeypatch)
        _, fitted = self.fit()
        assert sorted(fitted.models) == ["direct", "iid", "robust"]
        assert_no_child()


class TestFitSideBySide:
    """A trial's fits in two processes: same results, no process left."""

    STEPS = harness._MIN_OVERLAP_STEPS
    #: seed offset from the trial seed -> the fit that uses it
    FITS = {harness._SEEDS[name]: name for name in
            ("target", "logging", "p_hat", "direct", "robust", "iid")}
    #: logging mode -> the fits the caller runs, in order; one helper per
    #: trial runs the DM and iid fits, which read only the log
    CALLER = {"uniform": ["target", "robust"],
              "biased_known": ["logging", "target", "robust"],
              "estimated": ["logging", "target", "p_hat", "robust"]}

    @pytest.fixture(autouse=True)
    def no_children_left(self):
        yield
        assert_no_child()

    @staticmethod
    def pid(i):
        return lambda: (i, os.getpid())

    def test_first_call_here_rest_in_one_helper(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        here, there = harness._fit_side_by_side(self.pid(0), self.pid(1),
                                                self.STEPS)
        assert here == (0, os.getpid())
        assert there[0] == 1 and there[1] != os.getpid()

    @pytest.mark.parametrize("case", ["one_cpu", "pool_worker", "short"])
    def test_calls_run_here_in_turn(self, case, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus",
                            lambda: 1 if case == "one_cpu" else 2)
        if case == "pool_worker":
            # any process object: the pool's parent, as a worker sees it
            monkeypatch.setattr(multiprocessing, "parent_process",
                                multiprocessing.current_process)
        steps = self.STEPS - 1 if case == "short" else self.STEPS
        results = harness._fit_side_by_side(self.pid(0), self.pid(1), steps)
        assert results == ((0, os.getpid()), (1, os.getpid()))

    @pytest.mark.parametrize("mode", LOGGING_MODES)
    def test_run_trial_same_bits_helper_on_and_off(self, mode, monkeypatch):
        config = ExperimentConfig(**TestTrialGolden.CONFIG, logging_mode=mode)
        dataset = _load_dataset(config)
        results = {}
        for on in (False, True):
            helper_on(monkeypatch, on)
            results[on] = hexed(run_trial(config, dataset, seed=5))
        assert results[True] == results[False]

    def test_helper_fault_reaches_caller(self, monkeypatch, capfd):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

        def diverge():
            raise TrainingFault("diverged at epoch 3")

        with pytest.raises(TrainingFault) as info:
            harness._fit_side_by_side(lambda: 1, diverge, self.STEPS)
        assert str(info.value) == "diverged at epoch 3"
        assert "Traceback" not in capfd.readouterr().err

    def test_caller_fault_stops_and_joins_helper(self, monkeypatch, capfd):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)

        def fault():
            raise ValueError("bad fit")

        start = time.perf_counter()
        with pytest.raises(ValueError, match="bad fit"):
            harness._fit_side_by_side(fault, lambda: time.sleep(60),
                                      self.STEPS)
        assert time.perf_counter() - start < 30
        assert "Traceback" not in capfd.readouterr().err

    def test_helper_exit_without_result_is_runtime_error(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="exited with code 3"):
            harness._fit_side_by_side(lambda: 1, lambda: os._exit(3),
                                      self.STEPS)

    def test_helper_killed_is_runtime_error(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match=r"exited with code -9 "
                                               r"\(Killed\) and no result"):
            harness._fit_side_by_side(
                lambda: 1, lambda: os.kill(os.getpid(), signal.SIGKILL),
                self.STEPS)

    def test_unpicklable_result_is_runtime_error(self, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="cannot be pickled"):
            harness._fit_side_by_side(lambda: 1, lambda: (lambda: 2),
                                      self.STEPS)

    def test_helper_training_fault_exits_two(self, tmp_path):
        # the target is fitted here and the DM and iid models that DM and
        # DM_I read in the helper, each in 4 epochs of 19 steps, past the
        # fork gate; mu0 / sigma0_sq overflows, so only the iid fit diverges
        body = TestCli.TINY.replace("synthetic_n = 120", "synthetic_n = 1000") \
            .replace("estimators = DM, IPS", "estimators = DM, DM_I") \
            .replace("classifier_epochs = 1", "classifier_epochs = 4") \
            .replace("reward_epochs = 1", "reward_epochs = 4")
        path = write_config(tmp_path, body + "[robust]\nmu0 = 1e308\n"
                                             "sigma0_sq = 1e-300\n")
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "robust_ope.cli", "run", "--config",
             str(path), "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert proc.stderr == "training fault: diverged at epoch 0\n"
        assert not out.exists()

    @staticmethod
    def record(monkeypatch, tmp_path, seed):
        """Note the pid of each fit and helper start in a file, which the
        helper's writes reach too; returns a reader of (name, pid) pairs."""
        path = tmp_path / "schedule.txt"
        path.touch()

        def note(name):
            with open(path, "a", encoding="utf-8") as out:
                out.write(f"{name} {os.getpid()}\n")

        def fit(original):
            def recording(dims, inputs, output_grads, config):
                note(TestFitSideBySide.FITS[config.seed - seed])
                return original(dims, inputs, output_grads, config)
            return recording

        def helper(original):
            def recording(call, send):
                note("helper")
                original(call, send)
            return recording

        for owner in (policies, estimators, robust_regression):
            monkeypatch.setattr(owner, "fit", fit(owner.fit))
        monkeypatch.setattr(harness, "_run_in_helper",
                            helper(harness._run_in_helper))
        return lambda: [(name, int(pid)) for name, pid in
                        map(str.split, path.read_text().splitlines())]

    @pytest.mark.parametrize("mode", LOGGING_MODES)
    def test_log_lane_in_one_helper(self, mode, monkeypatch, tmp_path):
        helper_on(monkeypatch)
        config = ExperimentConfig(**TestTrialGolden.CONFIG, logging_mode=mode)
        read = self.record(monkeypatch, tmp_path, seed=5)
        run_trial(config, _load_dataset(config), seed=5)
        schedule = read()
        helper = [pid for name, pid in schedule if name == "helper"]
        assert len(helper) == 1 and helper[0] != os.getpid()
        fits = {}
        for name, pid in schedule:
            if name != "helper":
                fits.setdefault(pid, []).append(name)
        assert fits == {os.getpid(): self.CALLER[mode],
                        helper[0]: ["direct", "iid"]}

    def test_no_log_lane_starts_no_helper(self, monkeypatch, tmp_path):
        # these kinds read the robust model only, fitted in the policy lane
        helper_on(monkeypatch)
        config = ExperimentConfig(**TestTrialGolden.CONFIG,
                                  estimator_names=["IPS", "SnIPS", "DM_R",
                                                   "TR"])
        read = self.record(monkeypatch, tmp_path, seed=5)
        run_trial(config, _load_dataset(config), seed=5)
        assert read() == [(name, os.getpid())
                          for name in self.CALLER["uniform"]]

    @pytest.mark.parametrize("name, mode", [("vehicle", "uniform"),
                                            ("optdigits", "estimated")])
    def test_bench_warm_up_starts_no_helper(self, name, mode, data_dir,
                                            monkeypatch, tmp_path):
        # 1-epoch fits take 18 (vehicle) and 34 (optdigits) steps, under the
        # gate, although on optdigits the log lane's two fits sum past it
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        config = ExperimentConfig(dataset=str(data_dir / f"{name}.csv"),
                                  logging_mode=mode, classifier_epochs=1,
                                  reward_epochs=1)
        read = self.record(monkeypatch, tmp_path, seed=1)
        run_trial(config, _load_dataset(config), seed=1)
        schedule = read()
        assert {pid for _, pid in schedule} == {os.getpid()}
        assert "helper" not in {name for name, _ in schedule}


class TestSeedPlan:
    """Each stage of a trial seeds its generator with the trial seed plus
    the stage's offset in `harness._SEEDS`."""

    #: mode -> the stages a trial seeds, in order, with its fits in turn
    STAGES = {"uniform": ["split", "train_log", "test_log", "target",
                          "robust", "direct", "iid"],
              "estimated": ["split", "subsample", "logging", "train_log",
                            "test_log", "target", "p_hat", "robust",
                            "direct", "iid"]}
    #: stage -> where its seed is read; every other stage is a fit
    SITE = {"split": "split", "subsample": "subsample", "train_log": "log",
            "test_log": "log"}

    def test_every_stage_in_the_table_is_seeded(self):
        assert sorted(self.STAGES["estimated"]) == sorted(harness._SEEDS)

    @pytest.mark.parametrize("mode", ["uniform", "estimated"])
    def test_each_stage_reads_its_offset(self, mode, monkeypatch):
        # every fit runs in this process, so each one is seen here
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
        seen = []

        def spy(owner, name, site, read):
            original = getattr(owner, name)

            def recording(*args, **kwargs):
                seen.append((site, read(*args, **kwargs)))
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, recording)

        # the subsample gets a generator, so its state stands for its seed
        state = lambda rng: rng.bit_generator.state
        spy(bandit_sim, "split", "split", lambda dataset, config: config.seed)
        spy(harness, "_biased_subsample", "subsample",
            lambda train, beta, rng: state(rng))
        spy(bandit_sim, "log_bandit_feedback", "log",
            lambda dataset, logging, seed: seed)
        for owner in (policies, estimators, robust_regression):
            spy(owner, "fit", "fit",
                lambda dims, inputs, output_grads, config: config.seed)
        config = ExperimentConfig(**TestTrialGolden.CONFIG, logging_mode=mode)
        run_trial(config, _load_dataset(config), seed=5)
        expected = []
        for stage in self.STAGES[mode]:
            seed = 5 + harness._SEEDS[stage]
            if stage == "subsample":
                seed = state(np.random.default_rng(seed))
            expected.append((self.SITE.get(stage, "fit"), seed))
        assert seen == expected


class TestOneBlasThread:
    """Pool workers run one BLAS thread each, a fit helper keeps its
    caller's thread count, a library call leaves that count alone, and a
    helper or pool worker forked at one thread starts no OpenBLAS thread
    pool."""

    CODE = """
import ctypes, json, os, numpy as np
from robust_ope import harness
threads = ctypes.CDLL(
    np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
out = {"before": threads()}
harness._usable_cpus = lambda: 2
steps = harness._MIN_OVERLAP_STEPS
out["here"], out["helper"] = harness._fit_side_by_side(threads, threads, steps)
out["after"] = threads()
def worker_threads(config, dataset, seed):
    return harness.TrialResult(errors={"IPS": threads()}, true_value=0.0,
                               wall_clock=0.0, diagnostics={})
harness.run_trial = worker_threads
config = harness.ExperimentConfig(trials=4, estimator_names=["IPS"])
out["workers"] = harness.run_experiment(config, jobs=2).errors[:, 0].tolist()
harness._one_blas_thread()
tasks = lambda: len(os.listdir("/proc/self/task"))
out["helper_tasks"] = harness._fit_side_by_side(tasks, tasks, steps)[1]
def worker_tasks(config, dataset, seed):
    return harness.TrialResult(errors={"IPS": tasks()}, true_value=0.0,
                               wall_clock=0.0, diagnostics={})
harness.run_trial = worker_tasks
out["worker_tasks"] = harness.run_experiment(config, jobs=2).errors[:, 0].tolist()
print(json.dumps(out))
"""

    def test_helper_and_workers_run_one_thread(self):
        try:
            ctypes.CDLL(np._core._multiarray_umath.__file__) \
                .scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            pytest.skip("numpy does not link scipy-openblas")
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run([sys.executable, "-c", self.CODE], env=env,
                              capture_output=True, text=True, check=True)
        out = json.loads(proc.stdout)
        assert out["here"] == out["helper"] == out["after"] == out["before"]
        assert out["workers"] == [1, 1, 1, 1]
        assert out["helper_tasks"] == 1
        assert out["worker_tasks"] == [1, 1, 1, 1]

    def test_in_process_cli_sets_no_count(self, tmp_path, capsys,
                                          monkeypatch):
        # the CLI tests that call `cli.main` here reach its
        # `_one_blas_thread`; at conftest's one thread it only reads the count
        try:
            core = ctypes.CDLL(np._core._multiarray_umath.__file__)
            get_threads = core.scipy_openblas_get_num_threads64_
        except (AttributeError, OSError):
            pytest.skip("numpy does not link scipy-openblas")
        if get_threads() != 1:
            pytest.skip("this process runs more than one OpenBLAS thread")
        calls = []

        def get():
            calls.append("get")
            return get_threads()

        monkeypatch.setattr(ctypes, "CDLL", lambda path: SimpleNamespace(
            scipy_openblas_get_num_threads64_=get,
            scipy_openblas_set_num_threads64_=calls.append))
        path = write_config(tmp_path, TestCli.MISSING)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert calls == ["get"]


class TestModelsFromEstimatorTable:
    """run_trial fits exactly the reward models its estimators read."""

    @pytest.mark.parametrize("names, fitted", [
        (["IPS", "SnIPS"], set()),
        (["DM_I"], {"iid"}),
        (["DR_SWITCH", "TR_SHRINK"], {"direct", "robust"}),
    ])
    def test_fits_only_models_read(self, names, fitted, monkeypatch):
        # the recording trainers must run in this process to be seen
        helper_on(monkeypatch, False)
        seen = set()

        def recording(fit, reads):
            def wrapper(*args, **kwargs):
                seen.add(reads)
                return fit(*args, **kwargs)
            return wrapper

        for owner, attr, reads in (
                (estimators, "train_direct_model", "direct"),
                (robust_regression, "train_robust", "robust"),
                (robust_regression, "train_iid", "iid")):
            monkeypatch.setattr(owner, attr,
                                recording(getattr(owner, attr), reads))
        config = ExperimentConfig(**{**SMALL, "estimator_names": names})
        result = run_trial(config, _load_dataset(config), seed=0)
        assert seen == fitted
        assert sorted(result.errors) == sorted(names)

    @pytest.mark.parametrize("names, fitted", [
        (["IPS", "SnIPS"], {}),
        (["DM_I"], {"iid": RobustRegressor}),
        (["DR_SWITCH", "TR_SHRINK"], {"direct": NetRewardModel,
                                      "robust": RobustRegressor}),
        (list(ESTIMATOR_KINDS), {"direct": NetRewardModel,
                                 "robust": RobustRegressor,
                                 "iid": RobustRegressor}),
    ])
    def test_side_by_side_fits_only_models_read(self, names, fitted,
                                                monkeypatch):
        helper_on(monkeypatch)
        config = ExperimentConfig(**{**SMALL, "estimator_names": names})
        models = fit_trial(config, _load_dataset(config), 0).models
        assert {read: type(m) for read, m in models.items()} == fitted
        assert_no_child()

    def test_every_spec_gets_tau_and_cap(self):
        config = ExperimentConfig(tau=0.7, shrink_cap=0.3)
        specs = _estimator_specs(config)
        assert [s.kind for s in specs] == list(ESTIMATOR_KINDS)
        assert all((s.tau, s.shrink_cap) == (0.7, 0.3) for s in specs)

    def test_kinds_keep_report_order(self):
        assert ESTIMATOR_KINDS == (
            "DM", "IPS", "SnIPS", "DR", "SnDR", "DR_SWITCH", "DR_SHRINK",
            "DM_R", "DM_I", "TR", "SnTR", "TR_SWITCH", "TR_SHRINK")


class TestRunExperiment:
    def test_single_trial_rmse_is_abs_error(self):
        config = ExperimentConfig(**{**SMALL, "trials": 1})
        report = run_experiment(config)
        assert np.allclose(report.rmse, np.abs(report.errors[0]))
        assert np.allclose(report.error_std, 0.0)

    def test_rmse_arithmetic(self):
        report = ExperimentReport(
            config={}, estimator_names=["X"],
            errors=np.array([[0.1], [0.3]]), true_values=[0, 0],
            wall_clocks=[0, 0], diagnostics={})
        assert report.rmse[0] == pytest.approx(np.sqrt(0.05))
        assert report.error_std[0] == pytest.approx(0.1)

    def test_report_row_count_matches_estimators(self):
        config = ExperimentConfig(**SMALL)
        report = run_experiment(config)
        text = emit_report(report, "csv")
        rows = [l for l in text.strip().splitlines()[1:] if l]
        assert len(rows) == len(SMALL["estimator_names"])

    #: jobs -> how its message ends
    BAD_JOBS = {0: ">= 1, got 0", -3: ">= 1, got -3",
                1.5: "an integer, got 1.5"}

    @pytest.mark.parametrize("jobs", BAD_JOBS)
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError,
                           match=f"jobs must be {self.BAD_JOBS[jobs]}"):
            run_experiment(ExperimentConfig(**SMALL), jobs=jobs)

    def test_pool_capped_at_trial_count(self, monkeypatch):
        sizes = []

        class SerialPool:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers=None, mp_context=None,
                         initializer=None):
                sizes.append(max_workers)
                # named, not the platform's default; one BLAS thread each
                assert mp_context is multiprocessing.get_context("fork")
                assert initializer is harness._one_blas_thread

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            SerialPool)
        report = run_experiment(ExperimentConfig(**SMALL), jobs=64)
        assert sizes == [SMALL["trials"]]
        assert len(report.errors) == SMALL["trials"]

    def test_one_trial_runs_without_a_pool(self, monkeypatch):
        # a one-worker pool would only fit that trial's models in turn
        one = ExperimentConfig(**{**SMALL, "trials": 1})
        serial = run_experiment(one, jobs=1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started for one trial")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        pooled = run_experiment(one, jobs=2)
        assert np.array_equal(pooled.errors, serial.errors)
        assert emit_report(pooled) == emit_report(serial)

    def test_trial_seeds_distinct_and_reproducible(self):
        a = trial_seeds(0, 10)
        b = trial_seeds(0, 10)
        assert a == b
        assert len(set(a)) == 10
        assert trial_seeds(1, 10) != a

    #: (master_seed, trials) -> the error message
    BAD_SEEDS = {(1.5, 3): "master_seed must be an integer, got 1.5",
                 (0, 2.5): "trials must be an integer, got 2.5",
                 (0, 0): "trials must be >= 1, got 0"}

    @pytest.mark.parametrize("args", BAD_SEEDS)
    def test_trial_seeds_bad_input_rejected(self, args):
        with pytest.raises(ValueError, match=self.BAD_SEEDS[args]):
            trial_seeds(*args)


class TestEmitReport:
    def report(self):
        return ExperimentReport(
            config={}, estimator_names=["TR"],
            errors=np.array([[0.026], [0.026]]), true_values=[0.5, 0.5],
            wall_clocks=[0.1, 0.1], diagnostics={"bias_bound": 1.25})

    def test_single_estimator_csv(self):
        text = emit_report(self.report(), "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "estimator,rmse_mean,rmse_std,n_trials,bias_bound"
        assert lines[1].startswith("TR,0.026,0,2,1.25")

    def test_markdown_rmse_std_cell(self):
        report = ExperimentReport(
            config={}, estimator_names=["TR"],
            errors=np.array([[0.00905], [0.0357]]), true_values=[0, 0],
            wall_clocks=[0, 0], diagnostics={})
        text = emit_report(report, "markdown")
        rmse, std = report.rmse[0], report.error_std[0]
        assert f"| TR | {rmse:.3g} ({std:.3g}) |" in text

    def test_csv_round_trip_at_emitted_precision(self):
        text = emit_report(self.report(), "csv")
        header, row = text.strip().splitlines()
        fields = dict(zip(header.split(","), row.split(",")))
        assert float(fields["rmse_mean"]) == pytest.approx(0.026)
        assert int(fields["n_trials"]) == 2
        assert float(fields["bias_bound"]) == 1.25

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self.report(), "yaml")


class TestDeterminism:
    def test_identical_config_byte_identical_csv(self):
        config = ExperimentConfig(**SMALL)
        a = emit_report(run_experiment(config), "csv")
        b = emit_report(run_experiment(config), "csv")
        assert a == b


class TestCli:
    """`robust-ope` commands. The cases that a process boundary decides run
    `python -m robust_ope.cli` (`run_cli`): the module entry, the exit
    status through `sys.exit` and a whole run. The rest call `cli.main` in
    this process (`main`); an argparse usage error raises SystemExit."""

    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "robust_ope.cli", *args],
                              capture_output=True, text=True)

    @staticmethod
    def main(capsys, *args):
        """(exit code, stdout, stderr) of `cli.main(args)` in this process."""
        code = cli.main(list(args))
        return (code, *capsys.readouterr())

    def test_list_estimators(self):
        proc = self.run_cli("list-estimators")
        assert proc.returncode == 0
        assert set(proc.stdout.split()) == set(ESTIMATOR_KINDS)

    def test_validate_config_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, "[experiment]\ntrials = 2\n")
        code, out, _ = self.main(capsys, "validate-config", "--config",
                                 str(path))
        assert code == 0
        assert "trials = 2" in out

    def test_config_error_exit_code_one(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nbogus = 1\n")
        proc = self.run_cli("run", "--config", str(path))
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    def test_malformed_file_exit_code_one(self, tmp_path, capsys, command):
        path = write_config(tmp_path, "[experiment]\ntrials = 2\n"
                                      "trials = 3\n")
        code, _, err = self.main(capsys, command, "--config", str(path))
        assert code == 1
        assert err.startswith("config error:")
        assert "Traceback" not in err

    def test_negative_seed_flag_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "[experiment]\ntrials = 1\n")
        out = tmp_path / "report.csv"
        code, _, err = self.main(capsys, "run", "--config", str(path),
                                 "--seed", "-5", "--out", str(out))
        assert code == 1
        assert "config error: seed must be >= 0" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        path = write_config(tmp_path, "[experiment]\ntrials = 1\n")
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--config", str(path), "--jobs", jobs,
                      "--out", str(out)])
        err = capsys.readouterr().err
        assert info.value.code == 2
        assert "usage:" in err and "--jobs" in err
        assert not out.exists()

    def test_benchmark_script_jobs_below_one_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_benchmark.py"),
             "--quick", "--jobs", "0"], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "usage:" in proc.stderr and "--jobs" in proc.stderr
        assert proc.stdout == ""  # no trial ran, so no table was printed

    MISSING = "[experiment]\ndataset = /nonexistent/file.csv\ntrials = 1\n"

    def test_runtime_fault_exit_code_two(self, tmp_path, capsys):
        path = write_config(tmp_path, self.MISSING)
        code, _, err = self.main(capsys, "run", "--config", str(path))
        assert code == 2
        assert err.startswith("runtime fault:")

    TINY = ("[experiment]\n"
            "dataset = synthetic\n"
            "synthetic_n = 120\n"
            "synthetic_d = 3\n"
            "synthetic_k = 2\n"
            "trials = 1\n"
            "estimators = DM, IPS\n"
            "[training]\n"
            "classifier_epochs = 1\n"
            "reward_epochs = 1\n"
            "hidden_width = 4\n"
            "hidden_layers = 1\n")

    def test_run_writes_report(self, tmp_path):
        path = write_config(tmp_path, self.TINY)
        out = tmp_path / "report.csv"
        proc = self.run_cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,rmse_mean,rmse_std,n_trials")
        assert len(lines) == 3

    def test_unwritable_out_is_runtime_fault(self, tmp_path, capsys):
        path = write_config(tmp_path, self.TINY)
        out = tmp_path / "missing_dir" / "report.csv"
        code, _, err = self.main(capsys, "run", "--config", str(path),
                                 "--out", str(out))
        assert code == 2
        assert "runtime fault: cannot write report:" in err
        assert "Traceback" not in err
        assert not out.parent.exists()


class TestSmokeConfigReport:
    """`robust-ope run` on configs/synthetic_smoke.ini, pinned and in parallel."""

    @staticmethod
    def run(out, jobs):
        proc = subprocess.run(
            [sys.executable, "-m", "robust_ope.cli", "run", "--config",
             str(ROOT / "configs" / "synthetic_smoke.ini"), "--out", str(out),
             "--jobs", str(jobs)], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        return self.run(tmp_path_factory.mktemp("smoke") / "serial.csv", 1)

    def test_matches_golden_report(self, serial):
        golden = ROOT / "tests" / "data" / "synthetic_smoke_report.csv"
        expected = list(csv.DictReader(golden.read_text().splitlines()))
        got = list(csv.DictReader(serial.decode().splitlines()))
        assert [(r["estimator"], r["n_trials"]) for r in got] == \
            [(r["estimator"], r["n_trials"]) for r in expected]
        for row, ref in zip(got, expected):
            assert row.keys() == ref.keys()
            for key in ref.keys() - {"estimator", "n_trials"}:
                assert float(row[key]) == pytest.approx(float(ref[key]),
                                                        rel=1e-9), key

    def test_jobs_two_matches_jobs_one(self, serial, tmp_path):
        assert self.run(tmp_path / "parallel.csv", 2) == serial
