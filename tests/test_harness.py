"""Harness and CLI: config parsing, trial protocol, reports, determinism."""

import csv
import dataclasses
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from robust_ope import estimators, robust_regression
from robust_ope.bandit_sim import make_synthetic
from robust_ope.estimators import ESTIMATOR_KINDS, v_ips
from robust_ope.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    _estimator_specs,
    _load_dataset,
    emit_report,
    parse_config,
    run_experiment,
    run_trial,
    trial_seeds,
)
from robust_ope.policies import TabularPolicy

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
        ("training", "batch_size = 0", "batch_size"),
        ("training", "classifier_epochs = 0", "epochs"),
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
    ]

    @pytest.mark.parametrize("section, line, message", CASES,
                             ids=[line for _, line, _ in CASES])
    def test_parse_config_rejects(self, tmp_path, section, line, message):
        path = write_config(tmp_path, f"[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=message):
            parse_config(path)

    @pytest.mark.parametrize("section, line, message", CASES,
                             ids=[line for _, line, _ in CASES])
    def test_cli_run_exits_one(self, tmp_path, section, line, message):
        path = write_config(tmp_path, f"[{section}]\n{line}\n")
        out = tmp_path / "report.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "robust_ope.cli", "run", "--config",
             str(path), "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "config error" in proc.stderr and message in proc.stderr
        assert not out.exists()


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
        est = v_ips(logged, pol)
        assert abs(est - bandit.exact_value(pol)) < 0.02


class TestModelsFromEstimatorTable:
    """run_trial fits exactly the reward models its estimators read."""

    @pytest.mark.parametrize("names, fitted", [
        (["IPS", "SnIPS"], set()),
        (["DM_I"], {"iid"}),
        (["DR_SWITCH", "TR_SHRINK"], {"direct", "robust"}),
    ])
    def test_fits_only_models_read(self, names, fitted, monkeypatch):
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

    def test_trial_seeds_distinct_and_reproducible(self):
        a = trial_seeds(0, 10)
        b = trial_seeds(0, 10)
        assert a == b
        assert len(set(a)) == 10
        assert trial_seeds(1, 10) != a


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
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "robust_ope.cli", *args],
                              capture_output=True, text=True)

    def test_list_estimators(self):
        proc = self.run_cli("list-estimators")
        assert proc.returncode == 0
        assert set(proc.stdout.split()) == set(ESTIMATOR_KINDS)

    def test_validate_config_ok(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\ntrials = 2\n")
        proc = self.run_cli("validate-config", "--config", str(path))
        assert proc.returncode == 0
        assert "trials = 2" in proc.stdout

    def test_config_error_exit_code_one(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nbogus = 1\n")
        proc = self.run_cli("run", "--config", str(path))
        assert proc.returncode == 1
        assert "config error" in proc.stderr

    def test_runtime_fault_exit_code_two(self, tmp_path):
        path = write_config(tmp_path, (
            "[experiment]\ndataset = /nonexistent/file.csv\ntrials = 1\n"))
        proc = self.run_cli("run", "--config", str(path))
        assert proc.returncode == 2

    def test_run_writes_report(self, tmp_path):
        path = write_config(tmp_path, (
            "[experiment]\n"
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
            "hidden_layers = 1\n"))
        out = tmp_path / "report.csv"
        proc = self.run_cli("run", "--config", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("estimator,rmse_mean,rmse_std,n_trials")
        assert len(lines) == 3


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
