"""Harness and CLI: config parsing, trial protocol, reports, determinism."""

import csv
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

    def test_invalid_logging_mode_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(logging_mode="surprise")


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
