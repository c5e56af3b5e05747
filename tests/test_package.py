"""Package surface: one public name per capability; the bench's wrap points."""

import importlib.util
import pathlib
import subprocess
import sys

import pytest

import robust_ope

#: every name `robust_ope` exports; a new or removed export updates this list
PUBLIC_NAMES = [
    "BaseGaussian", "BoundInputs", "EstimatorSpec", "ExperimentConfig",
    "FeedForwardNet", "LabeledDataset", "LoggedDataset", "RewardModel",
    "RhoParams", "RobustRegressor", "SgdConfig", "SoftmaxClassifierPolicy",
    "SplitConfig", "UniformPolicy", "bandit_sim", "bias_bound", "data",
    "diagnostics", "emit_report", "estimate_logging_policy", "estimators",
    "evaluate_estimator", "fit_trial", "harness", "load_csv",
    "log_bandit_feedback", "mean_matrix", "minimax_lower_bound", "nets",
    "policies", "predict_batch", "robust_regression", "run_experiment",
    "run_trial", "score_trial", "split", "train_classifier_policy",
    "train_iid", "train_robust", "true_value", "variance_bound",
]


def test_public_names_are_pinned():
    assert sorted(robust_ope.__all__) == PUBLIC_NAMES


#: bench spans whose wrap point `robust_ope` no longer has; a refactor that
#: darkens another span fails `test_bench_spans_stay_lit`
DARK_SPANS = {
    "robust_ope.estimators.forward_batch",
    "robust_ope.estimators.backward_batch",
    "robust_ope.policies.backward_batch",
    "robust_ope.robust_regression.backward_batch",
    "robust_ope.estimators.spectral_normalize_net",
    "robust_ope.policies.spectral_normalize_net",
    "robust_ope.robust_regression.spectral_normalize_net",
}


def test_bench_spans_stay_lit():
    path = pathlib.Path(__file__).parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = {f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in spans.targets()
               if not hasattr(owner, attr)}
    assert missing <= DARK_SPANS


def test_import_leaves_out_concurrent_futures():
    # only run_experiment's pool needs it, and it pulls in logging
    code = ("import sys, robust_ope; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("mode", ["uniform", "estimated"])
def test_trial_leaves_out_multiprocessing_and_configparser(mode):
    # the fit helper forks without multiprocessing, a trial reads no config
    # file, and the class-skewed subsample of estimated logging avoids
    # np.unique, which imports numpy.ma; the patched os.fork counts the
    # helpers the trial starts
    code = f"""
import os, sys
from robust_ope import harness
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
harness._usable_cpus = lambda: 2
harness._MIN_OVERLAP_STEPS = 1
config = harness.ExperimentConfig(synthetic_n=200, synthetic_d=4,
                                  synthetic_k=3, classifier_epochs=1,
                                  reward_epochs=1, hidden_width=8,
                                  hidden_layers=1, logging_mode={mode!r})
harness.run_trial(config, harness._load_dataset(config), seed=0)
print(len(forks), [m for m in ("multiprocessing", "configparser", "numpy.ma")
                   if m in sys.modules])
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "1 []"
