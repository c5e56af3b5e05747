"""Package surface: one public name per capability."""

import robust_ope

#: every name `robust_ope` exports; a new or removed export updates this list
PUBLIC_NAMES = [
    "BaseGaussian", "BoundInputs", "EstimatorSpec", "ExperimentConfig",
    "FeedForwardNet", "LabeledDataset", "LoggedDataset", "RewardModel",
    "RhoParams", "RobustRegressor", "SgdConfig", "SoftmaxClassifierPolicy",
    "SplitConfig", "UniformPolicy", "bandit_sim", "bias_bound", "data",
    "diagnostics", "emit_report", "estimate_logging_policy", "estimators",
    "evaluate_estimator", "harness", "load_csv", "log_bandit_feedback",
    "make_synthetic", "mean_matrix", "minimax_lower_bound", "nets",
    "policies", "predict_batch", "robust_regression", "run_experiment",
    "run_trial", "split", "train_classifier_policy", "train_iid",
    "train_robust", "true_value", "variance_bound",
]


def test_public_names_are_pinned():
    assert sorted(robust_ope.__all__) == PUBLIC_NAMES
