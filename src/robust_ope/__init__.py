"""Off-policy evaluation for contextual bandits with robust reward models."""

from .data import LabeledDataset, LoggedDataset
from .nets import FeedForwardNet, SgdConfig
from .policies import (
    SoftmaxClassifierPolicy,
    UniformPolicy,
    estimate_logging_policy,
    train_classifier_policy,
)
from .robust_regression import (
    BaseGaussian,
    RhoParams,
    RobustRegressor,
    mean_matrix,
    predict_batch,
    train_iid,
    train_robust,
)
from .estimators import (
    EstimatorSpec,
    RewardModel,
    evaluate_estimator,
)
from .bandit_sim import (
    SplitConfig,
    load_csv,
    log_bandit_feedback,
    split,
    true_value,
)
from .diagnostics import (
    BoundInputs,
    bias_bound,
    minimax_lower_bound,
    variance_bound,
)
from .harness import (ExperimentConfig, emit_report, fit_trial,
                      run_experiment, run_trial, score_trial)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
