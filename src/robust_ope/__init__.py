"""Off-policy evaluation for contextual bandits with robust reward models."""

from .data import LoggedDataset
from .nets import FeedForwardNet, SgdConfig
from .policies import (
    SoftmaxClassifierPolicy,
    UniformPolicy,
    estimate_logging_policy,
    train_classifier_policy,
    uniform_policy,
)
from .robust_regression import (
    BaseGaussian,
    RhoParams,
    RobustRegressor,
    predict,
    predict_clipped,
    train_iid,
    train_robust,
)
from .estimators import (
    EstimatorSpec,
    RewardModel,
    v_dm,
    v_dm_r,
    v_dr,
    v_dr_shrink,
    v_dr_switch,
    v_ips,
    v_sndr,
    v_snips,
    v_sntr,
    v_tr,
    v_tr_shrink,
    v_tr_switch,
)
from .bandit_sim import (
    LabeledDataset,
    SplitConfig,
    load_csv,
    log_bandit_feedback,
    make_synthetic,
    split,
    true_value,
)
from .diagnostics import (
    BoundInputs,
    bias_bound,
    minimax_lower_bound,
    variance_bound,
)
from .harness import ExperimentConfig, emit_report, run_experiment, run_trial

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
