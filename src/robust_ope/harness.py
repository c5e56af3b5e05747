"""Config-driven experiment runner: repeated trials, all estimators, RMSE report.

A trial follows the benchmark protocol end to end: split the labeled data,
train the evaluation policy on the train split, build the logging policy for
the configured mode, log bandit feedback, fit the reward models, then score
every configured estimator against the exact ground-truth value on the test
contexts. Trials are independent and may run in a process pool; each owns an
RNG stream derived from (master seed, trial index).
"""

from __future__ import annotations

import concurrent.futures
import configparser
import io
import time
import typing
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import bandit_sim, diagnostics, estimators, policies, robust_regression
from .bandit_sim import LabeledDataset, SplitConfig
from .data import LoggedDataset
from .nets import SgdConfig
from .robust_regression import BaseGaussian, RobustTrainSettings

LOGGING_MODES = ("uniform", "biased_known", "estimated")

DEFAULT_ESTIMATORS = list(estimators.ESTIMATOR_KINDS)


class ConfigError(ValueError):
    pass


def _setting(section: str, default=None, *, key: str | None = None,
             factory=None):
    """A config field read from `key` (default: the field name) in INI
    `[section]`; `parse_config` derives the accepted keys from these."""
    meta = {"section": section, "key": key}
    if factory is not None:
        return field(default_factory=factory, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class ExperimentConfig:
    # CSV path, or the literal "synthetic"
    dataset: str = _setting("experiment", "synthetic")
    label_column: str = _setting("experiment", "label")
    synthetic_n: int = _setting("experiment", 1000)
    synthetic_d: int = _setting("experiment", 8)
    synthetic_k: int = _setting("experiment", 4)
    train_fraction: float = _setting("experiment", 0.6)
    logging_mode: str = _setting("experiment", "uniform")
    trials: int = _setting("experiment", 20)
    seed: int = _setting("experiment", 0)
    estimator_names: list[str] = _setting(
        "experiment", key="estimators",
        factory=lambda: list(DEFAULT_ESTIMATORS))
    learning_rate: float = _setting("training", 1e-4)
    reward_epochs: int = _setting("training", 20)
    classifier_epochs: int = _setting("training", 5)
    batch_size: int = _setting("training", 32)
    hidden_width: int = _setting("training", 64)
    # hidden layers; +1 output layer = 4 weight layers
    hidden_layers: int = _setting("training", 3)
    eta: float = _setting("robust", 1e-3)
    mu0: float = _setting("robust", 0.5)
    sigma0_sq: float = _setting("robust", 1.0)
    rho_learning_rate: float = _setting("robust", 0.01)
    rho_max: float = _setting("robust", 1e3)
    ratio_max: float = _setting("robust", 100.0)
    tau: float = _setting("estimator_params", 0.5)
    shrink_cap: float = _setting("estimator_params", 0.5)
    w_max: float = _setting("estimator_params", 1e4)
    beta: float = _setting("logging_policy", 0.1)  # class-skew keep fraction
    temperature: float = _setting("logging_policy", 1.0)
    # the evaluation policy is sharpened so its value tracks classifier
    # accuracy; the benchmark is vacuous when the target is near-uniform
    eval_temperature: float = _setting("evaluation_policy", 0.1)
    eta1: float = _setting("diagnostics", 0.01)
    eta2: float = _setting("diagnostics", 0.01)
    delta: float = _setting("diagnostics", 0.05)
    epsilon: float = _setting("diagnostics", 0.0)
    bigo_constant: float = _setting("diagnostics", 1.0)

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.logging_mode not in LOGGING_MODES:
            raise ConfigError(f"logging_mode must be one of {LOGGING_MODES}")
        if not self.estimator_names:
            raise ConfigError("estimators must name at least one kind")
        for i, name in enumerate(self.estimator_names):
            if name not in estimators.ESTIMATOR_KINDS:
                raise ConfigError(f"unknown estimator {name!r}")
            if name in self.estimator_names[:i]:
                raise ConfigError(f"estimator {name!r} listed twice")
        # the robust model's features are the last hidden layer
        if self.hidden_layers < 1 or self.hidden_width < 1:
            raise ConfigError("hidden_layers and hidden_width must be >= 1")
        if self.dataset == "synthetic" and (self.synthetic_n < 2
                                            or self.synthetic_d < 1
                                            or self.synthetic_k < 2):
            raise ConfigError("synthetic data needs synthetic_n >= 2, "
                              "synthetic_d >= 1 and synthetic_k >= 2")
        if self.temperature <= 0 or self.eval_temperature <= 0:
            raise ConfigError("temperature and eval_temperature must be "
                              "positive")
        if self.ratio_max <= 0 or self.w_max <= 0:
            raise ConfigError("ratio_max and w_max must be positive")
        if self.rho_max < 0 or self.eta < 0 or self.rho_learning_rate <= 0:
            raise ConfigError("rho_max and eta must be nonnegative and "
                              "rho_learning_rate positive")
        # the checks of the objects run_trial builds, so that a bad value is
        # a config error here, not a runtime fault mid-run
        try:
            _estimator_specs(self)
            SplitConfig(self.train_fraction)
            for epochs in (self.reward_epochs, self.classifier_epochs):
                SgdConfig(self.learning_rate, epochs, self.batch_size)
            BaseGaussian(self.mu0, self.sigma0_sq)
            diagnostics.BoundInputs(w_max=1.0, rho_cap=self.rho_max,
                                    eta1=self.eta1, eta2=self.eta2,
                                    delta=self.delta, epsilon=self.epsilon,
                                    bigo_constant=self.bigo_constant)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def hidden_dims(self) -> list[int]:
        return [self.hidden_width] * self.hidden_layers


def parse_config(path) -> ExperimentConfig:
    """Load a sectioned key=value config file; unknown keys are errors."""
    hints = typing.get_type_hints(ExperimentConfig)
    schema: dict[str, dict[str, tuple[str, type]]] = {}
    for f in fields(ExperimentConfig):
        schema.setdefault(f.metadata["section"], {})[
            f.metadata["key"] or f.name] = (f.name, hints[f.name])
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser would copy these keys into every section
    if parser.defaults():
        raise ConfigError("keys under [DEFAULT] are not supported; "
                          "put each key in its own section")
    kwargs = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in schema[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            attr, typ = schema[section][key]
            try:
                if typ == list[str]:
                    kwargs[attr] = [v.strip() for v in raw.split(",")
                                    if v.strip()]
                else:
                    kwargs[attr] = typ(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {key!r} in [{section}]: {raw!r}") from exc
    return ExperimentConfig(**kwargs)


@dataclass
class TrialResult:
    errors: dict[str, float]
    true_value: float
    wall_clock: float
    diagnostics: dict[str, float]


@dataclass
class ExperimentReport:
    config: dict
    estimator_names: list[str]
    errors: np.ndarray  # (trials, estimators) absolute errors
    true_values: list[float]
    wall_clocks: list[float]
    diagnostics: dict[str, float]

    @property
    def rmse(self) -> np.ndarray:
        return np.sqrt(np.mean(self.errors ** 2, axis=0))

    @property
    def error_std(self) -> np.ndarray:
        # std of per-trial absolute errors (population convention)
        return np.std(self.errors, axis=0)


def _load_dataset(config: ExperimentConfig) -> LabeledDataset:
    if config.dataset == "synthetic":
        return bandit_sim.make_synthetic_labeled(
            config.synthetic_n, config.synthetic_d, config.synthetic_k,
            seed=config.seed)
    return bandit_sim.load_csv(config.dataset, config.label_column)


def _biased_subsample(train: LabeledDataset, beta: float,
                      rng: np.random.Generator) -> LabeledDataset:
    """Keep fraction beta of rows from the lower half of the classes."""
    skewed = train.labels < train.n_classes // 2
    keep = ~skewed | (rng.random(len(train)) < beta)
    if keep.sum() < 2 or len(np.unique(train.labels[keep])) < 2:
        return train
    return LabeledDataset(train.contexts[keep], train.labels[keep],
                          train.n_classes, train.feature_names)


def _estimator_specs(config: ExperimentConfig) -> list[estimators.EstimatorSpec]:
    return [estimators.EstimatorSpec(kind=name, tau=config.tau,
                                     shrink_cap=config.shrink_cap)
            for name in config.estimator_names]


def run_trial(config: ExperimentConfig, dataset: LabeledDataset,
              seed: int) -> TrialResult:
    """One full protocol pass; fully reproducible given (config, seed)."""
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    k = dataset.n_classes

    train, test = bandit_sim.split(dataset, SplitConfig(config.train_fraction,
                                                        seed=seed))
    train, test = bandit_sim.standardize(train, test)

    sgd = lambda epochs, s: SgdConfig(learning_rate=config.learning_rate,
                                      epochs=epochs,
                                      batch_size=config.batch_size, seed=s)

    target = policies.train_classifier_policy(
        train.contexts, train.labels, k, config.hidden_dims,
        sgd(config.classifier_epochs, seed + 1),
        temperature=config.eval_temperature)

    known_propensities = True
    if config.logging_mode == "uniform":
        logging_policy = policies.uniform_policy(k)
    else:
        sub = _biased_subsample(train, config.beta, rng)
        sample_model = policies.train_classifier_policy(
            sub.contexts, sub.labels, k, config.hidden_dims,
            sgd(config.classifier_epochs, seed + 2),
            temperature=config.temperature)
        logging_policy = sample_model
        known_propensities = config.logging_mode == "biased_known"

    train_log = bandit_sim.log_bandit_feedback(train, logging_policy,
                                               seed=seed + 3)
    test_log = bandit_sim.log_bandit_feedback(test, logging_policy,
                                              seed=seed + 4)

    if known_propensities:
        p_hat = logging_policy
    else:
        # drop the true propensities and estimate the logging policy instead
        train_log = LoggedDataset(train_log.contexts, train_log.actions,
                                  train_log.rewards, k)
        test_log = LoggedDataset(test_log.contexts, test_log.actions,
                                 test_log.rewards, k)
        p_hat = policies.estimate_logging_policy(
            train_log, config.hidden_dims, sgd(config.classifier_epochs,
                                               seed + 5))

    truth = bandit_sim.true_value(test, target)

    base = BaseGaussian(config.mu0, config.sigma0_sq)
    settings = RobustTrainSettings(
        rho_learning_rate=config.rho_learning_rate, rho_max=config.rho_max,
        ratio_max=config.ratio_max)
    reads = {estimators.MODEL_READ[name] for name in config.estimator_names}
    model = robust = robust_iid = None
    if "direct" in reads:
        model = estimators.train_direct_model(
            train_log, config.hidden_dims, sgd(config.reward_epochs, seed + 6))
    if "robust" in reads:
        robust = robust_regression.train_robust(
            train_log, target, p_hat, config.hidden_dims,
            sgd(config.reward_epochs, seed + 7), eta=config.eta, base=base,
            settings=settings)
    if "iid" in reads:
        robust_iid = robust_regression.train_iid(
            train_log, config.hidden_dims, sgd(config.reward_epochs, seed + 8),
            eta=config.eta, base=base, settings=settings)

    errors = {}
    for spec in _estimator_specs(config):
        est = estimators.evaluate_estimator(
            spec, test_log, target, logging=p_hat, model=model, robust=robust,
            robust_iid=robust_iid, w_max=config.w_max)
        errors[spec.kind] = abs(est - truth)

    feats = None
    if robust is not None:
        feats = robust_regression.features(robust, test_log.contexts,
                                           test_log.actions)
    bounds = diagnostics.measure_bound_inputs(
        test_log, target, p_hat, rho_cap=config.rho_max,
        sigma0_sq=config.sigma0_sq, feats=feats, eta1=config.eta1,
        eta2=config.eta2, delta=config.delta, epsilon=config.epsilon,
        bigo_constant=config.bigo_constant)
    diag = {
        "w_max_observed": bounds.w_max,
        "bias_bound": diagnostics.bias_bound(bounds),
        "variance_bound": diagnostics.variance_bound(bounds),
        "minimax_lower_bound": diagnostics.minimax_lower_bound(bounds),
    }
    return TrialResult(errors=errors, true_value=truth,
                       wall_clock=time.perf_counter() - start,
                       diagnostics=diag)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    ss = np.random.SeedSequence(master_seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(trials)]


def _run_trial_star(args):
    config, dataset, seed = args
    return run_trial(config, dataset, seed)


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    dataset = _load_dataset(config)
    seeds = trial_seeds(config.seed, config.trials)
    work = [(config, dataset, s) for s in seeds]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial_star, work))
    else:
        results = [run_trial(*w) for w in work]
    names = list(config.estimator_names)
    errors = np.array([[r.errors[n] for n in names] for r in results])
    return ExperimentReport(
        config=asdict(config),
        estimator_names=names,
        errors=errors,
        true_values=[r.true_value for r in results],
        wall_clocks=[r.wall_clock for r in results],
        diagnostics=results[0].diagnostics,
    )


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Render the report as CSV or a markdown table with "rmse (std)" cells.

    Wall-clock times are kept on the report object but deliberately left out
    of the rendered text so identical configs yield byte-identical output.
    """
    rmse, std = report.rmse, report.error_std
    diag = report.diagnostics
    diag_keys = sorted(diag)
    if fmt == "csv":
        buf = io.StringIO()
        header = ["estimator", "rmse_mean", "rmse_std", "n_trials"] + diag_keys
        buf.write(",".join(header) + "\n")
        for i, name in enumerate(report.estimator_names):
            row = [name, f"{rmse[i]:.12g}", f"{std[i]:.12g}",
                   str(report.errors.shape[0])]
            row += [f"{diag[k]:.12g}" for k in diag_keys]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()
    if fmt == "markdown":
        lines = ["| estimator | rmse (std) |", "|---|---|"]
        for i, name in enumerate(report.estimator_names):
            lines.append(f"| {name} | {rmse[i]:.3g} ({std[i]:.3g}) |")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
