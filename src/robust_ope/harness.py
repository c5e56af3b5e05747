"""Config-driven experiment runner: repeated trials, all estimators, RMSE report.

A trial follows the benchmark protocol in two halves: `fit_trial` splits the
labeled data, logs bandit feedback and fits the evaluation policy, p-hat and
the reward models into one `FittedTrial`; `score_trial` scores every
configured estimator on it against the exact ground-truth value on the test
contexts. Trials are independent and may run in a process pool; each owns
an RNG stream derived from (master seed, trial index). Within a trial, the
fits run in two processes, split by what they read (`_fit_models`).
"""

from __future__ import annotations

import ctypes
import math
import os
import pickle
import signal
import sys
import time
import typing
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import bandit_sim, diagnostics, estimators, policies, robust_regression
from .bandit_sim import LabeledDataset, SplitConfig
from .data import LoggedDataset, as_count
from .nets import SgdConfig
from .policies import Policy
from .robust_regression import BaseGaussian, RobustTrainSettings

LOGGING_MODES = ("uniform", "biased_known", "estimated")


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
        factory=lambda: list(estimators.ESTIMATOR_KINDS))
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
        # NaN passes every range check below, since it compares false
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and math.isnan(value):
                raise ConfigError(f"{f.name} must not be NaN")
        if self.logging_mode not in LOGGING_MODES:
            raise ConfigError(f"logging_mode must be one of {LOGGING_MODES}")
        if not self.estimator_names:
            raise ConfigError("estimators must name at least one kind")
        for i, name in enumerate(self.estimator_names):
            if name in self.estimator_names[:i]:
                raise ConfigError(f"estimator {name!r} listed twice")
        if self.temperature <= 0 or self.eval_temperature <= 0:
            raise ConfigError("temperature and eval_temperature must be "
                              "positive")
        if self.w_max <= 0:
            raise ConfigError("w_max must be positive")
        if not 0 <= self.beta <= 1:
            raise ConfigError("beta must be in [0, 1]")
        # check the counts, then build what a trial builds through the same
        # helpers (EstimatorSpec rejects an unknown kind), so a bad value
        # fails here, not mid-run
        try:
            # the robust model's features are the last hidden layer
            counts = dict(trials=1, seed=0, hidden_layers=1, hidden_width=1,
                          reward_epochs=1, classifier_epochs=1, batch_size=1)
            if self.dataset == "synthetic":
                counts.update(synthetic_n=2, synthetic_d=1, synthetic_k=2)
            for name, low in counts.items():
                as_count(getattr(self, name), name, low)
            _estimator_specs(self)
            SplitConfig(self.train_fraction)
            for epochs in (self.reward_epochs, self.classifier_epochs):
                _sgd(self, epochs, seed=0)
            _reward_fit_settings(self)
            diagnostics.BoundInputs(w_max=1.0, **_bound_settings(self))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def hidden_dims(self) -> list[int]:
        return [self.hidden_width] * self.hidden_layers


def parse_config(path) -> ExperimentConfig:
    """Load a sectioned key=value config file; unknown keys are errors."""
    # imported here only: a trial never reads a config file
    import configparser

    hints = typing.get_type_hints(ExperimentConfig)
    schema: dict[str, dict[str, tuple[str, type]]] = {}
    for f in fields(ExperimentConfig):
        schema.setdefault(f.metadata["section"], {})[
            f.metadata["key"] or f.name] = (f.name, hints[f.name])
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        # items() interpolates, so a stray '%' fails here too
        sections = {section: parser.items(section)
                    for section in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser would copy these keys into every section
    if parser.defaults():
        raise ConfigError("keys under [DEFAULT] are not supported; "
                          "put each key in its own section")
    kwargs = {}
    for section, pairs in sections.items():
        if section not in schema:
            raise ConfigError(f"unknown config section [{section}]")
        for key, raw in pairs:
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
    kept = train.labels[keep]
    # not np.unique: its masked-array check imports numpy.ma
    if len(kept) < 2 or kept.min() == kept.max():
        return train
    return LabeledDataset(train.contexts[keep], kept, train.n_classes)


def _estimator_specs(config: ExperimentConfig) -> list[estimators.EstimatorSpec]:
    return [estimators.EstimatorSpec(kind=name, tau=config.tau,
                                     shrink_cap=config.shrink_cap)
            for name in config.estimator_names]


def _sgd(config: ExperimentConfig, epochs: int, seed: int) -> SgdConfig:
    return SgdConfig(learning_rate=config.learning_rate, epochs=epochs,
                     batch_size=config.batch_size, seed=seed)


def _reward_fit_settings(config: ExperimentConfig) -> RobustTrainSettings:
    return RobustTrainSettings(config.rho_learning_rate, config.rho_max,
                               config.ratio_max, config.eta,
                               BaseGaussian(config.mu0, config.sigma0_sq))


def _bound_settings(config: ExperimentConfig) -> dict:
    return dict(rho_cap=config.rho_max, sigma0_sq=config.sigma0_sq,
                eta1=config.eta1, eta2=config.eta2, delta=config.delta,
                epsilon=config.epsilon, bigo_constant=config.bigo_constant)


#: fits that overlap for fewer minibatch steps than this do not repay the
#: helper's fork: on a 2-vCPU host its round trip takes about 7 ms, each page
#: either process writes while both live costs about 4 us of copy-on-write,
#: and two 18-step vehicle fits ran slower side by side than in turn, two
#: 72-step ones a third faster
_MIN_OVERLAP_STEPS = 64


def _usable_cpus() -> int:
    """CPUs this process may run on; counted as 1 off Linux."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


def _one_blas_thread() -> None:
    """Run this process's BLAS calls on one thread, when numpy links the
    scipy-openblas build; with any other BLAS, or none, do nothing.
    `cli.main` and each pool worker call this, so that the run's processes,
    not BLAS threads within each, share the host's CPUs; a fit helper keeps
    the count of the process that forked it."""
    try:
        # dlsym on numpy's core module also searches the libraries it links
        core = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get_threads = core.scipy_openblas_get_num_threads64_
        set_threads = core.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    # after a fork, setting any count restarts OpenBLAS's thread pool, whose
    # idle worker then spins for about 0.1 s of CPU; one thread needs no pool
    if get_threads() > 1:
        set_threads(1)


def _run_in_helper(call, send) -> None:
    """Write `call`'s outcome to the binary file `send` as one pickled
    `(ok, value)`: its result, or the exception it raised, or a
    `RuntimeError` when that outcome cannot be pickled."""
    try:
        outcome = (True, call())
    except BaseException as exc:  # re-raised by the caller
        outcome = (False, exc)
    try:
        data = pickle.dumps(outcome)
    except Exception as exc:
        data = pickle.dumps((False, RuntimeError(
            f"fit helper result cannot be pickled: {exc}")))
    send.write(data)


def _fit_side_by_side(here, there, steps: int) -> tuple:
    """`(here(), there())` of two zero-argument calls, with `there` run in
    one helper process forked for it, so independent fits share the host's
    CPUs; `_fit_models` states which fits each call runs. Every fit is
    seeded, so where it runs moves no bit of its result. Both calls run
    here, in turn, when the shortest single fit among them takes fewer than
    `_MIN_OVERLAP_STEPS` minibatch steps (`steps`), so the two processes
    would overlap too briefly, when fewer than two CPUs are usable (off
    Linux, or under `taskset -c 0`) and inside a process-pool worker, so
    helpers never nest. A fault in the helper is re-raised here with its
    type and message, and the helper has exited before this returns or
    raises.
    """
    # every process multiprocessing starts has it loaded; this imports nothing
    mp = sys.modules.get("multiprocessing")
    if (steps < _MIN_OVERLAP_STEPS or _usable_cpus() < 2
            or (mp is not None and mp.parent_process() is not None)):
        return here(), there()
    receive, send = os.pipe()
    # so that neither process writes what was buffered before the fork
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # the helper leaves only through os._exit
        code = 1
        try:
            os.close(receive)
            with open(send, "wb") as pipe:
                _run_in_helper(there, pipe)
            sys.stdout.flush()  # what the helper printed
            sys.stderr.flush()
            code = 0
        finally:
            os._exit(code)
    os.close(send)
    with open(receive, "rb") as pipe:
        try:
            first = here()
            data = pipe.read()
        except BaseException:
            os.kill(pid, signal.SIGTERM)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0 or not data:
        killed = f" ({signal.strsignal(-code)})" if code < 0 else ""
        raise RuntimeError(f"fit helper exited with code {code}{killed} "
                           f"and no result")
    ok, second = pickle.loads(data)
    if not ok:
        raise second
    return first, second


#: the trial seed plan: master seed -> one seed per trial (`trial_seeds`) ->
#: each stage's seed, the trial seed plus the stage's offset here. The split
#: and the class-skewed subsample share offset 0, so they read one stream.
_SEEDS = {"split": 0, "subsample": 0, "target": 1, "logging": 2,
          "train_log": 3, "test_log": 4, "p_hat": 5, "direct": 6,
          "robust": 7, "iid": 8}


def _classifier(config: ExperimentConfig, data: LabeledDataset, seed: int,
                temperature: float) -> Policy:
    return policies.train_classifier_policy(
        data.contexts, data.labels, data.n_classes, config.hidden_dims,
        _sgd(config, config.classifier_epochs, seed), temperature=temperature)


def _log_feedback(config: ExperimentConfig, train: LabeledDataset,
                  test: LabeledDataset, seed: int):
    """The train and test logs of the configured mode's logging policy, and
    that policy: uniform, or a classifier fitted on a class-skewed subsample
    of the train split."""
    if config.logging_mode == "uniform":
        logging_policy = policies.UniformPolicy(train.n_classes)
    else:
        sub = _biased_subsample(train, config.beta, np.random.default_rng(
            seed + _SEEDS["subsample"]))
        logging_policy = _classifier(config, sub, seed + _SEEDS["logging"],
                                     config.temperature)
    train_log = bandit_sim.log_bandit_feedback(
        train, logging_policy, seed=seed + _SEEDS["train_log"])
    test_log = bandit_sim.log_bandit_feedback(
        test, logging_policy, seed=seed + _SEEDS["test_log"])
    if config.logging_mode == "estimated":
        # logged propensities would take precedence over p-hat in every reader
        train_log = replace(train_log, propensities=None)
        test_log = replace(test_log, propensities=None)
    return train_log, test_log, logging_policy


def _fit_models(config: ExperimentConfig, train: LabeledDataset,
                log: LoggedDataset, logging_policy: Policy, seed: int):
    """The target policy, the logging policy as the estimators read it (p-hat
    in `estimated` mode) and a dict of the reward models the configured kinds
    read, keyed by `MODEL_READ` value.

    The fits run in two lanes, split by what they read, side by side when
    `_fit_side_by_side` forks its helper. The policy lane, in this process,
    fits the target, then p-hat, then the robust model, which reads both
    through the density ratio. The log lane, in the helper, fits the DM and
    iid models, which read only the log. A lane skips each model no
    configured kind reads, and a trial with no log-lane fit forks nothing.
    """
    dims, settings = config.hidden_dims, _reward_fit_settings(config)
    reads = {estimators.MODEL_READ[name] for name in config.estimator_names}
    sgd = lambda name: _sgd(config, config.reward_epochs, seed + _SEEDS[name])

    def policy_lane():
        target = _classifier(config, train, seed + _SEEDS["target"],
                             config.eval_temperature)
        p_hat = logging_policy
        if config.logging_mode == "estimated":
            p_hat = policies.estimate_logging_policy(log, dims, _sgd(
                config, config.classifier_epochs, seed + _SEEDS["p_hat"]))
        models = {}
        if "robust" in reads:
            models["robust"] = robust_regression.train_robust(
                log, target, p_hat, dims, sgd("robust"), settings=settings)
        return target, p_hat, models

    def log_lane():
        models = {}
        if "direct" in reads:
            models["direct"] = estimators.train_direct_model(
                log, dims, sgd("direct"))
        if "iid" in reads:
            models["iid"] = robust_regression.train_iid(log, dims, sgd("iid"),
                                                        settings=settings)
        return models

    # every fit passes over one row per train row each epoch, and with a log
    # lane the trial's shortest fit is the target's or a reward model's
    steps = 0
    if reads & {"direct", "iid"}:
        steps = (min(config.classifier_epochs, config.reward_epochs)
                 * math.ceil(len(log) / config.batch_size))
    (target, p_hat, models), log_models = _fit_side_by_side(
        policy_lane, log_lane, steps)
    return target, p_hat, models | log_models


@dataclass(frozen=True)
class FittedTrial:
    """One trial as `fit_trial` fits it and `score_trial` reads it."""
    test: LabeledDataset
    test_log: LoggedDataset
    target: Policy
    p_hat: Policy  # the logging policy as the estimators read it
    models: dict  # the reward models the kinds read, by `MODEL_READ` value


def fit_trial(config: ExperimentConfig, dataset: LabeledDataset,
              seed: int) -> FittedTrial:
    """A trial's split, logs and fits; reproducible given (config, seed)."""
    split = SplitConfig(config.train_fraction, seed=seed + _SEEDS["split"])
    train, test = bandit_sim.standardize(*bandit_sim.split(dataset, split))
    train_log, test_log, logging_policy = _log_feedback(config, train, test,
                                                        seed)
    return FittedTrial(test, test_log, *_fit_models(
        config, train, train_log, logging_policy, seed))


def score_trial(config: ExperimentConfig, fitted: FittedTrial) -> TrialResult:
    """Every configured estimator's error on `fitted` against the target's
    exact value on the test split, and the bound diagnostics."""
    start = time.perf_counter()
    truth = bandit_sim.true_value(fitted.test, fitted.target)
    log, models, errors = fitted.test_log, fitted.models, {}
    for spec in _estimator_specs(config):
        est = estimators.evaluate_estimator(
            spec, log, fitted.target, logging=fitted.p_hat,
            model=models.get("direct"), robust=models.get("robust"),
            robust_iid=models.get("iid"), w_max=config.w_max)
        errors[spec.kind] = abs(est - truth)
    feats = None
    if "robust" in models:
        feats = robust_regression.features(models["robust"], log.contexts,
                                           log.actions)
    bounds = diagnostics.measure_bound_inputs(
        log, fitted.target, fitted.p_hat, feats=feats,
        **_bound_settings(config))
    diag = {
        "w_max_observed": bounds.w_max,
        "bias_bound": diagnostics.bias_bound(bounds),
        "variance_bound": diagnostics.variance_bound(bounds),
        "minimax_lower_bound": diagnostics.minimax_lower_bound(bounds),
    }
    return TrialResult(errors, truth, time.perf_counter() - start, diag)


def run_trial(config: ExperimentConfig, dataset: LabeledDataset,
              seed: int) -> TrialResult:
    """`score_trial(config, fit_trial(...))`, timed as a whole."""
    start = time.perf_counter()
    result = score_trial(config, fit_trial(config, dataset, seed))
    return replace(result, wall_clock=time.perf_counter() - start)


def trial_seeds(master_seed: int, trials: int) -> list[int]:
    """One seed per trial, spawned from `master_seed`: the top of the seed
    plan, whose stage offsets are `_SEEDS`."""
    ss = np.random.SeedSequence(as_count(master_seed, "master_seed", 0))
    return [int(s.generate_state(1)[0])
            for s in ss.spawn(as_count(trials, "trials"))]


def run_experiment(config: ExperimentConfig, jobs: int = 1) -> ExperimentReport:
    """Run `config.trials` trials, in a pool of min(jobs, trials) processes
    when that is above 1. Pool workers fit a trial's models in turn, with
    no helper process of their own (`_fit_side_by_side`), so one trial runs
    here, where its two lanes of fits (`_fit_models`) may overlap."""
    as_count(jobs, "jobs")
    dataset = _load_dataset(config)
    seeds = trial_seeds(config.seed, config.trials)
    workers = min(jobs, len(seeds))
    if workers > 1:
        # imported here only: they pull in logging, which nothing else needs
        import concurrent.futures
        import multiprocessing

        # a fork-context pool starts all its workers at once
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_one_blas_thread) as pool:
            results = list(pool.map(run_trial, [config] * len(seeds),
                                    [dataset] * len(seeds), seeds))
    else:
        results = [run_trial(config, dataset, s) for s in seeds]
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
        header = ["estimator", "rmse_mean", "rmse_std", "n_trials"] + diag_keys
        lines = [",".join(header)]
        for i, name in enumerate(report.estimator_names):
            row = [name, f"{rmse[i]:.12g}", f"{std[i]:.12g}",
                   str(report.errors.shape[0])]
            row += [f"{diag[k]:.12g}" for k in diag_keys]
            lines.append(",".join(row))
    elif fmt == "markdown":
        lines = ["| estimator | rmse (std) |", "|---|---|"]
        for i, name in enumerate(report.estimator_names):
            lines.append(f"| {name} | {rmse[i]:.3g} ({std[i]:.3g}) |")
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"
