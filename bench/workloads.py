"""The benchmark's three workloads and the checks on every op's outputs.

Each workload is a closed loop with one caller: op j starts when op j-1 has
returned. Op j runs input j // 2, so every input runs twice in a row; the two
results must agree exactly, and in a traced run the second of each pair is
traced, which gives a paired measure of the tracing overhead.

Every workload draws its inputs from a fixed pool: the protocol workloads
from the first `pool` trials of the benchmark config (master seed 0, as in
`configs/`), the scoring workload from `resamples` bootstrap resamples seeded
0, 1, ... The run's seed orders the pool. The accuracy figures then describe
the same inputs on every seed, so they move only when the program's numbers
move, and timing spread across seeds is not input spread.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
from dataclasses import dataclass

import numpy as np

from robust_ope import bandit_sim, diagnostics, estimators, harness, \
    robust_regression
from robust_ope.bandit_sim import LabeledDataset
from robust_ope.data import LoggedDataset
from robust_ope.estimators import UndefinedEstimate
from robust_ope.nets import TrainingFault

from spans import patched

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"

#: an op that raises one of these counts as failed; anything else is a bug
#: and stops the benchmark
OP_FAULTS = (UndefinedEstimate, TrainingFault)

ROBUST = ("DM_R", "TR", "SnTR", "TR_SWITCH", "TR_SHRINK")
BASELINE = ("DM", "IPS", "SnIPS", "DR", "SnDR", "DR_SWITCH", "DR_SHRINK")
#: estimates that are convex combinations of rewards or clipped predictions
IN_REWARD_RANGE = ("DM", "SnIPS", "DM_R", "DM_I")
#: rounding slack for a convex combination of values in [r_min, r_max]
RANGE_SLACK = 1e-12


@dataclass
class OpResult:
    truth: float
    estimates: dict[str, float]
    r_min: float
    r_max: float
    trial: harness.TrialResult | None = None


def check(result: OpResult) -> list[str]:
    """Problems with one op's outputs; empty when the op is correct."""
    problems = []
    if not 0.0 <= result.truth <= 1.0:
        problems.append(f"truth {result.truth} outside [0, 1]")
    missing = set(estimators.ESTIMATOR_KINDS) - set(result.estimates)
    if missing:
        problems.append(f"no estimate for {sorted(missing)}")
    for kind, value in result.estimates.items():
        if not math.isfinite(value):
            problems.append(f"{kind} = {value}")
        elif kind in IN_REWARD_RANGE and not (
                result.r_min - RANGE_SLACK <= value
                <= result.r_max + RANGE_SLACK):
            problems.append(f"{kind} = {value} outside "
                            f"[{result.r_min}, {result.r_max}]")
    return problems


def best_rmse(results: list[OpResult]) -> dict[str, float]:
    """Smallest RMSE over the robust family and over the baselines.

    `fsum` rounds once, so the value does not depend on the order in which
    the run's seed visited the inputs."""
    def rmse(kind):
        return math.sqrt(math.fsum((r.estimates[kind] - r.truth) ** 2
                                   for r in results) / len(results))
    return {"rmse_best_robust": min(rmse(k) for k in ROBUST),
            "rmse_best_baseline": min(rmse(k) for k in BASELINE)}


class _Capture:
    """Records what `estimators.evaluate_estimator` is called with and returns."""

    def __init__(self):
        self.estimates: dict[str, float] = {}
        self.call = None

    def __call__(self, original):
        def capture(spec, logged, *args, **kwargs):
            value = original(spec, logged, *args, **kwargs)
            self.estimates[spec.kind] = value
            self.call = (logged, args, kwargs)
            return value
        return capture


class ProtocolWorkload:
    """One op is one `harness.run_trial` with the default config."""

    def __init__(self, dataset: str, logging_mode: str, pool: int,
                 seed: int):
        self.csv = DATA / f"{dataset}.csv"
        self.config = harness.ExperimentConfig(
            dataset=str(self.csv), logging_mode=logging_mode, trials=pool,
            seed=0)
        self.trial_seeds = harness.trial_seeds(self.config.seed, pool)
        self.order = np.random.default_rng(seed).permutation(pool)
        self.inputs = pool
        self.dataset = None

    def setup(self) -> None:
        """Parse the CSV and run one short trial to warm every code path."""
        self.dataset = bandit_sim.load_csv(self.csv,
                                           self.config.label_column)
        warm = harness.ExperimentConfig(
            dataset=str(self.csv), logging_mode=self.config.logging_mode,
            classifier_epochs=1, reward_epochs=1)
        harness.run_trial(warm, self.dataset, seed=1)

    def run(self, k: int) -> OpResult:
        index = int(self.order[k % self.inputs])
        capture = _Capture()
        with patched(estimators, "evaluate_estimator", capture):
            trial = harness.run_trial(self.config, self.dataset,
                                      self.trial_seeds[index])
        logged = capture.call[0]
        return OpResult(trial.true_value, capture.estimates, logged.r_min,
                        logged.r_max, trial)

    def report_csv(self, results: dict[int, OpResult]) -> str:
        """`emit_report` CSV of the config's trials, as `run_experiment`
        assembles it; `results` maps input index to a finished op."""
        trials = [None] * self.inputs
        for k, result in results.items():
            trials[int(self.order[k % self.inputs])] = result.trial
        names = list(self.config.estimator_names)
        report = harness.ExperimentReport(
            config=dataclasses.asdict(self.config), estimator_names=names,
            errors=np.array([[t.errors[n] for n in names] for t in trials]),
            true_values=[t.true_value for t in trials],
            wall_clocks=[t.wall_clock for t in trials],
            diagnostics=trials[0].diagnostics)
        return harness.emit_report(report)


class ScoringWorkload:
    """Set-up fits every model of one optdigits/estimated trial; one op then
    scores all estimators and the bound inputs on a bootstrap resample of the
    logged test split, against that resample's exact value."""

    def __init__(self, resamples: int, seed: int):
        self.csv = DATA / "optdigits.csv"
        self.config = harness.ExperimentConfig(
            dataset=str(self.csv), logging_mode="estimated", trials=1, seed=0)
        self.trial_seed = harness.trial_seeds(self.config.seed, 1)[0]
        self.order = np.random.default_rng(seed).permutation(resamples)
        self.inputs = resamples
        self.specs = harness._estimator_specs(self.config)

    def setup(self) -> None:
        """Run one trial, keeping the inputs it hands to scoring."""
        dataset = bandit_sim.load_csv(self.csv, self.config.label_column)
        capture = _Capture()
        truth_args = []

        def keep_truth_args(original):
            def true_value(*args):
                truth_args.append(args)
                return original(*args)
            return true_value

        with patched(estimators, "evaluate_estimator", capture), \
                patched(bandit_sim, "true_value", keep_truth_args):
            harness.run_trial(self.config, dataset, self.trial_seed)
        self.logged, self.score_args, self.score_kwargs = capture.call
        (self.test, self.target), = truth_args

    def run(self, k: int) -> OpResult:
        index = int(self.order[k % self.inputs])
        rng = np.random.default_rng([self.config.seed, index])
        idx = rng.integers(0, len(self.test), len(self.test))
        test = LabeledDataset(self.test.contexts[idx], self.test.labels[idx],
                              self.test.n_classes)
        logged = LoggedDataset(self.logged.contexts[idx],
                               self.logged.actions[idx],
                               self.logged.rewards[idx],
                               self.logged.n_actions)
        truth = bandit_sim.true_value(test, self.target)
        estimates = {
            spec.kind: estimators.evaluate_estimator(
                spec, logged, *self.score_args, **self.score_kwargs)
            for spec in self.specs}
        robust = self.score_kwargs["robust"]
        feats = robust_regression.features(robust, logged.contexts,
                                           logged.actions)
        config = self.config
        diagnostics.measure_bound_inputs(
            logged, self.target, self.score_kwargs["logging"],
            rho_cap=config.rho_max, sigma0_sq=config.sigma0_sq, feats=feats,
            eta1=config.eta1, eta2=config.eta2, delta=config.delta,
            epsilon=config.epsilon, bigo_constant=config.bigo_constant)
        return OpResult(truth, estimates, logged.r_min, logged.r_max)


#: name -> factory taking the run's seed; BENCHMARK.json says why each is here
WORKLOADS = {
    "vehicle_uniform": lambda seed: ProtocolWorkload(
        "vehicle", "uniform", pool=12, seed=seed),
    "optdigits_estimated": lambda seed: ProtocolWorkload(
        "optdigits", "estimated", pool=6, seed=seed),
    "optdigits_scoring": lambda seed: ScoringWorkload(resamples=40,
                                                      seed=seed),
}
