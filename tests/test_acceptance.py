"""Acceptance suite: one pinned pass/fail criterion per test.

Each test prints a single "ACCEPTANCE n ...: PASS|FAIL" line so the full
gate can be read off the pytest -s output at a glance. Tolerances are fixed
here and must not be loosened to make a run pass.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from robust_ope.data import LoggedDataset
from robust_ope.diagnostics import (
    BoundInputs,
    bias_bound,
    minimax_lower_bound,
    variance_bound,
)
from robust_ope.estimators import EstimatorSpec, evaluate_estimator
from robust_ope.harness import ExperimentConfig, run_experiment
from robust_ope.nets import SgdConfig, init_net
from robust_ope.policies import UniformPolicy
from robust_ope.robust_regression import (
    BaseGaussian,
    RhoParams,
    RobustRegressor,
    RobustTrainSettings,
    predict_batch,
    train_iid,
    train_robust,
)
from tests.oracles import (TableRewardModel, TabularPolicy, batch_nll,
                           make_synthetic, rho_gradients, theta_gradients)

BASELINE_FAMILY = ["DM", "IPS", "SnIPS", "DR", "SnDR", "DR_SWITCH",
                   "DR_SHRINK"]
ROBUST_FAMILY = ["DM_R", "TR", "SnTR", "TR_SWITCH", "TR_SHRINK"]


def report_line(number, label, ok):
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok


def stochastic_policy(rng, n_contexts, n_actions):
    t = rng.uniform(0.1, 1.0, size=(n_contexts, n_actions))
    return TabularPolicy(t / t.sum(axis=1, keepdims=True))


def test_acceptance_1_ips_unbiasedness():
    """Mean of the IPS estimate over resamples matches exact enumeration."""
    rng = np.random.default_rng(101)
    bandit = make_synthetic(8, 4, seed=0)
    logging = stochastic_policy(rng, 8, 4)
    target = stochastic_policy(rng, 8, 4)
    truth = bandit.exact_value(target)
    estimates = np.array([
        evaluate_estimator(EstimatorSpec("IPS"),
                           bandit.sample_logged(500, logging, rng), target,
                           w_max=np.inf)
        for _ in range(500)
    ])
    se = estimates.std(ddof=1) / math.sqrt(len(estimates))
    ok = abs(float(estimates.mean()) - truth) <= 3.0 * se
    report_line(1, "IPS unbiasedness vs enumeration", ok)


def test_acceptance_2_reduction_identities():
    """All estimator reduction identities hold to 1e-12 absolute."""
    tol = 1e-12
    ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_contexts = int(rng.integers(2, 8))
        n_actions = int(rng.integers(2, 5))
        bandit = make_synthetic(n_contexts, n_actions, seed=seed)
        logging = stochastic_policy(rng, n_contexts, n_actions)
        target = stochastic_policy(rng, n_contexts, n_actions)
        logged = bandit.sample_logged(int(rng.integers(20, 60)), logging, rng)
        zero = TableRewardModel(np.zeros((n_contexts, n_actions)))
        perfect = TableRewardModel(bandit.reward_table)
        model = TableRewardModel(rng.random((n_contexts, n_actions)))
        robust = RobustRegressor(
            net=init_net([1 + n_actions, 3, 2], rng),
            rho=RhoParams(float(rng.uniform(0.1, 1.0)),
                          rng.standard_normal(2)),
            base=BaseGaussian(0.5, 1.0), n_actions=n_actions)
        checks = [
            evaluate_estimator(EstimatorSpec("DR"), logged, target, logging,
                               model=zero)
            - evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                 logging),
            evaluate_estimator(EstimatorSpec("DR"), logged, target, logging,
                               model=perfect)
            - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                 model=perfect),
            evaluate_estimator(EstimatorSpec("DR_SWITCH", tau=np.inf), logged,
                               target, logging, model=model)
            - evaluate_estimator(EstimatorSpec("DR"), logged, target, logging,
                                 model=model),
            evaluate_estimator(EstimatorSpec("DR_SWITCH", tau=0.0), logged,
                               target, logging, model=model)
            - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                 model=model),
            evaluate_estimator(EstimatorSpec("DR_SHRINK", shrink_cap=np.inf),
                               logged, target, logging, model=model)
            - evaluate_estimator(EstimatorSpec("DR"), logged, target, logging,
                                 model=model),
            evaluate_estimator(EstimatorSpec("DR_SHRINK", shrink_cap=0.0),
                               logged, target, logging, model=model)
            - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                 model=model),
            evaluate_estimator(EstimatorSpec("TR_SWITCH", tau=np.inf), logged,
                               target, logging, robust=robust)
            - evaluate_estimator(EstimatorSpec("TR"), logged, target, logging,
                                 robust=robust),
            evaluate_estimator(EstimatorSpec("TR_SWITCH", tau=0.0), logged,
                               target, logging, robust=robust)
            - evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                 logging, robust=robust),
            evaluate_estimator(EstimatorSpec("TR_SHRINK", shrink_cap=np.inf),
                               logged, target, logging, robust=robust)
            - evaluate_estimator(EstimatorSpec("TR"), logged, target, logging,
                                 robust=robust),
            evaluate_estimator(EstimatorSpec("TR_SHRINK", shrink_cap=0.0),
                               logged, target, logging, robust=robust)
            - evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                 logging, robust=robust),
            evaluate_estimator(EstimatorSpec("SnDR"), logged, target, logging,
                               model=zero)
            - evaluate_estimator(EstimatorSpec("SnIPS"), logged, target,
                                 logging),
            evaluate_estimator(EstimatorSpec("SnDR"), logged, target, logging,
                               model=perfect)
            - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                 model=perfect),
        ]
        ok = ok and max(abs(c) for c in checks) <= tol
    report_line(2, "reduction identities at 1e-12", ok)


def test_acceptance_3_gradient_checks():
    """rho and feature-net gradients match central finite differences."""
    tol = 1e-4
    h = 1e-6
    ok = True
    for case in range(20):
        rng = np.random.default_rng(500 + case)
        d = int(rng.integers(1, 4))
        k_actions = int(rng.integers(2, 4))
        k_feat = int(rng.integers(2, 5))
        net = init_net([d + k_actions, int(rng.integers(3, 6)), k_feat], rng)
        reg = RobustRegressor(
            net=net,
            rho=RhoParams(float(rng.uniform(0.1, 2.0)),
                          rng.standard_normal(k_feat)),
            base=BaseGaussian(0.5, 1.0), n_actions=k_actions)
        n = int(rng.integers(4, 10))
        contexts = rng.standard_normal((n, d))
        actions = rng.integers(0, k_actions, size=n)
        rewards = rng.random(n)
        ratios = rng.uniform(0.1, 3.0, size=n)

        def nll():
            return batch_nll(reg, contexts, actions, rewards, ratios)

        def close(ana, fd):
            return abs(ana - fd) <= tol * max(1e-6, abs(ana), abs(fd))

        grad_r, grad_xr = rho_gradients(reg, contexts, actions, rewards,
                                        ratios)
        orig = reg.rho.rho_r
        reg.rho.rho_r = orig + h
        up = nll()
        reg.rho.rho_r = orig - h
        dn = nll()
        reg.rho.rho_r = orig
        ok = ok and close(grad_r, (up - dn) / (2 * h))
        for j in range(k_feat):
            orig = reg.rho.rho_xr[j]
            reg.rho.rho_xr[j] = orig + h
            up = nll()
            reg.rho.rho_xr[j] = orig - h
            dn = nll()
            reg.rho.rho_xr[j] = orig
            ok = ok and close(grad_xr[j], (up - dn) / (2 * h))
        grads = theta_gradients(reg, contexts, actions, rewards, ratios)
        for li, layer in enumerate(reg.net.layers):
            for idx in np.ndindex(layer.weight.shape):
                orig = layer.weight[idx]
                layer.weight[idx] = orig + h
                up = nll()
                layer.weight[idx] = orig - h
                dn = nll()
                layer.weight[idx] = orig
                ok = ok and close(grads[li][0][idx], (up - dn) / (2 * h))
            for j in range(layer.bias.shape[0]):
                orig = layer.bias[j]
                layer.bias[j] = orig + h
                up = nll()
                layer.bias[j] = orig - h
                dn = nll()
                layer.bias[j] = orig
                ok = ok and close(grads[li][1][j], (up - dn) / (2 * h))
    report_line(3, "gradient checks vs finite differences", ok)


def test_acceptance_4_base_distribution_limit():
    """Density ratio 0 collapses the prediction to the base exactly."""
    rng = np.random.default_rng(600)
    reg = RobustRegressor(
        net=init_net([3 + 4, 8, 5], rng),
        rho=RhoParams(float(rng.uniform(0.1, 3.0)), rng.standard_normal(5)),
        base=BaseGaussian(), n_actions=4)
    ok = True
    for _ in range(1000):
        x = rng.standard_normal(3)
        a = int(rng.integers(0, 4))
        (mu,), (s2,) = predict_batch(reg, [x], [a], [0.0])
        ok = ok and mu == 0.5 and s2 == 1.0
    report_line(4, "ratio-0 base-distribution limit", ok)


def test_acceptance_5_constant_reward_oracle():
    """Robust and iid trainers recover a constant reward of 0.7."""
    rng = np.random.default_rng(700)
    n, k, d = 2000, 2, 3
    contexts = rng.standard_normal((n, d))
    actions = rng.integers(0, k, size=n)
    logged = LoggedDataset(contexts, actions, np.full(n, 0.7), k,
                           propensities=np.full(n, 1.0 / k))
    pol = UniformPolicy(k)
    config = SgdConfig(epochs=100, batch_size=32, seed=0)
    settings = RobustTrainSettings(rho_learning_rate=0.05)
    held = rng.standard_normal((400, d))
    held_a = rng.integers(0, k, size=400)
    means = []
    for reg in (train_robust(logged, pol, pol, [32, 16], config,
                             settings=settings),
                train_iid(logged, [32, 16], config, settings=settings)):
        mu, _ = predict_batch(reg, held, held_a, np.ones(400))
        means.append(float(np.mean(mu)))
    ok = all(abs(m - 0.7) <= 0.05 for m in means)
    print(f"  held-out mean predictions: {means}")
    report_line(5, "constant-reward 0.7 oracle within 0.05", ok)


def _benchmark_rmse(csv_path, logging_mode, estimator_names):
    config = ExperimentConfig(
        dataset=str(csv_path), logging_mode=logging_mode, trials=20, seed=0,
        estimator_names=list(estimator_names))
    # trials are independent and `--jobs N` matches `--jobs 1` byte for byte
    # (TestSmokeConfigReport), so the two benchmarks use both cores
    report = run_experiment(config, jobs=min(2, os.cpu_count() or 1))
    return dict(zip(report.estimator_names, report.rmse))


def test_acceptance_6_estimated_logging_benchmark(data_dir):
    """Robust family beats the baseline family when propensities are fit."""
    wins = {}
    for name in ("vehicle", "optdigits"):
        rmse = _benchmark_rmse(data_dir / f"{name}.csv", "estimated",
                               BASELINE_FAMILY + ROBUST_FAMILY)
        best_base = min(rmse[e] for e in BASELINE_FAMILY)
        best_robust = min(rmse[e] for e in ROBUST_FAMILY)
        wins[name] = best_robust <= best_base
        print(f"  {name}: best baseline {best_base:.4f}, "
              f"best robust {best_robust:.4f}")
    ok = sum(wins.values()) >= 1  # may fail on at most one dataset
    report_line(6, "estimated-logging directional benchmark", ok)


def test_acceptance_7_uniform_logging_sanity(data_dir):
    """DR and TR both land within 0.10 RMSE under known uniform logging."""
    rmse = _benchmark_rmse(data_dir / "vehicle.csv", "uniform", ["DR", "TR"])
    print(f"  vehicle uniform: DR {rmse['DR']:.4f}, TR {rmse['TR']:.4f}")
    ok = rmse["DR"] <= 0.10 and rmse["TR"] <= 0.10
    report_line(7, "uniform-logging DR/TR RMSE <= 0.10", ok)


def test_acceptance_8_diagnostics_hand_values():
    """Bound calculators match hand-substituted expressions to 1e-12."""
    cases = [
        dict(w_max=2.0, rho_cap=10.0, sigma0_sq=1.0, eta1=0.1, eta2=0.1,
             feature_lower=1.0, n=100, delta=0.1, epsilon=0.05, e_p_wr=0.3),
        dict(w_max=1.0, rho_cap=1.0, sigma0_sq=2.0, eta1=0.0, eta2=0.5,
             feature_lower=0.5, n=10, delta=0.05, epsilon=0.0, e_p_wr=1.0),
        dict(w_max=7.5, rho_cap=100.0, sigma0_sq=0.25, eta1=0.3, eta2=0.01,
             feature_lower=2.0, n=1000, delta=0.2, epsilon=0.1, e_p_wr=0.0),
        dict(w_max=3.0, rho_cap=5.0, sigma0_sq=1.0, eta1=1.0, eta2=1.0,
             feature_lower=0.1, n=1, delta=0.5, epsilon=0.5, e_p_wr=2.0),
        dict(w_max=12.0, rho_cap=1000.0, sigma0_sq=1.0, eta1=0.02, eta2=0.2,
             feature_lower=1.5, n=50_000, delta=0.01, epsilon=0.0,
             e_p_wr=0.7),
    ]
    ok = True
    for c in cases:
        x = BoundInputs(bigo_constant=1.0, **c)
        w, n, l = c["w_max"], c["n"], c["feature_lower"]
        bias = (w * c["eta1"] / l + c["epsilon"]
                + math.sqrt(w * math.log(1 / c["delta"]) / n))
        var = (2 * w ** 2 * c["eta2"]
               + 2 * w ** 2 / (2 * w * c["rho_cap"] + 1 / c["sigma0_sq"])
               + w ** 2 * math.sqrt(math.log(1 / c["delta"]) / n)
               + 2 * c["epsilon"] ** 2)
        t1 = w ** 2 * c["eta2"] ** 2 / (64 * math.e * l ** 2)
        disc = 16 * c["e_p_wr"] ** 2 + 8 * w ** 2 * (n + 2) * c["eta1"]
        t2 = ((-4 * c["e_p_wr"] + math.sqrt(disc)) ** 2
              / (128 * math.e * (n + 2) ** 2))
        for got, want in ((bias_bound(x), bias),
                          (variance_bound(x), var),
                          (minimax_lower_bound(x), min(t1, t2))):
            ok = ok and (got == want == 0.0
                         or abs(got - want) <= 1e-12 * max(abs(got),
                                                           abs(want)))
    report_line(8, "diagnostics hand substitution at 1e-12", ok)


def test_acceptance_9_byte_identical_reports(tmp_path):
    """Two CLI runs with the same config and seed emit identical CSV bytes."""
    config_path = tmp_path / "det.ini"
    config_path.write_text(
        "[experiment]\n"
        "dataset = synthetic\n"
        "synthetic_n = 200\n"
        "synthetic_d = 4\n"
        "synthetic_k = 3\n"
        "trials = 2\n"
        "seed = 42\n"
        "estimators = DM, IPS, DR, TR\n"
        "[training]\n"
        "classifier_epochs = 2\n"
        "reward_epochs = 2\n"
        "hidden_width = 8\n"
        "hidden_layers = 2\n", encoding="utf-8")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "robust_ope.cli", "run", "--config",
             str(config_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report_line(9, "byte-identical CSV determinism", ok)
