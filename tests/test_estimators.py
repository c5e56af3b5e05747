"""Estimators: hand-computed values, reduction identities, purity, ranges."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope import estimators
from robust_ope.data import LoggedDataset
from robust_ope.estimators import (
    ESTIMATOR_KINDS,
    EstimatorSpec,
    NetRewardModel,
    RewardModel,
    UndefinedEstimate,
    evaluate_estimator,
    importance_weights,
    train_direct_model,
)
from robust_ope.nets import SgdConfig, forward_batch, init_net
from robust_ope.policies import UniformPolicy
from robust_ope.robust_regression import BaseGaussian, RhoParams, \
    RobustRegressor, mean_matrix, train_iid, train_robust
from tests.oracles import (SyntheticBandit, TableRewardModel, TabularPolicy,
                           make_synthetic)
from tests.test_nets import random_action_net
from tests.test_robust_regression import constant_feature_regressor


def hand_logged(weights, rewards, target_probs=None):
    """Dataset whose importance weights are exactly `weights`.

    Uses a 2-action bandit: propensity p, target prob pi with pi/p = w.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.shape[0]
    contexts = np.arange(n, dtype=float)[:, None]
    p = np.full(n, 0.4)
    pi = weights * p
    table = np.zeros((n, 2))
    table[:, 0] = np.clip(pi, 0.0, 1.0)
    table[:, 1] = 1.0 - table[:, 0]
    target = TabularPolicy(table)
    logged = LoggedDataset(contexts, np.zeros(n, dtype=int),
                           np.asarray(rewards, dtype=float), 2,
                           propensities=p)
    return logged, target


def random_instance(seed):
    """Random enumerable bandit + logged sample + stochastic policies."""
    rng = np.random.default_rng(seed)
    n_contexts = int(rng.integers(2, 8))
    n_actions = int(rng.integers(2, 5))
    bandit = make_synthetic(n_contexts, n_actions, seed=seed)

    def random_policy():
        t = rng.uniform(0.1, 1.0, size=(n_contexts, n_actions))
        return TabularPolicy(t / t.sum(axis=1, keepdims=True))

    logging, target = random_policy(), random_policy()
    logged = bandit.sample_logged(int(rng.integers(20, 80)), logging, rng)
    return bandit, logged, logging, target


def golden_instance():
    """Fixed small instance exercising every estimator kind.

    The estimated logging policy differs from the one that logged the data,
    so logged propensities (when kept) and the policy give different weights;
    the robust model's small ratio_max makes density-ratio clipping bite.
    """
    rng = np.random.default_rng(2718)
    n_contexts, k = 6, 3
    bandit = make_synthetic(n_contexts, k, seed=5)
    true_logging = TabularPolicy(rng.dirichlet(np.ones(k), size=n_contexts))
    logging = TabularPolicy(rng.dirichlet(np.ones(k), size=n_contexts))
    target = TabularPolicy(rng.dirichlet(np.ones(k), size=n_contexts))
    model = TableRewardModel(rng.random((n_contexts, k)))
    robust = RobustRegressor(
        net=init_net([1 + k, 5, 3], rng),
        rho=RhoParams(0.7, rng.standard_normal(3)), base=BaseGaussian(0.4, 1.0),
        n_actions=k, ratio_max=2.0)
    iid = RobustRegressor(
        net=init_net([1 + k, 4, 2], rng),
        rho=RhoParams(0.3, rng.standard_normal(2)), base=BaseGaussian(0.6, 2.0),
        n_actions=k)
    with_p = bandit.sample_logged(40, true_logging, rng)
    without_p = LoggedDataset(with_p.contexts, with_p.actions, with_p.rewards,
                              k, r_min=with_p.r_min, r_max=with_p.r_max)
    return {"with_propensities": with_p, "without_propensities": without_p,
            "logging": logging, "target": target, "model": model,
            "robust": robust, "iid": iid, "tau": 1.0, "shrink_cap": 0.8}


class TestVDm:
    def test_constant_model(self):
        logged, target = hand_logged([1.0, 1.0], [0.0, 1.0])
        model = TableRewardModel(np.full((2, 2), 0.3))
        assert evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                  model=model) == pytest.approx(0.3)

    def test_deterministic_target(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.zeros(2, dtype=int),
                               np.zeros(2), 2, propensities=np.full(2, 0.5))
        target = TabularPolicy(np.array([[0.0, 1.0], [0.0, 1.0]]))
        model = TableRewardModel(np.array([[0.1, 0.9], [0.2, 0.4]]))
        assert evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                  model=model) == pytest.approx(
                                      (0.9 + 0.4) / 2)

    def test_hand_weighted_sum(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.zeros(2, dtype=int),
                               np.zeros(2), 2, propensities=np.full(2, 0.5))
        target = TabularPolicy(np.array([[0.7, 0.3], [0.2, 0.8]]))
        model = TableRewardModel(np.array([[0.5, 0.1], [0.9, 0.6]]))
        expected = ((0.7 * 0.5 + 0.3 * 0.1) + (0.2 * 0.9 + 0.8 * 0.6)) / 2
        assert evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                  model=model) == pytest.approx(expected)

    def test_empty_dataset_rejected(self):
        logged = LoggedDataset(np.zeros((0, 1)), np.zeros(0, dtype=int),
                               np.zeros(0), 2)
        with pytest.raises(ValueError):
            evaluate_estimator(EstimatorSpec("DM"), logged, UniformPolicy(2),
                               model=TableRewardModel(np.zeros((1, 2))))


class TestVIps:
    def test_on_policy_is_sample_mean(self):
        logged, target = hand_logged([1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
        assert evaluate_estimator(EstimatorSpec("IPS"), logged,
                                  target) == pytest.approx(2.0 / 3.0)

    def test_all_zero_rewards(self):
        logged, target = hand_logged([2.0, 0.5], [0.0, 0.0])
        assert evaluate_estimator(EstimatorSpec("IPS"), logged, target) == 0.0

    def test_hand_three_records(self):
        logged, target = hand_logged([2.0, 0.5, 1.0], [1.0, 0.0, 1.0])
        assert evaluate_estimator(EstimatorSpec("IPS"), logged,
                                  target) == pytest.approx(1.0)

    def test_zero_propensity_rejected(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2)
        logging = TabularPolicy(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            evaluate_estimator(EstimatorSpec("IPS"), logged, UniformPolicy(2),
                               logging)

    def test_weight_clipping(self):
        logged, target = hand_logged([2.0], [1.0])
        assert evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                  w_max=1.5) == pytest.approx(1.5)


class TestVSnips:
    def test_constant_reward_exact(self):
        logged, target = hand_logged([2.0, 0.5, 0.25], [0.6, 0.6, 0.6])
        assert evaluate_estimator(EstimatorSpec("SnIPS"), logged,
                                  target) == 0.6

    def test_on_policy_is_sample_mean(self):
        logged, target = hand_logged([1.0, 1.0], [0.2, 0.8])
        assert evaluate_estimator(EstimatorSpec("SnIPS"), logged,
                                  target) == pytest.approx(0.5)

    def test_hand_three_records(self):
        logged, target = hand_logged([2.0, 0.5, 1.0], [1.0, 0.0, 1.0])
        assert evaluate_estimator(EstimatorSpec("SnIPS"), logged,
                                  target) == pytest.approx(3.0 / 3.5)

    def test_zero_weight_sum_undefined(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.ones(1), 2,
                               propensities=np.array([0.5]))
        target = TabularPolicy(np.array([[0.0, 1.0]]))
        with pytest.raises(UndefinedEstimate):
            evaluate_estimator(EstimatorSpec("SnIPS"), logged, target)


class TestDrFamilyHand:
    def test_dr_hand_table(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                model=model)
        resid = (2.0 * (1.0 - 0.5) + 0.5 * (0.0 - 0.1)) / 2
        assert evaluate_estimator(EstimatorSpec("DR"), logged, target, None,
                                  model=model) == pytest.approx(dm + resid)

    def test_sndr_hand_table(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                model=model)
        resid = (2.0 * 0.5 + 0.5 * (-0.1)) / 2.5
        assert evaluate_estimator(EstimatorSpec("SnDR"), logged, target, None,
                                  model=model) == pytest.approx(dm + resid)

    def test_switch_mixed_threshold(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        mat = model.predict_matrix(logged.contexts)
        pi = target.probs_matrix(logged.contexts)
        r_pi = np.sum(pi * mat, axis=1)
        # record 0: w=2 > tau -> r_pi only; record 1: w=0.5 <= tau -> DR term
        expected = (r_pi[0] + (0.5 * (0.0 - 0.1) + r_pi[1])) / 2
        got = evaluate_estimator(EstimatorSpec("DR_SWITCH", tau=0.5), logged,
                                 target, None, model=model)
        assert got == pytest.approx(expected)

    def test_shrink_hand_weights(self):
        logged, target = hand_logged([2.0, 0.3], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                model=model)
        resid = (0.5 * (1.0 - 0.5) + 0.3 * (0.0 - 0.1)) / 2
        got = evaluate_estimator(EstimatorSpec("DR_SHRINK", shrink_cap=0.5),
                                 logged, target, None, model=model)
        assert got == pytest.approx(dm + resid)


class TestReductionIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_dr_with_zero_model_is_ips(self, seed):
        _, logged, logging, target = random_instance(seed)
        zero = TableRewardModel(np.zeros((50, logged.n_actions)))
        assert abs(evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                      logging, model=zero)
                   - evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                        logging)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_dr_with_perfect_model_is_dm(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        perfect = TableRewardModel(bandit.reward_table)
        assert abs(evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                      logging, model=perfect)
                   - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                        model=perfect)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_switch_limits(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(
            np.random.default_rng(seed + 1).random(bandit.reward_table.shape))
        assert abs(evaluate_estimator(EstimatorSpec("DR_SWITCH", tau=np.inf),
                                      logged, target, logging, model=model)
                   - evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                        logging, model=model)) < 1e-12
        assert abs(evaluate_estimator(EstimatorSpec("DR_SWITCH", tau=0.0),
                                      logged, target, logging, model=model)
                   - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                        model=model)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_shrink_limits(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(
            np.random.default_rng(seed + 2).random(bandit.reward_table.shape))
        assert abs(evaluate_estimator(EstimatorSpec("DR_SHRINK",
                                                    shrink_cap=np.inf),
                                      logged, target, logging, model=model)
                   - evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                        logging, model=model)) < 1e-12
        assert abs(evaluate_estimator(EstimatorSpec("DR_SHRINK",
                                                    shrink_cap=0.0),
                                      logged, target, logging, model=model)
                   - evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                        model=model)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_tr_with_zero_mean_robust_is_ips(self, seed):
        _, logged, logging, target = random_instance(seed)
        d = logged.contexts.shape[1]
        robust = constant_feature_regressor([1.0], d=d,
                                            n_actions=logged.n_actions,
                                            mu0=0.0)
        assert abs(evaluate_estimator(EstimatorSpec("TR"), logged, target,
                                      logging, robust=robust)
                   - evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                        logging)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_tr_switch_and_shrink_limits(self, seed):
        _, logged, logging, target = random_instance(seed)
        d = logged.contexts.shape[1]
        robust = constant_feature_regressor([1.0], d=d,
                                            n_actions=logged.n_actions,
                                            rho_r=0.4, rho_xr=[-0.3], mu0=0.2)
        assert abs(evaluate_estimator(EstimatorSpec("TR_SWITCH", tau=np.inf),
                                      logged, target, logging, robust=robust)
                   - evaluate_estimator(EstimatorSpec("TR"), logged, target,
                                        logging, robust=robust)) < 1e-12
        assert abs(evaluate_estimator(EstimatorSpec("TR_SWITCH", tau=0.0),
                                      logged, target, logging, robust=robust)
                   - evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                        logging, robust=robust)) < 1e-12
        assert abs(evaluate_estimator(EstimatorSpec("TR_SHRINK",
                                                    shrink_cap=np.inf),
                                      logged, target, logging, robust=robust)
                   - evaluate_estimator(EstimatorSpec("TR"), logged, target,
                                        logging, robust=robust)) < 1e-12
        assert abs(evaluate_estimator(EstimatorSpec("TR_SHRINK",
                                                    shrink_cap=0.0),
                                      logged, target, logging, robust=robust)
                   - evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                        logging, robust=robust)) < 1e-12


class TestDmRobust:
    def test_untrained_rho_zero_gives_base_mean(self):
        rng = np.random.default_rng(30)
        _, logged, logging, target = random_instance(3)
        robust = constant_feature_regressor(
            [1.0], d=1, n_actions=logged.n_actions)  # rho = 0, mu0 = 0.5
        assert evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                  logging, robust=robust) == pytest.approx(0.5)

    def test_predictions_clipped_to_unit_interval(self):
        _, logged, logging, target = random_instance(4)
        robust = constant_feature_regressor([1.0], d=1,
                                            n_actions=logged.n_actions,
                                            rho_r=0.5, rho_xr=[-5.0], mu0=0.0)
        assert 0.0 <= evaluate_estimator(EstimatorSpec("DM_R"), logged, target,
                                         logging, robust=robust) <= 1.0


class TestRangesAndPurity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_simplex_bounded_estimators_stay_in_unit_interval(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(bandit.reward_table)
        assert 0.0 <= evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                         model=model) <= 1.0
        assert 0.0 <= evaluate_estimator(EstimatorSpec("SnIPS"), logged,
                                         target, logging) <= 1.0

    def test_estimators_are_pure(self):
        bandit, logged, logging, target = random_instance(11)
        model = TableRewardModel(bandit.reward_table)
        for _ in range(2):
            vals = [evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                       model=model),
                    evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                       logging),
                    evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                       logging, model=model)]
        again = [evaluate_estimator(EstimatorSpec("DM"), logged, target,
                                    model=model),
                 evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                    logging),
                 evaluate_estimator(EstimatorSpec("DR"), logged, target,
                                    logging, model=model)]
        assert vals == again


class TestEstimatorSpec:
    def test_switch_requires_tau(self):
        with pytest.raises(ValueError):
            EstimatorSpec("DR_SWITCH")
        with pytest.raises(ValueError):
            EstimatorSpec("DR_SWITCH", tau=float("nan"))
        EstimatorSpec("DR_SWITCH", tau=0.5)

    def test_shrink_requires_cap(self):
        with pytest.raises(ValueError):
            EstimatorSpec("TR_SHRINK")
        with pytest.raises(ValueError):
            EstimatorSpec("TR_SHRINK", shrink_cap=float("nan"))
        EstimatorSpec("TR_SHRINK", shrink_cap=0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec("MAGIC")


class TestGoldenEstimates:
    """Every kind on `golden_instance`, pinned to the values recorded before
    the estimators were rewritten as one formula table. DM_I moved one ulp,
    from 0x1.2f435df8f536fp-1, when the read path folded rho_xr into the
    robust net's top layer."""

    GOLDEN = {
        ("with_propensities", "DM"): 0.5168303190827234,
        ("with_propensities", "IPS"): 0.569463111685665,
        ("with_propensities", "SnIPS"): 0.5628887768801774,
        ("with_propensities", "DR"): 0.552233071521514,
        ("with_propensities", "SnDR"): 0.5518243540070829,
        ("with_propensities", "DR_SWITCH"): 0.48587474644520406,
        ("with_propensities", "DR_SHRINK"): 0.4897866235826733,
        ("with_propensities", "DM_R"): 0.3398705593118283,
        ("with_propensities", "DM_I"): 0.5923108450320864,
        ("with_propensities", "TR"): 0.5434402891022896,
        ("with_propensities", "SnTR"): 0.5410901183318888,
        ("with_propensities", "TR_SWITCH"): 0.3578057364108717,
        ("with_propensities", "TR_SHRINK"): 0.3916812004923311,
        ("without_propensities", "DM"): 0.5168303190827234,
        ("without_propensities", "IPS"): 1.0251348606212247,
        ("without_propensities", "SnIPS"): 0.4519895335380463,
        ("without_propensities", "DR"): 0.5287411292065992,
        ("without_propensities", "SnDR"): 0.5220818832610096,
        ("without_propensities", "DR_SWITCH"): 0.5254982683514434,
        ("without_propensities", "DR_SHRINK"): 0.5010887209523517,
        ("without_propensities", "DM_R"): 0.3398705593118283,
        ("without_propensities", "DM_I"): 0.5923108450320864,
        ("without_propensities", "TR"): 0.6000733204260463,
        ("without_propensities", "SnTR"): 0.45459587901274734,
        ("without_propensities", "TR_SWITCH"): 0.3669222324868479,
        ("without_propensities", "TR_SHRINK"): 0.4340563866741756,
    }

    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_every_kind_matches_golden(self, sample):
        inst = golden_instance()
        for kind in ESTIMATOR_KINDS:
            spec = EstimatorSpec(kind, tau=inst["tau"],
                                 shrink_cap=inst["shrink_cap"])
            got = evaluate_estimator(
                spec, inst[sample], inst["target"], logging=inst["logging"],
                model=inst["model"], robust=inst["robust"],
                robust_iid=inst["iid"])
            assert got == pytest.approx(self.GOLDEN[sample, kind],
                                        rel=1e-12), kind


class CountingPolicy(TabularPolicy):
    calls = 0

    def probs_matrix(self, contexts):
        self.calls += 1
        return super().probs_matrix(contexts)


class CountingRewardModel(RewardModel):
    def __init__(self, table):
        self.inner = TableRewardModel(table)
        self.calls = 0

    def predict_matrix(self, contexts):
        self.calls += 1
        return self.inner.predict_matrix(contexts)


def counted_golden():
    """`golden_instance` with counting target, logging policy and model."""
    inst = golden_instance()
    target = CountingPolicy(inst["target"].table)
    logging = CountingPolicy(inst["logging"].table)
    model = CountingRewardModel(inst["model"].table)
    return inst, target, logging, model


class TestOneEvaluationPerInput:
    """One estimate evaluates the target policy and its reward model once."""

    @pytest.mark.parametrize("kind", ["DR", "SnDR", "DR_SWITCH", "DR_SHRINK"])
    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_direct_kinds(self, kind, sample):
        inst, target, logging, model = counted_golden()
        evaluate_estimator(EstimatorSpec(kind, tau=1.0, shrink_cap=0.8),
                           inst[sample], target, logging, model=model)
        assert (target.calls, model.calls) == (1, 1)
        assert logging.calls == (sample == "without_propensities")

    @pytest.mark.parametrize("kind", ["TR", "SnTR", "DM_R"])
    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_robust_kinds(self, kind, sample, monkeypatch):
        inst, target, logging, _ = counted_golden()
        calls, original = [], estimators.mean_matrix

        def counting_mean_matrix(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, "mean_matrix", counting_mean_matrix)
        evaluate_estimator(EstimatorSpec(kind), inst[sample], target,
                           logging, robust=inst["robust"])
        assert (target.calls, logging.calls, len(calls)) == (1, 1, 1)


def score(kind, logged, target, logging, model, robust, iid, **kwargs):
    spec = EstimatorSpec(kind, tau=1.0, shrink_cap=0.8)
    return evaluate_estimator(spec, logged, target, logging, model=model,
                              robust=robust, robust_iid=iid, **kwargs)


def score_fresh(kind, sample, **replace):
    """`kind` on freshly built golden inputs, with some of them replaced."""
    inst = {**golden_instance(), **replace}
    return score(kind, inst[sample], inst["target"], inst["logging"],
                 inst["model"], inst["robust"], inst["iid"])


class TestSharedInputs:
    """Consecutive calls on the same objects share pi, p-hat, the weights and
    each model's mean matrix; a call naming other objects builds its own."""

    @pytest.fixture
    def mean_matrix_models(self, monkeypatch):
        models, original = [], estimators.mean_matrix

        def counting_mean_matrix(reg, *args):
            models.append(reg)
            return original(reg, *args)

        monkeypatch.setattr(estimators, "mean_matrix", counting_mean_matrix)
        return models

    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_all_kinds_evaluate_each_input_once(self, sample,
                                                mean_matrix_models):
        inst, target, logging, model = counted_golden()
        got = {kind: score(kind, inst[sample], target, logging, model,
                           inst["robust"], inst["iid"])
               for kind in ESTIMATOR_KINDS}
        assert (target.calls, logging.calls, model.calls) == (1, 1, 1)
        assert len(mean_matrix_models) == 2
        assert mean_matrix_models[0] is inst["robust"]
        assert mean_matrix_models[1] is inst["iid"]
        for kind in ESTIMATOR_KINDS:
            assert got[kind] == score_fresh(kind, sample), kind

    #: change -> evaluations of the first (target, logging policy, direct
    #: model, robust model) after scoring DR and TR before and after it
    EVALUATIONS = {"new_logged": (2, 2, 2, 2),
                   "rebound_rewards": (2, 2, 2, 2),
                   "new_model": (1, 1, 1, 1),
                   "new_target": (1, 2, 2, 2)}

    @pytest.mark.parametrize("change", sorted(EVALUATIONS))
    def test_other_objects_miss(self, change, mean_matrix_models):
        inst, target, logging, model = counted_golden()
        sample = "without_propensities"
        logged, counters = inst[sample], (target, logging, model)

        def dr_and_tr():
            return [score(kind, logged, target, logging, model,
                          inst["robust"], None) for kind in ("DR", "TR")]

        first = dr_and_tr()
        replace = {}
        if change == "new_logged":
            logged = LoggedDataset(logged.contexts, logged.actions,
                                   logged.rewards, logged.n_actions,
                                   r_min=logged.r_min, r_max=logged.r_max)
        elif change == "rebound_rewards":
            logged.rewards = logged.rewards[::-1].copy()
            replace[sample] = LoggedDataset(
                logged.contexts, logged.actions, logged.rewards,
                logged.n_actions, r_min=logged.r_min, r_max=logged.r_max)
        elif change == "new_model":
            model = replace["model"] = TableRewardModel(
                1.0 - model.inner.table)
        else:
            target = replace["target"] = TabularPolicy(
                target.table[:, ::-1])
        again = dr_and_tr()

        calls = tuple(c.calls for c in counters) + (len(mean_matrix_models),)
        assert calls == self.EVALUATIONS[change]
        assert again == [score_fresh(kind, sample, **replace)
                         for kind in ("DR", "TR")]
        if change == "new_logged":
            assert again == first
        else:
            assert again[0] != first[0]

    def test_importance_weights_reuse_pi_and_phat(self):
        inst, target, logging, model = counted_golden()
        logged = inst["without_propensities"]
        clipped = score("TR", logged, target, logging, model, inst["robust"],
                        None, w_max=1.0)
        w = importance_weights(logged, target, logging, w_max=np.inf)
        assert (target.calls, logging.calls) == (1, 1)
        rows = np.arange(len(logged)), logged.actions
        ctx = logged.contexts[:, 0].astype(int)
        expected = (inst["target"].table[ctx][rows]
                    / inst["logging"].table[ctx][rows])
        assert np.array_equal(w, expected)
        assert w.max() > 1.0 and not w.flags.writeable
        fresh = golden_instance()
        assert clipped == evaluate_estimator(
            EstimatorSpec("TR"), fresh["without_propensities"],
            fresh["target"], fresh["logging"], robust=fresh["robust"],
            w_max=1.0)

    def test_memo_holds_one_input_set_and_no_cycle(self):
        gc.disable()
        try:
            inst = golden_instance()
            first = weakref.ref(inst["without_propensities"])
            for kind in ESTIMATOR_KINDS:
                score(kind, inst["without_propensities"], inst["target"],
                      inst["logging"], inst["model"], inst["robust"],
                      inst["iid"])
            del inst
            assert first() is not None
            other = golden_instance()
            score("DR", other["with_propensities"], other["target"],
                  other["logging"], other["model"], None, None)
            assert first() is None
        finally:
            gc.enable()

    def test_threads_never_mix_input_sets(self):
        kinds = ("DM", "IPS", "SnIPS", "DR", "SnDR")
        cases = []
        for seed in range(4):
            bandit, logged, logging, target = random_instance(seed)
            model = TableRewardModel(bandit.reward_table)
            args = (logged, target, logging, model, None, None)
            cases.append((args, [score(k, *args) for k in kinds]))
        failures = []

        def worker(args, expected):
            try:
                for _ in range(50):
                    got = [score(k, *args) for k in kinds]
                    if got != expected:
                        failures.append(got)
            except Exception as exc:  # a thread's error would pass unseen
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=case)
                       for case in cases * 2]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


class IidMeansModel(RewardModel):
    """An iid-ablation regressor read as a direct model, at ratio 1."""

    def __init__(self, reg):
        self.reg = reg

    def predict_matrix(self, contexts):
        ones = np.ones((len(contexts), self.reg.n_actions))
        return mean_matrix(self.reg, contexts, ones)


class TestTargetEqualsLogging:
    """With target = logging every ratio p-hat / pi is exactly 1, so the
    robust fit is the iid fit and TR is the DR formula on the iid means."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_robust_reduces_to_iid_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        bandit = make_synthetic(5, 3, seed=seed)
        policy = TabularPolicy(rng.dirichlet(np.ones(3), size=5))
        logged = bandit.sample_logged(30, policy, rng)
        config = SgdConfig(learning_rate=0.01, epochs=2, batch_size=8,
                           seed=seed)
        robust = train_robust(logged, policy, policy, [6, 4], config)
        iid = train_iid(logged, [6, 4], config)
        assert robust.rho.rho_r == iid.rho.rho_r
        assert np.array_equal(robust.rho.rho_xr, iid.rho.rho_xr)
        assert np.any(robust.rho.rho_xr)  # training moved rho
        for a, b in zip(robust.net.layers, iid.net.layers):
            assert np.array_equal(a.weight, b.weight)
            assert np.array_equal(a.bias, b.bias)

        tr = evaluate_estimator(EstimatorSpec("TR"), logged, policy, policy,
                                robust=robust)
        assert evaluate_estimator(EstimatorSpec("TR"), logged, policy, policy,
                                  robust=iid) == tr
        assert evaluate_estimator(EstimatorSpec("DR"), logged, policy, policy,
                                  model=IidMeansModel(iid)) == tr
        assert evaluate_estimator(EstimatorSpec("DM_R"), logged, policy,
                                  policy, robust=robust) == evaluate_estimator(
            EstimatorSpec("DM_I"), logged, policy, robust_iid=iid)


class TestRobustKindsNeedLogging:
    """The robust model reads p-hat / pi at every action, so logged
    propensities alone cannot stand in for the logging policy."""

    @pytest.mark.parametrize("kind", ["DM_R", "TR"])
    def test_missing_logging_policy_rejected(self, kind):
        inst = golden_instance()
        logged = inst["with_propensities"]
        assert logged.propensities is not None
        with pytest.raises(ValueError, match="logging policy"):
            evaluate_estimator(EstimatorSpec(kind), logged, inst["target"],
                               robust=inst["robust"])

    def test_iid_kind_needs_no_logging_policy(self):
        inst = golden_instance()
        got = evaluate_estimator(EstimatorSpec("DM_I"),
                                 inst["without_propensities"],
                                 inst["target"], robust_iid=inst["iid"])
        assert got == TestGoldenEstimates.GOLDEN["without_propensities",
                                                 "DM_I"]


class TestImportanceWeights:
    def test_propensities_precedence_over_policy(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2,
                               propensities=np.array([0.25]))
        # uniform logging would give w = 1; logged propensity gives w = 2
        w = importance_weights(logged, UniformPolicy(2), UniformPolicy(2))
        assert np.allclose(w, [2.0])

    def test_missing_propensity_source_rejected(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2)
        with pytest.raises(ValueError):
            importance_weights(logged, UniformPolicy(2), None)


class TestTrainDirectModel:
    def test_learns_action_dependent_rewards(self):
        rng = np.random.default_rng(31)
        n, k = 600, 2
        contexts = rng.standard_normal((n, 2))
        actions = rng.integers(0, k, size=n)
        rewards = np.where(actions == 0, 0.9, 0.1)
        logged = LoggedDataset(contexts, actions, rewards, k,
                               propensities=np.full(n, 0.5))
        model = train_direct_model(logged, [16],
                                   SgdConfig(learning_rate=1e-3, epochs=30,
                                             seed=0))
        mat = model.predict_matrix(contexts[:100])
        assert float(np.mean(mat[:, 0])) > 0.7
        assert float(np.mean(mat[:, 1])) < 0.3

    def test_predict_matrix_equals_per_action_reference(self):
        rng = np.random.default_rng(32)
        n, d, k = 100, 5, 3
        net = random_action_net(rng, d, k, [16, 16, 1])
        model = NetRewardModel(net, k, r_min=-1.0, r_max=1.0)
        contexts = rng.standard_normal((n, d))
        ref = np.empty((n, k))
        for a in range(k):
            onehot = np.zeros((n, k))
            onehot[:, a] = 1.0
            ref[:, a] = forward_batch(net, np.hstack([contexts, onehot]))[:, 0]
        ref = np.clip(ref, -1.0, 1.0)
        assert np.array_equal(model.predict_matrix(contexts), ref)
