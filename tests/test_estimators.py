"""Estimators: hand-computed values, reduction identities, purity, ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robust_ope import estimators
from robust_ope.bandit_sim import SyntheticBandit, make_synthetic
from robust_ope.data import LoggedDataset
from robust_ope.estimators import (
    ESTIMATOR_KINDS,
    EstimatorSpec,
    RewardModel,
    TableRewardModel,
    UndefinedEstimate,
    evaluate_estimator,
    importance_weights,
    train_direct_model,
    v_dm,
    v_dm_r,
    v_dr,
    v_dr_shrink,
    v_dr_switch,
    v_ips,
    v_sndr,
    v_snips,
    v_tr,
    v_tr_shrink,
    v_tr_switch,
)
from robust_ope.nets import SgdConfig, init_net
from robust_ope.policies import TabularPolicy, uniform_policy
from robust_ope.robust_regression import BaseGaussian, RhoParams, \
    RobustRegressor, mean_matrix, train_iid, train_robust
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
        assert v_dm(logged, target, model) == pytest.approx(0.3)

    def test_deterministic_target(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.zeros(2, dtype=int),
                               np.zeros(2), 2, propensities=np.full(2, 0.5))
        target = TabularPolicy(np.array([[0.0, 1.0], [0.0, 1.0]]))
        model = TableRewardModel(np.array([[0.1, 0.9], [0.2, 0.4]]))
        assert v_dm(logged, target, model) == pytest.approx((0.9 + 0.4) / 2)

    def test_hand_weighted_sum(self):
        contexts = np.array([[0.0], [1.0]])
        logged = LoggedDataset(contexts, np.zeros(2, dtype=int),
                               np.zeros(2), 2, propensities=np.full(2, 0.5))
        target = TabularPolicy(np.array([[0.7, 0.3], [0.2, 0.8]]))
        model = TableRewardModel(np.array([[0.5, 0.1], [0.9, 0.6]]))
        expected = ((0.7 * 0.5 + 0.3 * 0.1) + (0.2 * 0.9 + 0.8 * 0.6)) / 2
        assert v_dm(logged, target, model) == pytest.approx(expected)

    def test_empty_dataset_rejected(self):
        logged = LoggedDataset(np.zeros((0, 1)), np.zeros(0, dtype=int),
                               np.zeros(0), 2)
        with pytest.raises(ValueError):
            v_dm(logged, uniform_policy(2), TableRewardModel(np.zeros((1, 2))))


class TestVIps:
    def test_on_policy_is_sample_mean(self):
        logged, target = hand_logged([1.0, 1.0, 1.0], [1.0, 0.0, 1.0])
        assert v_ips(logged, target) == pytest.approx(2.0 / 3.0)

    def test_all_zero_rewards(self):
        logged, target = hand_logged([2.0, 0.5], [0.0, 0.0])
        assert v_ips(logged, target) == 0.0

    def test_hand_three_records(self):
        logged, target = hand_logged([2.0, 0.5, 1.0], [1.0, 0.0, 1.0])
        assert v_ips(logged, target) == pytest.approx(1.0)

    def test_zero_propensity_rejected(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2)
        logging = TabularPolicy(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            v_ips(logged, uniform_policy(2), logging)

    def test_weight_clipping(self):
        logged, target = hand_logged([2.0], [1.0])
        assert v_ips(logged, target, w_max=1.5) == pytest.approx(1.5)


class TestVSnips:
    def test_constant_reward_exact(self):
        logged, target = hand_logged([2.0, 0.5, 0.25], [0.6, 0.6, 0.6])
        assert v_snips(logged, target) == 0.6

    def test_on_policy_is_sample_mean(self):
        logged, target = hand_logged([1.0, 1.0], [0.2, 0.8])
        assert v_snips(logged, target) == pytest.approx(0.5)

    def test_hand_three_records(self):
        logged, target = hand_logged([2.0, 0.5, 1.0], [1.0, 0.0, 1.0])
        assert v_snips(logged, target) == pytest.approx(3.0 / 3.5)

    def test_zero_weight_sum_undefined(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.ones(1), 2,
                               propensities=np.array([0.5]))
        target = TabularPolicy(np.array([[0.0, 1.0]]))
        with pytest.raises(UndefinedEstimate):
            v_snips(logged, target)


class TestDrFamilyHand:
    def test_dr_hand_table(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = v_dm(logged, target, model)
        resid = (2.0 * (1.0 - 0.5) + 0.5 * (0.0 - 0.1)) / 2
        assert v_dr(logged, target, None, model) == pytest.approx(dm + resid)

    def test_sndr_hand_table(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = v_dm(logged, target, model)
        resid = (2.0 * 0.5 + 0.5 * (-0.1)) / 2.5
        assert v_sndr(logged, target, None, model) == pytest.approx(dm + resid)

    def test_switch_mixed_threshold(self):
        logged, target = hand_logged([2.0, 0.5], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        mat = model.predict_matrix(logged.contexts)
        pi = target.probs_matrix(logged.contexts)
        r_pi = np.sum(pi * mat, axis=1)
        # record 0: w=2 > tau -> r_pi only; record 1: w=0.5 <= tau -> DR term
        expected = (r_pi[0] + (0.5 * (0.0 - 0.1) + r_pi[1])) / 2
        got = v_dr_switch(logged, target, None, model, tau=0.5)
        assert got == pytest.approx(expected)

    def test_shrink_hand_weights(self):
        logged, target = hand_logged([2.0, 0.3], [1.0, 0.0])
        model = TableRewardModel(np.array([[0.5, 0.2], [0.1, 0.3]]))
        dm = v_dm(logged, target, model)
        resid = (0.5 * (1.0 - 0.5) + 0.3 * (0.0 - 0.1)) / 2
        got = v_dr_shrink(logged, target, None, model, shrink_cap=0.5)
        assert got == pytest.approx(dm + resid)


class TestReductionIdentities:
    @pytest.mark.parametrize("seed", range(10))
    def test_dr_with_zero_model_is_ips(self, seed):
        _, logged, logging, target = random_instance(seed)
        zero = TableRewardModel(np.zeros((50, logged.n_actions)))
        assert abs(v_dr(logged, target, logging, zero)
                   - v_ips(logged, target, logging)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_dr_with_perfect_model_is_dm(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        perfect = TableRewardModel(bandit.reward_table)
        assert abs(v_dr(logged, target, logging, perfect)
                   - v_dm(logged, target, perfect)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_switch_limits(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(
            np.random.default_rng(seed + 1).random(bandit.reward_table.shape))
        assert abs(v_dr_switch(logged, target, logging, model, np.inf)
                   - v_dr(logged, target, logging, model)) < 1e-12
        assert abs(v_dr_switch(logged, target, logging, model, 0.0)
                   - v_dm(logged, target, model)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_shrink_limits(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(
            np.random.default_rng(seed + 2).random(bandit.reward_table.shape))
        assert abs(v_dr_shrink(logged, target, logging, model, np.inf)
                   - v_dr(logged, target, logging, model)) < 1e-12
        assert abs(v_dr_shrink(logged, target, logging, model, 0.0)
                   - v_dm(logged, target, model)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_tr_with_zero_mean_robust_is_ips(self, seed):
        _, logged, logging, target = random_instance(seed)
        d = logged.contexts.shape[1]
        robust = constant_feature_regressor([1.0], d=d,
                                            n_actions=logged.n_actions,
                                            mu0=0.0)
        assert abs(v_tr(logged, target, logging, robust)
                   - v_ips(logged, target, logging)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_tr_switch_and_shrink_limits(self, seed):
        _, logged, logging, target = random_instance(seed)
        d = logged.contexts.shape[1]
        robust = constant_feature_regressor([1.0], d=d,
                                            n_actions=logged.n_actions,
                                            rho_r=0.4, rho_xr=[-0.3], mu0=0.2)
        assert abs(v_tr_switch(logged, target, logging, robust, np.inf)
                   - v_tr(logged, target, logging, robust)) < 1e-12
        assert abs(v_tr_switch(logged, target, logging, robust, 0.0)
                   - v_dm_r(logged, target, logging, robust)) < 1e-12
        assert abs(v_tr_shrink(logged, target, logging, robust, np.inf)
                   - v_tr(logged, target, logging, robust)) < 1e-12
        assert abs(v_tr_shrink(logged, target, logging, robust, 0.0)
                   - v_dm_r(logged, target, logging, robust)) < 1e-12


class TestDmRobust:
    def test_untrained_rho_zero_gives_base_mean(self):
        rng = np.random.default_rng(30)
        _, logged, logging, target = random_instance(3)
        robust = constant_feature_regressor(
            [1.0], d=1, n_actions=logged.n_actions)  # rho = 0, mu0 = 0.5
        assert v_dm_r(logged, target, logging, robust) == pytest.approx(0.5)

    def test_predictions_clipped_to_unit_interval(self):
        _, logged, logging, target = random_instance(4)
        robust = constant_feature_regressor([1.0], d=1,
                                            n_actions=logged.n_actions,
                                            rho_r=0.5, rho_xr=[-5.0], mu0=0.0)
        assert 0.0 <= v_dm_r(logged, target, logging, robust) <= 1.0


class TestRangesAndPurity:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_simplex_bounded_estimators_stay_in_unit_interval(self, seed):
        bandit, logged, logging, target = random_instance(seed)
        model = TableRewardModel(bandit.reward_table)
        assert 0.0 <= v_dm(logged, target, model) <= 1.0
        assert 0.0 <= v_snips(logged, target, logging) <= 1.0

    def test_estimators_are_pure(self):
        bandit, logged, logging, target = random_instance(11)
        model = TableRewardModel(bandit.reward_table)
        for _ in range(2):
            vals = [v_dm(logged, target, model),
                    v_ips(logged, target, logging),
                    v_dr(logged, target, logging, model)]
        again = [v_dm(logged, target, model),
                 v_ips(logged, target, logging),
                 v_dr(logged, target, logging, model)]
        assert vals == again


class TestEstimatorSpec:
    def test_switch_requires_tau(self):
        with pytest.raises(ValueError):
            EstimatorSpec("DR_SWITCH")
        EstimatorSpec("DR_SWITCH", tau=0.5)

    def test_shrink_requires_cap(self):
        with pytest.raises(ValueError):
            EstimatorSpec("TR_SHRINK")
        EstimatorSpec("TR_SHRINK", shrink_cap=0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EstimatorSpec("MAGIC")

    def test_dispatch_matches_direct_calls(self):
        bandit, logged, logging, target = random_instance(12)
        model = TableRewardModel(bandit.reward_table)
        assert evaluate_estimator(EstimatorSpec("IPS"), logged, target,
                                  logging) == v_ips(logged, target, logging)
        assert evaluate_estimator(EstimatorSpec("DR"), logged, target, logging,
                                  model=model) == v_dr(logged, target, logging,
                                                       model)


class TestGoldenEstimates:
    """Every kind on `golden_instance`, pinned to the values recorded before
    the estimators were rewritten as one formula table."""

    GOLDEN = {
        ("with_propensities", "DM"): 0.5168303190827234,
        ("with_propensities", "IPS"): 0.569463111685665,
        ("with_propensities", "SnIPS"): 0.5628887768801774,
        ("with_propensities", "DR"): 0.552233071521514,
        ("with_propensities", "SnDR"): 0.5518243540070829,
        ("with_propensities", "DR_SWITCH"): 0.48587474644520406,
        ("with_propensities", "DR_SHRINK"): 0.4897866235826733,
        ("with_propensities", "DM_R"): 0.3398705593118283,
        ("with_propensities", "DM_I"): 0.5923108450320863,
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
        ("without_propensities", "DM_I"): 0.5923108450320863,
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


class TestOneEvaluationPerInput:
    """One estimate evaluates the target policy and its reward model once."""

    def counted(self):
        inst = golden_instance()
        target = CountingPolicy(inst["target"].table)
        logging = CountingPolicy(inst["logging"].table)
        model = CountingRewardModel(inst["model"].table)
        return inst, target, logging, model

    @pytest.mark.parametrize("kind", ["DR", "SnDR", "DR_SWITCH", "DR_SHRINK"])
    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_direct_kinds(self, kind, sample):
        inst, target, logging, model = self.counted()
        evaluate_estimator(EstimatorSpec(kind, tau=1.0, shrink_cap=0.8),
                           inst[sample], target, logging, model=model)
        assert (target.calls, model.calls) == (1, 1)
        assert logging.calls == (sample == "without_propensities")

    @pytest.mark.parametrize("kind", ["TR", "SnTR", "DM_R"])
    @pytest.mark.parametrize("sample", ["with_propensities",
                                        "without_propensities"])
    def test_robust_kinds(self, kind, sample, monkeypatch):
        inst, target, logging, _ = self.counted()
        calls, original = [], estimators.mean_matrix

        def counting_mean_matrix(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(estimators, "mean_matrix", counting_mean_matrix)
        evaluate_estimator(EstimatorSpec(kind), inst[sample], target,
                           logging, robust=inst["robust"])
        assert (target.calls, logging.calls, len(calls)) == (1, 1, 1)


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

        tr = v_tr(logged, policy, policy, robust)
        assert v_tr(logged, policy, policy, iid) == tr
        assert v_dr(logged, policy, policy, IidMeansModel(iid)) == tr
        assert v_dm_r(logged, policy, policy, robust) == evaluate_estimator(
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
        w = importance_weights(logged, uniform_policy(2), uniform_policy(2))
        assert np.allclose(w, [2.0])

    def test_missing_propensity_source_rejected(self):
        contexts = np.array([[0.0]])
        logged = LoggedDataset(contexts, np.array([0]), np.zeros(1), 2)
        with pytest.raises(ValueError):
            importance_weights(logged, uniform_policy(2), None)


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
