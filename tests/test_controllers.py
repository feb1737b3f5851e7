"""Controller tests: Adam mechanics, Lagrange dual ascent, GradBalance."""

import numpy as np
import pytest

from cts.controllers import (ETA_DEFAULT, GRADBALANCE_KAPPA_SLACK, AdamState,
                             ControllerError, ControllerState, adam_update,
                             gradbalance_step, lagrange_step, search_adam)
from cts.mask import (MaskDistribution, init_distribution, sparsity_loss,
                      sparsity_loss_grad, step_rng)
from cts.models import build_model


def _setup(mode, kappa=0.25, d_seed=0):
    model = build_model("tiny-mlp", d_seed, (4,), 2)
    dist = init_distribution(model.d, 0.5)
    state = ControllerState(mode=mode, kappa=kappa)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((8, 4))
    y = rng.integers(0, 2, 8)
    return model, dist, state, (x, y)


class TestState:
    def test_modes_validated(self):
        with pytest.raises(ControllerError):
            ControllerState(mode="pid", kappa=0.5)

    def test_eta_validated(self):
        with pytest.raises(ControllerError):
            ControllerState(mode="gradbalance", kappa=0.5, eta=1.0)

    def test_kappa_eff(self):
        gb = ControllerState(mode="gradbalance", kappa=0.5)
        assert gb.kappa_eff == pytest.approx(GRADBALANCE_KAPPA_SLACK * 0.5)
        lg = ControllerState(mode="lagrange", kappa=0.5)
        assert lg.kappa_eff == pytest.approx(0.5)

    def test_kappa_eff_capped_at_one(self):
        gb = ControllerState(mode="gradbalance", kappa=0.95)
        assert gb.kappa_eff == 1.0

    def test_defaults(self):
        s = ControllerState(mode="gradbalance", kappa=0.5)
        assert s.eta == pytest.approx(ETA_DEFAULT)
        assert s.lam == 0.0


class TestAdam:
    def test_first_step_is_signed_lr(self):
        # with zero state, the bias-corrected first step is lr * sign(g)
        dist = MaskDistribution(np.zeros(4), 2 / 3)
        adam = AdamState(d=4, lr=0.1)
        g = np.array([1.0, -2.0, 0.5, -0.25])
        adam_update(dist, g, adam)
        np.testing.assert_allclose(dist.logits, -0.1 * np.sign(g), rtol=1e-6)

    def test_converges_on_quadratic(self):
        dist = MaskDistribution(np.array([5.0, -5.0]), 2 / 3)
        adam = AdamState(d=2, lr=0.1)
        for _ in range(2000):
            adam_update(dist, 2 * dist.logits, adam)
        np.testing.assert_allclose(dist.logits, 0.0, atol=1e-3)

    def test_lr_drop_schedule(self):
        adam = search_adam(d=3, total_steps=100, lr=0.1)
        assert adam.lr_at(0) == pytest.approx(0.1)
        assert adam.lr_at(89) == pytest.approx(0.1)
        assert adam.lr_at(90) == pytest.approx(0.01)

    def test_in_place_steps_equal_the_formula(self):
        # m and v are updated in place and the logits replaced by a new
        # array (alpha is cached on its identity), bit for bit the formula
        rng = np.random.default_rng(3)
        d = 64
        dist = MaskDistribution(logits=rng.standard_normal(d), tau=2.0 / 3.0)
        adam = AdamState(d=d, lr=0.1, lr_drops=((3, 0.1),))
        m_array, v_array = adam.m, adam.v
        m, v, logits = np.zeros(d), np.zeros(d), dist.logits.copy()
        for t in range(1, 7):
            g = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3, d)
            lr = adam.lr_at(t - 1)
            m = 0.9 * m + (1 - 0.9) * g
            v = 0.999 * v + (1 - 0.999) * g * g
            logits = logits - lr * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            before = dist.logits
            adam_update(dist, g, adam)
            assert dist.logits is not before
            np.testing.assert_array_equal(dist.logits, logits)
        assert adam.m is m_array and adam.v is v_array
        np.testing.assert_array_equal(adam.m, m)
        np.testing.assert_array_equal(adam.v, v)

    def test_gradient_length_checked(self):
        dist = MaskDistribution(np.zeros(4), 2 / 3)
        with pytest.raises(ControllerError):
            adam_update(dist, np.zeros(5), AdamState(d=5))


class TestLagrange:
    def test_mode_guard(self):
        model, dist, state, batch = _setup("gradbalance")
        with pytest.raises(ControllerError):
            lagrange_step(model, dist, state, batch, "loss", step_rng(0, 0))

    def test_g_lambda_is_negated_constraint(self):
        model, dist, state, batch = _setup("lagrange", kappa=0.25)
        _, g_lambda, _, ls = lagrange_step(model, dist, state, batch, "loss",
                                           step_rng(0, 0))
        assert g_lambda == pytest.approx(-ls)
        assert ls == pytest.approx(sparsity_loss(dist, 0.25))

    def test_g_alpha_composition(self):
        model, dist, state, batch = _setup("lagrange", kappa=0.25)
        state.lam = 2.0
        g0, _, _, _ = lagrange_step(model, dist, state, batch, "loss", step_rng(0, 0))
        state.lam = 0.0
        g_obj, _, _, _ = lagrange_step(model, dist, state, batch, "loss", step_rng(0, 0))
        g_sp = sparsity_loss_grad(dist, 0.25)
        np.testing.assert_allclose(g0, g_obj + 2.0 * g_sp, rtol=1e-10, atol=1e-12)

    def test_dual_ascent_drives_density_down(self):
        # toy: objective contributes nothing; the dual alone should push
        # expected density toward kappa
        from cts.mask import expected_density
        dist = init_distribution(50, 0.8)
        kappa = 0.2
        lam = 0.0
        lr, lam_lr = 0.05, 0.05
        for _ in range(4000):
            ls = sparsity_loss(dist, kappa)
            g_sp = sparsity_loss_grad(dist, kappa)
            dist.logits = dist.logits - lr * lam * g_sp
            lam = max(0.0, lam + lam_lr * ls)  # projected one-sided dual
        assert expected_density(dist) < 0.3


class TestGradBalance:
    def test_mode_guard(self):
        model, dist, state, batch = _setup("lagrange")
        with pytest.raises(ControllerError):
            gradbalance_step(model, dist, state, batch, "loss", step_rng(0, 0))

    def test_lambda_decays_by_eta_when_satisfied(self):
        # start below the effective target so lam_target == 0
        model, dist, state, batch = _setup("gradbalance", kappa=0.9)
        dist = init_distribution(model.d, 0.5)
        state.lam = 1.0
        lams = []
        for t in range(3):
            _, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                             step_rng(0, t))
            assert ls <= 0
            state.lam = lam
            lams.append(lam)
        np.testing.assert_allclose(lams, [state.eta ** (t + 1) for t in range(3)],
                                   rtol=1e-12)

    def test_balance_property_when_violated(self):
        model, dist, state, batch = _setup("gradbalance", kappa=0.1)
        state.eta = 0.0  # no smoothing: lambda equals the instantaneous target
        g_alpha, lam, r_val, ls = gradbalance_step(model, dist, state, batch,
                                                   "loss", step_rng(0, 0))
        assert ls > 0
        g_sp = sparsity_loss_grad(dist, state.kappa_eff)
        g_obj = g_alpha - lam * g_sp
        assert lam * np.linalg.norm(g_sp) == pytest.approx(np.linalg.norm(g_obj),
                                                           rel=1e-9)

    def test_smoothing_recursion(self):
        model, dist, state, batch = _setup("gradbalance", kappa=0.1)
        state.eta = 0.9
        state.lam = 5.0
        _, lam1, _, _ = gradbalance_step(model, dist, state, batch, "loss",
                                         step_rng(0, 0))
        state.eta = 0.0
        _, target, _, _ = gradbalance_step(model, dist, state, batch, "loss",
                                           step_rng(0, 0))
        assert lam1 == pytest.approx(0.9 * 5.0 + 0.1 * target, rel=1e-9)

    def test_uses_kappa_eff_not_kappa(self):
        # density between kappa and kappa_eff: constraint reads as satisfied
        model, dist, state, batch = _setup("gradbalance", kappa=0.5)
        dist = init_distribution(model.d, 0.52)  # 0.5 < 0.52 < 0.55
        state.lam = 1.0
        _, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                         step_rng(0, 0))
        assert ls < 0
        assert lam == pytest.approx(state.eta * 1.0)
