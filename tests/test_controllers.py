"""Controller tests: Adam mechanics, the one controller step under the
Lagrange dual and GradBalance."""

import warnings

import numpy as np
import pytest

from cts import objectives as obj
from cts.cli import build_parser
from cts.controllers import (ETA_DEFAULT, GRADBALANCE_KAPPA_SLACK, MODES, AdamState,
                             ControllerError, ControllerState, adam_update,
                             gradbalance_step, search_adam)
from cts.mask import (MaskDistribution, init_distribution, sample_logistic,
                      sparsity_loss, sparsity_loss_grad, step_rng)
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

    def test_cli_offers_exactly_the_modes(self):
        parser = build_parser()
        for mode in MODES:
            assert parser.parse_args(["search", "--controller", mode]).controller == mode
        with pytest.raises(SystemExit):
            parser.parse_args(["search", "--controller", "pid"])

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
    def test_g_lambda_is_negated_constraint(self):
        # dual ascent: lambda takes a descent step on g_lambda = -ls
        model, dist, state, batch = _setup("lagrange", kappa=0.25)
        state.lam = 0.3
        _, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                         step_rng(0, 0))
        assert lam == 0.3
        assert state.lam == 0.3 - state.lambda_lr * -ls
        assert ls == pytest.approx(sparsity_loss(dist, 0.25))

    def test_g_alpha_composition(self):
        model, dist, state, batch = _setup("lagrange", kappa=0.25)
        state.lam = 2.0
        g0, _, _, _ = gradbalance_step(model, dist, state, batch, "loss", step_rng(0, 0))
        state.lam = 0.0
        g_obj, _, _, _ = gradbalance_step(model, dist, state, batch, "loss", step_rng(0, 0))
        g_sp = sparsity_loss_grad(dist, 0.25)
        np.testing.assert_allclose(g0, g_obj + 2.0 * g_sp, rtol=1e-10, atol=1e-12)

    def test_dual_ascent_applies_lambda_then_updates(self):
        # each step descends on g_obj + lambda·g_sp with the lambda from
        # before the step, then moves lambda by exactly lambda_lr · ls
        model, dist, state, batch = _setup("lagrange", kappa=0.25)
        state.lambda_lr = 0.7
        adam = AdamState(d=model.d, lr=0.1)
        x, y = batch
        for t in range(5):
            lam_before = state.lam
            eps = sample_logistic(step_rng(0, t), dist.d)
            _, g_obj = obj.value_and_alpha_grad("loss", model, x, y, dist.logits, eps,
                                                dist.tau)
            g_sp = sparsity_loss_grad(dist, 0.25)
            g_alpha, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                                   step_rng(0, t))
            assert lam == lam_before
            np.testing.assert_array_equal(g_alpha, g_obj + lam_before * g_sp)
            assert state.lam == lam_before + 0.7 * ls
            adam_update(dist, g_alpha, adam)
        assert state.lam > 0  # the constraint stayed violated: lambda rose


class TestGradBalance:
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
            assert state.lam == lam
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


def _lagrange_step_before_merge(model, dist, state, batch, objective, rng):
    # the Lagrange step as it was before the two steps became one, copied
    x, y = batch
    eps = sample_logistic(rng, dist.d)
    r_val, g_obj = obj.value_and_alpha_grad(objective, model, x, y,
                                            dist.logits, eps, dist.tau)
    ls = sparsity_loss(dist, state.kappa)
    g_sp = sparsity_loss_grad(dist, state.kappa)
    g_alpha = g_obj + state.lam * g_sp
    g_lambda = -ls
    return g_alpha, g_lambda, r_val, ls


def _gradbalance_step_before_merge(model, dist, state, batch, objective, rng):
    # the GradBalance step as it was before the two steps became one, copied
    x, y = batch
    eps = sample_logistic(rng, dist.d)
    r_val, g_obj = obj.value_and_alpha_grad(objective, model, x, y,
                                            dist.logits, eps, dist.tau)
    kappa_eff = state.kappa_eff
    ls = sparsity_loss(dist, kappa_eff)
    g_sp = sparsity_loss_grad(dist, kappa_eff)
    if ls > 0:
        sp_norm = float(np.linalg.norm(g_sp))
        if sp_norm < 1e-12:
            warnings.warn("degenerate constraint gradient; lambda target set to 0")
            lam_target = 0.0
        else:
            lam_target = float(np.linalg.norm(g_obj)) / sp_norm
    else:
        lam_target = 0.0
    lam = state.eta * state.lam + (1 - state.eta) * lam_target
    g_alpha = g_obj + lam * g_sp
    return g_alpha, lam, r_val, ls


def _bits(v) -> bytes:
    return np.float64(v).tobytes()


class TestOneStep:
    """The one step against the two it replaced and the search loop's old
    Lagrange update, bit for bit over consecutive Adam-updated steps."""

    @staticmethod
    def _run_both(mode, kappa, eta, logits=None, steps=5):
        model, dist, state, batch = _setup(mode, kappa=kappa)
        if logits is not None:
            dist = MaskDistribution(logits, dist.tau)
        state.eta, state.lambda_lr, state.lam = eta, 0.7, 0.5
        ref_dist = MaskDistribution(dist.logits.copy(), dist.tau)
        ref_state = ControllerState(mode=mode, kappa=kappa, lam=0.5, eta=eta, lambda_lr=0.7)
        adam, ref_adam = AdamState(d=model.d), AdamState(d=model.d)
        lsses, warned = [], []
        for t in range(steps):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g_alpha, lam, r_val, ls = gradbalance_step(model, dist, state, batch, "loss",
                                                           step_rng(0, t))
            warned += [str(w.message) for w in caught]
            if mode == "lagrange":
                ref_g, g_lambda, ref_r, ref_ls = _lagrange_step_before_merge(
                    model, ref_dist, ref_state, batch, "loss", step_rng(0, t))
                ref_lam = ref_state.lam
                ref_state.lam = ref_state.lam - ref_state.lambda_lr * g_lambda
            else:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    ref_g, ref_lam, ref_r, ref_ls = _gradbalance_step_before_merge(
                        model, ref_dist, ref_state, batch, "loss", step_rng(0, t))
                ref_state.lam = ref_lam
            np.testing.assert_array_equal(g_alpha, ref_g)
            assert np.signbit(g_alpha).tolist() == np.signbit(ref_g).tolist()
            assert [_bits(v) for v in (lam, r_val, ls, state.lam)] == \
                [_bits(v) for v in (ref_lam, ref_r, ref_ls, ref_state.lam)]
            lsses.append(ls)
            adam_update(dist, g_alpha, adam)
            adam_update(ref_dist, ref_g, ref_adam)
            np.testing.assert_array_equal(dist.logits, ref_dist.logits)
        return state, lsses, warned

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("eta", [0.0, 0.99])
    @pytest.mark.parametrize("kappa,violated", [(0.1, True), (0.9, False)])
    def test_bit_equal_to_the_steps_it_replaced(self, mode, eta, kappa, violated):
        _, lsses, warned = self._run_both(mode, kappa, eta)
        assert all((ls > 0) == violated for ls in lsses)
        assert warned == []

    @pytest.mark.parametrize("eta", [0.0, 0.99])
    def test_degenerate_constraint_gradient(self, eta):
        # logits all +50 give alpha == 1: the constraint is violated and
        # g_sp == 0, so GradBalance warns and lambda decays by eta alone
        d = build_model("tiny-mlp", 0, (4,), 2).d
        state, lsses, warned = self._run_both("gradbalance", 0.5, eta,
                                              logits=np.full(d, 50.0), steps=3)
        assert all(ls > 0 for ls in lsses)
        assert warned == ["degenerate constraint gradient; lambda target set to 0"] * 3
        assert state.lam == pytest.approx(0.5 * eta ** 3, rel=1e-12, abs=0.0)
