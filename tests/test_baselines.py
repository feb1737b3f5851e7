"""Baseline pruner tests with independently computed saliency oracles."""

import tracemalloc

import numpy as np
import pytest

import cts.baselines as baselines
import cts.tensor as T
from cts.baselines import (BaselineError, grasp_scores, magnitude_prune,
                           prune_by_scores, random_prune, run_ltr, shuffle_layerwise,
                           snip_scores, synflow_prune)
from cts.data import make_blobs
from cts.mask import MaskDistribution, MaskError, clamp_topk, invert_clamp, ticket_size
from cts.models import (Conv, Dense, GlobalAvgPool, ResBlock, TrainConfig, build_model,
                        forward, train)
from cts.objectives import teacher_layer_grads
from cts.oracle import brute_force_oracle


def _data():
    return make_blobs(classes=2, dim=4, n=400, seed=3)


def _model(seed=0):
    return build_model("tiny-mlp", seed, (4,), 2)


def _batch(n=16, seed=5):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 4)), rng.integers(0, 2, n)


def _fd_loss_grads(model, x, y, h=1e-6):
    """Loss gradient w.r.t. each maskable weight by central differences."""
    theta = model.maskable_vector()
    g = np.zeros_like(theta)

    def loss_at(v):
        m = model.copy()
        m.set_maskable_vector(v)
        with T.no_grad():
            return forward(m, x, y).loss.item()

    for i in range(theta.size):
        vp, vm = theta.copy(), theta.copy()
        vp[i] += h
        vm[i] -= h
        g[i] = (loss_at(vp) - loss_at(vm)) / (2 * h)
    return g


class TestSnip:
    def test_matches_finite_difference_oracle(self):
        model = _model()
        x, y = _batch()
        scores = snip_scores(model, (x, y))
        expected = np.abs(_fd_loss_grads(model, x, y) * model.maskable_vector())
        np.testing.assert_allclose(scores, expected, rtol=1e-4, atol=1e-8)

    def test_resnet_saliency_batch_peak(self):
        # the 10x-batch saliency pass on resnet-tiny, traced; it peaked at
        # 165.6 MB while each conv kept its pre-bias output, backward kept
        # every adjoint and the input adjoint built Wᵀ g for all 320 images
        model = build_model("resnet-tiny", 0)
        rng = np.random.default_rng(0)
        batch = rng.standard_normal((320, 1, 8, 8)), rng.integers(0, 4, 320)
        tracemalloc.start()
        try:
            snip_scores(model, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 130e6

    def test_prune_keeps_top(self):
        t = prune_by_scores(np.array([5.0, 1.0, 3.0, 2.0]), 0.5)
        np.testing.assert_array_equal(t.mask, [1, 0, 1, 0])


class TestGrasp:
    def test_matches_dense_hessian_oracle(self):
        model = _model()
        x, y = _batch()
        scores = grasp_scores(model, (x, y))
        # independent: H g via columns of the FD Hessian of the loss
        theta = model.maskable_vector()
        g = _fd_loss_grads(model, x, y)
        d = theta.size
        hess = np.zeros((d, d))
        h = 1e-5
        for i in range(d):
            vp, vm = theta.copy(), theta.copy()
            vp[i] += h
            vm[i] -= h
            mp, mm = model.copy(), model.copy()
            mp.set_maskable_vector(vp)
            mm.set_maskable_vector(vm)
            hess[:, i] = (_fd_loss_grads(mp, x, y) - _fd_loss_grads(mm, x, y)) / (2 * h)
        expected = -(hess @ g) * theta
        np.testing.assert_allclose(scores, expected, rtol=5e-3, atol=1e-7)

    def test_conv_matches_gradient_differences(self):
        # Hg against central differences of the loss gradient along g
        model = build_model("lenet-conv4", 0, (1, 8, 8), 4)
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((16, 1, 8, 8)), rng.integers(0, 4, 16)
        theta = model.maskable_vector()

        def loss_grad(v):
            m = model.copy()
            m.set_maskable_vector(v)
            return np.concatenate([g.reshape(-1) for g in teacher_layer_grads(m, x, y)])

        g = loss_grad(theta)
        u = g / np.linalg.norm(g)
        h = 1e-6
        hg = np.linalg.norm(g) * (loss_grad(theta + h * u) - loss_grad(theta - h * u)) / (2 * h)
        scores = grasp_scores(model, (x, y))
        np.testing.assert_allclose(scores, -(hg * theta), rtol=1e-4,
                                   atol=1e-6 * np.abs(scores).max())


class TestSynflow:
    def test_scores_match_fd_of_path_objective(self):
        model = _model()
        from cts.baselines import _synflow_surrogate_scores
        d = model.d
        scores = _synflow_surrogate_scores(model, np.ones(d))

        def path_objective(mask_vec):
            m = model.copy()
            m.set_maskable_vector(np.abs(m.maskable_vector()) * mask_vec)
            for name in list(m.params):
                if not name.endswith(".w"):
                    m.params[name] = np.abs(m.params[name])
            with T.no_grad():
                trace = forward(m, np.ones((1, 4)))
            return float(trace.logits.data.sum())

        h = 1e-6
        for i in range(d):
            mp, mm = np.ones(d), np.ones(d)
            mp[i] += h
            mm[i] -= h
            fd = (path_objective(mp) - path_objective(mm)) / (2 * h)
            assert scores[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_strip_batchnorm_moves_relu_onto_the_layer_before(self):
        # the stem conv and each block's first conv take the relu of the batch
        # norm after them; nothing else changes
        specs = build_model("resnet-tiny", 0).specs
        blocks = [ResBlock((Conv(f"b{i}c1", 8, 8, 3, relu=True), Conv(f"b{i}c2", 8, 8, 3)))
                  for i in range(3)]
        assert baselines._strip_batchnorm(specs) == [
            Conv("stem", 1, 8, 3, relu=True), *blocks, GlobalAvgPool(), Dense("fc", 8, 4)]

    def test_density_and_no_collapse(self):
        model = build_model("mlp-2x256", 0, (8,), 2)
        t = synflow_prune(model, 0.02, iterations=20)
        assert t.mask.sum() == int(np.floor(0.02 * model.d + 0.5))
        for _, dens in t.per_layer_density():
            assert dens > 0

    def test_kappa_one_identity(self):
        model = _model()
        t = synflow_prune(model, 1.0)
        assert t.density == 1.0

    def test_deterministic(self):
        model = _model()
        a = synflow_prune(model, 0.5, iterations=10)
        b = synflow_prune(model, 0.5, iterations=10)
        np.testing.assert_array_equal(a.mask, b.mask)


class TestSimpleBaselines:
    def test_magnitude_keeps_largest(self):
        model = _model()
        t = magnitude_prune(model, 0.5)
        v = np.abs(model.maskable_vector())
        kept, dropped = v[t.mask == 1], v[t.mask == 0]
        assert kept.min() >= dropped.max()

    def test_random_prune_deterministic_and_seedful(self):
        a = random_prune(100, 0.3, seed=1)
        b = random_prune(100, 0.3, seed=1)
        c = random_prune(100, 0.3, seed=2)
        np.testing.assert_array_equal(a.mask, b.mask)
        assert not np.array_equal(a.mask, c.mask)
        assert a.mask.sum() == 30


class TestLtr:
    def test_density_schedule_and_nesting(self):
        data = _data()
        tcfg = TrainConfig(steps=40, batch_size=32, rewind_step=10, seed=0)
        _, _, model_k, results = run_ltr("tiny-mlp", data, tcfg, 0.5)
        d = model_k.d
        prev = np.ones(d)
        for r, (ticket, final) in enumerate(results, start=1):
            n = int(np.floor(d * 0.8 ** r + 0.5))
            assert ticket.mask.sum() == ticket_size(0.8 ** r, d) == n
            # masks are nested
            assert np.all(ticket.mask <= prev)
            prev = ticket.mask
            v = final.maskable_vector()
            np.testing.assert_array_equal(v[np.asarray(prev) == 0][:0], [])

    def test_deterministic(self):
        data = _data()
        tcfg = TrainConfig(steps=40, batch_size=32, rewind_step=10, seed=0)
        *_, r1 = run_ltr("tiny-mlp", data, tcfg, 0.5)
        *_, r2 = run_ltr("tiny-mlp", data, tcfg, 0.5)
        np.testing.assert_array_equal(r1[-1][0].mask, r2[-1][0].mask)

    def test_cuts_to_ticket_size_and_retrains_it(self, monkeypatch):
        # d = 12: ticket_size(0.58) is 7, while 0.8^3 of d would keep 6
        data = _data()
        tcfg = TrainConfig(steps=40, batch_size=32, rewind_step=10, seed=0)
        masked = []

        def counting(model, data, cfg, mask=None, **kwargs):
            masked.append(mask is not None)
            return train(model, data, cfg, mask=mask, **kwargs)

        monkeypatch.setattr(baselines, "train", counting)
        ticket, final, model_k, results = run_ltr("tiny-mlp", data, tcfg, 0.58)
        assert [int(t.mask.sum()) for t, _ in results] == [10, 8, 7]
        assert ticket_size(0.8 ** 3, model_k.d) == 6
        np.testing.assert_array_equal(ticket.mask, results[-1][0].mask)
        assert masked.count(True) == len(results) + 1
        retrained = train(model_k, data, tcfg, mask=ticket.mask, start_step=10)
        for name, p in retrained.params.items():
            np.testing.assert_array_equal(final.params[name], p)


class TestSanityAblations:
    def _ticket(self):
        model = _model()
        return magnitude_prune(model, 0.5), model

    def test_shuffle_preserves_per_layer_density(self):
        ticket, _ = self._ticket()
        shuffled = shuffle_layerwise(ticket, seed=0)
        assert shuffled.per_layer_density() == ticket.per_layer_density()
        assert not np.array_equal(shuffled.mask, ticket.mask)

    def test_reinit_changes_weights(self):
        ticket, model = self._ticket()
        reinit = build_model(model.arch, 99, model.input_shape, model.num_classes)
        assert reinit.arch == model.arch
        assert not np.array_equal(reinit.maskable_vector(), model.maskable_vector())

    def test_invert_is_disjoint_at_half_density(self):
        from cts.mask import MaskDistribution, clamp_topk
        rng = np.random.default_rng(0)
        dist = MaskDistribution(rng.standard_normal(12), 2 / 3)
        ticket = clamp_topk(dist, 0.5)
        inv = invert_clamp(dist, ticket.density)
        assert np.all(ticket.mask + inv.mask <= 1)
        assert inv.mask.sum() == ticket.mask.sum()


class TestOneCut:
    """Every pruner cuts its ticket with mask.topk_mask / mask.ticket_size."""

    @pytest.fixture(scope="class")
    def pruners(self):
        """Every pruner as kappa -> Ticket, on one lenet-conv4 model and batch."""
        model = build_model("lenet-conv4", 0, (1, 8, 8), 4)
        rng = np.random.default_rng(7)
        batch = rng.standard_normal((16, 1, 8, 8)), rng.integers(0, 4, 16)
        dist = MaskDistribution(rng.standard_normal(model.d), 2 / 3)
        layout = model.maskable_layout()
        snip, grasp = snip_scores(model, batch), grasp_scores(model, batch)
        return model, {
            "clamp_topk": lambda k: clamp_topk(dist, k),
            "invert_clamp": lambda k: invert_clamp(dist, k),
            "snip": lambda k: prune_by_scores(snip, k, layout),
            "grasp": lambda k: prune_by_scores(grasp, k, layout),
            "magnitude": lambda k: magnitude_prune(model, k),
            "random": lambda k: random_prune(model.d, k, seed=0, layout=layout),
            "synflow": lambda k: synflow_prune(model, k, iterations=4),
        }

    @pytest.mark.parametrize("kappa", [0.02, 0.1])
    def test_every_pruner_keeps_ticket_size(self, pruners, kappa):
        model, fns = pruners
        for name, prune in fns.items():
            assert prune(kappa).mask.sum() == ticket_size(kappa, model.d), name

    @pytest.mark.parametrize("kappa", [0.0, 1.5])
    def test_every_pruner_rejects_kappa_outside_unit_interval(self, pruners, kappa):
        _, fns = pruners
        for name, prune in fns.items():
            with pytest.raises(BaselineError if name == "synflow" else MaskError):
                prune(kappa)
        with pytest.raises(MaskError):
            brute_force_oracle(_model(), _batch(), kappa, "loss")
