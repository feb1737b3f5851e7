"""End-to-end search tests: determinism, frozen weights, edge cases."""

import numpy as np
import pytest

import cts.tensor as T
from cts.data import make_blobs
from cts.models import TrainConfig, build_model, evaluate
from cts.search import SearchConfig, SearchError, run_cts, search_phase


def _data():
    return make_blobs(classes=2, dim=4, n=400, seed=3)


def _cfg(**kw):
    base = dict(kappa=0.5, steps=40, objective="kl", controller="gradbalance",
                batch_size=32, seed_init=0, seed_search=1, seed_train=2)
    base.update(kw)
    return SearchConfig(**base)


def _tcfg(**kw):
    base = dict(steps=80, batch_size=32, rewind_step=10, seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfig:
    def test_kappa_validated(self):
        with pytest.raises(SearchError):
            SearchConfig(kappa=0.0)

    def test_objective_validated(self):
        with pytest.raises(SearchError):
            SearchConfig(objective="entropy")


class TestSearchPhase:
    def test_weights_frozen(self):
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        before = model.maskable_vector().copy()
        search_phase(model, _cfg(), data)
        np.testing.assert_array_equal(model.maskable_vector(), before)

    def test_trace_lengths(self):
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        dist, metrics = search_phase(model, _cfg(steps=25), data)
        assert len(metrics.steps) == 25
        assert len(metrics.expected_density) == 25
        assert dist.d == model.d

    @pytest.mark.parametrize("controller", ["gradbalance", "lagrange"])
    def test_sigmoid_calls_per_step(self, monkeypatch, controller):
        # one sigmoid over d entries for the soft-mask sample, one per logits update
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        calls = []
        real = T.stable_sigmoid

        def counting(x):
            calls.append(x.size)
            return real(x)

        monkeypatch.setattr(T, "stable_sigmoid", counting)
        steps = 3
        search_phase(model, _cfg(steps=steps, controller=controller), data)
        # plus one for the expected density before the first step
        assert calls.count(model.d) == 1 + 2 * steps

    def test_deterministic(self):
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        d1, m1 = search_phase(model, _cfg(), data)
        d2, m2 = search_phase(model, _cfg(), data)
        np.testing.assert_array_equal(d1.logits, d2.logits)
        assert m1.objective == m2.objective

    def test_seed_sensitivity(self):
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        d1, _ = search_phase(model, _cfg(seed_search=1), data)
        d2, _ = search_phase(model, _cfg(seed_search=9), data)
        assert not np.array_equal(d1.logits, d2.logits)

    def test_lagrange_controller_runs(self):
        data = _data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        dist, metrics = search_phase(model, _cfg(controller="lagrange"), data)
        assert np.all(np.isfinite(dist.logits))

    def test_gradnorm_survives_zero_gradient(self):
        # on this setup the masked student's loss gradient is exactly zero at
        # some step; -||g|| is not differentiable there and used to raise
        data = _data()
        ticket, _, info = run_cts(_cfg(kappa=0.05, steps=20, objective="gradnorm"),
                                  "tiny-mlp", data, _tcfg(steps=40, rewind_step=5))
        assert ticket.mask.sum() == 1
        assert np.all(np.isfinite(info["distribution"].logits))


class TestRunCts:
    def test_end_to_end_determinism(self):
        data = _data()
        t1, f1, i1 = run_cts(_cfg(), "tiny-mlp", data, _tcfg())
        t2, f2, i2 = run_cts(_cfg(), "tiny-mlp", data, _tcfg())
        np.testing.assert_array_equal(t1.mask, t2.mask)
        np.testing.assert_array_equal(f1.maskable_vector(), f2.maskable_vector())
        assert i1["objective_at_draw"] == i2["objective_at_draw"]

    def test_ticket_cardinality(self):
        data = _data()
        ticket, _, _ = run_cts(_cfg(kappa=0.25), "tiny-mlp", data, _tcfg())
        d = ticket.d
        assert ticket.mask.sum() == int(np.floor(0.25 * d + 0.5))

    def test_masked_entries_zero_after_retrain(self):
        data = _data()
        ticket, final, _ = run_cts(_cfg(), "tiny-mlp", data, _tcfg())
        v = final.maskable_vector()
        np.testing.assert_array_equal(v[ticket.mask == 0], 0.0)

    def test_kappa_one_keeps_everything(self):
        data = _data()
        ticket, final, _ = run_cts(_cfg(kappa=1.0, steps=10), "tiny-mlp", data, _tcfg())
        assert ticket.density == 1.0
        acc, _ = evaluate(final, data.x_test, data.y_test)
        assert acc > 0.9

    def test_rewind_model_exposed(self):
        data = _data()
        _, _, info = run_cts(_cfg(), "tiny-mlp", data, _tcfg(rewind_step=10))
        assert info["rewind_model"].d == build_model(
            "tiny-mlp", 0, data.input_shape, data.num_classes).d

    def test_zero_rewind_searches_at_init(self):
        data = _data()
        ticket, final, _ = run_cts(_cfg(), "tiny-mlp", data, _tcfg(rewind_step=0))
        assert ticket.mask.sum() > 0
