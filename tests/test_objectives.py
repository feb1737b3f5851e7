"""Objective function tests: hand-computed oracles, zero points, and
finite-difference checks of the logit gradients."""

import numpy as np
import pytest

import cts.models as models
import cts.objectives as obj
import cts.tensor as T
from cts.mask import sample_logistic, step_rng
from cts.models import ForwardTrace, build_model, forward
from cts.objectives import (OBJECTIVES, ObjectiveError, hard_value, layer_match,
                            mse, neg_grad_norm, normalize, reverse_kl,
                            rel_loss_change, value_and_alpha_grad)
from cts.tensor import Tensor


def _trace(logits, loss=0.0, features=()):
    return ForwardTrace(logits=Tensor(np.asarray(logits, dtype=np.float64)),
                        features=[Tensor(np.asarray(f)) for f in features],
                        loss=Tensor(np.asarray(float(loss))))


def _reverse_kl_chain(s_logits, t_logits):
    """The reverse KL as the chain of primitives the one node replaced."""
    logp_s = T.log_softmax(s_logits, axis=-1)
    logp_t = T.log_softmax(Tensor(t_logits), axis=-1)
    p_s = T.exp(logp_s)
    return T.mean(T.sum_(T.mul(p_s, logp_s - logp_t), axis=-1))


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestPieces:
    def test_normalize_moments(self):
        x = np.random.default_rng(0).standard_normal((4, 7)) * 3 + 5
        out = normalize(Tensor(x)).data
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-4  # delta slightly deflates variance

    def test_mse_hand_value(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]))
        b = Tensor(np.array([1.0, 0.0, 0.0]))
        assert mse(a, b).item() == pytest.approx((0 + 4 + 9) / 3)

    def test_registry(self):
        assert set(OBJECTIVES) == {"loss", "dloss", "gradnorm", "kl", "feature", "grad"}
        assert OBJECTIVES["kl"].needs_teacher
        assert not OBJECTIVES["loss"].needs_teacher
        assert OBJECTIVES["grad"].needs_student_grads


class TestClosedForms:
    def test_reverse_kl_hand_value(self):
        s_logits = np.array([[1.0, 0.0, -1.0]])
        t_logits = np.array([[0.0, 0.0, 0.0]])
        p = _softmax(s_logits)
        expected = float((p * (np.log(p) - np.log(1 / 3))).sum())
        got = reverse_kl(_trace(s_logits), _trace(t_logits)).item()
        assert got == pytest.approx(expected, rel=1e-12)

    def test_reverse_kl_zero_when_identical(self):
        z = np.random.default_rng(1).standard_normal((5, 4))
        assert reverse_kl(_trace(z), _trace(z)).item() == pytest.approx(0.0, abs=1e-12)

    def test_reverse_kl_batch_mean(self):
        s = np.random.default_rng(2).standard_normal((6, 3))
        t = np.random.default_rng(3).standard_normal((6, 3))
        total = reverse_kl(_trace(s), _trace(t)).item()
        per = [reverse_kl(_trace(s[i:i + 1]), _trace(t[i:i + 1])).item() for i in range(6)]
        assert total == pytest.approx(np.mean(per), rel=1e-12)

    def test_reverse_kl_one_node_bit_equal_to_chain(self):
        # value and first-order gradients of student logits that are a product
        rng = np.random.default_rng(16)
        x, k = rng.standard_normal((6, 4)), rng.standard_normal((4, 5))
        t = rng.standard_normal((6, 5)) * 2.0
        results = []
        for one_node in (True, False):
            leaves = [Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)]
            logits = T.matmul(*leaves)
            if one_node:
                r = reverse_kl(ForwardTrace(logits, [], Tensor(0.0)), _trace(t))
                assert r._parents == (logits,)
            else:
                r = _reverse_kl_chain(logits, t)
            results.append([r.data] + [g.data for g in T.backward(r, leaves)])
        for a, b in zip(*results):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    def test_reverse_kl_has_no_second_derivative(self):
        s = Tensor(np.random.default_rng(17).standard_normal((4, 3)), requires_grad=True)
        r = reverse_kl(ForwardTrace(s, [], Tensor(0.0)), _trace(np.zeros((4, 3))))
        with pytest.raises(T.GraphError):
            T.backward(r, [s], create_graph=True)
        (g,) = T.backward(r, [s])
        assert np.all(np.isfinite(g.data))

    def test_rel_loss_change(self):
        assert rel_loss_change(_trace([[0.0]], loss=1.5),
                               _trace([[0.0]], loss=1.0)).item() == pytest.approx(0.5)
        assert rel_loss_change(_trace([[0.0]], loss=0.25),
                               _trace([[0.0]], loss=0.5)).item() == pytest.approx(0.5)

    def test_rel_loss_change_degenerate_teacher(self):
        with pytest.raises(ObjectiveError):
            rel_loss_change(_trace([[0.0]], loss=1.0), _trace([[0.0]], loss=0.0))

    def test_feature_match_hand_value(self):
        fs = np.array([[1.0, 2.0, 3.0, 4.0]])
        ft = np.array([[4.0, 3.0, 2.0, 1.0]])
        got = layer_match(_trace([[0.0]], features=[fs]).features, [ft]).item()
        d = 1e-5
        ns = (fs - fs.mean()) / np.sqrt(fs.var() + d)
        nt = (ft - ft.mean()) / np.sqrt(ft.var() + d)
        assert got == pytest.approx(float(((ns - nt) ** 2).mean()), rel=1e-10)

    def test_feature_match_layer_count_mismatch(self):
        with pytest.raises(ObjectiveError):
            layer_match(_trace([[0.0]], features=[np.ones((1, 2))]).features, [])

    def test_neg_grad_norm_quadratic_toy(self):
        # grads of f = sum(x^2) at x are 2x; objective is -||2x||
        x = np.array([3.0, 4.0])
        leaf = Tensor(x, requires_grad=True)
        (g,) = T.backward(T.sum_(T.mul(leaf, leaf)), [leaf], create_graph=True)
        assert neg_grad_norm([g]).item() == pytest.approx(-10.0)

    def test_grad_match_zero_for_identical(self):
        g = np.random.default_rng(0).standard_normal((3, 3))
        leaf = Tensor(g, requires_grad=True)
        assert layer_match([leaf], [g]).item() == pytest.approx(0.0, abs=1e-12)

    def test_grad_match_scale_invariant(self):
        # normalization makes positively rescaled gradients match exactly
        g = np.random.default_rng(0).standard_normal((3, 3))
        val = layer_match([Tensor(5.0 * g)], [g]).item()
        assert val == pytest.approx(0.0, abs=1e-6)


class TestIdentityOverlayValues:
    """With the identity overlay the student equals the teacher."""

    def setup_method(self):
        self.model = build_model("tiny-mlp", 0, (4,), 2)
        rng = np.random.default_rng(4)
        self.x = rng.standard_normal((16, 4))
        self.y = rng.integers(0, 2, 16)

    @pytest.mark.parametrize("tag", ["dloss", "kl", "feature", "grad"])
    def test_teacher_objectives_vanish(self, tag):
        v = hard_value(tag, self.model, self.x, self.y, np.ones(self.model.d))
        assert v == pytest.approx(0.0, abs=1e-9)

    def test_loss_equals_teacher_loss(self):
        v = hard_value("loss", self.model, self.x, self.y, np.ones(self.model.d))
        trace = forward(self.model, self.x, self.y)
        assert v == pytest.approx(trace.loss.item(), rel=1e-12)

    def test_gradnorm_is_negative(self):
        v = hard_value("gradnorm", self.model, self.x, self.y, np.ones(self.model.d))
        assert v < 0

    @pytest.mark.parametrize("tag", ["gradnorm", "grad"])
    def test_hard_mask_goes_through_hard_value(self, tag):
        with pytest.raises(ObjectiveError, match="hard_value"):
            ones = [Tensor(w) for w in self.model.layer_views(np.ones(self.model.d))]
            obj.evaluate(tag, self.model, self.x, self.y, overlay=ones)


class TestAlphaGradients:
    """value_and_alpha_grad agrees with finite differences on the logits."""

    def _check(self, arch, shape, tag):
        model = build_model(arch, 0, shape, 2)
        rng = np.random.default_rng(5)
        n = 8
        x = rng.standard_normal((n,) + shape)
        y = rng.integers(0, 2, n)
        d = model.d
        logits = rng.standard_normal(d) * 0.5
        eps = sample_logistic(step_rng(0, 0), d)
        tau = 2.0 / 3.0
        value, g = value_and_alpha_grad(tag, model, x, y, logits, eps, tau)
        assert np.isfinite(value)
        # spot-check a handful of coordinates by central differences
        idx = rng.choice(d, size=min(6, d), replace=False)
        h = 1e-5
        for i in idx:
            lp, lm = logits.copy(), logits.copy()
            lp[i] += h
            lm[i] -= h
            vp, _ = value_and_alpha_grad(tag, model, x, y, lp, eps, tau)
            vm, _ = value_and_alpha_grad(tag, model, x, y, lm, eps, tau)
            fd = (vp - vm) / (2 * h)
            assert g[i] == pytest.approx(fd, rel=2e-3, abs=2e-3), f"{tag}[{i}]"

    @pytest.mark.parametrize("tag", sorted(OBJECTIVES))
    def test_dense_arch(self, tag):
        self._check("tiny-mlp", (4,), tag)

    @pytest.mark.parametrize("tag", ["loss", "kl", "gradnorm", "grad"])
    def test_conv_arch(self, tag):
        # gradnorm/grad differentiate through the conv backward (double-backward)
        self._check("lenet-conv4", (1, 8, 8), tag)

    def test_unknown_tag(self):
        with pytest.raises(ObjectiveError):
            obj.get_kind("entropy")


def _sigmoid(t):
    """1 / (1 + exp(-t)) composed from tracked primitives."""
    return T.power(T.add(1.0, T.exp(T.neg(t))), -1.0)


def _tracked_chain(tag, model, x, y, logits, eps, tau):
    """Reference: the logits as leaf, with the soft mask built by tracked ops
    and cut into per-layer pieces in the graph."""
    leaf = Tensor(logits, requires_grad=True)
    s = _sigmoid(T.mul(T.add(leaf, Tensor(eps)), 1.0 / tau))
    pieces = [T.reshape(T.narrow(s, slice(off, off + sz)), model.params[name].shape)
              for name, off, sz in model.maskable_index]
    value = obj.evaluate(tag, model, x, y, overlay=pieces)
    (g,) = T.backward(value, [leaf])
    return value.item(), g.data


class TestAnalyticMaskChain:
    """The soft-mask leaf with the closed-form chain equals the tracked chain."""

    def _check(self, arch, shape, tag):
        model = build_model(arch, 0, shape, 3)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8,) + shape)
        y = rng.integers(0, 3, 8)
        logits = np.log(0.3 / 0.7) + rng.standard_normal(model.d)
        eps = sample_logistic(step_rng(2, 0), model.d)
        tau = 2.0 / 3.0
        value, g = value_and_alpha_grad(tag, model, x, y, logits, eps, tau)
        ref_value, ref_g = _tracked_chain(tag, model, x, y, logits, eps, tau)
        assert value == pytest.approx(ref_value, rel=1e-10, abs=1e-14)
        np.testing.assert_allclose(g, ref_g, rtol=1e-10, atol=1e-14 * np.abs(ref_g).max())
        # directional derivative against central differences of the value
        u = rng.standard_normal(model.d)
        u /= np.linalg.norm(u)
        h = 1e-5
        vp, _ = value_and_alpha_grad(tag, model, x, y, logits + h * u, eps, tau)
        vm, _ = value_and_alpha_grad(tag, model, x, y, logits - h * u, eps, tau)
        fd = (vp - vm) / (2 * h)
        assert float(g @ u) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("tag", sorted(OBJECTIVES))
    @pytest.mark.parametrize("arch,shape", [("tiny-mlp", (4,)), ("mlp-2x256", (20,))])
    def test_dense(self, arch, shape, tag):
        self._check(arch, shape, tag)

    @pytest.mark.parametrize("tag", sorted(OBJECTIVES))
    def test_conv(self, tag):
        self._check("lenet-conv4", (1, 8, 8), tag)

    @pytest.mark.parametrize("tag", ["gradnorm", "grad"])
    def test_resnet(self, tag):
        self._check("resnet-tiny", (1, 8, 8), tag)


class TestMaskLeaves:
    """The soft mask is one leaf per layer: no node cuts or pastes a d-vector."""

    @pytest.mark.parametrize("tag", sorted(OBJECTIVES))
    @pytest.mark.parametrize("arch,shape", [("tiny-mlp", (4,)), ("mlp-2x256", (20,)),
                                            ("lenet-conv4", (1, 8, 8)),
                                            ("resnet-tiny", (1, 8, 8))])
    def test_no_embed_or_slice_node(self, arch, shape, tag, monkeypatch):
        model = build_model(arch, 0, shape, 3)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((4,) + shape), rng.integers(0, 3, 4)
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        value_and_alpha_grad(tag, model, x, y, rng.standard_normal(model.d),
                             sample_logistic(step_rng(0, 0), model.d), 2.0 / 3.0)
        assert "embed" not in ops
        # gradnorm concatenates the layer gradients; its adjoint slices once per layer
        n_slices = len(model.maskable_index) if tag == "gradnorm" else 0
        assert ops.count("slice") == n_slices


class TestHardMaskPath:
    """A hard mask is a masked copy of the weights, scored by evaluate."""

    @pytest.mark.parametrize("tag", sorted(OBJECTIVES))
    @pytest.mark.parametrize("arch,shape", [("tiny-mlp", (4,)), ("mlp-2x256", (20,)),
                                            ("lenet-conv4", (1, 8, 8)),
                                            ("resnet-tiny", (1, 8, 8))])
    def test_hard_value_equals_tracked_overlay(self, arch, shape, tag):
        model = build_model(arch, 0, shape, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal((8,) + shape)
        y = rng.integers(0, 3, 8)
        mask = (rng.random(model.d) < 0.5).astype(np.float64)
        leaves = [Tensor(w, requires_grad=True) for w in model.layer_views(mask)]
        tracked = obj.evaluate(tag, model, x, y, overlay=leaves)
        assert hard_value(tag, model, x, y, mask) == tracked.item()
        # and with the dense model's teacher pass handed in, as a caller that
        # scores several masks on one batch does
        teacher = obj.teacher_pass(tag, model, x, y)
        assert hard_value(tag, model, x, y, mask, teacher=teacher) == tracked.item()

    def test_grad_runs_no_unread_teacher_forward(self, monkeypatch):
        # the student forward and the teacher's gradient forward; no teacher trace
        model = build_model("tiny-mlp", 0, (4,), 2)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((8, 4)), rng.integers(0, 2, 8)
        calls = []

        def counting(*args, **kwargs):
            # the student's weights are the overlaid products, not the model's
            given = kwargs.get("param_tensors") or {}
            calls.append(any(not np.array_equal(t.data, model.params[k])
                             for k, t in given.items()))
            return forward(*args, **kwargs)

        # a teacher trace would go through objectives, a gradient through models
        monkeypatch.setattr(obj, "forward", counting)
        monkeypatch.setattr(models, "forward", counting)
        halves = [Tensor(w, requires_grad=True) for w in model.layer_views(np.full(model.d, 0.5))]
        obj.evaluate("grad", model, x, y, overlay=halves)
        assert len(calls) == 2 and sum(calls) == 1

    @pytest.mark.parametrize("tag,losses", [("kl", 0), ("feature", 0), ("loss", 1),
                                            ("dloss", 2)])
    def test_cross_entropy_only_where_read(self, tag, losses, monkeypatch):
        # kl and feature read logits and features only; loss reads the
        # student's loss, dloss the teacher's too
        model = build_model("lenet-conv4", 0, (1, 8, 8), 3)
        rng = np.random.default_rng(8)
        x, y = rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 3, 4)
        calls = []
        real = models.cross_entropy

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(models, "cross_entropy", counting)
        value_and_alpha_grad(tag, model, x, y, rng.standard_normal(model.d),
                             sample_logistic(step_rng(0, 0), model.d), 2.0 / 3.0)
        assert len(calls) == losses

    def test_zero_gradient_norm_has_zero_gradient(self):
        leaf = Tensor(np.zeros(3), requires_grad=True)
        value = neg_grad_norm([leaf])
        (g,) = T.backward(value, [leaf])
        assert value.item() == 0.0
        np.testing.assert_array_equal(g.data, 0.0)
