"""Model construction, masked forward and training tests."""

import tracemalloc

import numpy as np
import pytest

import cts.objectives as obj
import cts.tensor as T
from cts.data import make_blobs
from cts.models import (ARCHS, AvgPool, BatchNorm, ModelError, ModelState, TrainConfig,
                        _flatten_specs, build_model, evaluate, forward, loss_grads, train)


def small_data(image=False, dim=8, classes=2, n=400, seed=3):
    return make_blobs(classes=classes, dim=dim, n=n, seed=seed, image=image)


def _train_per_parameter(model, data, cfg, mask=None):
    """models.train as the loop over parameters it was before its update ran
    on one flat vector: the reference that update must reproduce."""
    out = model.copy() if mask is None else model.masked(mask)
    names = [n for n in out.params]
    momentum = {n: np.zeros_like(out.params[n]) for n in names}
    layer_masks = {} if mask is None else {
        name: m.astype(out.params[name].dtype)
        for (name, _, _), m in zip(out.maskable_index, out.layer_views(mask))}
    for step in range(cfg.steps):
        xb, yb = data.batch(step, cfg.batch_size, cfg.seed)
        try:
            grads = [g.data for g in loss_grads(
                out, xb, yb, {n: T.Tensor(out.params[n], requires_grad=True) for n in names})]
        except T.NonFiniteError:
            continue
        lr = cfg.lr_at(step)
        for n, g in zip(names, grads):
            lm = layer_masks.get(n)
            if cfg.weight_decay and n.endswith(".w"):
                decay = cfg.weight_decay * out.params[n]
                if lm is not None:
                    decay *= lm
                g = g + decay
            if lm is not None:
                g = g * lm
            mom = momentum[n]
            mom *= cfg.momentum
            mom += g
            p = out.params[n] - lr * mom
            if lm is not None:
                p *= lm
            out.params[n] = p
    return out


class _NonFiniteAt:
    """A dataset whose batch at one step holds a NaN, so that step is skipped."""

    def __init__(self, data, bad_step):
        self.data, self.bad_step = data, bad_step

    def batch(self, step, batch_size, seed):
        x, y = self.data.batch(step, batch_size, seed)
        if step == self.bad_step:
            x[0].flat[0] = np.nan
        return x, y


class TestBuild:
    def test_mlp_maskable_count(self):
        model = build_model("mlp-2x256", 0, (784,), 10)
        assert model.d == 784 * 256 + 256 * 256 + 256 * 10

    def test_biases_not_maskable(self):
        model = build_model("mlp-2x256", 0, (784,), 10)
        names = {n for n, _, _ in model.maskable_index}
        assert all(n.endswith(".w") for n in names)
        assert any(n.endswith(".b") for n in model.params)

    def test_init_deterministic(self):
        a = build_model("mlp-2x256", 5, (20,), 4)
        b = build_model("mlp-2x256", 5, (20,), 4)
        for k in a.params:
            np.testing.assert_array_equal(a.params[k], b.params[k])

    def test_init_seed_sensitive(self):
        a = build_model("mlp-2x256", 5, (20,), 4)
        b = build_model("mlp-2x256", 6, (20,), 4)
        assert any(not np.array_equal(a.params[k], b.params[k]) for k in a.params)

    def test_all_archs_forward(self):
        for arch, shape in [("mlp-2x256", (20,)), ("tiny-mlp", (4,)),
                            ("lenet-conv4", (1, 8, 8)), ("resnet-tiny", (1, 8, 8))]:
            model = build_model(arch, 0, shape, 3)
            x = np.random.default_rng(0).standard_normal((2,) + shape)
            trace = forward(model, x, np.array([0, 1]))
            assert trace.logits.shape == (2, 3)
            assert np.isfinite(trace.loss.item())

    def test_unknown_arch(self):
        with pytest.raises(ModelError):
            build_model("mlp-9000", 0, (4,), 2)

    def test_archs_tuple(self):
        assert set(ARCHS) >= {"mlp-2x256", "lenet-conv4", "resnet-tiny"}


class TestGraphSize:
    def test_resnet_batch_norm_is_one_node(self, monkeypatch):
        # one fused node per BatchNorm spec, and no composed chain beside it
        model = build_model("resnet-tiny", 0, (1, 8, 8), 3)
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8))
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        leaves = {n: T.Tensor(model.params[n], requires_grad=True)
                  for n, _, _ in model.maskable_index}
        forward(model, x, np.array([0, 1, 2, 0]), param_tensors=leaves)
        n_bn = sum(isinstance(s, BatchNorm) for s in _flatten_specs(model.specs))
        assert n_bn == 7
        assert ops.count("batch_norm") == n_bn
        assert "pow" not in ops

    def test_resnet_relu_and_residual_add_are_in_batch_norm(self, monkeypatch):
        # every relu follows a batch norm, or ends a block whose inner path
        # ends in one, so no relu node is left, and the dense layer adds its
        # bias in its matmul node, so no add node is left either
        model = build_model("resnet-tiny", 0, (1, 8, 8), 3)
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8))
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append((op, data.ndim))
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        leaves = {n: T.Tensor(model.params[n], requires_grad=True)
                  for n, _, _ in model.maskable_index}
        forward(model, x, param_tensors=leaves)
        assert not [op for op, _ in ops if op == "relu"]
        assert not [op for op, _ in ops if op == "add"]

    def test_resnet_forward_graph_holds_two_activations_per_batch_norm(self):
        # what a first-order pass's graph holds once the forward is built, on
        # the 320-row saliency batch: each conv's output and each batch-norm
        # node's output. While the batch norm kept x̂ and its output beside a
        # relu node, and a block's add beside that, it held 31.1 activations'
        # worth (38.9 MiB); with the fusion 14.1 (17.7 MiB)
        model = build_model("resnet-tiny", 0)
        x = np.random.default_rng(0).standard_normal((320, 1, 8, 8))
        n_bn = sum(isinstance(s, BatchNorm) for s in _flatten_specs(model.specs))
        activation = 320 * 8 * 8 * 8 * 8  # bytes of one (320, 8, 8, 8) float64 array
        leaves = obj.maskable_leaves(model)
        tracemalloc.start()
        try:
            trace = forward(model, x, param_tensors=leaves)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert trace.logits.requires_grad
        assert held < (2 * n_bn + 1) * activation

    def test_lenet_pool_is_one_node(self, monkeypatch):
        # one fused node per AvgPool spec, and no reshape-sum-scale chain beside
        # it: that chain went through 6-d (n, c, h/k, k, w/k, k) blocks
        model = build_model("lenet-conv4", 0, (1, 8, 8), 4)
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8))
        ops, ndims = [], set()
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            ndims.add(data.ndim)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        leaves = {n: T.Tensor(model.params[n], requires_grad=True)
                  for n, _, _ in model.maskable_index}
        forward(model, x, np.array([0, 1, 2, 3]), param_tensors=leaves)
        n_pool = sum(isinstance(s, AvgPool) for s in _flatten_specs(model.specs))
        assert n_pool == 2
        assert ops.count("avg_pool2d") == n_pool
        assert 6 not in ndims

    def test_resnet_grad_step_counts(self, monkeypatch):
        # one `grad` search step: adjoints only for parents that need one, one
        # column build per conv2d_input_grad vjp, shared by both its adjoints,
        # and one rebuild per conv2d weight adjoint, which the first backward
        # keeps for the second (the graph holds no forward columns)
        from cts.mask import sample_logistic, step_rng
        model = build_model("resnet-tiny", 0, (1, 8, 8), 4)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((4, 1, 8, 8)), rng.integers(0, 4, 4)
        counts = {"nodes": 0, "im2col": 0}
        real_make, real_im2col = T._make, T._im2col

        def counting_make(*args, **kw):
            counts["nodes"] += 1
            return real_make(*args, **kw)

        def counting_im2col(*args):
            counts["im2col"] += 1
            return real_im2col(*args)

        monkeypatch.setattr(T, "_make", counting_make)
        monkeypatch.setattr(T, "_im2col", counting_im2col)
        obj.value_and_alpha_grad("grad", model, x, y, rng.standard_normal(model.d),
                                 sample_logistic(step_rng(0, 0), model.d), 2.0 / 3.0)
        assert counts["nodes"] <= 815
        assert counts["im2col"] == 34

    @pytest.mark.parametrize("arch, shape, step, most", [
        ("lenet-conv4", (1, 8, 8), "train", 26), ("lenet-conv4", (1, 8, 8), "kl", 37),
        ("mlp-2x256", (20,), "kl", 23)], ids=["lenet-train", "lenet-kl", "mlp-kl"])
    def test_nodes_per_step(self, arch, shape, step, most, monkeypatch):
        # nodes one masked train step or one kl search step builds. While a
        # layer's bias and relu, log-softmax and the reverse KL were chains of
        # nodes, and moving ops were checked, they were 61, 91 and 78; while
        # cross-entropy was a chain and a first-order backward built relu-mask
        # and transpose nodes, 41, 41 and 28
        from cts.mask import sample_logistic, step_rng
        model = build_model(arch, 0, shape, 4)
        data = small_data(image=len(shape) == 3, dim=int(np.prod(shape)), classes=4)
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal((4,) + shape), rng.integers(0, 4, 4)
        mask = (rng.random(model.d) < 0.5).astype(np.int64)
        count = [0]
        real = T._make

        def counting(*args, **kw):
            count[0] += 1
            return real(*args, **kw)

        monkeypatch.setattr(T, "_make", counting)
        if step == "train":
            train(model, data, TrainConfig(steps=1, batch_size=8), mask=mask)
        else:
            obj.value_and_alpha_grad("kl", model, x, y, rng.standard_normal(model.d),
                                     sample_logistic(step_rng(0, 0), model.d), 2.0 / 3.0)
        assert count[0] <= most

    def test_train_step_builds_columns_twice_per_conv(self, monkeypatch):
        # a first-order step builds each conv's columns in the forward and
        # again in its weight adjoint, and keeps neither
        model = build_model("resnet-tiny", 0, (1, 8, 8), 2)
        ops, builds = [], []
        real_make, real_im2col = T._make, T._im2col

        def counting_make(data, op, parents, vjp, **kw):
            ops.append(op)
            return real_make(data, op, parents, vjp, **kw)

        def counting_im2col(*args):
            builds.append(args[0].shape)
            return real_im2col(*args)

        monkeypatch.setattr(T, "_make", counting_make)
        monkeypatch.setattr(T, "_im2col", counting_im2col)
        train(model, small_data(image=True, dim=64), TrainConfig(steps=1, batch_size=8))
        assert ops.count("conv2d") == 7
        assert len(builds) == 2 * ops.count("conv2d")

    def test_resnet_first_order_pass_peaks(self):
        # traced peaks of the large first-order passes on resnet-tiny; while
        # each conv2d node kept its im2col columns they read 117.5 MiB (the
        # 320-row saliency batch) and 94.8 MiB (hard_value of grad on the
        # 256-row eval batch), without them 55.5 and 44.3 MiB, and with the
        # relu and residual add in the batch-norm node, which keeps no x̂,
        # 34.1 and 27.4 MiB
        model = build_model("resnet-tiny", 0)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((320, 1, 8, 8)), rng.integers(0, 4, 320)
        mask = (rng.random(model.d) < 0.5).astype(np.float64)
        peaks = []
        for run in (lambda: obj.loss_grads(model, x, y, obj.maskable_leaves(model)),
                    lambda: obj.hard_value("grad", model, x[:256], y[:256], mask)):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 36 * 2 ** 20
        assert peaks[1] < 30 * 2 ** 20

    def test_masked_train_frees_each_step_graph(self):
        # traced peak of 20 masked resnet-tiny steps at batch 32; while the
        # last step's graph stayed alive during the next forward, and each
        # forward left a reference cycle, it read 9.0 MiB, without both 6.2
        data = small_data(image=True, dim=64, classes=4)
        model = build_model("resnet-tiny", 0, data.input_shape, data.num_classes)
        mask = (np.random.default_rng(0).random(model.d) < 0.5).astype(np.int64)
        cfg = TrainConfig(steps=20, batch_size=32)
        tracemalloc.start()
        try:
            train(model, data, cfg, mask=mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7.5 * 2 ** 20


class TestLayerViews:
    def test_views_cut_a_vector_by_layer(self):
        model = build_model("lenet-conv4", 0)
        v = np.arange(model.d, dtype=np.float64)
        views = model.layer_views(v)
        assert [w.shape for w in views] == [model.params[n].shape
                                            for n, _, _ in model.maskable_index]
        np.testing.assert_array_equal(np.concatenate([w.reshape(-1) for w in views]), v)
        assert all(np.shares_memory(w, v) for w in views)

    def test_set_maskable_vector_copies(self):
        model = build_model("tiny-mlp", 0)
        v = np.arange(model.d, dtype=np.float64)
        model.set_maskable_vector(v)
        v[:] = -1.0
        np.testing.assert_array_equal(model.maskable_vector(), np.arange(model.d))


class TestOverlay:
    """A soft mask enters ``forward`` as per-layer products in ``param_tensors``."""

    def setup_method(self):
        self.model = build_model("tiny-mlp", 0, (4,), 2)
        rng = np.random.default_rng(1)
        self.x = rng.standard_normal((8, 4))
        self.y = rng.integers(0, 2, 8)

    def _overlaid(self, pieces):
        return {name: T.mul(T.Tensor(self.model.params[name]), piece)
                for (name, _, _), piece in zip(self.model.maskable_index, pieces)}

    def _forward(self, overlay):
        pieces = self.model.layer_views(overlay)
        return forward(self.model, self.x, self.y, param_tensors=self._overlaid(pieces))

    def test_identity_overlay_is_noop(self):
        base = forward(self.model, self.x, self.y)
        ones = self._forward(np.ones(self.model.d))
        np.testing.assert_array_equal(base.logits.data, ones.logits.data)

    def test_zero_overlay_uniform_logits(self):
        trace = self._forward(np.zeros(self.model.d))
        # all weights zeroed: logits reduce to the (zero) output bias
        np.testing.assert_array_equal(trace.logits.data, np.zeros_like(trace.logits.data))

    def test_overlay_equals_premultiplied_weights(self):
        rng = np.random.default_rng(2)
        overlay = rng.random(self.model.d)
        via_overlay = self._forward(overlay)
        pre = self.model.copy()
        pre.set_maskable_vector(pre.maskable_vector() * overlay)
        direct = forward(pre, self.x, self.y)
        np.testing.assert_allclose(via_overlay.logits.data, direct.logits.data,
                                   rtol=1e-12, atol=1e-12)

    def test_overlay_length_checked(self):
        # one piece per maskable layer, no more and no fewer
        pieces = [T.Tensor(w) for w in self.model.layer_views(np.ones(self.model.d))]
        for bad in (pieces[:-1], pieces + pieces[:1]):
            with pytest.raises(ValueError):
                obj.evaluate("loss", self.model, self.x, self.y, overlay=bad)

    def test_soft_overlay_gradient_flows(self):
        leaves = [T.Tensor(w, requires_grad=True)
                  for w in self.model.layer_views(np.full(self.model.d, 0.7))]
        trace = forward(self.model, self.x, self.y, param_tensors=self._overlaid(leaves))
        grads = T.backward(trace.loss, leaves)
        assert [g.shape for g in grads] == [leaf.shape for leaf in leaves]
        assert all(np.any(g.data != 0) for g in grads)

    def test_param_tensors_subset_reads_rest_from_model(self):
        w = self.model.params["fc2.w"] * 3.0
        partial = forward(self.model, self.x, self.y, param_tensors={"fc2.w": T.Tensor(w)})
        pre = self.model.copy()
        pre.params["fc2.w"] = w
        np.testing.assert_array_equal(partial.logits.data,
                                      forward(pre, self.x, self.y).logits.data)

    def test_features_captured_per_relu(self):
        trace = forward(self.model, self.x, self.y, capture_features=True)
        assert len(trace.features) == 1  # one hidden relu in tiny-mlp
        assert np.all(trace.features[0].data >= 0)


class TestMasked:
    def test_zeroes_exactly_the_masked_entries(self):
        model = build_model("lenet-conv4", 0)
        rng = np.random.default_rng(0)
        mask = (rng.random(model.d) < 0.3).astype(np.int64)
        before = {k: v.copy() for k, v in model.params.items()}
        out = model.masked(mask)
        v, theta = out.maskable_vector(), model.maskable_vector()
        np.testing.assert_array_equal(v[mask == 0], 0.0)
        np.testing.assert_array_equal(v[mask == 1], theta[mask == 1])
        for name in model.params:  # the source is untouched, the rest is copied
            np.testing.assert_array_equal(model.params[name], before[name])
            if name not in {n for n, _, _ in model.maskable_index}:
                np.testing.assert_array_equal(out.params[name], before[name])

    def test_int_and_float_masks_agree(self):
        model = build_model("tiny-mlp", 0)
        mask = (np.arange(model.d) % 3 == 0).astype(np.int64)
        np.testing.assert_array_equal(model.masked(mask).maskable_vector(),
                                      model.masked(mask.astype(np.float64)).maskable_vector())

    def test_length_checked(self):
        model = build_model("tiny-mlp", 0)
        with pytest.raises(ModelError):
            model.masked(np.ones(model.d + 1))


class TestTrain:
    def test_blob_mlp_reaches_high_accuracy(self):
        data = small_data()
        model = build_model("mlp-2x256", 0, data.input_shape, data.num_classes)
        cfg = TrainConfig(steps=200, batch_size=32, seed=0)
        final = train(model, data, cfg)
        acc, _ = evaluate(final, data.x_test, data.y_test)
        assert acc >= 0.95

    def test_training_deterministic(self):
        data = small_data()
        cfg = TrainConfig(steps=50, batch_size=32, seed=0)
        runs = []
        for _ in range(2):
            model = build_model("mlp-2x256", 0, data.input_shape, data.num_classes)
            runs.append(train(model, data, cfg).maskable_vector())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_masked_entries_stay_zero(self):
        data = small_data()
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        rng = np.random.default_rng(0)
        mask = (rng.random(model.d) < 0.5).astype(np.float64)
        start = model.copy()
        start.set_maskable_vector(start.maskable_vector() * mask)
        cfg = TrainConfig(steps=60, batch_size=32, seed=0)
        final = train(start, data, cfg, mask=mask)
        v = final.maskable_vector()
        np.testing.assert_array_equal(v[mask == 0], 0.0)
        assert np.any(v[mask == 1] != start.maskable_vector()[mask == 1])

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("masked", [False, True], ids=["dense", "masked"])
    @pytest.mark.parametrize("arch", ["mlp-2x256", "lenet-conv4", "resnet-tiny"])
    def test_flat_update_bit_equal_to_per_parameter_loop(self, arch, masked, weight_decay):
        # momentum, an lr drop and one step skipped as non-finite; every
        # parameter, weights, biases and batch norm, bit for bit
        shape = (20,) if arch == "mlp-2x256" else (1, 8, 8)
        data = _NonFiniteAt(small_data(image=len(shape) == 3, dim=int(np.prod(shape)),
                                       classes=4), bad_step=2)
        model = build_model(arch, 1, shape, 4)
        mask = None
        if masked:
            mask = (np.random.default_rng(4).random(model.d) < 0.4).astype(np.int64)
        cfg = TrainConfig(steps=7, batch_size=16, lr=0.05, momentum=0.9,
                          weight_decay=weight_decay, lr_drops=((4, 0.1),), seed=2)
        got = train(model, data, cfg, mask=mask)
        want = _train_per_parameter(model, data, cfg, mask=mask)
        assert list(got.params) == list(want.params)
        for name in want.params:
            assert got.params[name].shape == want.params[name].shape
            np.testing.assert_array_equal(got.params[name], want.params[name])
            np.testing.assert_array_equal(np.signbit(got.params[name]),
                                          np.signbit(want.params[name]))
        assert not np.array_equal(got.params[model.maskable_index[0][0]],
                                  model.params[model.maskable_index[0][0]])

    def test_lr_schedule(self):
        cfg = TrainConfig(steps=100, lr=0.1, lr_drops=((90, 0.1),), seed=0)
        assert cfg.lr_at(0) == pytest.approx(0.1)
        assert cfg.lr_at(89) == pytest.approx(0.1)
        assert cfg.lr_at(90) == pytest.approx(0.01)

    def test_stop_step_matches_prefix_of_full_run(self):
        data = small_data()
        cfg = TrainConfig(steps=40, batch_size=32, seed=0)
        model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
        half = train(model, data, cfg, stop_step=20)
        resumed = train(half, data, cfg, start_step=20)
        full = train(model, data, cfg)
        # momentum resets at the resume point, so only the prefix is identical
        np.testing.assert_array_equal(half.maskable_vector(),
                                      train(model, data, cfg, stop_step=20).maskable_vector())
        assert resumed.maskable_vector().shape == full.maskable_vector().shape

    def test_rewind_step_bounds(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=10, rewind_step=10)

