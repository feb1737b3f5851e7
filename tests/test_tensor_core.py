"""Autodiff engine tests: finite-difference agreement, graph semantics,
second-order support, numeric guards, and the allocator policy set on import."""

import os
import resource
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import cts.tensor as T
from cts.tensor import GraphError, NonFiniteError, ShapeError, Tensor, backward, no_grad

RNG = np.random.default_rng(0)


def finite_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient estimate of a scalar function."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def _sigmoid(t):
    """1 / (1 + exp(-t)) composed from tracked primitives."""
    return T.power(T.add(1.0, T.exp(T.neg(t))), -1.0)


def _fd_check(f, x, tol=1e-6):
    """Compare backward() against central differences on a scalar function."""
    leaf = Tensor(x, requires_grad=True)
    out = f(leaf)
    (g,) = backward(out, [leaf])
    g_fd = finite_diff_grad(lambda v: float(f(Tensor(v)).data), x)
    np.testing.assert_allclose(g.data, g_fd, rtol=tol, atol=tol)


def _first_and_second(fn, arrays, w, square=True):
    """fn on one leaf per array: its value, the gradients in every leaf of
    Σ w·fn² (Σ w·fn unless ``square``), from a plain backward and from one
    under create_graph, and the gradients of the latter's weighted norm,
    built in-graph, as arrays."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*leaves)
    y = T.mul(out, out) if square else out
    plain = backward(T.sum_(T.mul(Tensor(w), y)), leaves)
    first = backward(T.sum_(T.mul(Tensor(w), y)), leaves, create_graph=True)
    flat = T.concat([T.reshape(f, (f.size,)) for f in first])
    r = np.random.default_rng(8).uniform(0.5, 1.5, flat.size)
    second = backward(T.l2_norm(T.mul(flat, Tensor(r))), leaves)
    return [out.data] + [t.data for t in plain + first + second]


def _assert_bit_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(np.signbit(a), np.signbit(b))


def _log(a):
    """The tracked log the log-softmax chain was built from."""
    return T._make(np.log(a.data), "log", (a,), lambda g: (T.mul(g, T.power(a, -1.0)),))


def _log_softmax_chain(a, axis=-1):
    """Log-softmax as the chain of primitives the one node replaced."""
    shift = Tensor(np.max(a.data, axis=axis, keepdims=True))
    z = a - T.broadcast_to(shift, a.shape)
    lse = _log(T.sum_(T.exp(z), axis=axis, keepdims=True))
    return z - T.broadcast_to(lse, a.shape)


class TestElementwise:
    def test_add_mul_chain(self):
        x = RNG.standard_normal(7)
        _fd_check(lambda t: T.sum_(T.mul(T.add(t, 2.0), t)), x)

    def test_power_sqrt(self):
        x = np.abs(RNG.standard_normal(5)) + 0.5
        _fd_check(lambda t: T.sum_(T.power(t, 3.0)), x)
        _fd_check(lambda t: T.sum_(T.sqrt(t)), x)

    def test_exp(self):
        x = np.abs(RNG.standard_normal(5)) + 0.5
        _fd_check(lambda t: T.sum_(T.exp(t)), x)

    def test_relu_grad_zero_at_zero(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        (g,) = backward(T.sum_(T.relu(x)), [x])
        np.testing.assert_array_equal(g.data, [0.0, 0.0, 1.0])

    def test_absolute(self):
        x = RNG.standard_normal(9) + 0.1  # keep away from the kink
        _fd_check(lambda t: T.sum_(T.absolute(t)), x)

    def test_stable_sigmoid_bit_equal_to_select_form(self):
        # the numerator max(e, x >= 0) against the select it replaces, at the
        # signed zeros, the infinities, exp's overflow edge and many scales
        edges = np.array([0.0, -0.0, np.inf, -np.inf, 710.0, -710.0, 709.8, -709.8,
                          745.2, -745.2, 1e-300, -1e-300, 5e-324, -5e-324])
        x = np.concatenate([edges] + [RNG.standard_normal(2000) * s
                                      for s in (0.1, 1.0, 10.0, 40.0, 800.0)])
        e = np.exp(-np.abs(x))
        want = np.where(x >= 0, 1.0, e) / (1.0 + e)
        np.testing.assert_array_equal(T.stable_sigmoid(x).view(np.uint64),
                                      want.view(np.uint64))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_python_scalar_keeps_dtype(self, dtype):
        # a Python scalar takes the other operand's dtype, on either side
        x = Tensor(np.array([0.5, -2.0, 4.0], dtype=dtype), requires_grad=True)
        results = {"add": [x + 1.0, 1.0 + x, T.add(x, 2), T.add(2, x)],
                   "sub": [x - 1.0, x - 3],
                   "mul": [x * 2, T.mul(x, 1.5), T.mul(1.5, x)],
                   "pow grad": backward(T.sum_(T.power(x, 2)), [x])}
        for op, outs in results.items():
            assert [o.data.dtype for o in outs] == [dtype] * len(outs), op


class TestLinearity:
    def test_grad_is_linear_in_upstream(self):
        # d(a*f)/dx == a * df/dx for a linear graph composition
        x = RNG.standard_normal(6)
        leaf = Tensor(x, requires_grad=True)
        f = T.sum_(T.mul(leaf, leaf))
        (g1,) = backward(f, [leaf])
        (g2,) = backward(T.mul(f, 3.0), [leaf])
        np.testing.assert_allclose(g2.data, 3.0 * g1.data, rtol=1e-12)

    def test_sum_of_functions(self):
        x = RNG.standard_normal(6)
        leaf = Tensor(x, requires_grad=True)
        fa = T.sum_(T.exp(leaf))
        fb = T.sum_(T.mul(leaf, 2.0))
        (ga,) = backward(fa, [leaf])
        (gb,) = backward(fb, [leaf])
        (gab,) = backward(T.add(fa, fb), [leaf])
        np.testing.assert_allclose(gab.data, ga.data + gb.data, rtol=1e-12)


class TestShapes:
    def test_matmul_fd(self):
        a = RNG.standard_normal((4, 3))
        b = RNG.standard_normal((3, 5))
        bt = Tensor(b)
        _fd_check(lambda t: T.sum_(T.mul(T.matmul(T.reshape(t, (4, 3)), bt),
                                         T.matmul(T.reshape(t, (4, 3)), bt))),
                  a.ravel())

    def test_broadcast_unbroadcast(self):
        x = RNG.standard_normal(4)
        y = RNG.standard_normal((3, 4))
        leaf = Tensor(x, requires_grad=True)
        out = T.sum_(T.mul(T.add(leaf, Tensor(y)), T.add(leaf, Tensor(y))))
        (g,) = backward(out, [leaf])
        expected = (2 * (x + y)).sum(axis=0)
        np.testing.assert_allclose(g.data, expected, rtol=1e-12)

    def test_sum_axis_keepdims(self):
        x = RNG.standard_normal((3, 4))
        leaf = Tensor(x, requires_grad=True)
        out = T.sum_(T.mul(T.sum_(leaf, axis=1, keepdims=True), 1.0))
        (g,) = backward(out, [leaf])
        np.testing.assert_allclose(g.data, np.ones((3, 4)))

    def test_mean_negative_axis(self):
        x = RNG.standard_normal((2, 5))
        _fd_check(lambda t: T.sum_(T.mul(T.mean(T.reshape(t, (2, 5)), axis=-1),
                                         np.array([1.0, 2.0]))), x.ravel())

    def test_transpose_reshape(self):
        x = RNG.standard_normal((3, 4))
        w = RNG.standard_normal((4, 3))
        _fd_check(lambda t: T.sum_(T.mul(T.transpose(T.reshape(t, (3, 4))), w)),
                  x.ravel())

    def test_narrow_embed_adjoint(self):
        x = RNG.standard_normal(10)
        leaf = Tensor(x, requires_grad=True)
        piece = T.narrow(leaf, slice(2, 7))
        (g,) = backward(T.sum_(T.mul(piece, piece)), [leaf])
        expected = np.zeros(10)
        expected[2:7] = 2 * x[2:7]
        np.testing.assert_allclose(g.data, expected)

    def test_concat(self):
        a = RNG.standard_normal(3)
        b = RNG.standard_normal(4)
        la, lb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        out = T.sum_(T.mul(T.concat([la, lb]), T.concat([la, lb])))
        ga, gb = backward(out, [la, lb])
        np.testing.assert_allclose(ga.data, 2 * a)
        np.testing.assert_allclose(gb.data, 2 * b)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 5))))


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = RNG.standard_normal((6, 10)) * 5
        s = T.exp(T.log_softmax(Tensor(x)))
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(6), rtol=1e-12)

    def test_log_softmax_shift_invariance(self):
        x = RNG.standard_normal((2, 5))
        a = T.log_softmax(Tensor(x)).data
        b = T.log_softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_log_softmax_stable_at_large_values(self):
        x = np.array([[1000.0, 0.0, -1000.0]])
        out = T.log_softmax(Tensor(x))
        assert np.all(np.isfinite(out.data))

    def test_log_softmax_fd(self):
        x = RNG.standard_normal((2, 4))
        w = RNG.standard_normal((2, 4))
        _fd_check(lambda t: T.sum_(T.mul(T.log_softmax(T.reshape(t, (2, 4))), w)),
                  x.ravel())

    def test_log_softmax_is_one_node(self, monkeypatch):
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        leaf = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        out = T.log_softmax(leaf)
        assert ops == ["log_softmax"] and out._parents == (leaf,)

    def test_log_softmax_bit_equal_to_chain_to_second_order(self):
        # the value, first-order gradients (numpy adjoint, and tracked under
        # create_graph) and a second-order grad-norm, of logits that are a
        # product, so that second order reaches both factors. Bit for bit
        # when, as in cross-entropy, the upstream gradient does not depend on
        # the output; when it does, the second backward sums the same terms
        # in another order
        rng = np.random.default_rng(15)
        arrays = [rng.standard_normal((6, 4)) * 3.0, rng.standard_normal((4, 5))]
        w = rng.standard_normal((6, 5))

        def run(log_softmax, square):
            return _first_and_second(lambda x, k: log_softmax(T.matmul(x, k)), arrays, w,
                                     square=square)

        _assert_bit_equal(run(T.log_softmax, False), run(_log_softmax_chain, False))
        got, want = run(T.log_softmax, True), run(_log_softmax_chain, True)
        _assert_bit_equal(got[:5], want[:5])
        for a, b in zip(got[5:], want[5:]):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)

    def test_cross_entropy_bit_equal_to_chain_to_second_order(self):
        # the value, first-order gradients (numpy adjoint, and tracked under
        # create_graph) and a second-order grad-norm against the chain
        # -mean(Σ log_softmax · onehot) the node replaced, with a weight on
        # the loss so that the upstream gradient is not 1
        rng = np.random.default_rng(16)
        arrays = [rng.standard_normal((6, 4)) * 3.0, rng.standard_normal((4, 5))]
        labels = rng.integers(0, 5, 6)
        onehot = np.zeros((6, 5))
        onehot[np.arange(6), labels] = 1.0

        def chain(logits, _):
            logp = T.log_softmax(logits, axis=-1)
            return T.neg(T.mean(T.sum_(T.mul(logp, Tensor(onehot)), axis=-1)))

        def run(loss, weight):
            return _first_and_second(lambda x, k: loss(T.matmul(x, k), labels), arrays,
                                     np.asarray(weight), square=False)

        for weight in (1.0, -0.7):
            _assert_bit_equal(run(T.cross_entropy, weight), run(chain, weight))

    def test_cross_entropy_is_one_node_each_way(self, monkeypatch):
        # one node forward, and one untracked node for its first-order gradient
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        leaf = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        out = T.cross_entropy(leaf, np.array([0, 3, 1]))
        assert ops == ["cross_entropy"] and out._parents == (leaf,)
        (g,) = backward(out, [leaf])
        assert ops == ["cross_entropy", "cross_entropy_grad"] and g._parents == ()
        with pytest.raises(ShapeError):
            T.cross_entropy(Tensor(np.ones(3)), np.array([0]))


class TestConvPool:
    def test_conv2d_fd(self):
        x = RNG.standard_normal((2, 3, 6, 6))
        w = RNG.standard_normal((4, 3, 3, 3))
        wt = Tensor(w, requires_grad=True)
        out = T.sum_(T.mul(T.conv2d(Tensor(x), wt, stride=1, padding=1),
                           T.conv2d(Tensor(x), wt, stride=1, padding=1)))
        (g,) = backward(out, [wt])
        g_fd = finite_diff_grad(
            lambda v: float(T.sum_(T.mul(
                T.conv2d(Tensor(x), Tensor(v.reshape(w.shape))),
                T.conv2d(Tensor(x), Tensor(v.reshape(w.shape))))).data)
            if False else _conv_pad_scalar(x, v.reshape(w.shape)),
            w.ravel(), h=1e-5)
        np.testing.assert_allclose(g.data.ravel(), g_fd, rtol=1e-5, atol=1e-6)

    def test_conv2d_input_grad_fd(self):
        x = RNG.standard_normal((1, 2, 5, 5))
        w = RNG.standard_normal((3, 2, 3, 3))
        xt = Tensor(x, requires_grad=True)
        out = T.sum_(T.power(T.conv2d(xt, Tensor(w), stride=2, padding=1), 2.0))
        (g,) = backward(out, [xt])

        def f(v):
            o = T.conv2d(Tensor(v.reshape(x.shape)), Tensor(w), stride=2, padding=1)
            return float(T.sum_(T.power(o, 2.0)).data)

        g_fd = finite_diff_grad(f, x.ravel(), h=1e-5)
        np.testing.assert_allclose(g.data.ravel(), g_fd, rtol=1e-5, atol=1e-6)

    def test_avg_pool_fd(self):
        x = RNG.standard_normal((2, 3, 4, 4))
        _fd_check(lambda t: T.sum_(T.power(
            T.avg_pool2d(T.reshape(t, (2, 3, 4, 4)), 2), 2.0)), x.ravel())

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 0)])
    def test_bias_is_the_add_it_replaces(self, stride, padding):
        # the fused bias against conv2d + reshape + add: value, the x/w/b
        # adjoints, and their own adjoints under create_graph, bit for bit
        rng = np.random.default_rng(11)
        x, w, b = (rng.standard_normal(s) for s in ((4, 3, 6, 6), (5, 3, 3, 3), (5,)))

        def run(fused):
            xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
            if fused:
                out = T.conv2d(xt, wt, stride=stride, padding=padding, bias=bt)
            else:
                out = T.add(T.conv2d(xt, wt, stride=stride, padding=padding),
                            T.reshape(bt, (1, 5, 1, 1)))
            grads = backward(T.sum_(T.mul(out, out)), [xt, wt, bt], create_graph=True)
            root = T.sum_(T.concat([T.reshape(T.mul(g, g), (-1,)) for g in grads]))
            return [out] + grads + backward(root, [xt, wt, bt])

        for a, b_ in zip(run(True), run(False)):
            np.testing.assert_array_equal(a.data, b_.data)
            np.testing.assert_array_equal(np.signbit(a.data), np.signbit(b_.data))

    def test_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            T.conv2d(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((3, 2, 3, 3))),
                     bias=Tensor(np.zeros(2)))


class TestFusedLayers:
    @pytest.mark.parametrize("relu", [False, True])
    def test_matmul_bias_relu_bit_equal_to_chain(self, relu):
        # matmul(bias=, relu=) against relu(add(matmul, bias)): value, the
        # gradients in input, weight and bias, and a second-order grad-norm
        rng = np.random.default_rng(12)
        arrays = [rng.standard_normal((6, 5)), rng.standard_normal((5, 4)),
                  rng.standard_normal(4)]
        w = rng.standard_normal((6, 4))

        def chain(a, b, c):
            y = T.add(T.matmul(a, b), c)
            return T.relu(y) if relu else y

        got = _first_and_second(lambda a, b, c: T.matmul(a, b, bias=c, relu=relu), arrays, w)
        if relu:
            assert np.any(got[0] == 0.0) and np.any(got[0] > 0.0)
        _assert_bit_equal(got, _first_and_second(chain, arrays, w))

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 0)])
    def test_conv2d_relu_bit_equal_to_chain(self, stride, padding):
        rng = np.random.default_rng(13)
        arrays = [rng.standard_normal(s) for s in ((4, 3, 6, 6), (5, 3, 3, 3), (5,))]
        w = rng.standard_normal((4, 5) + T._out_hw(6, 6, 3, 3, stride, padding))

        def conv(x, k, c, relu):
            return T.conv2d(x, k, stride=stride, padding=padding, bias=c, relu=relu)

        got = _first_and_second(lambda x, k, c: conv(x, k, c, True), arrays, w)
        assert np.any(got[0] == 0.0) and np.any(got[0] > 0.0)
        _assert_bit_equal(got, _first_and_second(lambda x, k, c: T.relu(conv(x, k, c, False)),
                                                 arrays, w))

    def test_fused_relu_checks_the_sum_before_relu(self):
        # a -inf bias entry makes the sum -inf, which relu would turn into 0
        bias = np.zeros(5)
        bias[1] = -np.inf
        with pytest.raises(NonFiniteError) as err:
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 5))), bias=Tensor(bias),
                     relu=True)
        assert err.value.op == "matmul"
        with pytest.raises(NonFiniteError) as err:
            T.conv2d(Tensor(np.ones((1, 3, 4, 4))), Tensor(np.ones((5, 3, 3, 3))), padding=1,
                     bias=Tensor(bias), relu=True)
        assert err.value.op == "conv2d"

    @pytest.mark.parametrize("op", ["matmul", "conv2d", "batch_norm"])
    def test_fused_relu_node_checks_once(self, op, monkeypatch):
        # the sum is checked before relu; relu keeps finite entries finite, so
        # the node's output is not checked again. A -inf in the sum is still
        # caught and named after the op
        rng = np.random.default_rng(17)
        h = rng.standard_normal((2, 3, 4, 4))
        build = {
            "matmul": lambda bias: T.matmul(Tensor(rng.standard_normal((2, 3))),
                                            Tensor(rng.standard_normal((3, 5))),
                                            bias=Tensor(bias[:5]), relu=True),
            "conv2d": lambda bias: T.conv2d(Tensor(h), Tensor(rng.standard_normal((5, 3, 3, 3))),
                                            padding=1, bias=Tensor(bias[:5]), relu=True),
            "batch_norm": lambda bias: T.batch_norm(Tensor(h), Tensor(np.ones(3)),
                                                    Tensor(bias[:3]), 1e-5, relu=True)}[op]
        checked = []
        real = T._all_finite

        def counting(data):
            checked.append(data.shape)
            return real(data)

        monkeypatch.setattr(T, "_all_finite", counting)
        out = build(np.zeros(5))
        assert checked == [out.shape]
        bias = np.zeros(5)
        bias[1] = -np.inf
        with pytest.raises(NonFiniteError) as err:
            build(bias)
        assert err.value.op == op

    def test_dense_relu_unit_keeps_one_activation(self):
        # the node keeps its output; matmul → add → relu kept three outputs
        rng = np.random.default_rng(14)
        h = Tensor(rng.standard_normal((256, 64)), requires_grad=True)
        k, b = Tensor(rng.standard_normal((64, 512))), Tensor(np.zeros(512))
        tracemalloc.start()
        try:
            out = T.matmul(h, k, bias=b, relu=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < 1.2 * out.data.nbytes

    def test_matmul_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), bias=Tensor(np.ones(3)))


def _pool_composed(x, k):
    """Average pooling as reshape, sum and scale: the reference the fused
    primitive must reproduce."""
    n, c, h, w = x.shape
    return T.mean(T.reshape(x, (n, c, h // k, k, w // k, k)), axis=(3, 5))


class TestAvgPool:
    SHAPES = [(4, 8, 8, 8), (2, 3, 4, 2), (3, 2, 6, 4)]

    @staticmethod
    def _inputs(shape):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(shape)
        x[x < -1.0] = -0.0  # blocks of negative zeros keep the sign rule tested
        w = rng.standard_normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
        return x, w

    @pytest.mark.parametrize("shape", SHAPES)
    def test_bit_equal_to_composed_chain(self, shape):
        x0, w = self._inputs(shape)
        results = []
        for pool in (T.avg_pool2d, _pool_composed):
            x = Tensor(x0, requires_grad=True)
            y = pool(x, 2)
            (g,) = backward(T.sum_(T.mul(Tensor(w), T.mul(y, y))), [x], create_graph=True)
            (g2,) = backward(T.sum_(T.mul(g, g)), [x])
            results.append([t.data.tobytes() for t in (y, g, g2)])
        assert results[0] == results[1]

    def test_second_order_fd(self):
        x0, w = self._inputs((2, 3, 4, 4))

        def grad_norm(x):
            y = T.avg_pool2d(x, 2)
            (g,) = backward(T.sum_(T.mul(Tensor(w), T.mul(y, T.mul(y, y)))), [x],
                        create_graph=True)
            return T.l2_norm(g)

        leaf = Tensor(x0, requires_grad=True)
        (h,) = backward(grad_norm(leaf), [leaf])
        h_fd = finite_diff_grad(lambda v: grad_norm(Tensor(v, requires_grad=True)).item(), x0)
        np.testing.assert_allclose(h.data, h_fd, rtol=1e-6, atol=1e-7)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((2, 3, 6, 4))
        u = rng.standard_normal((2, 3, 3, 2))
        lhs = np.vdot(T.avg_pool2d(Tensor(x), 2).data, u)
        rhs = np.vdot(x, T.avg_pool2d_grad(Tensor(u), 2).data)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_indivisible_size_raises(self):
        with pytest.raises(ShapeError):
            T.avg_pool2d(Tensor(np.ones((1, 2, 5, 4))), 2)

    def test_grad_bit_equal_to_broadcast_at_arch_shapes(self, monkeypatch):
        # the pool shapes of models.ARCHS at batch 32, recorded from a forward;
        # the adjoint against each entry of g / k² broadcast over its block
        from cts.models import ARCHS, build_model, default_input_shape, forward
        seen = set()
        real = T.avg_pool2d

        def recording(x, k):
            seen.add((x.shape, k))
            return real(x, k)

        monkeypatch.setattr(T, "avg_pool2d", recording)
        for arch in ARCHS:
            forward(build_model(arch, 0), np.zeros((32,) + default_input_shape(arch)))
        assert seen == {((32, 8, 8, 8), 2), ((32, 16, 4, 4), 2)}
        rng = np.random.default_rng(18)
        for (n, c, h, w), k in sorted(seen):
            g = rng.standard_normal((n, c, h // k, w // k))
            g[g < -1.0] = -0.0
            want = np.empty((n, c, h // k, k, w // k, k))
            want[...] = (g * (1.0 / (k * k)))[:, :, :, None, :, None]
            got = T.avg_pool2d_grad(Tensor(g), k).data
            np.testing.assert_array_equal(got, want.reshape(n, c, h, w))
            np.testing.assert_array_equal(np.signbit(got), np.signbit(want.reshape(n, c, h, w)))
            assert got.flags.c_contiguous


def _conv_pad_scalar(x, w):
    out = T.conv2d(Tensor(x), Tensor(w), stride=1, padding=1)
    return float(T.sum_(T.mul(out, out)).data)


class TestSecondOrder:
    def test_double_backward_quadratic(self):
        # f(x) = sum(x^2): df/dx = 2x, d(sum(df/dx * v))/dx = 2v
        x = RNG.standard_normal(5)
        v = RNG.standard_normal(5)
        leaf = Tensor(x, requires_grad=True)
        (g,) = backward(T.sum_(T.mul(leaf, leaf)), [leaf], create_graph=True)
        (h,) = backward(T.sum_(T.mul(g, Tensor(v))), [leaf])
        np.testing.assert_allclose(h.data, 2 * v, rtol=1e-12)

    def test_double_backward_grad_norm(self):
        # f = ||2x||_2; d f / dx has a non-trivial Hessian checked by FD
        x = RNG.standard_normal(4)
        leaf = Tensor(x, requires_grad=True)
        (g,) = backward(T.sum_(T.power(T.mul(leaf, 2.0), 2.0)), [leaf],
                    create_graph=True)
        norm = T.l2_norm(g)
        (h,) = backward(norm, [leaf])

        def f(v):
            lv = Tensor(v, requires_grad=True)
            (gv,) = backward(T.sum_(T.power(T.mul(lv, 2.0), 2.0)), [lv],
                         create_graph=True)
            return float(T.l2_norm(gv).data)

        h_fd = finite_diff_grad(f, x)
        np.testing.assert_allclose(h.data, h_fd, rtol=1e-6, atol=1e-8)

    def test_sigmoid_second_order(self):
        x = RNG.standard_normal(5)
        leaf = Tensor(x, requires_grad=True)
        (g,) = backward(T.sum_(_sigmoid(leaf)), [leaf], create_graph=True)
        (h,) = backward(T.sum_(g), [leaf])
        s = 1 / (1 + np.exp(-x))
        np.testing.assert_allclose(h.data, s * (1 - s) * (1 - 2 * s), rtol=1e-9)

    def test_conv_double_backward_fd(self):
        # f = ||dL/dx|| + ||dL/dw|| for L = sum(conv(x, w)^3): its gradient
        # differentiates the conv backward again, in x and in w
        x0 = RNG.standard_normal((2, 2, 5, 5))
        w0 = RNG.standard_normal((3, 2, 3, 3))
        nx = x0.size

        def f(xt, wt):
            out = T.conv2d(xt, wt, stride=2, padding=1)
            gx, gw = backward(T.sum_(T.power(out, 3.0)), [xt, wt], create_graph=True)
            return T.add(T.l2_norm(gx), T.l2_norm(gw))

        def leaves(v, tracked):
            return (Tensor(v[:nx].reshape(x0.shape), requires_grad=tracked),
                    Tensor(v[nx:].reshape(w0.shape), requires_grad=tracked))

        v0 = np.concatenate([x0.ravel(), w0.ravel()])
        xt, wt = leaves(v0, True)
        hx, hw = backward(f(xt, wt), [xt, wt])
        h_fd = finite_diff_grad(lambda v: f(*leaves(v, True)).item(), v0, h=1e-5)
        np.testing.assert_allclose(np.concatenate([hx.data.ravel(), hw.data.ravel()]),
                                   h_fd, rtol=1e-6, atol=1e-7)


def _im2col_loop(x, k, stride, padding):
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    cols = np.zeros((n * oh * ow, c * k * k))
    for b in range(n):
        for oy in range(oh):
            for ox in range(ow):
                for ch in range(c):
                    for i in range(k):
                        for j in range(k):
                            cols[(b * oh + oy) * ow + ox, (ch * k + i) * k + j] = \
                                xp[b, ch, oy * stride + i, ox * stride + j]
    return cols


def _col2im_loop(cols, x_shape, k, stride, padding):
    # kernel offset outermost: each entry sums its terms in (i, j) order
    n, c, h, w = x_shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (w + 2 * padding - k) // stride + 1
    xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding))
    for i in range(k):
        for j in range(k):
            for b in range(n):
                for oy in range(oh):
                    for ox in range(ow):
                        for ch in range(c):
                            xp[b, ch, oy * stride + i, ox * stride + j] += \
                                cols[(b * oh + oy) * ow + ox, (ch * k + i) * k + j]
    return xp[:, :, padding:padding + h, padding:padding + w]


class TestConvKernels:
    SHAPE = (2, 3, 5, 7)  # non-square on purpose

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_kernels_match_plain_loops(self, stride, padding, k):
        x = RNG.standard_normal(self.SHAPE)
        cols = T._im2col(x, k, k, stride, padding)  # rows (c, kh, kw)
        np.testing.assert_array_equal(cols, _im2col_loop(x, k, stride, padding).T)
        # integer entries make every product and sum exact, so this checks
        # where each term of the input gradient lands, whatever the BLAS order
        w = RNG.integers(-3, 4, (4, 3, k, k)).astype(float)
        oh, ow = T._out_hw(5, 7, k, k, stride, padding)
        g = RNG.integers(-3, 4, (2, 4, oh, ow)).astype(float)
        back = T.conv2d_input_grad(Tensor(g), Tensor(w), x.shape, stride, padding).data
        wtg = w.reshape(4, -1).T @ g.transpose(1, 0, 2, 3).reshape(4, -1)
        np.testing.assert_array_equal(back, _col2im_loop(wtg.T, x.shape, k, stride, padding))
        assert back.flags.c_contiguous
        # the two are adjoint
        out = T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data
        np.testing.assert_allclose(np.vdot(out, g), np.vdot(x, back), rtol=1e-12)

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 0)])
    def test_conv2d_reuses_given_cols(self, stride, padding):
        x = RNG.standard_normal(self.SHAPE)
        w = RNG.standard_normal((4, 3, 3, 3))
        cols = T._im2col(x, 3, 3, stride, padding)
        np.testing.assert_array_equal(
            T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding, cols=cols).data,
            T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data)


def _im2col_rows(x, k, stride, padding):
    """im2col with one row per output position, (n·oh·ow, c·k·k), built in
    an NHWC buffer: the layout the conv kernels used before."""
    n, c, h, w = x.shape
    oh, ow = T._out_hw(h, w, k, k, stride, padding)
    xp = np.zeros((n, h + 2 * padding, w + 2 * padding, c))
    xp[:, padding:padding + h, padding:padding + w] = x.transpose(0, 2, 3, 1)
    cols = np.empty((n, oh, ow, c, k, k))
    for i in range(k):
        for j in range(k):
            cols[..., i, j] = xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride]
    return cols.reshape(n * oh * ow, c * k * k)


def _conv_rows(x, w, g, stride, padding):
    """conv2d, its input gradient and its weight gradient by the row-major
    formulas: the reference the K-major kernels must reproduce bit for bit."""
    n, c, h, wd = x.shape
    co, _, k, _ = w.shape
    oh, ow = T._out_hw(h, wd, k, k, stride, padding)
    cols = _im2col_rows(x, k, stride, padding)
    wm = w.reshape(co, -1)
    fwd = (cols @ wm.T).reshape(n, oh, ow, co).transpose(0, 3, 1, 2)
    g2 = g.transpose(0, 2, 3, 1).reshape(-1, co)
    dcols = (g2 @ wm).reshape(n, oh, ow, c, k, k)
    xp = np.zeros((n, h + 2 * padding, wd + 2 * padding, c))
    for i in range(k):
        for j in range(k):
            xp[:, i:i + stride * oh:stride, j:j + stride * ow:stride] += dcols[..., i, j]
    back = xp[:, padding:padding + h, padding:padding + wd].transpose(0, 3, 1, 2)
    return fwd, back, (g2.T @ cols).reshape(w.shape)


# (input channels, height = width, output channels) of every conv layer in
# ARCHS at the default input shape (1, 8, 8)
ARCH_CONV_SHAPES = [(1, 8, 8), (8, 4, 16), (8, 8, 8)]


class TestConvMatchesRowMajor:
    def test_shape_list_covers_archs(self, monkeypatch):
        from cts.models import ARCHS, build_model, default_input_shape, forward
        seen = set()
        real = T.conv2d

        def recording(x, w, stride=1, padding=0, cols=None, bias=None, relu=False):
            seen.add((x.shape[1], x.shape[2], w.shape[0], x.shape[3], w.shape[2],
                      stride, padding))
            return real(x, w, stride=stride, padding=padding, cols=cols, bias=bias, relu=relu)

        monkeypatch.setattr(T, "conv2d", recording)
        for arch in ARCHS:
            shape = default_input_shape(arch)
            forward(build_model(arch, 0), np.zeros((2,) + shape))
        assert seen == {(c, h, co, h, 3, 1, 1) for c, h, co in ARCH_CONV_SHAPES}

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (1, 0)])
    @pytest.mark.parametrize("n", [4, 32, 320])
    @pytest.mark.parametrize("c, h, co", ARCH_CONV_SHAPES)
    def test_bit_equal(self, c, h, co, n, stride, padding):
        rng = np.random.default_rng(n + 7 * c + h)
        x = rng.standard_normal((n, c, h, h))
        x[x < -1.0] = -0.0  # signed zeros in every operand
        x[x > 1.5] = 0.0
        w = rng.standard_normal((co, c, 3, 3))
        w[np.abs(w) < 0.1] = -0.0
        oh, ow = T._out_hw(h, h, 3, 3, stride, padding)
        g = rng.standard_normal((n, co, oh, ow))
        g[g < -0.8] = -0.0
        g[g > 1.2] = 0.0
        got = (T.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).data,
               T.conv2d_input_grad(Tensor(g), Tensor(w), x.shape, stride, padding).data,
               T.conv2d_weight_grad(Tensor(x), Tensor(g), w.shape, stride, padding).data)
        for a, b in zip(got, _conv_rows(x, w, g, stride, padding)):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))
            assert a.flags.c_contiguous  # a strided result would reorder later sums


BN_EPS = 1e-5


def _bn_composed(h, gamma, beta, eps=BN_EPS):
    """Batch norm as a chain of elementwise primitives: the reference the
    fused primitive must reproduce."""
    axes = (0, 2, 3)
    c = h.shape[1]
    mu = T.mean(h, axis=axes, keepdims=True)
    xc = T.add(h, T.neg(T.broadcast_to(mu, h.shape)))
    var = T.mean(T.mul(xc, xc), axis=axes, keepdims=True)
    inv = T.power(T.add(var, eps), -0.5)
    hn = T.mul(xc, T.broadcast_to(inv, h.shape))
    return T.add(T.mul(hn, T.reshape(gamma, (1, c, 1, 1))), T.reshape(beta, (1, c, 1, 1)))


class TestBatchNorm:
    SHAPE = (4, 3, 5, 6)

    def _inputs(self):
        rng = np.random.default_rng(7)
        h = rng.standard_normal(self.SHAPE) * 2.0 + 0.5
        return h, rng.standard_normal(3), rng.standard_normal(3), rng.standard_normal(self.SHAPE)

    @staticmethod
    def _grad_norm(bn, h, g, b, w):
        """‖r ⊙ ∂ Σ w·bn(h)² / ∂(h, gamma, beta)‖, built in-graph. Without the
        fixed weights r, the cotangent reaching the input gradient would be
        that gradient itself, orthogonal to x̂ per channel, and the x̂ terms of
        the second-order rule would go untested."""
        out = bn(h, g, b)
        gh, gg, gb = backward(T.sum_(T.mul(Tensor(w), T.mul(out, out))), [h, g, b],
                          create_graph=True)
        flat = T.concat([T.reshape(gh, (gh.size,)), gg, gb])
        r = np.random.default_rng(8).uniform(0.5, 1.5, flat.size)
        return T.l2_norm(T.mul(flat, Tensor(r)))

    def test_forward_bit_equal_to_composed_chain(self):
        h, g, b, _ = self._inputs()
        fused = T.batch_norm(Tensor(h), Tensor(g), Tensor(b), BN_EPS)
        np.testing.assert_array_equal(fused.data, _bn_composed(Tensor(h), Tensor(g), Tensor(b)).data)

    def test_double_backward_fd(self):
        h0, g0, b0, w = self._inputs()
        nh = h0.size

        def f(v):
            h = Tensor(v[:nh].reshape(self.SHAPE), requires_grad=True)
            g = Tensor(v[nh:], requires_grad=True)
            return self._grad_norm(lambda *a: T.batch_norm(*a, BN_EPS),
                                   h, g, Tensor(b0, requires_grad=True), w)

        h = Tensor(h0, requires_grad=True)
        g = Tensor(g0, requires_grad=True)
        hh, hg = backward(self._grad_norm(lambda *a: T.batch_norm(*a, BN_EPS), h, g,
                                      Tensor(b0, requires_grad=True), w), [h, g])
        v0 = np.concatenate([h0.ravel(), g0])
        h_fd = finite_diff_grad(lambda v: f(v).item(), v0, h=1e-5)
        np.testing.assert_allclose(np.concatenate([hh.data.ravel(), hg.data]), h_fd,
                                   rtol=1e-6, atol=1e-7)

    def test_second_order_matches_composed_chain(self):
        h0, g0, b0, w = self._inputs()
        results = []
        for bn in (lambda *a: T.batch_norm(*a, BN_EPS), _bn_composed):
            leaves = [Tensor(v, requires_grad=True) for v in (h0, g0, b0)]
            out = bn(*leaves)
            first = backward(T.sum_(T.mul(Tensor(w), T.mul(out, out))), leaves)
            second = backward(self._grad_norm(bn, *leaves, w), leaves)
            results.append([t.data for t in first + second])
        for fused, composed in zip(*results):
            np.testing.assert_allclose(fused, composed, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("with_skip", [False, True])
    def test_fused_relu_and_skip_bit_equal_to_chain(self, with_skip):
        # batch_norm(relu=True) is relu(batch_norm(...)), and with skip=s
        # relu(add(s, batch_norm(...))): value, the gradients in h, gamma,
        # beta and skip, and a second-order grad-norm, bit for bit
        h0, g0, b0, w = self._inputs()
        arrays = [h0, g0, b0] + ([np.random.default_rng(9).standard_normal(self.SHAPE)]
                                 if with_skip else [])

        def fused(h, g, b, *s):
            return T.batch_norm(h, g, b, BN_EPS, skip=s[0] if s else None, relu=True)

        def chain(h, g, b, *s):
            y = T.batch_norm(h, g, b, BN_EPS)
            return T.relu(T.add(s[0], y) if s else y)

        got = _first_and_second(fused, arrays, w)
        assert len(got) == 1 + 3 * len(arrays)
        assert np.any(got[0] == 0.0) and np.any(got[0] > 0.0)
        _assert_bit_equal(got, _first_and_second(chain, arrays, w))

    def test_fused_node_keeps_one_activation(self):
        # the node keeps its output and the per-channel mean and inverse
        # deviation; its vjp rebuilds x̂ from h. While it kept x̂ too, and the
        # relu after it kept its own output, the three held three activations
        h = Tensor(np.random.default_rng(7).standard_normal((32, 3, 16, 16)),
                   requires_grad=True)
        tracemalloc.start()
        try:
            out = T.batch_norm(h, Tensor(np.ones(3)), Tensor(np.zeros(3)), BN_EPS, relu=True)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert held < 1.2 * h.data.nbytes

    def test_fused_relu_checks_the_sum_before_relu(self):
        h0, g0, b0, _ = self._inputs()
        skip = np.zeros(self.SHAPE)
        skip[0, 0, 0, 0] = -np.inf
        with pytest.raises(NonFiniteError):
            T.batch_norm(Tensor(h0), Tensor(g0), Tensor(b0), BN_EPS, skip=Tensor(skip),
                         relu=True)

    def test_third_order_raises(self):
        h0, g0, b0, w = self._inputs()
        h, g, b = (Tensor(v, requires_grad=True) for v in (h0, g0, b0))
        gn = self._grad_norm(lambda *a: T.batch_norm(*a, BN_EPS), h, g, b, w)
        with pytest.raises(GraphError):
            backward(gn, [h], create_graph=True)

    def test_shape_checked(self):
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.ones(self.SHAPE)), Tensor(np.ones(2)), Tensor(np.ones(3)),
                         BN_EPS)
        with pytest.raises(ShapeError):
            T.batch_norm(Tensor(np.ones(self.SHAPE)), Tensor(np.ones(3)), Tensor(np.ones(3)),
                         BN_EPS, skip=Tensor(np.ones((4, 3, 5, 5))))


class TestGraphSemantics:
    def test_no_grad_blocks_tracking(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            out = T.mul(leaf, 2.0)
        assert not out.requires_grad

    def test_backward_requires_scalar(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GraphError):
            backward(T.mul(leaf, 2.0), [leaf])

    def test_grad_accumulates_over_shared_subgraph(self):
        leaf = Tensor(np.array([3.0]), requires_grad=True)
        y = T.mul(leaf, leaf)
        out = T.sum_(T.add(y, y))
        (g,) = backward(out, [leaf])
        np.testing.assert_allclose(g.data, [12.0])

    def test_backward_unreached_leaf_gets_zeros(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        other = Tensor(np.ones(3), requires_grad=True)
        out = T.sum_(leaf)
        (g,) = backward(out, wrt=[other])
        np.testing.assert_array_equal(g.data, np.zeros(3))

    def test_backward_holds_only_the_live_adjoints(self):
        # 50 muls of a 256 KiB array: an adjoint is freed once its node's vjp
        # has run, so the sweep holds a few arrays, not one per node
        x = Tensor(np.ones(1 << 15), requires_grad=True)
        y = x
        for _ in range(50):
            y = T.mul(y, 1.001)
        root = T.sum_(y)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            (g,) = backward(root, [x])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 4 * x.data.nbytes
        np.testing.assert_allclose(g.data, 1.001 ** 50)

    def test_interior_wrt_keeps_its_adjoint(self):
        leaf = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        mid = T.mul(leaf, leaf)
        g_mid, g_leaf = backward(T.sum_(T.mul(mid, 3.0)), [mid, leaf])
        np.testing.assert_array_equal(g_mid.data, [3.0, 3.0])
        np.testing.assert_array_equal(g_leaf.data, [12.0, 18.0])

    def test_untracked_parent_gets_no_adjoint(self, monkeypatch):
        # the data batch needs no gradient, so conv2d and matmul skip its adjoint
        x = Tensor(RNG.standard_normal((2, 1, 5, 5)))
        w = Tensor(RNG.standard_normal((3, 1, 3, 3)), requires_grad=True)
        a = Tensor(RNG.standard_normal((4, 2)))
        b = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        out = T.add(T.sum_(T.conv2d(x, w)), T.sum_(T.matmul(a, b)))
        calls = []
        for name in ("conv2d_input_grad", "matmul"):
            real = getattr(T, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(T, name, counting)
        _, gb = backward(out, [w, b])
        assert calls == ["matmul"]  # b's adjoint only
        np.testing.assert_allclose(gb.data, a.data.T @ np.ones((4, 3)))

    def test_add_mul_skip_untracked_adjoint(self, monkeypatch):
        # a constant operand of add or mul gets no adjoint that backward drops
        x = Tensor(RNG.standard_normal((2, 3)), requires_grad=True)
        c = Tensor(RNG.standard_normal(3))
        out = T.sum_(T.mul(T.add(x, c), c))
        ops = []
        real = T._make

        def counting(data, op, parents, vjp, **kw):
            ops.append(op)
            return real(data, op, parents, vjp, **kw)

        monkeypatch.setattr(T, "_make", counting)
        (g,) = backward(out, [x])
        # sum's broadcast and one product for x; no product or sum toward c
        assert sorted(ops) == ["broadcast", "mul"]
        np.testing.assert_array_equal(g.data, np.ones((2, 3)) * c.data)

    def test_grad_of_untracked_tensor_errors(self):
        leaf = Tensor(np.ones(3), requires_grad=True)
        untracked = Tensor(np.ones(3))
        with pytest.raises(GraphError):
            backward(T.sum_(leaf), wrt=[untracked])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_check(self, bad):
        # the op whose output holds the entry is named, wherever the entry sits
        x = np.linspace(-1.0, 1.0, 300)
        x[137] = bad
        with pytest.raises(NonFiniteError) as err:
            T.reshape(T.add(Tensor(x), 1.0), (3, 100))
        assert err.value.op == "add"

    @pytest.mark.parametrize("op, name", [
        (lambda t: T.reshape(t, (3, 4)), "reshape"), (T.neg, "neg"), (T.transpose, "transpose"),
        (lambda t: T.broadcast_to(t, (2, 4, 3)), "broadcast"), (T.relu, "relu")],
        ids=["reshape", "neg", "transpose", "broadcast_to", "relu"])
    def test_move_op_checks_a_leaf_parent(self, op, name):
        # an op that only moves entries still checks a parent that is a leaf
        x = np.ones((4, 3))
        x[2, 1] = np.nan
        with pytest.raises(NonFiniteError) as err:
            op(Tensor(x))
        assert err.value.op == name

    def test_move_op_of_nodes_is_not_checked_again(self, monkeypatch):
        # a node's parents were checked, and moving finite entries keeps them so
        node = T.mul(Tensor(np.ones((4, 3))), 2.0)
        checked = []
        real = T._all_finite

        def counting(data):
            checked.append(data.shape)
            return real(data)

        monkeypatch.setattr(T, "_all_finite", counting)
        for move in (lambda t: T.reshape(t, (3, 4)), T.neg, T.transpose, T.relu,
                     lambda t: T.broadcast_to(t, (2, 4, 3)), lambda t: T.concat([t, t]),
                     lambda t: T.narrow(t, slice(1, 3)), lambda t: T.embed(t, (5, 3), slice(0, 4))):
            move(node)
        assert checked == []
        T.mul(node, 2.0)
        assert checked == [(4, 3)]

    def test_full_reduction_node_holds_a_0d_array(self):
        # numpy returns a scalar; the node holds a 0-d float64 array, whose
        # ** -0.5 is numpy's loop and not libm's pow
        total = T.sum_(Tensor(np.arange(4.0)))
        half = T.mul(total, 0.5)
        for t in (total, half):
            assert type(t.data) is np.ndarray
            assert t.data.shape == () and t.data.dtype == np.float64

    @pytest.mark.parametrize("x", [np.full(5, 1e200), np.full(5, -1e200),
                                   np.full(5, 1e20, dtype=np.float32),
                                   np.array([1e300, -1e300, 3.0])],
                             ids=["1e200", "-1e200", "float32-1e20", "mixed"])
    def test_finite_check_passes_overflowing_sums_of_squares(self, x):
        # the sum of squares overflows to inf, yet every entry is finite
        with np.errstate(over="ignore"):
            assert not np.isfinite(np.vdot(x, x))
        out = T.neg(Tensor(x))
        assert out.data.dtype == x.dtype
        np.testing.assert_array_equal(out.data, -x)

    @pytest.mark.parametrize("x", [np.zeros((0,)), np.zeros((3, 0)), np.array(2.5)],
                             ids=["empty", "empty-2d", "0-d"])
    def test_finite_check_passes_empty_and_scalar(self, x):
        np.testing.assert_array_equal(T.neg(Tensor(x)).data, -x)


class TestFiniteDiffHelper:
    def test_fd_on_quadratic(self):
        x = RNG.standard_normal(5)
        g = finite_diff_grad(lambda v: float((v ** 2).sum()), x)
        np.testing.assert_allclose(g, 2 * x, rtol=1e-7, atol=1e-7)


GLIBC = ("CS_GNU_LIBC_VERSION" in os.confstr_names
         and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"))


class TestAllocatorPolicy:
    def test_no_mallopt_is_a_no_op(self, monkeypatch):
        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: object())
        assert T._keep_freed_heap() is False

    @pytest.mark.skipif(not GLIBC, reason="the policy acts on glibc only")
    @pytest.mark.parametrize("result", [1, 0])
    def test_trim_threshold_only_after_mmap_threshold(self, monkeypatch, result):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return result

        monkeypatch.setattr(T.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))
        assert T._keep_freed_heap() is bool(result)
        mmap = (T._M_MMAP_THRESHOLD, 32 << 20)
        assert calls == ([mmap, (T._M_TRIM_THRESHOLD, -1)] if result else [mmap])

    @pytest.mark.skipif(not GLIBC, reason="the policy acts on glibc only")
    def test_large_batch_pass_keeps_its_heap(self):
        # One hard_value("grad") pass on the 256-row eval batch holds ~100 MB
        # of graph; with the heap handed back, the next pass faulted ~39,000
        # pages in again.
        from cts.data import load_dataset
        from cts.models import build_model
        from cts.objectives import hard_value
        data = load_dataset("blobs:classes=4,dim=64,n=2000,seed=3,image=1")
        model = build_model("resnet-tiny", 0)
        x, y = data.eval_batch(seed=1)
        assert len(x) == 256
        mask = (np.random.default_rng(0).random(model.d) < 0.05).astype(np.float64)
        hard_value("grad", model, x, y, mask)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        hard_value("grad", model, x, y, mask)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
