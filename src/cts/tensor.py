"""Minimal reverse-mode autodiff over dense numpy arrays.

Covers exactly the op set the small models and pruning objectives need:
elementwise arithmetic with broadcasting, matmul, 2-D convolution, batch
norm, relu, exp, log-softmax, cross-entropy, the reverse KL of two
softmaxes, reductions, slicing/concat and the L2 norm. Ops are module
functions (``matmul``, ``sum_``, ``power``, ...); a Tensor spells only
``+``, binary ``-`` and ``*`` as operators. ``backward`` returns the
gradients of a scalar root for the requested tensors, as a list in their
order. Every backward rule is itself composed of these primitives, so
gradients can be differentiated again (needed when an objective is a function
of a gradient, and for Hessian-vector products). Convolution's two adjoints,
``conv2d_input_grad`` and ``conv2d_weight_grad``, are tracked primitives
whose own vjps are convolutions and each other. Their im2col columns are
K-major, rows (c, kh, kw) by columns (n, oh, ow), and the input adjoint adds
its kernel offsets as flat shifts of one buffer per channel. The tests check
that all three give the sums of the row-major (n·oh·ow, c·kh·kw) formulas
bit for bit at the conv shapes of ``models.ARCHS``. Batch norm's input adjoint,
``batch_norm_input_grad``, is a tracked primitive too; its own adjoint in the
input is the one rule that is a plain numpy kernel, so a third derivative
through batch norm raises GraphError. Average pooling is one node too:
``avg_pool2d`` and ``avg_pool2d_grad`` are each other's adjoints, and the
forward adds each block in the order of the reshape-and-sum it replaces.
``log_softmax`` is one node, and so is ``cross_entropy``, the training
loss, and ``softmax_kl``, the reverse KL, whose gradient is a numpy kernel
that a second derivative cannot go through (GraphError). A first-order
backward (no ``create_graph``) builds no node that only serves a vjp: a
relu's mask multiplies the adjoint in one untracked node, and ``matmul``'s
adjoints take their transposed operand as a plain copy, not a
``transpose`` node.

Every node's output is checked to be finite (NonFiniteError names the op).
One call decides it, the sum of squares, unless that sum overflows; the
check stays per node, because a later op can absorb a non-finite value
(relu(-inf) = 0), and a fused relu checks its sum before relu, and not its
output again. The ops that only move, copy, negate or zero entries
(reshape, transpose, broadcast_to, neg, relu, narrow, embed, concat) skip
the check when every parent is a node, not a leaf: each such parent was
checked when it was made, and finite entries stay finite. A leaf parent is
checked, so the op that first holds a non-finite entry is still the one
named.

What a graph keeps: each node's output, and what its vjp reads besides its
parents. A conv2d keeps no im2col columns (9× its input for a 3×3 kernel
at stride 1): its vjp rebuilds them from the input, which the graph holds
anyway, when the weight needs an adjoint, so a first-order step builds each
conv's columns twice, and the copy changes no bits. A batch norm keeps its
per-channel mean and inverse deviation, not x̂: its vjp rebuilds x̂ from the
input, bit-equal to the forward's. A dense or conv layer's bias and the
relu after it are applied inside its node (``matmul(bias=, relu=)``,
``conv2d(bias=, relu=)``), so a dense → relu or conv → relu unit keeps one
activation where the chain kept three. The relu after a batch norm and a
residual block's add are in the batch-norm node (``batch_norm(skip=,
relu=)``): a conv → batch norm → relu unit keeps two activations, the
conv's output and the batch-norm node's, where the chain kept four. ``backward`` drops a
node's adjoint as soon as that node's vjp has run, unless the node is in
``wrt``, so a first-order sweep holds only the live frontier of adjoints on
top of the graph; ``conv2d_input_grad`` builds its Wᵀ g product one block
of images at a time. A node refers only to its parents and its vjp's
closure, never back to itself or its children, and no pass in the package
forms a reference cycle, so a graph is freed by reference counting the
moment its last reference goes, not whenever the cyclic collector runs.
``models.train`` drops each step's graph before the next step's forward.

Importing this module sets glibc's allocator policy for the process
(``_keep_freed_heap``). A graph pass over a large batch, such as
``hard_value`` on the 256-row eval batch, holds about 27 MiB of arrays.
Under glibc's defaults that heap top is handed back to the kernel when the
graph is freed, and the next such pass faults its pages in again.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

_grad_enabled = True

_M_TRIM_THRESHOLD = -1           # glibc malloc.h
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20   # glibc's ceiling for its dynamic threshold (64-bit)


def _keep_freed_heap() -> bool:
    """Make glibc keep the freed heap for the life of the process.

    The mmap threshold is fixed at glibc's own ceiling for its dynamic one,
    so arrays under 32 MiB come from the heap; only if glibc accepts that is
    the trim threshold switched off, so the freed heap top is never handed
    back. The trim threshold alone would switch the dynamic mmap threshold
    off and map every array of 128 KiB or more afresh. Peak RSS is unchanged;
    RSS stays at its high-water mark. Arithmetic is untouched. Where the C
    library is not glibc, or has no ``mallopt``, nothing is done. Returns
    whether both settings took.
    """
    if "CS_GNU_LIBC_VERSION" not in os.confstr_names:
        return False
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX) != 1:
        return False
    return mallopt(_M_TRIM_THRESHOLD, -1) == 1


_keep_freed_heap()


class TensorError(Exception):
    pass


class ShapeError(TensorError):
    def __init__(self, op: str, *shapes):
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")
        self.op = op
        self.shapes = shapes


class NonFiniteError(TensorError):
    def __init__(self, op: str):
        super().__init__(f"{op}: produced non-finite values")
        self.op = op


class GraphError(TensorError):
    pass


@contextlib.contextmanager
def no_grad():
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """An immutable value in a computation graph.

    ``_vjp(out_grad)`` returns one gradient Tensor per parent (None for
    parents that do not require grad), built from tracked primitives.
    """

    __slots__ = ("data", "requires_grad", "_parents", "_vjp", "_op")

    def __init__(self, data, requires_grad: bool = False, *, _parents=(), _vjp=None,
                 _op: str = "leaf"):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp
        self._op = _op

    # -- basic introspection ------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, grad={self.requires_grad})"

    # -- operators ----------------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, like=self)))

    def __mul__(self, other):
        return mul(self, other)


def _as_tensor(x, like: Tensor | None = None) -> Tensor:
    """``x`` as a Tensor; a Python scalar takes the dtype of ``like``."""
    if isinstance(x, Tensor):
        return x
    if like is not None and type(x) in (int, float):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(x)


def _as_pair(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of a binary op as Tensors, a Python scalar in the
    other's dtype."""
    if isinstance(a, Tensor):
        return a, _as_tensor(b, like=a)
    b = _as_tensor(b)
    return _as_tensor(a, like=b), b


def _all_finite(data: np.ndarray) -> bool:
    """Whether every entry is finite, decided by one call unless the sum of
    squares overflows (|x| ≳ 1e154; 1e19 in float32): a NaN or ±inf entry
    makes that sum NaN or +inf, and squares cannot cancel."""
    return math.isfinite(np.vdot(data, data)) or bool(np.isfinite(data).all())


# ops that only move, copy, negate or zero entries: from parents that are
# nodes, already checked, they cannot make a non-finite entry
_MOVES = frozenset(("reshape", "transpose", "broadcast", "neg", "relu", "slice", "embed",
                    "concat"))
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def _make(data: np.ndarray, op: str, parents: Sequence[Tensor], vjp: Callable,
          checked: bool = False) -> Tensor:
    """A node of value ``data``: checked finite, unless ``op`` only moves
    entries of parents that are all nodes, or the caller has ``checked`` the
    entries that made ``data`` (a fused relu checks its sum). A numpy
    scalar, such as a full reduction's, becomes a 0-d array: ``** -0.5`` of
    a scalar goes to libm's ``pow``, of a 0-d array to numpy's own loop, and
    the two can differ."""
    if type(data) is not np.ndarray or data.dtype not in _FLOAT_DTYPES:
        data = Tensor(data).data
    if (not checked and (op not in _MOVES or "leaf" in [p._op for p in parents])
            and not _all_finite(data)):
        raise NonFiniteError(op)
    t = object.__new__(Tensor)
    t.data = data
    t._op = op
    if _grad_enabled and any(p.requires_grad for p in parents):
        t.requires_grad, t._parents, t._vjp = True, tuple(parents), vjp
    else:
        t.requires_grad, t._parents, t._vjp = False, (), None
    return t


def _unbroadcast(grad: Tensor, shape: tuple) -> Tensor:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.data.ndim - len(shape)
    if extra > 0:
        grad = sum_(grad, axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = sum_(grad, axis=axes, keepdims=True)
    if grad.shape != shape:
        grad = reshape(grad, shape)
    return grad


# -- elementwise ------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError("add", a.shape, b.shape)

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return _make(out, "add", (a, b), vjp)


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _make(-a.data, "neg", (a,), lambda g: (neg(g),))


def mul(a, b) -> Tensor:
    a, b = _as_pair(a, b)
    try:
        out = a.data * b.data
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape)

    def vjp(g):
        return (_unbroadcast(mul(g, b), a.shape) if a.requires_grad else None,
                _unbroadcast(mul(g, a), b.shape) if b.requires_grad else None)

    return _make(out, "mul", (a, b), vjp)


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    out = a.data ** p

    def vjp(g):
        return (mul(g, mul(_as_tensor(p, like=a), power(a, p - 1.0))),)

    return _make(out, "pow", (a,), vjp)


def sqrt(a) -> Tensor:
    return power(a, 0.5)


def absolute(a) -> Tensor:
    a = _as_tensor(a)

    def vjp(g):
        # subgradient 0 at exactly 0 (sign(0) == 0)
        return (mul(g, Tensor(np.sign(a.data))),)

    return _make(np.abs(a.data), "abs", (a,), vjp)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    # derivative at exactly 0 defined as 0
    return _make(np.maximum(a.data, 0.0), "relu", (a,), lambda g: (_relu_mask(g, a.data),))


def _relu_mask(g: Tensor, x: np.ndarray) -> Tensor:
    """g masked by ``x > 0``, relu's adjoint at ``x`` (or at relu(x)). A
    first-order backward makes the product as one untracked node, checked
    like ``mul``'s."""
    mask = (x > 0).astype(x.dtype)
    if not _grad_enabled:
        return _make(g.data * mask, "mul", (), None)
    return mul(g, Tensor(mask))


def stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """Untracked elementwise 1 / (1 + exp(-x)); never overflows exp:
    with e = exp(-|x|), it is 1 / (1 + e) for x >= 0 and e / (1 + e) below.
    The numerator is max(e, x >= 0): e <= 1, and the boolean reads as 1.0
    or 0.0, so no mask is built."""
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def exp(a) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.data)
    return _make(out, "exp", (a,), lambda g: (mul(g, exp(a)),))


# -- reductions / structure ---------------------------------------------------

def sum_(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        gd = g
        if axis is not None and not keepdims:
            ax = (axis,) if isinstance(axis, int) else tuple(axis)
            shp = list(a.shape)
            for i in ax:
                shp[i % a.data.ndim] = 1
            gd = reshape(g, tuple(shp))
        return (broadcast_to(gd, a.shape),)

    return _make(out, "sum", (a,), vjp)


def mean(a, axis=None, keepdims=False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.size
    else:
        ax = (axis,) if isinstance(axis, int) else tuple(axis)
        n = int(np.prod([a.shape[i % a.data.ndim] for i in ax]))
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def broadcast_to(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = np.broadcast_to(a.data, shape)
    except ValueError:
        raise ShapeError("broadcast_to", a.shape, shape)
    return _make(np.ascontiguousarray(out), "broadcast", (a,),
                 lambda g: (_unbroadcast(g, a.shape),))


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    try:
        out = a.data.reshape(shape)
    except ValueError:
        raise ShapeError("reshape", a.shape, shape)
    return _make(out, "reshape", (a,), lambda g: (reshape(g, a.shape),))


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("transpose", a.shape)
    return _make(a.data.T.copy(), "transpose", (a,), lambda g: (transpose(g),))


def _operand_t(a: Tensor) -> Tensor:
    """``a`` transposed as an operand of a vjp's product: a ``transpose``
    node under ``create_graph``, otherwise a plain Tensor of the same copy.
    The copy stays: OpenBLAS sums a transposed view in another order."""
    return transpose(a) if _grad_enabled else Tensor(a.data.T.copy())


def narrow(a, idx) -> Tensor:
    """Slice a tensor; gradient scatters back into a zero tensor."""
    a = _as_tensor(a)
    out = a.data[idx]

    def vjp(g):
        return (embed(g, a.shape, idx),)

    return _make(np.ascontiguousarray(out), "slice", (a,), vjp)


def embed(a, shape, idx) -> Tensor:
    """Place ``a`` into a zeros(shape) at ``idx``; adjoint of narrow."""
    a = _as_tensor(a)
    out = np.zeros(shape, dtype=a.data.dtype)
    out[idx] = a.data

    def vjp(g):
        return (narrow(g, idx),)

    return _make(out, "embed", (a,), vjp)


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        grads = []
        for p, off, sz in zip(parts, offsets, sizes):
            idx = [slice(None)] * out.ndim
            idx[axis] = slice(int(off), int(off + sz))
            grads.append(narrow(g, tuple(idx)))
        return tuple(grads)

    return _make(out, "concat", tuple(parts), vjp)


def _add_relu(out: np.ndarray, addend: np.ndarray | None, relu: bool, op: str) -> None:
    """Add ``addend`` to ``out`` in place and, under ``relu``, check the sum,
    as the chain's add did, before relu can absorb a non-finite entry, and
    apply relu in place. Relu keeps finite entries finite, so the node made
    of ``out`` is ``checked`` then."""
    if addend is not None:
        out += addend
    if relu:
        if not _all_finite(out):
            raise NonFiniteError(op)
        np.maximum(out, 0.0, out=out)


def matmul(a, b, bias=None, relu: bool = False) -> Tensor:
    """a @ b of 2-D ``a`` and ``b``. ``bias``, of shape (b's columns,), is
    added to each row in place and ``relu`` applies relu to the sum, in this
    node: ``matmul(a, b, bias=c, relu=True)`` is ``relu(add(matmul(a, b), c))``
    bit for bit, first and second order, and keeps one activation where that
    chain kept three. The vjp masks g by ``out > 0`` under ``relu`` and gives
    the bias ``_unbroadcast(g, bias.shape)``, as the chain's add did."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    parents = (a, b)
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (b.shape[1],):
            raise ShapeError("matmul", b.shape, bias.shape)
        parents += (bias,)
    out = a.data @ b.data
    _add_relu(out, None if bias is None else bias.data, relu, "matmul")

    def vjp(g):
        if relu:
            g = _relu_mask(g, out)
        return (matmul(g, _operand_t(b)) if a.requires_grad else None,
                matmul(_operand_t(a), g) if b.requires_grad else None,
                _unbroadcast(g, bias.shape) if bias is not None and bias.requires_grad else None)

    return _make(out, "matmul", parents, vjp, checked=relu)


def _log_softmax(x: np.ndarray, axis: int):
    """log-softmax of ``x`` along ``axis`` by the numpy ops of the chain
    ``z = x − max``, ``out = z − log Σ exp(z)``; returns out, exp(z) and the
    sum Σ exp(z) (kept dims)."""
    z = x + -np.max(x, axis=axis, keepdims=True)
    e = np.exp(z)
    s = e.sum(axis=axis, keepdims=True)
    return z + -np.log(s), e, s


def _log_softmax_grad(g: np.ndarray, e: np.ndarray, s: np.ndarray, axis: int) -> np.ndarray:
    """The log-softmax chain's adjoint of ``g``, g − e · Σ g / s, by that
    chain's numpy ops in their order."""
    return g + (-g).sum(axis=axis, keepdims=True) * s ** -1.0 * e


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax as one node, bit for bit the chain of
    primitives it replaced, ``z = a − max`` (the max a constant),
    ``z − log Σ exp(z)``, in value and first-order gradient.

    The vjp of a first-order backward computes that chain's adjoint from the
    saved exp(z) and its sum in numpy. Under ``create_graph`` it rebuilds z
    and Σ exp(z) as tracked nodes of ``a`` and applies the chain's adjoint
    ops to them. Second order is then the chain's bit for bit where the
    upstream gradient does not depend on this node's output, as in
    cross-entropy (``grad``, ``gradnorm``, GraSP); where it does, the second
    backward sums the same terms in another order.
    """
    a = _as_tensor(a)
    out, e, s = _log_softmax(a.data, axis)

    def vjp(g):
        if not _grad_enabled:
            return (_make(_log_softmax_grad(g.data, e, s, axis), "log_softmax_grad", (), None),)
        z = a - broadcast_to(Tensor(np.max(a.data, axis=axis, keepdims=True)), a.shape)
        st = sum_(exp(z), axis=axis, keepdims=True)
        gs = mul(_unbroadcast(neg(g), st.shape), power(st, -1.0))
        return (add(g, mul(broadcast_to(gs, a.shape), exp(z))),)

    return _make(out, "log_softmax", (a,), vjp)


def cross_entropy(a, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of 2-D logits ``a`` against integer ``labels`` as
    one node: bit for bit the chain −mean(Σ log_softmax(a) · onehot) it
    replaced, by that chain's numpy ops in its order, in value, first-order
    gradient and second order.

    The chain hands log-softmax the upstream gradient (−g / n) · onehot,
    whose off-label zeros are −0.0; the vjp builds it by the same ops. A
    first-order backward then takes log-softmax's numpy adjoint of it from
    the saved exp(z) and Σ exp(z), as one untracked node. Under
    ``create_graph`` that gradient is built of tracked ops of ``g`` and
    handed to the vjp of a ``log_softmax`` node of ``a``, the tracked
    rebuild of the chain's adjoint; where ``g`` is a constant, as for a
    loss that is the root (``grad``, ``gradnorm``, GraSP), second order is
    the chain's bit for bit.
    """
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise ShapeError("cross_entropy", a.shape)
    n, c = a.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    lp, e, s = _log_softmax(a.data, -1)
    scale = 1.0 / n
    out = -((lp * onehot).sum(axis=-1).sum() * scale)

    def vjp(g):
        if _grad_enabled:
            gl = mul(broadcast_to(mul(neg(g), scale), onehot.shape), Tensor(onehot))
            return log_softmax(a, -1)._vjp(gl)
        gl = -g.data * scale * onehot
        return (_make(_log_softmax_grad(gl, e, s, -1), "cross_entropy_grad", (), None),)

    return _make(out, "cross_entropy", (a,), vjp)


def softmax_kl(a, t: np.ndarray) -> Tensor:
    """Row mean of KL(softmax(a) ‖ softmax(t)) over 2-D logits ``a``, with
    ``t`` a constant array of a's shape, as one node: bit for bit the value
    and first-order gradient of the chain mean(Σ exp(lp)·(lp − lq)) over
    ``lp = log_softmax(a)`` and ``lq = log_softmax(t)``, by its numpy ops in
    its order. The gradient is not itself differentiable: a backward with
    ``create_graph`` through this node raises GraphError.
    """
    a = _as_tensor(a)
    t = np.asarray(t)
    if a.data.ndim != 2 or t.shape != a.shape:
        raise ShapeError("softmax_kl", a.shape, t.shape)
    lp, e, s = _log_softmax(a.data, -1)
    p = np.exp(lp)
    diff = lp + -_log_softmax(t, -1)[0]
    scale = 1.0 / a.shape[0]
    out = (p * diff).sum(axis=-1).sum() * scale

    def vjp(g):
        if _grad_enabled:
            raise GraphError("softmax_kl: the gradient is not differentiable again")
        gm = g.data * scale
        glp = gm * diff * p + gm * p
        return (_make(_log_softmax_grad(glp, e, s, -1), "softmax_kl_grad", (), None),)

    return _make(out, "softmax_kl", (a,), vjp)


def l2_norm(a) -> Tensor:
    a = _as_tensor(a)
    return sqrt(sum_(mul(a, a)))


# -- convolution / pooling ----------------------------------------------------

def _out_hw(h: int, w: int, kh: int, kw: int, stride: int, padding: int):
    return (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int):
    """Rows (c, kh, kw), columns (n, oh, ow).

    A stride-1 convolution whose output keeps the input's size reads each
    channel as one flat run of images without column padding, separated by
    their ``padding`` zero rows: every (channel, offset, image) slab is then
    one contiguous run of h·w, and the few entries that wrapped round a row
    end are set to zero after. Any other convolution copies one slab per
    kernel offset out of a zero-padded (c, n, hp, wp) copy of ``x``.
    """
    n, c, h, w = x.shape
    p, e = padding, x.itemsize
    oh, ow = _out_hw(h, w, kh, kw, stride, p)
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    if stride == 1 and (oh, ow) == (h, w):
        band = (h + p) * w
        flat = np.zeros((c, (p * w + p) + n * band + p), dtype=x.dtype)
        flat[:, p * w + p:p * w + p + n * band].reshape(c, n, h + p, w)[:, :, :h] = \
            x.transpose(1, 0, 2, 3)
        np.copyto(cols.reshape(c, kh, kw, n, h * w),
                  as_strided(flat, (c, kh, kw, n, h * w),
                             (flat.strides[0], w * e, e, band * e, e)))
        for j in range(kw):  # columns whose window left the row
            if j < p:
                cols[:, :, j, :, :, :p - j] = 0.0
            elif j > p:
                cols[:, :, j, :, :, w + p - j:] = 0.0
    else:
        xp = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + w] = x.transpose(1, 0, 2, 3)
        for i in range(kh):
            for j in range(kw):
                np.copyto(cols[:, i, j],
                          xp[:, :, i:i + stride * oh:stride, j:j + stride * ow:stride])
    return cols.reshape(c * kh * kw, n * oh * ow)


def _row_major_product(m: int, co: int) -> bool:
    """Whether conv2d and its weight gradient multiply with one row per
    output position, (n·oh·ow, c·kh·kw), instead of with the K-major
    columns. OpenBLAS sums small products, and products whose m = n·oh·ow
    is not a multiple of 8, in an order that depends on the operands'
    layout; taking the row form there gives every product the sums of the
    row form, whatever its size."""
    return m % 8 != 0 or m * co <= 4096


def conv2d(x, w, stride: int = 1, padding: int = 0,
           cols: np.ndarray | None = None, bias=None, relu: bool = False) -> Tensor:
    """2-D convolution (cross-correlation), NCHW input, OIHW filters.

    ``cols`` is im2col(x) when the caller already has it; the node keeps
    such columns, since their owner holds them anyway. Columns it builds
    itself are dropped after the product and rebuilt from ``x`` in the vjp,
    after the input adjoint, when the weight needs an adjoint; under
    ``create_graph`` the vjp keeps the rebuilt columns (the
    ``conv2d_weight_grad`` node holds them too), so a second backward reuses
    them. ``bias``, of shape (co,), is added to each output channel in
    place, so a layer's conv and bias are one node; its adjoint is the sum
    of g over (n, oh, ow). ``relu`` applies relu to that sum in the node, as
    ``matmul(relu=)`` does: the conv → relu unit keeps one activation, and
    the node is ``relu(conv2d(...))`` bit for bit, first and second order.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 4 or w.data.ndim != 4 or x.shape[1] != w.shape[1]:
        raise ShapeError("conv2d", x.shape, w.shape)
    n = x.shape[0]
    co, ci, kh, kw = w.shape
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.shape != (co,):
            raise ShapeError("conv2d", w.shape, bias.shape)
    oh, ow = _out_hw(x.shape[2], x.shape[3], kh, kw, stride, padding)
    xcols = _im2col(x.data, kh, kw, stride, padding) if cols is None else cols
    wm = w.data.reshape(co, -1)
    if _row_major_product(xcols.shape[1], co):
        out = (np.ascontiguousarray(xcols.T) @ wm.T).reshape(n, oh, ow, co).transpose(0, 3, 1, 2)
    else:
        out = (wm @ xcols).reshape(co, n, oh, ow).transpose(1, 0, 2, 3)
    del xcols
    out = np.ascontiguousarray(out)
    _add_relu(out, None if bias is None else bias.data.reshape(1, co, 1, 1), relu, "conv2d")

    def vjp(g):
        nonlocal cols
        if relu:
            g = _relu_mask(g, out)
        gx = conv2d_input_grad(g, w, x.shape, stride, padding) if x.requires_grad else None
        gw = None
        if w.requires_grad:
            c = _im2col(x.data, kh, kw, stride, padding) if cols is None else cols
            if _grad_enabled:
                cols = c
            gw = conv2d_weight_grad(x, g, w.shape, stride, padding, cols=c)
        return (gx, gw,
                sum_(g, axis=(0, 2, 3)) if bias is not None and bias.requires_grad else None)

    parents = (x, w) if bias is None else (x, w, bias)
    return _make(out, "conv2d", parents, vjp, checked=relu)


# the bytes of one block of conv2d_input_grad's Wᵀ·grid product
_INPUT_GRAD_BLOCK_BYTES = 2 << 20


def conv2d_input_grad(g, w, x_shape, stride: int = 1, padding: int = 0) -> Tensor:
    """Adjoint of conv2d in its input: col2im(Wᵀ g), of shape ``x_shape``.

    Each channel is one flat buffer in which consecutive images share their
    zero rows and consecutive rows their zero columns. ``g`` is placed at
    the window origins, so Wᵀ g is an exact zero everywhere else, and every
    kernel offset becomes one flat shift. One reduction over a strided view
    adds the kh·kw shifted products from +0.0 in col2im's (i, j) order.
    Wᵀ g is built for one block of images at a time, each with the ``lead``
    grid entries before it that its shifts reach, in at most about
    ``_INPUT_GRAD_BLOCK_BYTES`` (one block at batch 32 on ``models.ARCHS``).
    """
    g, w = _as_tensor(g), _as_tensor(w)
    co, ci, kh, kw = w.shape
    n, c, h, wd = x_shape
    p, s = padding, stride
    oh, ow = g.shape[2], g.shape[3]
    # the zero rows and columns between two images or rows: at least p, and
    # enough that no two window origins share a flat position
    qh, qw = max(p, 2 * p - kh + 1), max(p, 2 * p - kw + 1)
    pitch = wd + qw
    band = (h + qh) * pitch
    lead = (kh - 1) * pitch + kw - 1  # the largest shift
    grid = np.zeros((co, lead + n * band), dtype=g.data.dtype)
    grid[:, lead:].reshape(co, n, h + qh, pitch)[:, :, 0:s * oh:s, 0:s * ow:s] = \
        g.data.transpose(1, 0, 2, 3)
    wt = w.data.reshape(co, -1).T
    dtype = np.result_type(wt, grid)
    e = dtype.itemsize
    per_block = max(1, (_INPUT_GRAD_BLOCK_BYTES // (c * kh * kw * e) - lead) // band)
    out = np.empty((n, c, h, wd), dtype=dtype)
    for i0 in range(0, n, per_block):
        nb = min(per_block, n - i0)
        d = (wt @ grid[:, i0 * band:lead + (i0 + nb) * band]).reshape(c, kh, kw, -1)
        shifted = as_strided(d[:, 0, 0, lead:], (c, kh, kw, nb * band),
                             (d.strides[0], d.strides[1] - pitch * e, d.strides[2] - e, e))
        v = np.add.reduce(shifted, axis=(1, 2), initial=0.0)
        out[i0:i0 + nb] = v.reshape(c, nb, h + qh, pitch)[:, :, p:p + h, p:p + wd] \
            .transpose(1, 0, 2, 3)

    def vjp(u):
        cols = _im2col(u.data, kh, kw, stride, padding)  # shared by both adjoints
        return (conv2d(u, w, stride=stride, padding=padding, cols=cols) if g.requires_grad else None,
                conv2d_weight_grad(u, g, w.shape, stride, padding, cols=cols)
                if w.requires_grad else None)

    return _make(out, "conv2d_input_grad", (g, w), vjp)


def conv2d_weight_grad(x, g, w_shape, stride: int = 1, padding: int = 0,
                       cols: np.ndarray | None = None) -> Tensor:
    """Adjoint of conv2d in its filters: g^T im2col(x), of shape ``w_shape``.

    ``cols`` is im2col(x) when the caller already has it.
    """
    x, g = _as_tensor(x), _as_tensor(g)
    co, ci, kh, kw = w_shape
    if cols is None:
        cols = _im2col(x.data, kh, kw, stride, padding)
    g_rows = g.data.transpose(0, 2, 3, 1).reshape(-1, co)
    if _row_major_product(cols.shape[1], co):
        out = (g_rows.T @ np.ascontiguousarray(cols.T)).reshape(w_shape)
    else:
        out = np.ascontiguousarray((cols @ np.ascontiguousarray(g_rows)).T).reshape(w_shape)

    def vjp(v):
        return (conv2d_input_grad(g, v, x.shape, stride, padding) if x.requires_grad else None,
                conv2d(x, v, stride=stride, padding=padding, cols=cols)
                if g.requires_grad else None)

    return _make(out, "conv2d_weight_grad", (x, g), vjp)


# -- batch norm ---------------------------------------------------------------

_BN_AXES = (0, 2, 3)


def _bn_stats(h: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The per-channel mean and inv = (var + eps)^-1/2 of NCHW ``h`` over
    (n, h, w), and h − mean; x̂ is (h − mean) · inv."""
    n = h.size // h.shape[1]
    mu = h.sum(axis=_BN_AXES, keepdims=True) * (1.0 / n)
    xc = h + -mu
    var = (xc * xc).sum(axis=_BN_AXES, keepdims=True) * (1.0 / n)
    return mu, (var + eps) ** -0.5, xc


def batch_norm(h, gamma, beta, eps: float, skip=None, relu: bool = False) -> Tensor:
    """Batch norm of NCHW ``h`` with current-batch statistics:
    x̂ · gamma + beta, with ``gamma`` and ``beta`` of shape (c,).

    ``skip``, of ``h``'s shape, is added to that, and ``relu`` applies relu
    to the sum, in this node: ``batch_norm(h, g, b, eps, skip=s, relu=True)``
    is ``relu(add(s, batch_norm(h, g, b, eps)))`` bit for bit, first and
    second order, without the two activations that chain keeps. The node
    keeps only the per-channel mean and inverse deviation; its vjp rebuilds
    x̂ from ``h``, which the graph holds anyway. The vjp masks g by
    ``out > 0`` under ``relu``, the mask relu builds from its input, and
    hands the masked g to the batch-norm adjoints and, as it is, to ``skip``.
    """
    h, gamma, beta = _as_tensor(h), _as_tensor(gamma), _as_tensor(beta)
    if h.data.ndim != 4 or gamma.shape != (h.shape[1],) or beta.shape != (h.shape[1],):
        raise ShapeError("batch_norm", h.shape, gamma.shape, beta.shape)
    parents = (h, gamma, beta)
    if skip is not None:
        skip = _as_tensor(skip)
        if skip.shape != h.shape:
            raise ShapeError("batch_norm", h.shape, skip.shape)
        parents += (skip,)
    mu, inv, out = _bn_stats(h.data, eps)
    out *= inv
    out *= gamma.data.reshape(1, -1, 1, 1)
    out += beta.data.reshape(1, -1, 1, 1)
    _add_relu(out, None if skip is None else skip.data, relu, "batch_norm")

    def vjp(g):
        if relu:
            g = _relu_mask(g, out)
        stats = ((h.data + -mu) * inv, inv)
        return (batch_norm_input_grad(g, h, gamma, stats) if h.requires_grad else None,
                sum_(mul(g, _normalized(h, stats)), axis=_BN_AXES)
                if gamma.requires_grad else None,
                sum_(g, axis=_BN_AXES) if beta.requires_grad else None,
                g if skip is not None and skip.requires_grad else None)

    return _make(out, "batch_norm", parents, vjp, checked=relu)


def _normalized(h: Tensor, stats) -> Tensor:
    """x̂ of ``h`` as a node tracked in h: batch_norm(h, 1, 0, eps)."""
    ones = Tensor(np.ones(h.shape[1], dtype=h.data.dtype))
    return _make(stats[0], "batch_norm", (h,),
                 lambda v: (batch_norm_input_grad(v, h, ones, stats),))


def batch_norm_input_grad(gy, h, gamma, stats) -> Tensor:
    """Adjoint of batch_norm in its input: gamma · inv · (gy − mean gy −
    x̂ · mean(gy · x̂)), per channel over (n, h, w), with ``stats`` the
    (x̂, inv) of ``h``.

    The adjoints in gy and gamma are tracked; the one in h is a numpy
    kernel, so a third derivative through h raises GraphError.
    """
    gy, h, gamma = _as_tensor(gy), _as_tensor(h), _as_tensor(gamma)
    if gy.shape != h.shape:
        raise ShapeError("batch_norm_input_grad", gy.shape, h.shape)
    xhat, inv = stats
    a = gy.data
    gam = gamma.data.reshape(1, -1, 1, 1)
    m = (a * xhat).mean(axis=_BN_AXES, keepdims=True)
    out = gam * inv * (a - a.mean(axis=_BN_AXES, keepdims=True) - xhat * m)

    def vjp(u):
        if h.requires_grad and _grad_enabled:
            raise GraphError("batch_norm_input_grad: the adjoint in h is not "
                             "differentiable again")
        return (
            # the Jacobian in gy is symmetric, so this map is its own adjoint
            batch_norm_input_grad(u, h, gamma, stats) if gy.requires_grad else None,
            _make(_bn_input_grad_h_adjoint(u.data, a, xhat, inv, gam, m),
                  "batch_norm_input_grad_h", (), None) if h.requires_grad else None,
            sum_(mul(u, batch_norm_input_grad(gy, h, np.ones_like(gamma.data), stats)),
                 axis=_BN_AXES) if gamma.requires_grad else None)

    return _make(out, "batch_norm_input_grad", (gy, h, gamma), vjp)


def _bn_input_grad_h_adjoint(u, a, xhat, inv, gam, m):
    """⟨u, batch_norm_input_grad(a, h, gamma)⟩ differentiated in h:
    gamma · inv² · [x̂(3Pm − C)/N − m(u − ū) − P(a − ā)/N], with
    P = Σ u·x̂, m = mean(a·x̂) and C = Σ (u − ū)(a − ā)."""
    n = a.size // a.shape[1]
    uc = u - u.mean(axis=_BN_AXES, keepdims=True)
    ac = a - a.mean(axis=_BN_AXES, keepdims=True)
    p = (u * xhat).sum(axis=_BN_AXES, keepdims=True)
    c = (uc * ac).sum(axis=_BN_AXES, keepdims=True)
    return gam * inv * inv * (xhat * ((3.0 * p * m - c) / n) - m * uc - (p / n) * ac)


# -- average pooling ----------------------------------------------------------

def _block_sum(x: np.ndarray, k: int) -> np.ndarray:
    """Sum of each k×k block of NCHW ``x``, in the order of numpy's
    ``x.reshape(n, c, h/k, k, w/k, k).sum(axis=(3, 5))``: the slabs of each
    window row left to right, then the rows, from +0.0. With one window per
    row (w == k) numpy adds a block's k² entries as one run, so that case is
    left to numpy."""
    n, c, h, w = x.shape
    if w == k:
        return x.reshape(n, c, h // k, k, 1, k).sum(axis=(3, 5))
    total = None
    for i in range(k):
        row = x[:, :, i::k, 0::k]
        for j in range(1, k):
            row = row + x[:, :, i::k, j::k]
        total = row if total is None else total + row
    return total + 0.0


def avg_pool2d(x, k: int) -> Tensor:
    """k-by-k average pooling; spatial dims must divide k. Its adjoint is
    ``avg_pool2d_grad``, whose own adjoint is this op."""
    x = _as_tensor(x)
    if x.data.ndim != 4 or x.shape[2] % k or x.shape[3] % k:
        raise ShapeError("avg_pool2d", x.shape, (k, k))
    out = _block_sum(x.data, k) * (1.0 / (k * k))
    return _make(out, "avg_pool2d", (x,), lambda g: (avg_pool2d_grad(g, k),))


def avg_pool2d_grad(g, k: int) -> Tensor:
    """Adjoint of avg_pool2d: each entry of g / k² spread over its k×k block,
    by one strided copy per offset in the block. That holds no array beside
    g / k² and the output (``np.repeat`` twice would hold one k times g's
    size), and is faster than one 6-d broadcast copy."""
    g = _as_tensor(g)
    n, c, hb, wb = g.shape
    gs = g.data * (1.0 / (k * k))
    out = np.empty((n, c, hb, k, wb, k), dtype=g.data.dtype)
    for i in range(k):
        for j in range(k):
            out[:, :, :, i, :, j] = gs
    return _make(out.reshape(n, c, hb * k, wb * k), "avg_pool2d_grad", (g,),
                 lambda u: (avg_pool2d(u, k),))


# -- backward -----------------------------------------------------------------

def backward(root: Tensor, wrt: Sequence[Tensor], create_graph: bool = False) -> list[Tensor]:
    """Reverse-mode sweep from a scalar root: the gradient of ``root`` for
    each tensor in ``wrt``, in that order. Each must be tracked; one that
    ``root`` does not reach gets zeros.
    """
    if root.size != 1:
        raise GraphError(f"backward root must be scalar, got shape {root.shape}")
    if not root.requires_grad:
        raise GraphError("backward root is not part of a tracked graph")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, Tensor] = {
        id(root): Tensor(np.ones(root.shape, dtype=root.data.dtype))
    }
    keep = {id(t) for t in wrt}

    ctx = contextlib.nullcontext() if create_graph else no_grad()
    with ctx:
        for node in reversed(topo):
            # every adjoint of a node has arrived once it is reached; only
            # the requested ones outlive its vjp
            g = grads.get(id(node)) if id(node) in keep else grads.pop(id(node), None)
            if g is None or node._vjp is None:
                continue
            parent_grads = node._vjp(g)
            for p, pg in zip(node._parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                cur = grads.get(id(p))
                grads[id(p)] = pg if cur is None else add(cur, pg)

    out = []
    for t in wrt:
        if not t.requires_grad:
            raise GraphError("gradient requested for an untracked tensor")
        g = grads.get(id(t))
        out.append(Tensor(np.zeros(t.shape, dtype=t.data.dtype)) if g is None else g)
    return out
