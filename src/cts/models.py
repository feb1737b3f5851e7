"""Small trainable architectures, masked forward passes, and SGD training.

Every model is a flat list of layer specs. Dense and conv *weights* are
maskable; biases and batch-norm affine parameters never are. The maskable
entries of all layers concatenate (in layer order, C-order within a layer)
into one flat vector of length d: the layout of tickets, mask logits and
scores. ``ModelState.layer_views`` cuts such a vector back into one piece per
maskable weight, in that weight's shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor, cross_entropy

ARCHS = ("mlp-2x256", "lenet-conv4", "resnet-tiny", "tiny-mlp")

BN_EPS = 1e-5


class ModelError(Exception):
    pass


class DivergenceError(ModelError):
    pass


class TrainConfigError(ModelError, ValueError):
    pass


# -- layer specs ----------------------------------------------------------

@dataclass(frozen=True)
class Dense:
    name: str
    in_dim: int
    out_dim: int


@dataclass(frozen=True)
class Conv:
    name: str
    in_ch: int
    out_ch: int
    kernel: int
    stride: int = 1
    padding: int = 1


@dataclass(frozen=True)
class BatchNorm:
    name: str
    ch: int


@dataclass(frozen=True)
class Relu:
    pass


@dataclass(frozen=True)
class AvgPool:
    k: int


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class GlobalAvgPool:
    pass


@dataclass(frozen=True)
class ResBlock:
    inner: tuple


@dataclass
class ForwardTrace:
    logits: Tensor
    features: list[Tensor]
    loss: Tensor


class StepSchedule:
    """``lr`` times the factor of every ``lr_drops`` step already reached."""

    def lr_at(self, step: int) -> float:
        lr = self.lr
        for drop_step, factor in self.lr_drops:
            if step >= drop_step:
                lr *= factor
        return lr


@dataclass
class TrainConfig(StepSchedule):
    steps: int = 1000
    batch_size: int = 64
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-3
    lr_drops: tuple = ()  # ((step, factor), ...)
    rewind_step: int = 0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.rewind_step < self.steps or self.steps == 0):
            raise TrainConfigError("rewind step must satisfy 0 <= k < T")
        if self.lr <= 0 or self.batch_size <= 0:
            raise TrainConfigError("rates and batch size must be positive")
        if not 0 <= self.momentum < 1:
            raise TrainConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise TrainConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise TrainConfigError(f"train seed must be >= 0, got {self.seed}")
        for step, factor in self.lr_drops:
            if step < 0 or not (np.isfinite(factor) and factor > 0):
                raise TrainConfigError(f"lr_drops entry {step}:{factor} needs step >= 0, "
                                       f"factor finite and > 0")


@dataclass
class ModelState:
    arch: str
    seed: int
    input_shape: tuple
    num_classes: int
    specs: tuple
    params: dict[str, np.ndarray]
    # (param name, flat offset, size); weights of dense/conv layers only
    maskable_index: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def d(self) -> int:
        return sum(sz for _, _, sz in self.maskable_index)

    def maskable_layout(self) -> list[tuple[str, int]]:
        return [(name, sz) for name, _, sz in self.maskable_index]

    def maskable_vector(self) -> np.ndarray:
        return np.concatenate([self.params[n].reshape(-1) for n, _, _ in self.maskable_index])

    def layer_views(self, v: np.ndarray) -> list[np.ndarray]:
        """One view of the length-d vector ``v`` per maskable weight, in
        layer order and in that weight's shape."""
        return [v[off:off + sz].reshape(self.params[name].shape)
                for name, off, sz in self.maskable_index]

    def set_maskable_vector(self, v: np.ndarray) -> None:
        for (name, _, _), w in zip(self.maskable_index, self.layer_views(v)):
            self.params[name] = w.copy()

    def copy(self) -> "ModelState":
        return ModelState(self.arch, self.seed, self.input_shape, self.num_classes,
                          self.specs, {k: v.copy() for k, v in self.params.items()},
                          list(self.maskable_index))

    def masked(self, mask: np.ndarray) -> "ModelState":
        """A copy whose maskable weights are zero where ``mask == 0``.

        This is the one place a hard (0/1, int or float) mask meets the weights.
        """
        mask = np.asarray(mask)
        if mask.size != self.d:
            raise ModelError(f"mask length {mask.size} != d={self.d}")
        out = self.copy()
        for (name, _, _), m in zip(self.maskable_index, self.layer_views(mask)):
            out.params[name][m == 0] = 0.0
        return out


def _flatten_specs(specs) -> list:
    out = []
    for s in specs:
        if isinstance(s, ResBlock):
            out.extend(_flatten_specs(s.inner))
        else:
            out.append(s)
    return out


def _arch_specs(arch: str, input_shape, num_classes: int):
    if arch == "mlp-2x256":
        in_dim = int(np.prod(input_shape))
        return (Flatten(), Dense("fc1", in_dim, 256), Relu(),
                Dense("fc2", 256, 256), Relu(),
                Dense("fc3", 256, num_classes))
    if arch == "tiny-mlp":
        in_dim = int(np.prod(input_shape))
        return (Flatten(), Dense("fc1", in_dim, 2), Relu(),
                Dense("fc2", 2, num_classes))
    if arch == "lenet-conv4":
        c, h, w = input_shape
        fh, fw = h // 4, w // 4
        return (Conv("conv1", c, 8, 3), Relu(), AvgPool(2),
                Conv("conv2", 8, 16, 3), Relu(), AvgPool(2),
                Flatten(), Dense("fc1", 16 * fh * fw, 32), Relu(),
                Dense("fc2", 32, num_classes))
    if arch == "resnet-tiny":
        c, h, w = input_shape
        ch = 8
        blocks = []
        for i in range(3):
            blocks.append(ResBlock((
                Conv(f"b{i}c1", ch, ch, 3), BatchNorm(f"b{i}n1", ch), Relu(),
                Conv(f"b{i}c2", ch, ch, 3), BatchNorm(f"b{i}n2", ch),
            )))
        return (Conv("stem", c, ch, 3), BatchNorm("stemn", ch), Relu(),
                *blocks, GlobalAvgPool(), Dense("fc", ch, num_classes))
    raise ModelError(f"unknown architecture '{arch}'")


def default_input_shape(arch: str):
    if arch == "mlp-2x256":
        return (784,)
    if arch == "tiny-mlp":
        return (4,)
    return (1, 8, 8)


def default_num_classes(arch: str) -> int:
    if arch == "mlp-2x256":
        return 10
    if arch == "tiny-mlp":
        return 2
    return 4


def build_model(arch: str, seed: int, input_shape=None, num_classes=None) -> ModelState:
    """Deterministic Kaiming fan-in init; zero biases; unit/zero batch-norm."""
    if arch not in ARCHS:
        raise ModelError(f"unknown architecture '{arch}'")
    if input_shape is None:
        input_shape = default_input_shape(arch)
    if num_classes is None:
        num_classes = default_num_classes(arch)
    input_shape = tuple(input_shape)
    specs = _arch_specs(arch, input_shape, num_classes)
    rng = np.random.default_rng(np.random.SeedSequence([17, seed]))
    params: dict[str, np.ndarray] = {}
    maskable: list[tuple[str, int, int]] = []
    offset = 0
    for s in _flatten_specs(specs):
        if isinstance(s, Dense):
            fan_in = s.in_dim
            w = rng.standard_normal((s.in_dim, s.out_dim)) * np.sqrt(2.0 / fan_in)
            params[s.name + ".w"] = w
            params[s.name + ".b"] = np.zeros(s.out_dim)
            maskable.append((s.name + ".w", offset, w.size))
            offset += w.size
        elif isinstance(s, Conv):
            fan_in = s.in_ch * s.kernel * s.kernel
            w = rng.standard_normal((s.out_ch, s.in_ch, s.kernel, s.kernel)) * np.sqrt(2.0 / fan_in)
            params[s.name + ".w"] = w
            params[s.name + ".b"] = np.zeros(s.out_ch)
            maskable.append((s.name + ".w", offset, w.size))
            offset += w.size
        elif isinstance(s, BatchNorm):
            params[s.name + ".g"] = np.ones(s.ch)
            params[s.name + ".b"] = np.zeros(s.ch)
    return ModelState(arch, seed, input_shape, num_classes, specs, params, maskable)


# -- forward ----------------------------------------------------------------

def _run(specs, h: Tensor, params: dict[str, Tensor], features: list[Tensor] | None) -> Tensor:
    """``h`` through ``specs``; post-relu activations go to ``features``
    unless it is None. A dense, conv or batch-norm layer that a relu follows
    is one node with it (``relu=True``), and so is a residual block whose
    inner path ends in a batch norm: that batch norm takes the block's add
    and relu. Dense and conv layers add their bias in their node. A
    module-level function, so a pass closes over nothing and forms no
    reference cycle."""
    i = 0
    while i < len(specs):
        s = specs[i]
        i += 1
        fuse = (isinstance(s, (Dense, Conv, BatchNorm)) and i < len(specs)
                and isinstance(specs[i], Relu))
        if isinstance(s, Dense):
            h = T.matmul(h, params[s.name + ".w"], bias=params[s.name + ".b"], relu=fuse)
        elif isinstance(s, Conv):
            h = T.conv2d(h, params[s.name + ".w"], stride=s.stride, padding=s.padding,
                         bias=params[s.name + ".b"], relu=fuse)
        elif isinstance(s, BatchNorm):
            h = T.batch_norm(h, params[s.name + ".g"], params[s.name + ".b"], BN_EPS,
                             relu=fuse)
        elif isinstance(s, Relu):
            h = T.relu(h)
            if features is not None:
                features.append(h)
        elif isinstance(s, AvgPool):
            h = T.avg_pool2d(h, s.k)
        elif isinstance(s, GlobalAvgPool):
            h = T.mean(h, axis=(2, 3))
        elif isinstance(s, Flatten):
            h = T.reshape(h, (h.shape[0], int(np.prod(h.shape[1:]))))
        elif isinstance(s, ResBlock):
            last = s.inner[-1]
            if isinstance(last, BatchNorm):
                h = T.batch_norm(_run(s.inner[:-1], h, params, features),
                                 params[last.name + ".g"], params[last.name + ".b"], BN_EPS,
                                 skip=h, relu=True)
            else:
                h = T.relu(T.add(h, _run(s.inner, h, params, features)))
            if features is not None:
                features.append(h)
        else:
            raise ModelError(f"unknown spec {s}")
        if fuse:
            i += 1
            if features is not None:
                features.append(h)
    return h


def forward(model: ModelState, x: np.ndarray, y: np.ndarray | None = None,
            capture_features: bool = False,
            param_tensors: dict[str, Tensor] | None = None) -> ForwardTrace:
    """Run the network on ``x``; the loss is computed when ``y`` is given.

    ``param_tensors`` maps any subset of parameter names to the Tensors to
    use in their place, such as tracked leaves or a soft-masked weight;
    every other parameter is read from ``model.params``. Hard masks go
    through ``ModelState.masked`` instead. Each dense or conv layer is one
    ``tensor.matmul`` or ``tensor.conv2d`` node with its bias and the relu
    after it, so a dense → relu or conv → relu unit keeps one activation.
    Each batch norm is one ``tensor.batch_norm`` node with current-batch
    statistics, which also holds the relu after it or, at the end of a
    residual block, the block's add and relu; a conv → batch norm → relu
    unit so keeps two activations. Features are the post-relu activations,
    logits excluded. A pass forms no reference cycle, so its graph is freed
    with the last reference to the trace.
    """
    params = {k: Tensor(v) for k, v in model.params.items()}
    params.update(param_tensors or {})
    features: list[Tensor] = []
    x_arr = np.asarray(x, dtype=np.float64)
    logits = _run(model.specs, Tensor(x_arr), params, features if capture_features else None)
    loss = cross_entropy(logits, np.asarray(y)) if y is not None else Tensor(np.asarray(0.0))
    return ForwardTrace(logits=logits, features=features, loss=loss)


def evaluate(model: ModelState, x: np.ndarray, y: np.ndarray,
             batch_size: int = 256) -> tuple[float, float]:
    """Returns (accuracy, mean loss) over the given arrays."""
    correct = 0
    losses = []
    with T.no_grad():
        for i in range(0, len(x), batch_size):
            xb, yb = x[i:i + batch_size], y[i:i + batch_size]
            trace = forward(model, xb, yb)
            pred = np.argmax(trace.logits.data, axis=1)
            correct += int((pred == yb).sum())
            losses.append(trace.loss.item() * len(xb))
    return correct / len(x), float(np.sum(losses) / len(x))


def loss_grads(model: ModelState, x, y, leaves: dict[str, Tensor],
               create_graph: bool = False) -> list[Tensor]:
    """The loss gradient for each tracked Tensor in ``leaves`` (parameter
    name -> the Tensor ``forward`` uses in its place), in that order, in a
    graph of their own under ``create_graph``. Otherwise the pass's graph is
    local here and freed on return, before a caller builds the next one."""
    loss = forward(model, x, y, param_tensors=leaves).loss
    return T.backward(loss, list(leaves.values()), create_graph=create_graph)


def train(model: ModelState, data, cfg: TrainConfig, mask: np.ndarray | None = None,
          start_step: int = 0, stop_step: int | None = None) -> ModelState:
    """SGD with momentum and weight decay; masked entries stay exactly zero.

    The learning-rate schedule is indexed by global step, so a retrain that
    resumes at step k inherits the schedule position.

    Parameters, gradient and momentum are each one flat vector: the
    maskable weights first, in the d-vector layout of ``maskable_index``,
    then the biases and batch-norm parameters. Weight decay covers exactly
    the first d entries (dense and conv weights), and the mask multiplies
    them directly, so a step is a few whole-vector operations, each entry
    seeing the per-parameter update's operations in its order. The
    returned parameters are views into the trained vector; ``ModelState.copy``
    and ``masked`` copy them.
    """
    out = model.copy() if mask is None else model.masked(mask)
    stop = cfg.steps if stop_step is None else stop_step
    d = out.d
    maskable = [name for name, _, _ in out.maskable_index]
    layout = maskable + [n for n in out.params if n not in maskable]
    theta = np.concatenate([out.params[n].reshape(-1) for n in layout])
    views, off = {}, 0
    for n in layout:
        p = out.params[n]
        views[n] = theta[off:off + p.size].reshape(p.shape)
        off += p.size
    out.params = {n: views[n] for n in out.params}
    grad, momentum = np.empty_like(theta), np.zeros_like(theta)
    m = None if mask is None else np.asarray(mask).reshape(-1).astype(theta.dtype)

    bad_steps = 0
    for step in range(start_step, stop):
        xb, yb = data.batch(step, cfg.batch_size, cfg.seed)
        try:
            grads = loss_grads(out, xb, yb,
                               {n: Tensor(views[n], requires_grad=True) for n in layout})
            bad_steps = 0
        except T.NonFiniteError:
            bad_steps += 1
            if bad_steps >= 50:
                raise DivergenceError(f"non-finite loss for {bad_steps} consecutive steps")
            continue
        np.concatenate([g.data.reshape(-1) for g in grads], out=grad)
        lr = cfg.lr_at(step)
        if cfg.weight_decay:
            decay = cfg.weight_decay * theta[:d]
            if m is not None:
                decay *= m
            grad[:d] += decay
        if m is not None:
            grad[:d] *= m
        momentum *= cfg.momentum
        momentum += grad
        theta -= lr * momentum
        if m is not None:
            theta[:d] *= m
    return out

