"""Differentiable pruning objectives over (masked student, dense teacher) pairs.

Tags: loss, dloss, gradnorm, kl, feature, grad. The teacher pass is always
evaluated outside the gradient graph. The two gradient-based objectives
(gradnorm, grad) are functions of the student's loss gradient; that gradient
is built in-graph, so the search differentiates it again (double-backward)
on every architecture. The graph is differentiated w.r.t. the soft mask, and
the chain to the mask logits is applied analytically. A hard mask is scored
by the same code on the masked copy of the weights (``hard_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mask import soft_mask
from .models import ForwardTrace, ModelState, forward
from .tensor import Tensor

NORM_DELTA = 1e-5


class ObjectiveError(Exception):
    pass


@dataclass(frozen=True)
class ObjectiveKind:
    tag: str
    needs_teacher: bool
    needs_student_grads: bool


OBJECTIVES = {
    "loss": ObjectiveKind("loss", needs_teacher=False, needs_student_grads=False),
    "dloss": ObjectiveKind("dloss", needs_teacher=True, needs_student_grads=False),
    "gradnorm": ObjectiveKind("gradnorm", needs_teacher=False, needs_student_grads=True),
    "kl": ObjectiveKind("kl", needs_teacher=True, needs_student_grads=False),
    "feature": ObjectiveKind("feature", needs_teacher=True, needs_student_grads=False),
    "grad": ObjectiveKind("grad", needs_teacher=True, needs_student_grads=True),
}


def get_kind(tag: str) -> ObjectiveKind:
    if tag not in OBJECTIVES:
        raise ObjectiveError(f"unknown objective tag '{tag}' (choose from {sorted(OBJECTIVES)})")
    return OBJECTIVES[tag]


def normalize(x: Tensor) -> Tensor:
    """(x - mean) / sqrt(var + delta), statistics over the whole tensor."""
    mu = T.mean(x)
    xc = x - T.broadcast_to(T.reshape(mu, (1,) * x.data.ndim), x.shape)
    var = T.mean(T.mul(xc, xc))
    inv = T.power(var + NORM_DELTA, -0.5)
    return T.mul(xc, T.broadcast_to(T.reshape(inv, (1,) * x.data.ndim), x.shape))


def mse(a: Tensor, b: Tensor) -> Tensor:
    diff = a - b
    return T.mean(T.mul(diff, diff))


# -- the six objectives, on traces / gradient lists ---------------------------

def task_loss(student: ForwardTrace) -> Tensor:
    return student.loss


def rel_loss_change(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    t = teacher.loss.item()
    if t < 1e-12:
        raise ObjectiveError("degenerate teacher loss (< 1e-12)")
    return T.absolute(student.loss * (1.0 / t) - 1.0)


def reverse_kl(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    """Batch-mean KL(student || teacher) over softmax outputs, in log space."""
    logp_s = T.log_softmax(student.logits, axis=-1)
    logp_t = T.log_softmax(teacher.logits.detach(), axis=-1)
    p_s = T.exp(logp_s)
    per_example = T.sum_(T.mul(p_s, logp_s - logp_t), axis=-1)
    return T.mean(per_example)


def feature_match(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    if len(student.features) != len(teacher.features):
        raise ObjectiveError(
            f"feature layer count mismatch: {len(student.features)} vs {len(teacher.features)}")
    terms = [mse(normalize(fs), normalize(Tensor(ft.data)))
             for fs, ft in zip(student.features, teacher.features)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return T.mul(total, 1.0 / len(terms))


def neg_grad_norm(student_grads: list[Tensor]) -> Tensor:
    flat = T.concat([T.reshape(g, (g.size,)) for g in student_grads])
    if not np.any(flat.data):
        # -||g|| has no derivative at g = 0, where sqrt's vjp is infinite;
        # -sum(g^2) has the same value there and gradient 0, a supergradient
        return T.neg(T.sum_(T.mul(flat, flat)))
    return T.neg(T.l2_norm(flat))


def grad_match(student_grads: list[Tensor], teacher_grads: list[np.ndarray]) -> Tensor:
    if len(student_grads) != len(teacher_grads):
        raise ObjectiveError("gradient layer count mismatch")
    terms = [mse(normalize(gs), normalize(Tensor(gt)))
             for gs, gt in zip(student_grads, teacher_grads)]
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return T.mul(total, 1.0 / len(terms))


def _teacher_trace(model: ModelState, x, y, capture: bool) -> ForwardTrace:
    with T.no_grad():
        return forward(model, x, y, capture_features=capture)


def teacher_layer_grads(model: ModelState, x, y) -> list[np.ndarray]:
    """Per-layer loss gradients w.r.t. the maskable weights."""
    names = [name for name, _, _ in model.maskable_index]
    leaves = {k: Tensor(v, requires_grad=k in names) for k, v in model.params.items()}
    trace = forward(model, x, y, param_tensors=leaves)
    wrt = [leaves[name] for name in names]
    gmap = T.backward(trace.loss, wrt=wrt)
    return [gmap[id(t)].data for t in wrt]


# -- unified evaluation --------------------------------------------------------

def evaluate(tag: str, model: ModelState, x, y, overlay=None,
             dense: ModelState | None = None) -> Tensor:
    """Objective value of ``model`` under ``overlay``, against the teacher
    ``dense`` (default: ``model`` itself), as a (possibly tracked) scalar.

    ``overlay`` is a tracked soft-mask Tensor, a fixed vector, or None; a
    hard mask is applied beforehand by ``ModelState.masked``. gradnorm and
    grad build the student gradient by an in-graph backward under a tracked
    overlay and take it from ``teacher_layer_grads`` under None.
    """
    kind = get_kind(tag)
    dense = model if dense is None else dense
    capture = tag == "feature"
    if not kind.needs_student_grads:
        teacher = _teacher_trace(dense, x, y, capture) if kind.needs_teacher else None
        student = forward(model, x, y, overlay=overlay, capture_features=capture)
        if tag == "loss":
            return task_loss(student)
        if tag == "dloss":
            return rel_loss_change(student, teacher)
        if tag == "kl":
            return reverse_kl(student, teacher)
        return feature_match(student, teacher)

    if overlay is None:
        grads = [Tensor(g) for g in teacher_layer_grads(model, x, y)]
    elif isinstance(overlay, Tensor) and overlay.requires_grad:
        effective: dict[str, Tensor] = {}
        student = forward(model, x, y, overlay=overlay, capture_features=False,
                          effective_out=effective)
        eff_list = [effective[name] for name, _, _ in model.maskable_index]
        grads = T.grad(student.loss, eff_list, create_graph=True)
    else:
        raise ObjectiveError(f"'{tag}' needs a tracked soft-mask overlay; "
                             "use hard_value for a hard mask")
    if tag == "gradnorm":
        return neg_grad_norm(grads)
    return grad_match(grads, teacher_layer_grads(dense, x, y))


def value_and_alpha_grad(tag: str, model: ModelState, x, y,
                         logits: np.ndarray, eps: np.ndarray,
                         tau: float) -> tuple[float, np.ndarray]:
    """Objective value plus its gradient w.r.t. the mask logits.

    One soft-mask sample s = sigmoid((logits + eps) / tau) with fixed noise
    eps. The graph starts at s; the chain ds/dlogits = s (1 - s) / tau is
    applied here in closed form.
    """
    s = soft_mask(logits, eps, tau)
    leaf = Tensor(s, requires_grad=True)
    r = evaluate(tag, model, x, y, overlay=leaf)
    (g,) = T.grad(r, [leaf])
    return r.item(), g.data * (s * (1.0 - s)) * (1.0 / tau)


def hard_value(tag: str, model: ModelState, x, y, mask_vec: np.ndarray) -> float:
    """Objective value under a hard binary mask (no Concrete noise)."""
    return evaluate(tag, model.masked(mask_vec), x, y, dense=model).item()
