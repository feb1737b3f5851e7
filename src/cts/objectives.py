"""Differentiable pruning objectives over (masked student, dense teacher) pairs.

Tags: loss, dloss, gradnorm, kl, feature, grad. What an objective reads of
the dense teacher on a batch is ``teacher_pass``: a no-grad trace (dloss, kl,
feature), the per-layer loss gradients (grad) or nothing (loss, gradnorm).
It is computed outside the gradient graph, and a caller that scores several
masks on one batch computes it once and hands it to each score. The two
gradient-based objectives (gradnorm, grad) are functions of the student's
loss gradient; that gradient is built in-graph, so the search differentiates
it again (double-backward) on every architecture. The graph is
differentiated w.r.t. the soft mask, one leaf per maskable layer, and the
chain to the mask logits is applied analytically. A hard mask is scored by
the same code on the masked copy of the weights (``hard_value``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .mask import soft_mask
from .models import ForwardTrace, ModelState, forward, loss_grads
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
    xc = x - T.mean(x)
    return T.mul(xc, T.power(T.mean(T.mul(xc, xc)) + NORM_DELTA, -0.5))


def mse(a: Tensor, b: Tensor) -> Tensor:
    diff = a - b
    return T.mean(T.mul(diff, diff))


# -- the six objectives, on traces / gradient lists ---------------------------

def rel_loss_change(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    t = teacher.loss.item()
    if t < 1e-12:
        raise ObjectiveError("degenerate teacher loss (< 1e-12)")
    return T.absolute(student.loss * (1.0 / t) - 1.0)


def reverse_kl(student: ForwardTrace, teacher: ForwardTrace) -> Tensor:
    """Batch-mean KL(student || teacher) over softmax outputs, in log space,
    as one ``tensor.softmax_kl`` node on the student's logits: bit for bit
    the value and first-order gradient of mean(Σ p_s · (log p_s − log p_t)).
    It has no second derivative; no objective takes one."""
    return T.softmax_kl(student.logits, teacher.logits.data)


def layer_match(student: list[Tensor], teacher: list[np.ndarray]) -> Tensor:
    """Layer mean of mse(normalize(s), normalize(t)): the feature objective
    on each layer's output, the grad objective on each layer's loss gradient."""
    if len(student) != len(teacher):
        raise ObjectiveError(f"layer count mismatch: {len(student)} vs {len(teacher)}")
    terms = [mse(normalize(s), normalize(Tensor(t))) for s, t in zip(student, teacher)]
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


def maskable_leaves(model: ModelState) -> dict[str, Tensor]:
    """A fresh tracked leaf on each maskable weight, by parameter name."""
    return {name: Tensor(model.params[name], requires_grad=True)
            for name, _, _ in model.maskable_index}


def teacher_layer_grads(model: ModelState, x, y) -> list[np.ndarray]:
    """Per-layer loss gradients w.r.t. the maskable weights, as arrays."""
    return [g.data for g in loss_grads(model, x, y, maskable_leaves(model))]


def teacher_pass(tag: str, model: ModelState, x, y) -> ForwardTrace | list[np.ndarray] | None:
    """What objective ``tag`` reads of the dense ``model`` on (x, y): the
    no-grad trace (dloss, kl, feature), the per-layer loss gradients (grad),
    or None (loss, gradnorm)."""
    kind = get_kind(tag)
    if not kind.needs_teacher:
        return None
    if kind.needs_student_grads:
        return teacher_layer_grads(model, x, y)
    with T.no_grad():
        return forward(model, x, y if tag == "dloss" else None,
                       capture_features=tag == "feature")


# -- unified evaluation --------------------------------------------------------

def evaluate(tag: str, model: ModelState, x, y, overlay: list[Tensor] | None = None,
             teacher=None) -> Tensor:
    """Objective value of ``model`` under ``overlay``, as a (possibly tracked)
    scalar, against ``teacher``: the ``teacher_pass`` of the dense model on
    (x, y), computed here from ``model`` itself when the caller has none.

    ``overlay`` holds one Tensor per maskable layer in the weight's shape
    (``ModelState.layer_views`` of a soft mask); ``forward`` gets each weight
    times its piece through ``param_tensors``. A hard mask is applied
    beforehand by ``ModelState.masked``. gradnorm and grad take the student
    gradient from ``loss_grads``, in-graph under a tracked overlay.
    """
    kind = get_kind(tag)
    if teacher is None:
        teacher = teacher_pass(tag, model, x, y)
    weights = {} if overlay is None else {
        name: T.mul(Tensor(model.params[name]), piece)
        for (name, _, _), piece in zip(model.maskable_index, overlay, strict=True)}
    if not kind.needs_student_grads:
        student = forward(model, x, y if tag in ("loss", "dloss") else None,
                          capture_features=tag == "feature", param_tensors=weights)
        if tag == "loss":
            return student.loss
        if tag == "dloss":
            return rel_loss_change(student, teacher)
        if tag == "kl":
            return reverse_kl(student, teacher)
        return layer_match(student.features, [f.data for f in teacher.features])

    if overlay is None:
        grads = [Tensor(g) for g in teacher_layer_grads(model, x, y)]
    elif all(w.requires_grad for w in weights.values()):
        grads = loss_grads(model, x, y, weights, create_graph=True)
    else:
        raise ObjectiveError(f"'{tag}' needs a tracked soft-mask overlay; "
                             "use hard_value for a hard mask")
    if tag == "gradnorm":
        return neg_grad_norm(grads)
    return layer_match(grads, teacher)


def value_and_alpha_grad(tag: str, model: ModelState, x, y,
                         logits: np.ndarray, eps: np.ndarray,
                         tau: float) -> tuple[float, np.ndarray]:
    """Objective value plus its gradient w.r.t. the mask logits.

    One soft-mask sample s = sigmoid((logits + eps) / tau) with fixed noise
    eps. The graph starts at one leaf per layer, that layer's piece of s;
    the chain ds/dlogits = s (1 - s) / tau is applied here in closed form.
    """
    s = soft_mask(logits, eps, tau)
    leaves = [Tensor(piece, requires_grad=True) for piece in model.layer_views(s)]
    r = evaluate(tag, model, x, y, overlay=leaves)
    # + 0.0 turns the -0.0 of a zero gradient at a negative weight into +0.0,
    # so that every zero entry of the result has the same sign
    g = np.concatenate([gi.data.reshape(-1) for gi in T.backward(r, leaves)]) + 0.0
    return r.item(), g * (s * (1.0 - s)) * (1.0 / tau)


def hard_value(tag: str, model: ModelState, x, y, mask_vec: np.ndarray,
               teacher=None) -> float:
    """Objective value under a hard binary mask (no Concrete noise), against
    ``teacher``, the ``teacher_pass`` of ``model`` on (x, y) when the caller
    already has it; a caller scoring several masks on one batch passes it to
    each."""
    if teacher is None:
        teacher = teacher_pass(tag, model, x, y)
    return evaluate(tag, model.masked(mask_vec), x, y, teacher=teacher).item()
