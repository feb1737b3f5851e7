"""Comparator pruners and the layerwise mask shuffle of the sanity checks.

Includes the saliency family (SNIP, GraSP, SynFlow), magnitude and random
pruning, and the iterative train/prune/rewind loop.
"""

from __future__ import annotations

import numpy as np

from . import objectives as obj
from . import tensor as T
from .data import Dataset
from .mask import Ticket, ticket_size, topk_mask
from .models import BatchNorm, ModelState, ResBlock, TrainConfig, forward, train
from .search import rewind_point

SALIENCY_BATCH_FACTOR = 10  # scoring batch is 10x the training batch size
LTR_PRUNE_FRACTION = 0.2  # of the surviving weights, per round (Frankle et al., 2020)


class BaselineError(Exception):
    pass


def snip_scores(model: ModelState, batch) -> np.ndarray:
    """|dL/dtheta * theta| over the maskable entries."""
    x, y = batch
    g = np.concatenate([g.reshape(-1) for g in obj.teacher_layer_grads(model, x, y)])
    theta = model.maskable_vector()
    return np.abs(g * theta)


def grasp_scores(model: ModelState, batch) -> np.ndarray:
    """-(H g) * theta, with the Hessian-vector product Hg by double-backward."""
    x, y = batch
    leaves = obj.maskable_leaves(model)
    grads = obj.loss_grads(model, x, y, leaves, create_graph=True)
    g_dot_g = sum(T.sum_(T.mul(g, g.detach())) for g in grads)
    hg = np.concatenate([h.data.reshape(-1) for h in T.backward(g_dot_g, list(leaves.values()))])
    return -(hg * model.maskable_vector())


def _synflow_surrogate_scores(model: ModelState, mask_vec: np.ndarray) -> np.ndarray:
    """d(sum of outputs)/d|theta| * |theta| on the all-positive network.

    Parameters are replaced by |theta| (masked), the input is all ones, and
    batch-norm layers are bypassed. Relu is kept; it is the identity on the
    resulting all-positive activations.
    """
    abs_model = model.masked(mask_vec)
    for name, p in abs_model.params.items():
        abs_model.params[name] = np.abs(p)
    specs = tuple(_strip_batchnorm(abs_model.specs))
    abs_model.specs = specs
    x = np.ones((1,) + abs_model.input_shape)
    leaves = obj.maskable_leaves(abs_model)
    total = T.sum_(forward(abs_model, x, param_tensors=leaves).logits)
    g = np.concatenate([h.data.reshape(-1) for h in T.backward(total, list(leaves.values()))])
    return g * abs_model.maskable_vector()


def _strip_batchnorm(specs):
    out = []
    for s in specs:
        if isinstance(s, BatchNorm):
            continue
        if isinstance(s, ResBlock):
            out.append(ResBlock(tuple(_strip_batchnorm(s.inner))))
        else:
            out.append(s)
    return out


def synflow_prune(model: ModelState, kappa: float, iterations: int = 100) -> Ticket:
    """Iterative flow-preserving pruning on an exponential density schedule."""
    if not 0 < kappa <= 1:  # checked here: a negative kappa gives a complex power below
        raise BaselineError(f"kappa must be in (0, 1], got {kappa}")
    mask = np.ones(model.d, dtype=np.int64)
    if kappa < 1.0:
        for t in range(1, iterations + 1):
            scores = _synflow_surrogate_scores(model, mask)
            mask = topk_mask(np.where(mask == 0, -np.inf, scores), kappa ** (t / iterations))
            _check_layer_collapse(model, mask)
    return Ticket(mask=mask, layout=model.maskable_layout())


def _check_layer_collapse(model: ModelState, mask: np.ndarray) -> None:
    for name, off, sz in model.maskable_index:
        if not np.any(mask[off:off + sz]):
            raise BaselineError(f"layer collapse: '{name}' fully pruned")


def prune_by_scores(scores: np.ndarray, kappa: float, layout=()) -> Ticket:
    """Keep the top round(kappa*d) entries by score."""
    return Ticket(mask=topk_mask(scores, kappa), layout=list(layout))


def magnitude_prune(model: ModelState, kappa: float) -> Ticket:
    return prune_by_scores(np.abs(model.maskable_vector()), kappa, model.maskable_layout())


def random_prune(d: int, kappa: float, seed: int, layout=()) -> Ticket:
    n = ticket_size(kappa, d)
    rng = np.random.default_rng(np.random.SeedSequence([43, seed]))
    mask = np.zeros(d, dtype=np.int64)
    mask[rng.choice(d, size=n, replace=False)] = 1
    return Ticket(mask=mask, layout=list(layout))


def run_ltr(arch: str, data: Dataset, train_cfg: TrainConfig, kappa: float):
    """Iterative magnitude pruning with rewinding (Frankle et al., 2020) to a
    ticket of exactly ``ticket_size(kappa, d)`` weights.

    Round r trains the masked network from the rewind point k to step T and
    keeps the largest surviving weights by final magnitude, max(0.8^r, kappa)
    of d; survivors rewind to their step-k values. The rounds stop once the
    mask holds the ticket's size, and the ticket is retrained from k.
    Returns the ticket, its retrained model, the rewind point and the
    per-round ``(ticket, trained model)`` list.
    """
    model_k = rewind_point(arch, train_cfg.seed, data, train_cfg, kappa)
    k, n = train_cfg.rewind_step, ticket_size(kappa, model_k.d)
    layout = model_k.maskable_layout()

    results, r = [], 0
    mask = np.ones(model_k.d, dtype=np.int64)
    while mask.sum() > n:
        r += 1
        # train() starts from a copy of model_k with the pruned weights zeroed
        final = train(model_k, data, train_cfg, mask=mask, start_step=k)
        magnitudes = np.abs(final.maskable_vector())
        keep = max((1 - LTR_PRUNE_FRACTION) ** r, kappa)
        mask = topk_mask(np.where(mask == 0, -np.inf, magnitudes), keep)
        results.append((Ticket(mask=mask, layout=layout), final))
    final = train(model_k, data, train_cfg, mask=mask, start_step=k)
    return Ticket(mask=mask, layout=layout), final, model_k, results


def shuffle_layerwise(ticket: Ticket, seed: int) -> Ticket:
    """Permute the mask bits within each layer, so per-layer density is exact."""
    if not ticket.layout:
        raise BaselineError("shuffle needs a ticket with a layer layout")
    rng = np.random.default_rng(np.random.SeedSequence([47, seed]))
    new_mask = ticket.mask.copy()
    off = 0
    for _, sz in ticket.layout:
        seg = new_mask[off:off + sz]
        new_mask[off:off + sz] = rng.permutation(seg)
        off += sz
    return Ticket(mask=new_mask, layout=list(ticket.layout))
