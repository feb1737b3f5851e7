"""Sparsity controllers for the mask search: Lagrange dual and GradBalance.

Both take one soft-mask sample per step. The sparsity-constraint gradient is
always the analytic closed form over the logits, never routed through the
network graph. The logit optimizer is Adam with a step-indexed learning-rate
schedule (a 10x drop at 90% of the search by default).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import objectives as obj
from .mask import (MaskDistribution, sample_logistic, sparsity_loss,
                   sparsity_loss_grad)
from .models import ModelState, StepSchedule

GRADBALANCE_KAPPA_SLACK = 1.1
ETA_DEFAULT = 0.99
LAMBDA_LR_DEFAULT = 0.01


class ControllerError(Exception):
    pass


@dataclass
class ControllerState:
    mode: str  # "lagrange" | "gradbalance"
    kappa: float
    lam: float = 0.0
    eta: float = ETA_DEFAULT
    lambda_lr: float = LAMBDA_LR_DEFAULT

    def __post_init__(self):
        if self.mode not in ("lagrange", "gradbalance"):
            raise ControllerError(f"unknown controller mode '{self.mode}'")
        if not 0 <= self.eta < 1:
            raise ControllerError("eta must be in [0, 1)")

    @property
    def kappa_eff(self) -> float:
        if self.mode == "gradbalance":
            return min(GRADBALANCE_KAPPA_SLACK * self.kappa, 1.0)
        return self.kappa


@dataclass
class AdamState(StepSchedule):
    d: int
    lr: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_drops: tuple = ()  # ((step, factor), ...)
    step: int = 0
    m: np.ndarray = field(default=None)
    v: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.m is None:
            self.m = np.zeros(self.d)
        if self.v is None:
            self.v = np.zeros(self.d)


def search_adam(d: int, total_steps: int, lr: float = 0.1) -> AdamState:
    """Adam with the default schedule: 10x drop at 90% of the search steps."""
    drop = int(np.floor(0.9 * total_steps))
    return AdamState(d=d, lr=lr, lr_drops=((drop, 0.1),))


def adam_update(dist: MaskDistribution, g_alpha: np.ndarray, adam: AdamState) -> MaskDistribution:
    """Standard bias-corrected Adam step on the logits (no weight decay).

    ``m`` and ``v`` are updated in place, by the operations of
    m = b1·m + (1 − b1)·g, v = b2·v + (1 − b2)·g·g and
    logits − lr·m̂ / (√v̂ + eps) in their order, through one scratch buffer.
    ``dist.logits`` becomes a new array: ``MaskDistribution.alpha`` is
    cached on the logits array's identity.
    """
    if g_alpha.size != dist.d:
        raise ControllerError(f"gradient length {g_alpha.size} != d={dist.d}")
    lr = adam.lr_at(adam.step)
    adam.step += 1
    t = adam.step
    m, v = adam.m, adam.v
    buf = np.multiply(g_alpha, 1 - adam.beta1)
    m *= adam.beta1
    m += buf
    np.multiply(g_alpha, 1 - adam.beta2, out=buf)
    buf *= g_alpha
    v *= adam.beta2
    v += buf
    np.divide(v, 1 - adam.beta2 ** t, out=buf)
    np.sqrt(buf, out=buf)
    buf += adam.eps
    step = np.divide(m, 1 - adam.beta1 ** t)
    step *= lr
    step /= buf
    dist.logits = np.subtract(dist.logits, step, out=step)
    return dist


def lagrange_step(model: ModelState, dist: MaskDistribution, state: ControllerState,
                  batch, objective: str,
                  rng: np.random.Generator) -> tuple[np.ndarray, float, float, float]:
    """One dual step: returns (g_alpha, g_lambda).

    g_lambda is the negated constraint value, so a plain descent step on
    lambda performs ascent on the dual.
    """
    if state.mode != "lagrange":
        raise ControllerError("controller state is not in lagrange mode")
    x, y = batch
    eps = sample_logistic(rng, dist.d)
    r_val, g_obj = obj.value_and_alpha_grad(objective, model, x, y,
                                            dist.logits, eps, dist.tau)
    ls = sparsity_loss(dist, state.kappa)
    g_sp = sparsity_loss_grad(dist, state.kappa)
    g_alpha = g_obj + state.lam * g_sp
    g_lambda = -ls
    return g_alpha, g_lambda, r_val, ls


def gradbalance_step(model: ModelState, dist: MaskDistribution, state: ControllerState,
                     batch, objective: str,
                     rng: np.random.Generator) -> tuple[np.ndarray, float, float, float]:
    """One GradBalance step: returns (g_alpha, updated lambda).

    lambda is smoothed toward ||g_objective|| / ||g_sparsity|| while the
    constraint is violated and toward 0 once it is met; the smoothed value
    is the one applied this step.
    """
    if state.mode != "gradbalance":
        raise ControllerError("controller state is not in gradbalance mode")
    x, y = batch
    eps = sample_logistic(rng, dist.d)
    r_val, g_obj = obj.value_and_alpha_grad(objective, model, x, y,
                                            dist.logits, eps, dist.tau)
    kappa_eff = state.kappa_eff
    ls = sparsity_loss(dist, kappa_eff)
    g_sp = sparsity_loss_grad(dist, kappa_eff)
    if ls > 0:
        sp_norm = float(np.linalg.norm(g_sp))
        if sp_norm < 1e-12:
            warnings.warn("degenerate constraint gradient; lambda target set to 0")
            lam_target = 0.0
        else:
            lam_target = float(np.linalg.norm(g_obj)) / sp_norm
    else:
        lam_target = 0.0
    lam = state.eta * state.lam + (1 - state.eta) * lam_target
    g_alpha = g_obj + lam * g_sp
    return g_alpha, lam, r_val, ls
