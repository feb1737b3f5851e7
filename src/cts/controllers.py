"""Sparsity controllers for the mask search: one step, two lambda rules.

Every step takes one soft-mask sample, the objective's logit gradient g_obj
and the sparsity-constraint gradient g_sp at the state's ``kappa_eff`` (the
analytic closed form over the logits, never routed through the network
graph), and hands g_obj + lambda·g_sp to Adam. The controllers differ only in
``kappa_eff`` and in their rule for lambda:

- ``lagrange`` (dual ascent) applies the current lambda, then moves it by
  ``lambda_lr`` times the constraint value. lambda is not projected onto
  lambda >= 0, so it is the dual of an equality constraint.
- ``gradbalance`` constrains the slackened ``kappa_eff`` = min(1.1·kappa, 1).
  It first smooths lambda toward ||g_obj|| / ||g_sp|| while that constraint
  is violated, and toward 0 once it is met, then applies the smoothed value.

The logit optimizer is Adam with a step-indexed learning-rate schedule (a
10x drop at 90% of the search by default).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import objectives as obj
from .mask import (MaskDistribution, sample_logistic, sparsity_loss,
                   sparsity_loss_grad)
from .models import ModelState, StepSchedule

MODES = ("lagrange", "gradbalance")
GRADBALANCE_KAPPA_SLACK = 1.1
ETA_DEFAULT = 0.99
LAMBDA_LR_DEFAULT = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class ControllerError(Exception):
    pass


@dataclass
class ControllerState:
    mode: str  # one of MODES
    kappa: float
    lam: float = 0.0
    eta: float = ETA_DEFAULT
    lambda_lr: float = LAMBDA_LR_DEFAULT

    def __post_init__(self):
        if self.mode not in MODES:
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
    buf = np.multiply(g_alpha, 1 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += buf
    np.multiply(g_alpha, 1 - ADAM_BETA2, out=buf)
    buf *= g_alpha
    v *= ADAM_BETA2
    v += buf
    np.divide(v, 1 - ADAM_BETA2 ** t, out=buf)
    np.sqrt(buf, out=buf)
    buf += ADAM_EPS
    step = np.divide(m, 1 - ADAM_BETA1 ** t)
    step *= lr
    step /= buf
    dist.logits = np.subtract(dist.logits, step, out=step)
    return dist


def gradbalance_step(model: ModelState, dist: MaskDistribution, state: ControllerState,
                     batch, objective: str,
                     rng: np.random.Generator) -> tuple[np.ndarray, float, float, float]:
    """One controller step under ``state.mode``: returns (g_alpha, lambda
    applied, objective value, constraint value) and writes the next lambda
    into ``state.lam``.

    The one step of both controllers keeps GradBalance's name because
    perfbench's ``controllers.step`` span wraps ``gradbalance_step``; the
    noise draw and the constraint gradient are looked up as this module's
    globals for its ``mask.sample`` and ``mask.sparsity_grad`` spans.
    """
    x, y = batch
    eps = sample_logistic(rng, dist.d)
    r_val, g_obj = obj.value_and_alpha_grad(objective, model, x, y,
                                            dist.logits, eps, dist.tau)
    kappa_eff = state.kappa_eff
    ls = sparsity_loss(dist, kappa_eff)
    g_sp = sparsity_loss_grad(dist, kappa_eff)
    if state.mode == "lagrange":
        lam = state.lam
        state.lam = lam + state.lambda_lr * ls
    else:
        lam_target = 0.0
        if ls > 0:
            sp_norm = float(np.linalg.norm(g_sp))
            if sp_norm < 1e-12:
                warnings.warn("degenerate constraint gradient; lambda target set to 0")
            else:
                lam_target = float(np.linalg.norm(g_obj)) / sp_norm
        lam = state.lam = state.eta * state.lam + (1 - state.eta) * lam_target
    g_alpha = g_obj + lam * g_sp
    return g_alpha, lam, r_val, ls
