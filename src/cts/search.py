"""End-to-end ticket search: pre-train, freeze, search, clamp, retrain.

The run is fully deterministic given the config seeds: model init, training
batches, search batches and Concrete noise all derive from counter-based
seed sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import controllers as ctl
from . import mask as mk
from . import objectives as obj
from .data import Dataset
from .models import ModelState, TrainConfig, build_model, train


class SearchError(Exception):
    pass


@dataclass
class SearchConfig:
    kappa: float = 0.05
    tau: float = mk.TAU_DEFAULT
    steps: int = 1000              # S
    objective: str = "kl"
    controller: str = "gradbalance"
    eta: float = ctl.ETA_DEFAULT
    lambda_lr: float = ctl.LAMBDA_LR_DEFAULT
    alpha_lr: float = 0.1
    batch_size: int = 64
    seed_init: int = 0
    seed_search: int = 1
    seed_train: int = 2

    def __post_init__(self):
        if self.steps <= 0:
            raise SearchError("search step count must be positive")
        if self.batch_size <= 0:
            raise SearchError(f"search batch_size must be positive, got {self.batch_size}")
        if not self.alpha_lr > 0:
            raise SearchError(f"alpha_lr must be positive, got {self.alpha_lr}")
        if not self.lambda_lr > 0:
            raise SearchError(f"lambda_lr must be positive, got {self.lambda_lr}")
        for name in ("seed_init", "seed_search", "seed_train"):
            if getattr(self, name) < 0:
                raise SearchError(f"{name} must be >= 0, got {getattr(self, name)}")
        try:  # the rules the search applies when it starts, checked up front
            obj.get_kind(self.objective)
            mk.init_distribution(1, self.kappa, self.tau)
            ctl.ControllerState(mode=self.controller, kappa=self.kappa, eta=self.eta)
        except (obj.ObjectiveError, mk.MaskError, ctl.ControllerError) as e:
            raise SearchError(str(e)) from e

    @property
    def effective_steps(self) -> int:
        # an alias of ``steps`` that the benchmark still reads; it goes
        # together with ``seed_train`` in the next benchmark change
        return self.steps


@dataclass
class SearchMetrics:
    steps: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    expected_density: list[float] = field(default_factory=list)
    lam: list[float] = field(default_factory=list)
    overshoot_violations: int = 0

    def rows(self):
        return list(zip(self.steps, self.objective, self.expected_density, self.lam))


def search_phase(model: ModelState, cfg: SearchConfig, data: Dataset) -> tuple[mk.MaskDistribution, SearchMetrics]:
    """Optimize the mask distribution over frozen weights.

    Returns the final distribution and the per-step trace. The overshoot
    counter tracks expected density exceeding 1.1 * kappa_eff after its first
    downward crossing of kappa_eff.
    """
    theta_before = model.maskable_vector().copy()
    dist = mk.init_distribution(model.d, cfg.kappa, cfg.tau, layout=model.maskable_layout())
    state = ctl.ControllerState(mode=cfg.controller, kappa=cfg.kappa,
                                eta=cfg.eta, lambda_lr=cfg.lambda_lr)
    adam = ctl.search_adam(model.d, cfg.steps, lr=cfg.alpha_lr)
    metrics = SearchMetrics()

    crossed_down = False
    was_above = mk.expected_density(dist) > state.kappa_eff
    for step in range(cfg.steps):
        xb, yb = data.batch(step, cfg.batch_size, cfg.seed_search)
        rng = mk.step_rng(cfg.seed_search, step, stream=1)
        g_alpha, _, r_val, _ = ctl.gradbalance_step(model, dist, state, (xb, yb),
                                                   cfg.objective, rng)
        ctl.adam_update(dist, g_alpha, adam)

        ed = mk.expected_density(dist)
        if was_above and ed <= state.kappa_eff:
            crossed_down = True
        was_above = ed > state.kappa_eff
        if crossed_down and ed > state.kappa_eff * 1.10:
            metrics.overshoot_violations += 1

        metrics.steps.append(step)
        metrics.objective.append(r_val)
        metrics.expected_density.append(ed)
        metrics.lam.append(state.lam)

    if not np.array_equal(theta_before, model.maskable_vector()):
        raise SearchError("frozen weights were mutated during search")
    return dist, metrics


def rewind_point(arch: str, seed: int, data: Dataset, train_cfg: TrainConfig,
                 kappa: float) -> ModelState:
    """The model every method draws its ticket from: ``arch`` built from
    ``seed`` and trained to the rewind step k. A kappa that leaves an empty
    ticket raises ``MaskError`` before any training."""
    model0 = build_model(arch, seed, data.input_shape, data.num_classes)
    mk.ticket_size(kappa, model0.d)
    return train(model0, data, train_cfg, stop_step=train_cfg.rewind_step)


def run_cts(cfg: SearchConfig, arch: str, data: Dataset,
            train_cfg: TrainConfig) -> tuple[mk.Ticket, ModelState, dict]:
    """Full pipeline (k-step pre-train, search, clamp, masked retrain).

    Returns the ticket, the retrained model, and a metrics dict holding the
    per-step search trace plus what downstream ablations score against: the
    rewound state and its ``teacher_pass`` on the eval batch of
    ``seed_search``. A kappa that leaves an empty ticket raises ``MaskError``
    before any training.
    """
    model_k = rewind_point(arch, cfg.seed_init, data, train_cfg, cfg.kappa)
    dist, metrics = search_phase(model_k, cfg, data)
    ticket = mk.clamp_topk(dist, cfg.kappa)

    eval_x, eval_y = data.eval_batch(seed=cfg.seed_search)
    teacher = obj.teacher_pass(cfg.objective, model_k, eval_x, eval_y)
    objective_at_draw = obj.hard_value(cfg.objective, model_k, eval_x, eval_y, ticket.mask,
                                       teacher=teacher)

    final = train(model_k, data, train_cfg, mask=ticket.mask, start_step=train_cfg.rewind_step)
    info = {
        "search": metrics,
        "distribution": dist,
        "rewind_model": model_k,
        "teacher": teacher,
        "objective_at_draw": objective_at_draw,
        "expected_density_end": metrics.expected_density[-1],
    }
    return ticket, final, info
