"""Concrete ticket search: differentiable pruning-mask search over frozen nets."""

from .baselines import (LtrConfig, grasp_scores, magnitude_prune,
                        noisy_overlay_scores, prune_by_scores, random_prune,
                        run_ltr, sanity_ablate, snip_scores, synflow_prune)
from .controllers import AdamState, ControllerState, gradbalance_step, lagrange_step
from .data import Dataset, load_dataset, make_blobs
from .experiment import ExperimentConfig, MetricsRecord, load_config, report, run_experiment
from .mask import (MaskDistribution, Ticket, clamp_topk, expected_density,
                   init_distribution, invert_clamp, load_ticket, save_ticket,
                   sparsity_loss)
from .models import ModelState, TrainConfig, build_model, evaluate, forward, train
from .objectives import OBJECTIVES, evaluate as evaluate_objective, hard_value
from .oracle import brute_force_oracle
from .search import SearchConfig, SearchMetrics, run_cts, search_phase
from .tensor import Tensor, backward, finite_diff_grad, grad, no_grad

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ControllerState", "Dataset", "ExperimentConfig", "LtrConfig",
    "MaskDistribution", "MetricsRecord", "ModelState", "OBJECTIVES",
    "SearchConfig", "SearchMetrics", "Tensor",
    "Ticket", "TrainConfig", "backward", "brute_force_oracle", "build_model",
    "clamp_topk", "evaluate", "evaluate_objective", "expected_density",
    "finite_diff_grad", "forward", "grad", "gradbalance_step", "grasp_scores",
    "hard_value", "init_distribution", "invert_clamp", "lagrange_step",
    "load_config", "load_dataset", "load_ticket", "magnitude_prune",
    "make_blobs", "no_grad", "noisy_overlay_scores", "prune_by_scores",
    "random_prune", "report", "run_cts", "run_experiment", "run_ltr",
    "sanity_ablate", "save_ticket", "search_phase",
    "snip_scores", "sparsity_loss", "synflow_prune", "train",
]
