"""Concrete ticket search: differentiable pruning-mask search over frozen nets."""

from . import baselines, controllers, data, experiment, mask, models, objectives, search, tensor
from .data import load_dataset
from .models import TrainConfig
from .search import SearchConfig, run_cts

__version__ = "0.1.0"

__all__ = ["SearchConfig", "TrainConfig", "load_dataset", "run_cts"]
