"""Brute-force mask enumeration for desk-scale ground truth.

Enumerates every binary mask with exactly round(kappa*d) ones, evaluates the
objective on a fixed batch with hard masks (no Concrete noise) against one
teacher pass, and returns the argmin plus the full value table in canonical
sorted order.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from . import objectives as obj
from .mask import Ticket, ticket_size
from .models import ModelState

ORACLE_BUDGET = 5_000_000


class OracleError(Exception):
    pass


def brute_force_oracle(model: ModelState, eval_batch, kappa: float,
                       objective: str) -> tuple[Ticket, list[tuple[tuple, float]]]:
    """Returns (best ticket, [(retained index tuple, value), ...]).

    The table is sorted by value ascending (ties by index tuple), so its
    order does not depend on enumeration order.
    """
    d = model.d
    n = ticket_size(kappa, d)
    count = math.comb(d, n)
    if count > ORACLE_BUDGET:
        raise OracleError(
            f"combinatorial budget exceeded: C({d},{n}) > {ORACLE_BUDGET}")
    x, y = eval_batch
    teacher = obj.teacher_pass(objective, model, x, y)
    table = []
    mask = np.zeros(d, dtype=np.float64)
    for idx in combinations(range(d), n):
        mask[:] = 0.0
        mask[list(idx)] = 1.0
        value = obj.hard_value(objective, model, x, y, mask, teacher=teacher)
        table.append((idx, value))
    table.sort(key=lambda t: (t[1], t[0]))
    best_idx = table[0][0]
    best = np.zeros(d, dtype=np.int64)
    best[list(best_idx)] = 1
    return Ticket(mask=best, layout=model.maskable_layout()), table
