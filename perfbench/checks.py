"""Checks on the program's outputs, computed apart from the program.

Each check returns None when it holds and a one-line reason when it does
not. They use plain numpy on arrays taken from the program's return values
or files, never the program's own helpers, so a fault in a helper cannot
hide itself.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

GRADBALANCE_SLACK = 1.1      # kappa_eff = 1.1 * kappa under GradBalance
DENSITY_TOLERANCE = 1.05     # final expected density may sit 5% above kappa_eff
DIRECTIONAL_RTOL = 1e-4      # central difference vs directional derivative


def expected_count(kappa: float, d: int) -> int:
    return int(np.floor(kappa * d + 0.5))


def ticket_size(mask: np.ndarray, kappa: float) -> str | None:
    mask = np.asarray(mask)
    if not np.all((mask == 0) | (mask == 1)):
        return "ticket mask is not binary"
    kept, want = int(np.count_nonzero(mask)), expected_count(kappa, mask.size)
    if kept != want:
        return f"ticket keeps {kept} of {mask.size} entries, floor(kappa*d+0.5) = {want}"
    return None


def topk_order(mask: np.ndarray, logits: np.ndarray) -> str | None:
    keep = np.asarray(mask) != 0
    if keep.all() or not keep.any():
        return None
    lo, hi = float(np.min(logits[keep])), float(np.max(logits[~keep]))
    if lo < hi:
        return f"a dropped logit ({hi:.6g}) exceeds a kept logit ({lo:.6g})"
    return None


def masked_zero(weights: np.ndarray, mask: np.ndarray) -> str | None:
    stray = np.count_nonzero(np.asarray(weights)[np.asarray(mask) == 0])
    if stray:
        return f"{stray} masked weights are nonzero after masked training"
    return None


def params_unchanged(before: dict, after: dict) -> str | None:
    if before.keys() != after.keys():
        return "parameter names changed during search"
    changed = [k for k in before if not np.array_equal(before[k], after[k])]
    if changed:
        return f"search changed the rewind weights of {', '.join(sorted(changed))}"
    return None


def density_limit(kappa: float) -> float:
    return GRADBALANCE_SLACK * kappa * DENSITY_TOLERANCE


def expected_density(logits: np.ndarray) -> float:
    return float(np.mean(0.5 * (1.0 + np.tanh(0.5 * np.asarray(logits)))))


def density_bound(logits: np.ndarray, kappa: float) -> str | None:
    ed, bound = expected_density(logits), density_limit(kappa)
    if ed > bound:
        return f"final expected density {ed:.6g} exceeds {bound:.6g}"
    return None


def nonnegative(name: str, value: float) -> str | None:
    if not value >= 0.0:
        return f"{name} at the drawn ticket is {value!r} < 0"
    return None


def mlp_logits(params: dict, layout, x: np.ndarray) -> np.ndarray:
    """Dense layers in layout order with relu between them, bias from the
    `.b` twin of each `.w`."""
    h = np.asarray(x, dtype=np.float64).reshape(len(x), -1)
    for i, (name, _) in enumerate(layout):
        h = h @ params[name] + params[name[:-2] + ".b"]
        if i < len(layout) - 1:
            h = np.maximum(h, 0.0)
    return h


def accuracy_matches(params: dict, layout, x, y, reported: float) -> str | None:
    acc = float(np.mean(np.argmax(mlp_logits(params, layout, x), axis=1) == y))
    if acc != reported:
        return f"plain-numpy test accuracy {acc!r} != models.evaluate {reported!r}"
    return None


def directional_derivative(f, grad: np.ndarray, x: np.ndarray, v: np.ndarray,
                           h: float = 1e-5, rtol: float = DIRECTIONAL_RTOL) -> str | None:
    """grad . v against (f(x + s v) - f(x - s v)) / 2s for a unit direction v,
    at s = h and s = 10h. A correct gradient of a smooth f meets both; where
    the two central differences disagree, f has a kink near x along v."""
    dd = float(grad @ v)
    fds = [(f(x + s * v) - f(x - s * v)) / (2 * s) for s in (h, 10 * h)]
    if any(abs(dd - fd) > rtol * max(abs(dd), abs(fd), 1e-8) for fd in fds):
        return (f"directional derivative {dd:.9g} vs central differences "
                f"{fds[0]:.9g} (h={h:g}), {fds[1]:.9g} (h={10 * h:g})")
    return None


def read_ticket(path) -> tuple[np.ndarray, float]:
    """Mask and kappa from a ticket file, read with json alone."""
    doc = json.loads(Path(path).read_text())
    mask = np.zeros(int(doc["d"]), dtype=np.int64)
    mask[np.asarray(doc["indices"], dtype=np.int64)] = 1
    return mask, float(doc["kappa"])


def read_accuracies(metrics_csv) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for line in Path(metrics_csv).read_text().splitlines():
        if line.startswith("#") or line.startswith("method,"):
            continue
        parts = line.split(",")
        out.setdefault(parts[0], []).append(float(parts[3]))
    return out

