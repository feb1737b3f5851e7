"""Probabilistic retention mask: logits, Concrete sampling, density, clamping.

Retention probabilities are stored as logits; a soft mask sample is
sigmoid((logit + eps) / tau) with eps ~ logistic(0, 1). Noise is drawn from
counter-based seeds, so a search replays bit-exactly from (run seed, step).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T

TAU_DEFAULT = 2.0 / 3.0
KAPPA_CLAMP = 1.0 - 1e-9

TICKET_FORMAT_VERSION = 1


class MaskError(Exception):
    pass


@dataclass
class MaskDistribution:
    logits: np.ndarray
    tau: float
    layout: list[tuple[str, int]] = field(default_factory=list)
    _alpha: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    @property
    def d(self) -> int:
        return self.logits.size

    @property
    def alpha(self) -> np.ndarray:
        """Retention probabilities sigmoid(logits), read-only.

        Computed once per logits array: updates assign a new array to
        ``logits`` (never edit it in place), which is what refreshes alpha.
        """
        src, a = self._alpha
        if src is not self.logits:
            a = T.stable_sigmoid(self.logits)
            a.flags.writeable = False
            self._alpha = (self.logits, a)
        return a


@dataclass
class Ticket:
    mask: np.ndarray  # binary {0,1}, length d
    layout: list[tuple[str, int]] = field(default_factory=list)

    @property
    def d(self) -> int:
        return self.mask.size

    @property
    def density(self) -> float:
        return float(np.count_nonzero(self.mask)) / self.d

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def per_layer_density(self) -> list[tuple[str, float]]:
        out = []
        off = 0
        for name, sz in self.layout:
            seg = self.mask[off:off + sz]
            out.append((name, float(np.count_nonzero(seg)) / sz))
            off += sz
        return out


def init_distribution(d: int, kappa: float, tau: float = TAU_DEFAULT,
                      layout=None) -> MaskDistribution:
    """All entries start at retention probability kappa."""
    if not 0 < kappa <= 1:
        raise MaskError(f"kappa must be in (0, 1], got {kappa}")
    if not (np.isfinite(tau) and tau > 0):
        raise MaskError(f"tau must be finite and positive, got {tau}")
    k = min(kappa, KAPPA_CLAMP)
    logit = float(np.log(k) - np.log1p(-k))
    return MaskDistribution(np.full(d, logit, dtype=np.float64), tau,
                            list(layout) if layout else [])


def sample_logistic(rng: np.random.Generator, size: int) -> np.ndarray:
    """Inverse-CDF logistic(0,1) noise with a resample guard at u in {0,1};
    the guard's mask is built only when a draw needs redrawing."""
    u = rng.random(size)
    while u.size and (u.min() <= 0.0 or u.max() >= 1.0):
        bad = (u <= 0.0) | (u >= 1.0)
        u[bad] = rng.random(int(bad.sum()))
    return np.log(u) - np.log1p(-u)


def step_rng(run_seed: int, step: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator: deterministic per (run seed, step, stream)."""
    return np.random.default_rng(np.random.SeedSequence([run_seed, step, stream]))


def soft_mask(logits: np.ndarray, eps: np.ndarray, tau: float) -> np.ndarray:
    """Concrete relaxation sigmoid((logits + eps) / tau) for fixed noise eps."""
    return T.stable_sigmoid((logits + eps) * (1.0 / tau))


def expected_density(dist: MaskDistribution) -> float:
    return float(np.mean(dist.alpha))


def sparsity_loss(dist: MaskDistribution, kappa_target: float) -> float:
    """Normalized constraint: sum(alpha) / (kappa d) - 1; zero at the target."""
    if not 0 < kappa_target <= 1:
        raise MaskError(f"kappa_target must be in (0, 1], got {kappa_target}")
    return float(np.sum(dist.alpha) / (kappa_target * dist.d) - 1.0)


def sparsity_loss_grad(dist: MaskDistribution, kappa_target: float) -> np.ndarray:
    """Analytic gradient w.r.t. the logits: sigma'(logit) / (kappa d)."""
    a = dist.alpha
    return a * (1.0 - a) / (kappa_target * dist.d)


def ticket_size(kappa: float, d: int) -> int:
    """Entries a ticket of density kappa keeps out of d: round(kappa*d), half up."""
    if not 0 < kappa <= 1:
        raise MaskError(f"kappa must be in (0, 1], got {kappa}")
    n = int(np.floor(kappa * d + 0.5))
    if n <= 0:
        raise MaskError("empty ticket: round(kappa * d) == 0")
    return n


def topk_mask(scores: np.ndarray, kappa: float) -> np.ndarray:
    """The one ticket cut: keep the ``ticket_size(kappa, d)`` highest scores.

    The cut is a selection, linear in d: it finds the n-th best score v with
    a partition, keeps every score better than v and fills the rest from the
    scores tied with v. The mask is the one a stable sort of descending
    score gives. Ties go to the lower flat index. A -inf score sorts last,
    so an iterative pruner keeps its pruned weights pruned by passing
    ``np.where(mask == 0, -np.inf, scores)``; NaN sorts after -inf.
    """
    n = ticket_size(kappa, scores.size)
    neg = -scores  # negation is exact, so comparing scores with -v is too
    neg.partition(n - 1)  # NaN goes last, as in a sort
    v = neg[n - 1]
    if np.isnan(v):  # fewer than n scores are numbers
        keep, tied = ~np.isnan(scores), np.isnan(scores)
    else:
        keep, tied = scores > -v, scores == -v
    mask = keep.astype(np.int64)
    mask[np.flatnonzero(tied)[:n - np.count_nonzero(keep)]] = 1
    return mask


def clamp_topk(dist: MaskDistribution, kappa: float) -> Ticket:
    """Deterministic ticket: keep the round(kappa*d) most probable entries."""
    return Ticket(mask=topk_mask(dist.logits, kappa), layout=list(dist.layout))


def invert_clamp(dist: MaskDistribution, kappa: float) -> Ticket:
    """Sanity-check variant: keep the least probable entries instead."""
    return Ticket(mask=topk_mask(-dist.logits, kappa), layout=list(dist.layout))


# -- ticket container ---------------------------------------------------------

def save_ticket(path, ticket: Ticket, arch: str = "", kappa: float | None = None,
                meta: dict | None = None) -> None:
    """Canonical bit-exact form: the sorted list of retained flat indices."""
    doc = {
        "version": TICKET_FORMAT_VERSION,
        "arch": arch,
        "d": ticket.d,
        "kappa": kappa,
        "density": ticket.density,
        "layout": [[name, sz] for name, sz in ticket.layout],
        "indices": ticket.indices(),
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w") as f:
        f.writelines(_ticket_json(doc))


_INDEX_CHUNK = 4096


def _ticket_json(doc: dict):
    """The text of ``json.dump(doc, f, indent=0, sort_keys=True)`` plus a
    newline, in pieces, with ``doc["indices"]`` an int array. indent=0 puts
    every value of every depth on its own line with no indentation, so each
    top-level value dumps alone to the same text. The indices, the bulk of a
    ticket, are written as plain ints a chunk at a time, without the
    pure-Python encoder and without a string object per index alive at once.
    """
    for n, key in enumerate(sorted(doc)):
        yield ("{\n" if n == 0 else ",\n") + json.dumps(key) + ": "
        value = doc[key]
        if key != "indices":
            yield json.dumps(value, indent=0, sort_keys=True)
        elif len(value) == 0:
            yield "[]"
        else:
            for i in range(0, len(value), _INDEX_CHUNK):
                yield ("[\n" if i == 0 else ",\n") + \
                    ",\n".join(map(str, value[i:i + _INDEX_CHUNK].tolist()))
            yield "\n]"
    yield "\n}\n"


def load_ticket(path) -> tuple[Ticket, dict]:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("version") != TICKET_FORMAT_VERSION:
        raise MaskError(f"{path}: unsupported ticket version {doc.get('version')}")
    mask = np.zeros(int(doc["d"]), dtype=np.int64)
    mask[np.asarray(doc["indices"], dtype=np.int64)] = 1
    layout = [(name, int(sz)) for name, sz in doc.get("layout", [])]
    return Ticket(mask=mask, layout=layout), doc
