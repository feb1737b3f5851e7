"""Per-layer metrics: derived from the spans of a traced run, plus kernel
probes of `tensor.conv2d` and `tensor.matmul` at the workload's shapes."""

from __future__ import annotations

import statistics
import time

import numpy as np

from spans import ancestor, child_index, self_time

PROBE_REPEATS = 30


def _ms(seconds: float) -> float:
    return seconds * 1e3


def from_spans(spans, ranges) -> dict[str, float]:
    """Layer metrics over the traced rounds, spans[a:b] for (a, b) in ranges."""
    kids = child_index(spans)
    rounds = len(ranges)
    idx = {}
    for a, b in ranges:
        for i in range(a, b):
            idx.setdefault(spans[i].name, []).append(i)

    def inside(i, name):
        return ancestor(spans, i, name) >= 0

    def mean_ms(name, within=None):
        durs = [spans[i].dur for i in idx.get(name, ()) if within is None or inside(i, within)]
        return _ms(statistics.fmean(durs)) if durs else 0.0

    def count(name, within):
        return sum(1 for i in idx.get(name, ()) if inside(i, within))

    def self_ms(name):
        own = idx.get(name, ())
        return _ms(statistics.fmean(self_time(spans, i, kids) for i in own)) if own else 0.0

    def sanity_calls(name):
        """Calls made inside the cts, cts+shuffle and cts+invert cells."""
        owners = (ancestor(spans, i, "experiment.cell") for i in idx.get(name, ()))
        return sum(1 for c in owners if c >= 0 and spans[c].meta.get("kind", "").startswith("cts"))

    def sweep_of(i):
        return spans[spans[i].parent].meta.get("sweep", "")

    search = idx.get("search.search_phase", [])
    steps = sum(spans[i].meta["steps"] for i in search) or 1
    trains = idx.get("models.train", [])
    train_steps = sum(spans[i].meta["steps"] for i in trains) or 1
    cells = idx.get("experiment.cell", [])
    pairs = sum(1 for i in cells if spans[i].meta.get("kind") == "cts") or 1
    rerun = sum(1 for i in cells if sweep_of(i).endswith("-resume"))
    resumes = [i for i in idx.get("experiment.sweep", []) if spans[i].meta["sweep"].endswith("-resume")]

    out = {
        "data.batch_ms": mean_ms("data.batch"),
        "tensor.backward_ms": mean_ms("tensor.backward", "search.search_phase"),
        "tensor.backward_calls_per_step": count("tensor.backward", "search.search_phase") / steps,
        "mask.sample_ms": mean_ms("mask.sample"),
        "mask.expected_density_ms": mean_ms("mask.expected_density"),
        "mask.sparsity_grad_ms": mean_ms("mask.sparsity_grad"),
        "mask.clamp_ms": mean_ms("mask.clamp"),
        "objectives.alpha_grad_ms": mean_ms("objectives.alpha_grad"),
        "objectives.teacher_grads_calls_per_step":
            count("objectives.teacher_grads", "search.search_phase") / steps,
        "objectives.hard_value_ms": mean_ms("objectives.hard_value"),
        "controllers.step_ms": mean_ms("controllers.step"),
        "controllers.self_ms": self_ms("controllers.step"),
        "controllers.adam_ms": mean_ms("controllers.adam"),
        "search.step_ms": _ms(sum(spans[i].dur for i in search) / steps),
        "search.self_ms": _ms(sum(self_time(spans, i, kids) for i in search) / steps),
        "models.train_step_ms": _ms(sum(spans[i].dur for i in trains) / train_steps),
        "models.evaluate_ms": mean_ms("models.evaluate"),
        "baselines.snip_ms": mean_ms("baselines.snip"),
        "baselines.ltr_train_calls": sum(
            1 for i in trains if spans[i].meta["masked"] and inside(i, "baselines.run_ltr"))
            / (len(idx.get("baselines.run_ltr", [])) or 1),
        "experiment.search_calls": sanity_calls("search.search_phase") / pairs,
        "experiment.train_calls": sanity_calls("models.train") / pairs,
        "experiment.resume_ms": _ms(statistics.fmean(spans[i].dur for i in resumes)) if resumes else 0.0,
        "experiment.cells_skipped": (len(cells) - 2 * rerun) / rounds,
    }
    for kind in ("cts", "cts+shuffle", "cts+invert", "snip", "ltr"):
        durs = [spans[i].dur for i in cells
                if spans[i].meta.get("kind") == kind and not sweep_of(i).endswith("-resume")]
        out[f"experiment.cell_ms.{kind.replace('+', '_')}"] = _ms(statistics.fmean(durs)) if durs else 0.0
    return out


def _median_time(fn) -> float:
    fn()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _shapes(cts, model, x, op: str) -> list[tuple]:
    """Argument shapes of every call to tensor.<op> in one forward pass."""
    T = cts.tensor
    original = getattr(T, op)
    seen = []

    def record(a, b, *args, **kwargs):
        seen.append((np.shape(getattr(a, "data", a)), np.shape(getattr(b, "data", b)), kwargs))
        return original(a, b, *args, **kwargs)

    setattr(T, op, record)
    try:
        with T.no_grad():
            cts.models.forward(model, x)
    finally:
        setattr(T, op, original)
    return seen


def probe_kernels(cts, model, x) -> dict[str, float]:
    """Time conv2d forward and backward and matmul at the shapes one forward
    pass of `model` on batch `x` uses. A model without conv layers spends no
    time in conv2d, and its conv figures read 0."""
    T = cts.tensor
    rng = np.random.default_rng(0)
    fwd = bwd = flops = 0.0
    for xs, ws, kw in _shapes(cts, model, x, "conv2d"):
        xt = T.Tensor(rng.standard_normal(xs), requires_grad=True)
        wt = T.Tensor(rng.standard_normal(ws), requires_grad=True)
        out = T.conv2d(xt, wt, **kw)
        n, co, oh, ow = out.shape
        f = 2.0 * n * oh * ow * co * ws[1] * ws[2] * ws[3]
        fwd += _median_time(lambda: T.conv2d(xt, wt, **kw))
        loss = T.sum_(out)
        bwd += _median_time(lambda: T.backward(loss, wrt=[xt, wt]))
        flops += 3 * f                     # forward, input grad, weight grad
    mm = 0.0
    for a_s, b_s, _ in _shapes(cts, model, x, "matmul"):
        a, b = rng.standard_normal(a_s), rng.standard_normal(b_s)
        mm += _median_time(lambda: T.matmul(a, b))
    return {"tensor.conv2d_fwd_ms": _ms(fwd), "tensor.conv2d_bwd_ms": _ms(bwd),
            "tensor.conv2d_gflops": flops / (fwd + bwd) / 1e9 if flops else 0.0,
            "tensor.matmul_ms": _ms(mm)}
