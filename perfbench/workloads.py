"""The three workloads: their inputs, built from the seed alone, and one round.

A round is the same list of operations every time: a gradient check of
`objectives.value_and_alpha_grad` on the workload's objective, the workload's
CTS pipelines (`search.run_cts`), then a sweep suite through
`experiment.run_experiment` (a CTS sanity sweep, a SNIP sweep and an LTR
sweep, each written once and then resumed once). An operation is the gradient
check or one ticket drawn: one pipeline or one sweep cell. Every ticket is
checked by `checks.py` after it is drawn, outside the span that times it.
"""

from __future__ import annotations

import inspect
import json
import shutil
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import checks

# The faults an operation is allowed to show, by operation kind. LTR prunes
# to 0.8^r of d, not to round(kappa*d), so every LTR cell fails the
# ticket-size check. The finite-difference Hessian-vector product that
# `value_and_alpha_grad` uses for `grad` on conv nets gives a gradient that
# central differences of its own value contradict, on the check's fixed inputs.
KNOWN_FAULTS = {"ltr": "ticket_size", "alpha_grad.grad": "directional"}

# Inputs of the gradient check (dataset, model, logits, noise, direction)
# come from this seed, not from --seed, so that its outcome is the same in
# every run. On seed 1 central differences at two step sizes agree with each
# other for every workload's objective.
DIRECTIONAL_SEED = 1


@dataclass(frozen=True)
class Suite:
    """Settings of the sweep suite; `search_steps` and `train_steps` are S and T."""
    sparsity: float
    repeats: int
    search_steps: int
    train_steps: int
    rewind_step: int
    ltr_repeats: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    arch: str
    dataset: str                 # dataset spec; {seed} is the benchmark seed
    objective: str
    kappa: float
    search_steps: int
    train_steps: int
    rewind_step: int
    batch_size: int
    pipelines: int               # CTS pipelines per round, each on its own seeds
    suite: Suite

    def dataset_spec(self, seed: int) -> str:
        return self.dataset.format(seed=seed)


VECTOR_BLOBS = "blobs:classes=4,dim=20,n=2000,seed={seed},separation=4"
IMAGE_BLOBS = "blobs:classes=4,dim=64,n=2000,seed={seed},image=1"

# The search workloads run a short sweep suite too, so every end-to-end metric
# exists on every workload; it is a fifth to a third of their round.
WORKLOADS = {w.name: w for w in [
    # d = 71,680: per-entry mask work (noise, sigmoids, Adam, density) leads
    # each step; no conv and no second order. Long search, short training.
    Workload("mlp-kl-search", "mlp-2x256", VECTOR_BLOBS, "kl", kappa=0.05,
             search_steps=150, train_steps=30, rewind_step=5, batch_size=64,
             pipelines=2,
             suite=Suite(0.5, 1, search_steps=8, train_steps=8, rewind_step=2)),
    # conv2d and batch norm lead; the gradient objective goes through the
    # finite-difference Hessian-vector product. d is 3,560.
    Workload("resnet-grad-search", "resnet-tiny", IMAGE_BLOBS, "grad", kappa=0.05,
             search_steps=12, train_steps=12, rewind_step=4, batch_size=32,
             pipelines=2,
             suite=Suite(0.5, 1, search_steps=1, train_steps=4, rewind_step=2)),
    # models.train and the experiment layer lead; search is a minor share:
    # 20 search steps against 10 + 50 training steps per CTS cell. LTR at 98%
    # sparsity runs 18 masked trainings per cell. The density check is
    # near-vacuous here, as on the other workloads: the expected density
    # starts at kappa, 0.866 of the bound, and has ended below 0.95 of it.
    Workload("lenet-sweep", "lenet-conv4", IMAGE_BLOBS, "kl", kappa=0.02,
             search_steps=20, train_steps=60, rewind_step=10, batch_size=32,
             pipelines=0,
             suite=Suite(0.98, 3, search_steps=20, train_steps=60, rewind_step=10,
                         ltr_repeats=2)),
]}


@dataclass
class Op:
    name: str
    kind: str                    # cts, cts+shuffle, cts+invert, snip, ltr
    violations: list

    def fails_only_known_fault(self) -> bool:
        known = KNOWN_FAULTS.get(self.kind)
        return known is not None and all(c == known for c, _ in self.violations)


def raw(fn):
    """The program's function without the benchmark's span wrapper."""
    return getattr(fn, "__wrapped__", fn)


def flat_weights(model, layout) -> np.ndarray:
    return np.concatenate([model.params[name].reshape(-1) for name, _ in layout])


class Runner:
    """Runs rounds of one workload and checks every operation.

    Hooks on the phase spans capture what the checks need: the mask and
    result of every masked `train`, a copy of the weights `search_phase`
    starts from, and the result of every `run_cts`.
    """

    def __init__(self, cts, wl: Workload, seed: int, data, out_root: Path):
        self.cts, self.wl, self.seed, self.data = cts, wl, seed, data
        self.out_root = out_root
        self.ops: list[Op] = []
        self.round_violations: list[str] = []
        self.accuracies: list[float] = []        # pipeline tickets, one round
        self.sweep_accuracies: dict[str, list[float]] = {}   # by method, one round
        self.current: Op | None = None
        self.sweep_label = ""
        self.density_peak = 0.0                  # largest expected density / its bound
        self._trains, self._searches, self._tickets = [], [], []
        self._train_sig = inspect.signature(raw(cts.models.train))
        self._directional_inputs = self._make_directional_inputs()

    # -- hooks ------------------------------------------------------------
    def hooks(self):
        return {"models.train": self._on_train, "search.search_phase": self._on_search,
                "search.run_cts": self._on_run_cts, "experiment.cell": self._on_cell,
                "experiment.sweep": self._on_sweep}

    def _on_train(self, args, kwargs):
        b = self._train_sig.bind(*args, **kwargs)
        b.apply_defaults()
        a = b.arguments
        stop = a["cfg"].steps if a["stop_step"] is None else a["stop_step"]
        op, mask = self.current, a["mask"]

        def finish(out):
            if mask is not None:
                self._trains.append((op, np.asarray(mask), out))
            return {"steps": stop - a["start_step"], "masked": mask is not None}
        return finish

    def _on_search(self, args, kwargs):
        model, cfg = args[0], args[1]
        before = {k: v.copy() for k, v in model.params.items()}
        op = self.current

        def finish(out):
            self._searches.append((op, before, model))
            return {"steps": cfg.effective_steps}
        return finish

    def _on_run_cts(self, args, kwargs):
        op, scfg = self.current, args[0]

        def finish(out):
            self._tickets.append((op, scfg, out))
        return finish

    def _on_cell(self, args, kwargs):
        cfg, sparsity, rep = args[0], args[1], args[2]
        variant = args[3] if len(args) > 3 else kwargs.get("variant", "")
        kind = cfg.method + (f"+{variant}" if variant else "")
        self.current = Op(f"{kind}_s{sparsity:.12g}_r{rep}", kind, [])
        self.ops.append(self.current)

        def finish(out):
            return {"kind": kind}
        return finish

    def _on_sweep(self, args, kwargs):
        label = self.sweep_label
        return lambda out: {"sweep": label}

    # -- a round ------------------------------------------------------------
    def warm_up(self) -> None:
        """A short pipeline at the workload's shapes (a short suite when it has
        no pipelines), run before any timing, so that allocator and BLAS
        start-up costs stay out of the first round."""
        wl, su = self.wl, self.wl.suite
        small = replace(wl, search_steps=5, train_steps=wl.rewind_step + 3,
                        suite=replace(su, repeats=1, ltr_repeats=1, search_steps=1,
                                      train_steps=su.rewind_step + 2))
        warm = Runner(self.cts, small, self.seed, self.data, self.out_root / "warm-up")
        if wl.pipelines:
            warm._pipeline(0)
        else:
            warm._suite(0)

    def run_round(self, index: int) -> None:
        self.accuracies = []
        self._directional()
        for i in range(self.wl.pipelines):
            self._pipeline(i)
        self._suite(index)

    def _pipeline(self, i: int) -> None:
        cts, wl, data = self.cts, self.wl, self.data
        s = 1000 * self.seed + 10 * i
        scfg = cts.search.SearchConfig(kappa=wl.kappa, steps=wl.search_steps,
                                       objective=wl.objective, batch_size=wl.batch_size,
                                       seed_init=s, seed_search=s + 1, seed_train=s + 2)
        tcfg = cts.models.TrainConfig(steps=wl.train_steps, rewind_step=wl.rewind_step,
                                      batch_size=wl.batch_size, seed=s)
        op = self.current = Op(f"pipeline{i}", "cts", [])
        self.ops.append(op)
        ticket, final, info = cts.search.run_cts(scfg, wl.arch, data, tcfg)
        acc, _ = cts.models.evaluate(final, data.x_test, data.y_test)
        self.current = None
        self.accuracies.append(acc)
        if wl.arch == "mlp-2x256":
            self._flag(op, "numpy_forward", checks.accuracy_matches(
                final.params, ticket.layout, data.x_test, data.y_test, acc))
        self._check_captured()

    def _suite(self, index: int) -> None:
        cts, wl, su = self.cts, self.wl, self.wl.suite
        root = self.out_root / f"round{index}"
        shutil.rmtree(root, ignore_errors=True)
        base = cts.experiment.ExperimentConfig(
            dataset=wl.dataset_spec(self.seed), arch=wl.arch, method="cts",
            sparsities=(su.sparsity,), repeats=su.repeats, seed=self.seed, workers=1,
            search=cts.search.SearchConfig(steps=su.search_steps, objective=wl.objective,
                                           batch_size=wl.batch_size),
            train=cts.models.TrainConfig(steps=su.train_steps, rewind_step=su.rewind_step,
                                         batch_size=wl.batch_size))
        sweeps = {"sanity": replace(base, sanity=True, out_dir=str(root / "sanity")),
                  "snip": replace(base, method="snip", out_dir=str(root / "snip")),
                  "ltr": replace(base, method="ltr", repeats=su.ltr_repeats,
                                 out_dir=str(root / "ltr"))}
        for label, cfg in sweeps.items():
            first = len(self.ops)
            self.sweep_label = label
            _, failures = cts.experiment.run_experiment(cfg)
            self.current = None
            self._check_cells(Path(cfg.out_dir), self.ops[first:], failures)
            self._check_captured()

        for label, cfg in sweeps.items():
            out = Path(cfg.out_dir)
            written = {n: (out / n).read_bytes() for n in ("metrics.csv", "layers.csv")}
            cells = len(self.ops)
            self.sweep_label = label + "-resume"
            cts.experiment.run_experiment(cfg)
            if len(self.ops) != cells:
                self.round_violations.append(f"resume pass of {label} re-ran {len(self.ops) - cells} cells")
                del self.ops[cells:]
            for name, data in written.items():
                if (out / name).read_bytes() != data:
                    self.round_violations.append(f"resume pass of {label} changed {name}")
        self.sweep_accuracies = {}
        for cfg in sweeps.values():
            self.sweep_accuracies.update(checks.read_accuracies(Path(cfg.out_dir) / "metrics.csv"))
        shutil.rmtree(root, ignore_errors=True)

    # -- checks -------------------------------------------------------------
    @staticmethod
    def _flag(op: Op | None, check: str, reason: str | None) -> None:
        if reason and op is not None:
            op.violations.append((check, reason))

    def _check_cells(self, out: Path, ops: list[Op], failures: dict) -> None:
        for op in ops:
            if op.name in failures:
                op.violations.append(("exception", failures[op.name]))
                continue
            mask, kappa = checks.read_ticket(out / "cells" / f"{op.name}.ticket.json")
            self._flag(op, "ticket_size", checks.ticket_size(mask, kappa))
            if op.kind == "cts" and self.wl.arch == "mlp-2x256":
                self._check_cell_accuracy(out, op)

    def _check_cell_accuracy(self, out: Path, op: Op) -> None:
        record = json.loads((out / "cells" / f"{op.name}.json").read_text())
        for owner, _, (ticket, final, _) in self._tickets:
            if owner is op:
                self._flag(op, "numpy_forward", checks.accuracy_matches(
                    final.params, ticket.layout, self.data.x_test, self.data.y_test,
                    record["accuracy"]))

    def _check_captured(self) -> None:
        hard_value = raw(self.cts.objectives.hard_value)
        for op, scfg, (ticket, final, info) in self._tickets:
            mask, logits = ticket.mask, info["distribution"].logits
            self._flag(op, "ticket_size", checks.ticket_size(mask, scfg.kappa))
            self._flag(op, "topk_order", checks.topk_order(mask, logits))
            self._flag(op, "masked_zero", checks.masked_zero(flat_weights(final, ticket.layout), mask))
            self._flag(op, "density_bound", checks.density_bound(logits, scfg.kappa))
            self.density_peak = max(self.density_peak, checks.expected_density(logits)
                                    / checks.density_limit(scfg.kappa))
            ex, ey = self.data.eval_batch(seed=scfg.seed_search)
            kl = hard_value("kl", info["rewind_model"], ex, ey, mask.astype(np.float64))
            self._flag(op, "kl_nonnegative", checks.nonnegative("kl", kl))
            rewound = [m for o, _, m in self._searches if o is op]
            if not any(m is info["rewind_model"] for m in rewound):
                self._flag(op, "rewind_unchanged", "search did not start from the rewind model")
        for op, before, model in self._searches:
            self._flag(op, "rewind_unchanged", checks.params_unchanged(before, model.params))
        for op, mask, out in self._trains:
            layout = [(n, sz) for n, _, sz in out.maskable_index]
            self._flag(op, "masked_zero", checks.masked_zero(flat_weights(out, layout), mask))
        self._trains, self._searches, self._tickets = [], [], []

    # -- the gradient check, once per round ----------------------------------
    def _make_directional_inputs(self):
        """Fixed inputs of the gradient check, built before any span is on."""
        cts, wl = self.cts, self.wl
        data = cts.data.load_dataset(wl.dataset_spec(DIRECTIONAL_SEED))
        rng = np.random.default_rng(np.random.SeedSequence([97, DIRECTIONAL_SEED]))
        model = raw(cts.models.build_model)(wl.arch, DIRECTIONAL_SEED, data.input_shape,
                                            data.num_classes)
        x, y = data.batch(0, wl.batch_size, DIRECTIONAL_SEED)
        logits = np.log(wl.kappa / (1 - wl.kappa)) + rng.standard_normal(model.d)
        u = rng.uniform(1e-6, 1 - 1e-6, model.d)
        eps = np.log(u) - np.log1p(-u)
        return model, x, y, logits, eps, rng.standard_normal(model.d)

    def _directional(self) -> None:
        """grad . v of value_and_alpha_grad on the workload's objective against
        central differences of its own value."""
        tag = self.wl.objective
        op = Op(f"alpha_grad_{tag}", f"alpha_grad.{tag}", [])
        self.ops.append(op)
        model, x, y, logits, eps, r = self._directional_inputs
        vag = raw(self.cts.objectives.value_and_alpha_grad)
        tau = self.cts.mask.TAU_DEFAULT
        _, g = vag(tag, model, x, y, logits, eps, tau)
        # half along the gradient, so the derivative stands clear of roundoff
        v = g / np.linalg.norm(g) + r / np.linalg.norm(r)
        v /= np.linalg.norm(v)
        self._flag(op, "directional", checks.directional_derivative(
            lambda l: vag(tag, model, x, y, l, eps, tau)[0], g, logits, v))
