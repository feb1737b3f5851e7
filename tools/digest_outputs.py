"""sha256 digests of the program's numeric outputs, to show that a change
leaves them bit for bit.

    python3 tools/digest_outputs.py

Run from a checkout; the program is imported from its `src/`. To compare two
commits, run this same file in each checkout (copy it into the older one) and
compare the lines, or just the last one, the digest over all of them. Each
line is `<sha256>  <name>`. The digests depend on the BLAS build and its
thread count, so compare runs made on one machine with one setting; for that
reason this is a tool and not a test.

Hashed:
- the value and alpha-gradient of every objective on every architecture
  (model seeds 0 and 1, batch 8), and `hard_value` on the same cases, plus
  `hard_value` on the 256-row eval batch on the two conv nets;
- `topk_mask` on tie-heavy vectors that hold -inf and NaN, at several kappa;
- SNIP and GraSP scores (batch 8, and the saliency batch 320 on the conv
  nets), SynFlow surrogate scores and a 5-iteration SynFlow prune, plus a
  full 100-iteration SynFlow prune on `mlp-2x256` (d = 71,680) at kappa 0.02;
- `run_cts` at the benchmark's pipeline settings (seeds 1 and 2, pipelines 0
  and 1): ticket, final params, search logits, objective at draw, test logits;
- the sanity, SNIP and LTR suites of `lenet-sweep` and `resnet-grad-search`
  at the benchmark's suite settings (seeds 3 and 4): their `metrics.csv` and
  `layers.csv`;
- `search_phase` from a rewound model under both controllers (Lagrange at
  lambda_lr 0.01 and 0.7, GradBalance at eta 0.99 and 0) on `tiny-mlp` with
  `loss`, `mlp-2x256` with `kl` and `lenet-conv4` with `grad`: the final
  logits and the trace (`objective`, `expected_density`, `lam`,
  `overshoot_violations`);
- `run_ltr` on `lenet-conv4` at kappa 0.02 (the `lenet-sweep` suite's
  training settings, seed 3): ticket and retrained params;
- a `tiny-mlp` brute-force oracle table with `kl` (220 masks);
- the final params of a masked `models.train` on the conv nets (40 steps,
  weight decay and one learning-rate drop), the path of every conv's bias,
  and of an unmasked one on `resnet-tiny` and `mlp-2x256`, the path of the
  parameters weight decay skips (biases and batch norm).
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cts import baselines, mask as mk, objectives as obj  # noqa: E402
from cts.data import load_dataset  # noqa: E402
from cts.experiment import ExperimentConfig, run_experiment  # noqa: E402
from cts.models import (ARCHS, TrainConfig, build_model, default_input_shape,  # noqa: E402
                        default_num_classes, forward, train)
from cts.oracle import brute_force_oracle  # noqa: E402
from cts.search import SearchConfig, rewind_point, run_cts, search_phase  # noqa: E402

VECTOR_BLOBS = "blobs:classes=4,dim=20,n=2000,seed={seed},separation=4"
IMAGE_BLOBS = "blobs:classes=4,dim=64,n=2000,seed={seed},image=1"
CONV_ARCHS = ("lenet-conv4", "resnet-tiny")

# perfbench's workload settings, run as pipelines: arch, dataset, objective,
# kappa, search steps, train steps, rewind step, batch
PIPELINES = [("mlp-2x256", VECTOR_BLOBS, "kl", 0.05, 150, 30, 5, 64),
             ("resnet-tiny", IMAGE_BLOBS, "grad", 0.05, 12, 12, 4, 32),
             ("lenet-conv4", IMAGE_BLOBS, "kl", 0.02, 20, 60, 10, 32),
             ("lenet-conv4", IMAGE_BLOBS, "grad", 0.02, 20, 60, 10, 32)]

# perfbench's sweep suites: workload, arch, objective, sparsity, repeats, search
# steps, train steps, rewind step, batch, LTR repeats
SUITES = [("lenet-sweep", "lenet-conv4", "kl", 0.98, 3, 20, 60, 10, 32, 2),
          ("resnet-grad-search", "resnet-tiny", "grad", 0.5, 1, 1, 4, 2, 32, 1)]

# search_phase cases: arch, dataset, objective, kappa, search steps, batch;
# each searches from the model trained to step 5 of 20
SEARCHES = [("tiny-mlp", "blobs:classes=2,dim=4,n=400,seed=3", "loss", 0.25, 60, 32),
            ("mlp-2x256", VECTOR_BLOBS.format(seed=1), "kl", 0.05, 60, 64),
            ("lenet-conv4", IMAGE_BLOBS.format(seed=1), "grad", 0.02, 80, 32)]
CONTROLLERS = [("lagrange", dict(lambda_lr=0.01)), ("lagrange", dict(lambda_lr=0.7)),
               ("gradbalance", dict(eta=0.99)), ("gradbalance", dict(eta=0.0))]


def sha(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, float):
            h.update(v.hex().encode())
        elif isinstance(v, bytes):
            h.update(v)
        else:
            a = np.ascontiguousarray(v)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(a.tobytes())
    return h.hexdigest()


def random_batch(arch: str, n: int, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([5, seed, n]))
    x = rng.standard_normal((n,) + tuple(default_input_shape(arch)))
    return x, rng.integers(0, default_num_classes(arch), n)


def objective_digests():
    for arch in ARCHS:
        for seed in (0, 1):
            model = build_model(arch, seed)
            x, y = random_batch(arch, 8, seed)
            rng = np.random.default_rng(np.random.SeedSequence([7, seed]))
            logits = np.log(0.05 / 0.95) + rng.standard_normal(model.d)
            eps = mk.sample_logistic(rng, model.d)
            hard = (rng.random(model.d) < 0.5).astype(np.float64)
            for tag in sorted(obj.OBJECTIVES):
                value, g = obj.value_and_alpha_grad(tag, model, x, y, logits, eps, mk.TAU_DEFAULT)
                yield f"alpha_grad {arch} s{seed} {tag}", sha(value, g)
                yield f"hard_value {arch} s{seed} {tag}", sha(obj.hard_value(tag, model, x, y, hard))
            if arch in CONV_ARCHS and seed == 0:
                ex, ey = load_dataset(IMAGE_BLOBS.format(seed=3)).eval_batch(seed=1)
                yield f"hard_value {arch} eval256 grad", sha(obj.hard_value("grad", model, ex, ey, hard))


def cut_digests():
    rng = np.random.default_rng(9)
    masks = []
    for d in (50, 1000, 71_680):
        scores = rng.integers(-3, 4, d).astype(np.float64)
        scores[rng.random(d) < 0.3] = -np.inf
        scores[rng.random(d) < 0.05] = np.nan
        masks += [mk.topk_mask(scores, kappa) for kappa in (1 / d, 0.02, 0.5, 0.7, 0.99, 1.0)]
    yield "topk_mask tie-heavy with -inf and NaN", sha(*masks)


def pruner_digests():
    for arch in ARCHS:
        model = build_model(arch, 0)
        batches = [8, 320] if arch in CONV_ARCHS else [8]
        for n in batches:
            batch = random_batch(arch, n, 0)
            yield f"snip {arch} b{n}", sha(baselines.snip_scores(model, batch))
            yield f"grasp {arch} b{n}", sha(baselines.grasp_scores(model, batch))
        ones = np.ones(model.d, dtype=np.int64)
        yield f"synflow_scores {arch}", sha(baselines._synflow_surrogate_scores(model, ones))
        yield f"synflow_prune {arch}", sha(baselines.synflow_prune(model, 0.5, iterations=5).mask)
    model = build_model("mlp-2x256", 0, (20,), 4)  # d = 71,680, as on VECTOR_BLOBS
    yield "synflow_prune mlp-2x256 d71680 k0.02 100 iterations", sha(
        baselines.synflow_prune(model, 0.02).mask)


def pipeline_digests():
    for arch, spec, objective, kappa, steps, train_steps, rewind, batch in PIPELINES:
        for seed in (1, 2):
            data = load_dataset(spec.format(seed=seed))
            for i in (0, 1):
                s = 1000 * seed + 10 * i
                scfg = SearchConfig(kappa=kappa, steps=steps, objective=objective,
                                    batch_size=batch, seed_init=s, seed_search=s + 1,
                                    seed_train=s + 2)
                tcfg = TrainConfig(steps=train_steps, rewind_step=rewind,
                                   batch_size=batch, seed=s)
                ticket, final, info = run_cts(scfg, arch, data, tcfg)
                name = f"run_cts {arch} {objective} s{seed} p{i}"
                yield f"{name} ticket", sha(ticket.mask)
                yield f"{name} params", sha(*(final.params[k] for k in sorted(final.params)))
                yield f"{name} logits", sha(info["distribution"].logits)
                yield f"{name} objective_at_draw", sha(info["objective_at_draw"])
                yield f"{name} test_logits", sha(forward(final, data.x_test).logits.data)


def sweep_digests():
    with tempfile.TemporaryDirectory() as tmp:
        for (name, arch, objective, sparsity, repeats, steps, train_steps, rewind, batch,
             ltr_repeats) in SUITES:
            for seed in (3, 4):
                base = ExperimentConfig(
                    dataset=IMAGE_BLOBS.format(seed=seed), arch=arch, method="cts",
                    sparsities=(sparsity,), repeats=repeats, seed=seed, workers=1,
                    search=SearchConfig(steps=steps, objective=objective, batch_size=batch),
                    train=TrainConfig(steps=train_steps, rewind_step=rewind, batch_size=batch))
                sweeps = {"sanity": dict(sanity=True), "snip": dict(method="snip"),
                          "ltr": dict(method="ltr", repeats=ltr_repeats)}
                for label, changes in sweeps.items():
                    out = Path(tmp) / f"{name}-{label}-s{seed}"
                    run_experiment(replace(base, **changes, out_dir=str(out)))
                    for csv in ("metrics.csv", "layers.csv"):
                        yield f"{name} s{seed} {label} {csv}", sha((out / csv).read_bytes())


def search_digests():
    for arch, spec, objective, kappa, steps, batch in SEARCHES:
        data = load_dataset(spec)
        tcfg = TrainConfig(steps=20, rewind_step=5, batch_size=batch, seed=0)
        model = rewind_point(arch, 0, data, tcfg, kappa)
        for controller, knob in CONTROLLERS:
            cfg = SearchConfig(kappa=kappa, steps=steps, objective=objective,
                               controller=controller, batch_size=batch, **knob)
            dist, trace = search_phase(model, cfg, data)
            (key, value), = knob.items()
            yield (f"search_phase {arch} {objective} {controller} {key}={value}",
                   sha(dist.logits, np.array(trace.objective), np.array(trace.expected_density),
                       np.array(trace.lam), trace.overshoot_violations))


def ltr_digests():
    data = load_dataset(IMAGE_BLOBS.format(seed=3))
    tcfg = TrainConfig(steps=60, rewind_step=10, batch_size=32, seed=3)
    ticket, final, _, _ = baselines.run_ltr("lenet-conv4", data, tcfg, 0.02)
    yield "run_ltr lenet-conv4 k0.02 ticket", sha(ticket.mask)
    yield "run_ltr lenet-conv4 k0.02 params", sha(*(final.params[k] for k in sorted(final.params)))


def oracle_digests():
    data = load_dataset("blobs:classes=2,dim=4,n=400,seed=3")
    model = build_model("tiny-mlp", 0, data.input_shape, data.num_classes)
    model = train(model, data, TrainConfig(steps=60, batch_size=32, seed=0), stop_step=20)
    best, table = brute_force_oracle(model, data.eval_batch(seed=0), 3 / 12, "kl")
    rows = [(np.asarray(idx), value) for idx, value in table]
    yield "oracle tiny-mlp kl table", sha(best.mask, *(v for row in rows for v in row))


def train_digests():
    for arch in CONV_ARCHS:
        data = load_dataset(IMAGE_BLOBS.format(seed=5))
        model = build_model(arch, 0, data.input_shape, data.num_classes)
        mask = (np.random.default_rng(5).random(model.d) < 0.3).astype(np.int64)
        cfg = TrainConfig(steps=40, batch_size=32, lr=0.05, lr_drops=((20, 0.1),), seed=5)
        final = train(model, data, cfg, mask=mask)
        yield f"train {arch} masked params", sha(*(final.params[k] for k in sorted(final.params)))
    for arch, spec in (("resnet-tiny", IMAGE_BLOBS), ("mlp-2x256", VECTOR_BLOBS)):
        data = load_dataset(spec.format(seed=6))
        model = build_model(arch, 1, data.input_shape, data.num_classes)
        cfg = TrainConfig(steps=30, batch_size=32, lr=0.05, lr_drops=((15, 0.1),), seed=6)
        final = train(model, data, cfg)
        yield f"train {arch} unmasked params", sha(*(final.params[k] for k in sorted(final.params)))


def main() -> None:
    overall = hashlib.sha256()
    for part in (objective_digests, cut_digests, pruner_digests, pipeline_digests, sweep_digests,
                 search_digests, ltr_digests, oracle_digests, train_digests):
        for name, digest in part():
            line = f"{digest}  {name}"
            overall.update(line.encode() + b"\n")
            print(line, flush=True)
    print(f"{overall.hexdigest()}  overall")


if __name__ == "__main__":
    main()
