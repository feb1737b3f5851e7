"""Acceptance gate: one verdict per shipped guarantee.

Each test prints a single PASS/FAIL line for its criterion (echoed in the
terminal summary as well) and asserts the same condition, so the suite fails
loudly if any guarantee regresses. The whole module is budgeted to finish in
well under 45 minutes on a desktop CPU; the final test asserts that budget.
"""

import time

import numpy as np
import pytest

import cts.objectives as obj
import cts.tensor as T
from cts.baselines import prune_by_scores, run_ltr, shuffle_layerwise, snip_scores
from cts.controllers import ControllerState, gradbalance_step
from cts.data import make_blobs
from cts.experiment import ExperimentConfig, run_experiment
from cts.mask import (init_distribution, invert_clamp, sample_logistic, soft_mask,
                      sparsity_loss_grad, step_rng)
from cts.models import TrainConfig, build_model, evaluate, forward, train
from cts.oracle import brute_force_oracle
from cts.search import SearchConfig, run_cts, search_phase
from cts.tensor import Tensor

_T0 = time.time()
_RESULTS: list[str] = []


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {name}"
    if detail:
        line += f" [{detail}]"
    _RESULTS.append(line)
    print(line, flush=True)
    assert ok, line


def _blobs_vec():
    return make_blobs(classes=4, dim=20, n=4000, seed=7)


def _blobs_img():
    return make_blobs(classes=4, dim=64, n=2000, seed=7, image=True)


def test_criterion_1_gradient_correctness():
    """backward() matches central finite differences on every architecture."""
    archs = [("tiny-mlp", (4,)), ("mlp-2x256", (20,)),
             ("lenet-conv4", (1, 8, 8)), ("resnet-tiny", (1, 8, 8))]
    h = 1e-5
    worst = 0.0
    checked = 0
    for arch, shape in archs:
        for inst in range(25):
            model = build_model(arch, inst, shape, 3)
            rng = np.random.default_rng(1000 + inst)
            x = rng.standard_normal((4,) + shape)
            y = rng.integers(0, 3, 4)
            theta = model.maskable_vector()
            names = {n for n, _, _ in model.maskable_index}
            leaves = {k: Tensor(v, requires_grad=(k in names))
                      for k, v in model.params.items()}
            trace = forward(model, x, y, param_tensors=leaves)
            wrt = [leaves[n] for n, _, _ in model.maskable_index]
            g = np.concatenate([gt.data.reshape(-1) for gt in T.backward(trace.loss, wrt=wrt)])

            def loss_at(v):
                m = model.copy()
                m.set_maskable_vector(v)
                with T.no_grad():
                    return forward(m, x, y).loss.item()

            for i in rng.choice(theta.size, size=6, replace=False):
                vp, vm = theta.copy(), theta.copy()
                vp[i] += h
                vm[i] -= h
                fd = (loss_at(vp) - loss_at(vm)) / (2 * h)
                # skip coordinates whose difference quotient is unstable
                # (a relu kink inside the stencil)
                vp2, vm2 = theta.copy(), theta.copy()
                vp2[i] += h / 2
                vm2[i] -= h / 2
                fd2 = (loss_at(vp2) - loss_at(vm2)) / h
                if abs(fd - fd2) > 1e-6 * max(abs(fd), abs(fd2), 1.0):
                    continue
                rel = abs(g[i] - fd) / max(abs(fd), 1e-6)
                worst = max(worst, rel)
                checked += 1
                assert rel < 1e-4, f"{arch} coord {i}: rel err {rel:.2e}"
    _report(1, "gradient correctness vs finite differences", worst < 1e-4,
            f"worst rel err {worst:.2e} over {checked} coords")


def test_criterion_2_concrete_fidelity():
    """Low-temperature samples behave like Bernoulli draws; the working
    temperature keeps all samples strictly inside (0, 1)."""
    n = 100_000
    ok = True
    details = []
    for alpha in (0.1, 0.5, 0.7, 0.9):
        logit = np.log(alpha) - np.log1p(-alpha)
        eps = sample_logistic(step_rng(11, 0), n)
        s = 1.0 / (1.0 + np.exp(-np.clip((logit + eps) / 0.01, -700, 700)))
        p = float((s > 0.5).mean())
        details.append(f"alpha={alpha}: {p:.4f}")
        ok &= abs(p - alpha) <= 0.01
    dist = init_distribution(n, 0.5, tau=2.0 / 3.0)
    sm = soft_mask(dist.logits, sample_logistic(step_rng(11, 1), n), dist.tau)
    interior = float(((sm > 0) & (sm < 1)).mean())
    ok &= interior >= 0.99
    _report(2, "concrete distribution fidelity", ok,
            "; ".join(details) + f"; interior fraction {interior:.4f}")


def test_criterion_3_sparsity_control():
    """GradBalance lands the expected density at the target and the clamp
    cardinality is exact, on every seed."""
    data = _blobs_vec()
    kappa = 0.05
    bound = 1.1 * kappa * 1.05
    ok = True
    details = []
    for seed in range(3):
        model = build_model("mlp-2x256", seed, data.input_shape, data.num_classes)
        cfg = SearchConfig(kappa=kappa, steps=2000, objective="kl",
                           controller="gradbalance", eta=0.99, batch_size=64,
                           seed_init=seed, seed_search=seed + 100)
        dist, metrics = search_phase(model, cfg, data)
        ed = metrics.expected_density[-1]
        from cts.mask import clamp_topk
        n_kept = int(clamp_topk(dist, kappa).mask.sum())
        n_expect = int(np.floor(kappa * model.d + 0.5))
        details.append(f"seed {seed}: ed={ed:.4f}, kept={n_kept}")
        ok &= ed <= bound and n_kept == n_expect
    _report(3, "sparsity control at kappa=0.05", ok,
            f"bound {bound:.4f}; " + "; ".join(details))


def test_criterion_4_gradbalance_mechanics():
    """lambda target is the gradient-norm ratio under violation, zero when
    satisfied, and decays geometrically once the constraint holds."""
    model = build_model("tiny-mlp", 0, (4,), 2)
    rng = np.random.default_rng(6)
    batch = (rng.standard_normal((8, 4)), rng.integers(0, 2, 8))

    # violated: instantaneous target equals ||g_obj|| / ||g_sp||
    dist = init_distribution(model.d, 0.5)
    state = ControllerState(mode="gradbalance", kappa=0.1, eta=0.0)
    g_alpha, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                           step_rng(0, 0))
    g_sp = sparsity_loss_grad(dist, state.kappa_eff)
    g_obj = g_alpha - lam * g_sp
    ratio_ok = (ls > 0 and
                abs(lam * np.linalg.norm(g_sp) - np.linalg.norm(g_obj))
                <= 1e-9 * np.linalg.norm(g_obj))

    # satisfied: target is zero, lambda decays as eta^t
    state = ControllerState(mode="gradbalance", kappa=0.9, eta=0.99)
    state.lam = 1.0
    decay_ok = True
    for t in range(5):
        _, lam, _, ls = gradbalance_step(model, dist, state, batch, "loss",
                                         step_rng(0, t))
        decay_ok &= ls <= 0 and abs(lam - 0.99 ** (t + 1)) <= 1e-9
        state.lam = lam
    _report(4, "gradbalance lambda mechanics", ratio_ok and decay_ok,
            f"ratio ok {ratio_ok}, geometric decay ok {decay_ok}")


def test_criterion_5_oracle_equivalence():
    """Searched tickets land in the best 5% of the exhaustive mask table."""
    data = make_blobs(classes=2, dim=4, n=400, seed=3)
    hits = 0
    ranks = []
    for seed in range(5):
        cfg = SearchConfig(kappa=0.5, steps=300, objective="loss",
                           controller="gradbalance", batch_size=32,
                           seed_init=seed, seed_search=seed + 100,
                           seed_train=seed + 200)
        tcfg = TrainConfig(steps=200, batch_size=32, rewind_step=20, seed=seed)
        ticket, _, info = run_cts(cfg, "tiny-mlp", data, tcfg)
        model_k = info["rewind_model"]
        xe, ye = data.eval_batch(seed=cfg.seed_search)
        _, table = brute_force_oracle(model_k, (xe, ye), 0.5, "loss")
        assert len(table) == 924
        v = obj.hard_value("loss", model_k, xe, ye, ticket.mask.astype(np.float64))
        values = [val for _, val in table]
        rank = int(np.searchsorted(values, v, side="right"))
        ranks.append(rank)
        hits += rank <= int(np.ceil(0.05 * len(values)))
    _report(5, "oracle equivalence on 924 enumerable masks", hits >= 4,
            f"hits {hits}/5, ranks {ranks}")


def test_criterion_6_objective_zero_points():
    """Teacher-comparing objectives vanish under the identity mask."""
    model = build_model("tiny-mlp", 0, (4,), 2)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((16, 4))
    y = rng.integers(0, 2, 16)
    ones = [Tensor(w, requires_grad=True) for w in model.layer_views(np.ones(model.d))]
    vals = {tag: obj.evaluate(tag, model, x, y, overlay=ones).item()
            for tag in ("dloss", "kl", "feature", "grad")}
    ok = (vals["dloss"] == 0.0 and vals["kl"] == 0.0 and
          abs(vals["feature"]) <= 1e-12 and abs(vals["grad"]) <= 1e-12)
    _report(6, "objective zero-points at the identity mask", ok,
            ", ".join(f"{k}={v:.3g}" for k, v in vals.items()))


def test_criterion_7_saliency_gap():
    """Searched tickets beat one-shot saliency tickets on post-draw loss at
    every extreme density (mean over seeds)."""
    data = _blobs_img()
    ok = True
    details = []
    for dens in (0.05, 0.02, 0.01):
        cts_losses, snip_losses = [], []
        for seed in range(3):
            cfg = SearchConfig(kappa=dens, steps=300, objective="loss",
                               controller="gradbalance", batch_size=32,
                               seed_init=seed, seed_search=seed + 100,
                               seed_train=seed + 200)
            tcfg = TrainConfig(steps=150, batch_size=32, rewind_step=20, seed=seed)
            ticket, _, info = run_cts(cfg, "lenet-conv4", data, tcfg)
            model_k = info["rewind_model"]
            xe, ye = data.eval_batch(seed=cfg.seed_search)
            cts_losses.append(obj.hard_value("loss", model_k, xe, ye,
                                             ticket.mask.astype(np.float64)))
            sb = data.batch(0, 320, seed=seed + 300)
            st = prune_by_scores(snip_scores(model_k, sb), dens)
            snip_losses.append(obj.hard_value("loss", model_k, xe, ye,
                                              st.mask.astype(np.float64)))
        c, s = float(np.mean(cts_losses)), float(np.mean(snip_losses))
        details.append(f"density {dens}: search {c:.3f} vs saliency {s:.3f}")
        ok &= c < s
    _report(7, "saliency-gap direction at extreme density", ok,
            "; ".join(details))


def test_criterion_8_sanity_separation():
    """Searched masks beat layerwise-shuffled and inverted ablations by a
    clear accuracy margin after retraining (paired seeds); the ticket also
    beats a reinitialized network in the at-initialization setting."""
    data = _blobs_img()
    acc = {"cts": [], "shuffle": [], "invert": []}
    for seed in range(5):
        cfg = SearchConfig(kappa=0.02, steps=300, objective="kl",
                           controller="gradbalance", batch_size=32,
                           seed_init=seed, seed_search=seed + 100,
                           seed_train=seed + 200)
        tcfg = TrainConfig(steps=300, batch_size=32, rewind_step=20, seed=seed)
        ticket, final, info = run_cts(cfg, "lenet-conv4", data, tcfg)
        model_k, dist = info["rewind_model"], info["distribution"]
        acc["cts"].append(evaluate(final, data.x_test, data.y_test)[0])
        for kind in ("shuffle", "invert"):
            if kind == "shuffle":
                tk = shuffle_layerwise(ticket, seed + 7)
            else:
                tk = invert_clamp(dist, ticket.density)
            m = model_k.copy()
            v = m.maskable_vector()
            v[tk.mask == 0] = 0.0
            m.set_maskable_vector(v)
            f = train(m, data, tcfg, mask=tk.mask.astype(np.float64), start_step=20)
            acc[kind].append(evaluate(f, data.x_test, data.y_test)[0])
    means = {k: float(np.mean(v)) for k, v in acc.items()}
    margin_ok = (means["cts"] - means["shuffle"] >= 0.02 and
                 means["cts"] - means["invert"] >= 0.02)

    # at-initialization variant: same ticket on freshly drawn weights;
    # a gentler learning rate keeps from-scratch training of 2%-density
    # subnetworks out of dead-relu collapse on both sides of the pairing
    base_accs, reinit_accs = [], []
    for seed in (2, 3, 4):
        cfg = SearchConfig(kappa=0.02, steps=300, objective="kl", batch_size=32,
                           seed_init=seed, seed_search=seed + 100,
                           seed_train=seed + 200)
        tcfg = TrainConfig(steps=900, batch_size=32, rewind_step=0, seed=0,
                           lr=0.03)
        ticket, final, info = run_cts(cfg, "lenet-conv4", data, tcfg)
        base_accs.append(evaluate(final, data.x_test, data.y_test)[0])
        reinit = build_model("lenet-conv4", seed + 777, data.input_shape, data.num_classes)
        v = reinit.maskable_vector()
        v[ticket.mask == 0] = 0.0
        reinit.set_maskable_vector(v)
        f = train(reinit, data, tcfg, mask=ticket.mask.astype(np.float64))
        reinit_accs.append(evaluate(f, data.x_test, data.y_test)[0])
    base_mean, reinit_mean = float(np.mean(base_accs)), float(np.mean(reinit_accs))
    reinit_ok = base_mean > reinit_mean
    _report(8, "sanity-check separation at density 0.02",
            margin_ok and reinit_ok,
            f"means {means}; reinit (k=0) {base_mean:.3f} > {reinit_mean:.3f}")


def test_criterion_9_ltr_mechanics():
    """Round densities follow the 20% schedule exactly, masks nest, and each
    round restarts from the bit-exact rewind weights."""
    data = make_blobs(classes=2, dim=4, n=400, seed=3)
    tcfg = TrainConfig(steps=60, batch_size=32, rewind_step=10, seed=0)
    _, _, model_k, results = run_ltr("tiny-mlp", data, tcfg, 0.5)
    d = model_k.d
    theta_k = model_k.maskable_vector()

    density_ok = all(
        int(t.mask.sum()) == int(np.floor(d * 0.8 ** r + 0.5))
        for r, (t, _) in enumerate(results, start=1))
    nested_ok = all(np.all(results[i + 1][0].mask <= results[i][0].mask)
                    for i in range(len(results) - 1))

    # replaying round 2 from the manually rewound weights reproduces the
    # trained model bit-for-bit, so the rewind used theta_k exactly
    mask1 = results[0][0].mask.astype(np.float64)
    replay = model_k.copy()
    replay.set_maskable_vector(theta_k * mask1)
    replay = train(replay, data, tcfg, mask=mask1, start_step=10)
    rewind_ok = np.array_equal(replay.maskable_vector(),
                               results[1][1].maskable_vector())
    _report(9, "iterative pruning with rewinding mechanics",
            density_ok and nested_ok and rewind_ok,
            f"densities {density_ok}, nesting {nested_ok}, rewind {rewind_ok}")


def test_criterion_10_sweep_determinism(tmp_path):
    """Two identical sweep invocations produce byte-identical outputs."""
    def cfg(out):
        return ExperimentConfig(
            dataset="blobs:classes=2,dim=4,n=400,seed=3", arch="tiny-mlp",
            method="cts", sparsities=(0.5, 0.75), repeats=2, seed=0,
            out_dir=str(out),
            search=SearchConfig(kappa=0.5, steps=30, objective="kl",
                                batch_size=32, seed_init=0, seed_search=1,
                                seed_train=2),
            train=TrainConfig(steps=60, batch_size=32, rewind_step=10, seed=0))

    run_experiment(cfg(tmp_path / "a"))
    run_experiment(cfg(tmp_path / "b"))
    ok = True
    for name in ("metrics.csv", "layers.csv"):
        ok &= (tmp_path / "a" / name).read_bytes() == \
              (tmp_path / "b" / name).read_bytes()
    tickets_a = sorted((tmp_path / "a/cells").glob("*.ticket.json"))
    tickets_b = sorted((tmp_path / "b/cells").glob("*.ticket.json"))
    ok &= len(tickets_a) == len(tickets_b) > 0
    for pa, pb in zip(tickets_a, tickets_b):
        ok &= pa.name == pb.name and pa.read_bytes() == pb.read_bytes()
    _report(10, "byte-identical sweep outputs", ok,
            f"{len(tickets_a)} tickets compared")


def test_criterion_11_timing_budget():
    """The whole acceptance suite stays within the desk-scale time budget."""
    elapsed = time.time() - _T0
    _report(11, "end-to-end timing sanity", elapsed < 45 * 60,
            f"{elapsed:.0f}s elapsed (< 2700s)")
