"""Fast tests of the benchmark's own checks: each accepts a good output and
rejects one built to violate it.

    python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from cts import data as D, mask as M, models, objectives  # noqa: E402


@pytest.fixture
def tiny():
    ds = D.make_blobs(classes=2, dim=4, n=400, seed=3, separation=3.0)
    model = models.train(models.build_model("tiny-mlp", 0, ds.input_shape, 2), ds,
                         models.TrainConfig(steps=40, batch_size=32))
    return ds, model


def test_numpy_forward_matches_evaluate(tiny):
    ds, model = tiny
    layout = model.maskable_layout()
    acc, _ = models.evaluate(model, ds.x_test, ds.y_test)
    assert checks.accuracy_matches(model.params, layout, ds.x_test, ds.y_test, acc) is None
    assert checks.accuracy_matches(model.params, layout, ds.x_test, ds.y_test, acc + 0.01)


def test_ticket_size():
    dist = M.init_distribution(1000, 0.05)
    dist.logits = np.random.default_rng(0).standard_normal(1000)
    ticket = M.clamp_topk(dist, 0.05)
    assert checks.ticket_size(ticket.mask, 0.05) is None
    short = ticket.mask.copy()
    short[np.flatnonzero(short)[0]] = 0
    assert checks.ticket_size(short, 0.05)
    assert checks.ticket_size(ticket.mask * 2, 0.05)            # not binary
    assert checks.expected_count(0.05, 3400) == 170
    assert checks.ticket_size(np.r_[np.ones(61), np.zeros(3339)], 0.02)   # LTR at 0.98


def test_topk_order():
    logits = np.random.default_rng(1).standard_normal(200)
    ticket = M.clamp_topk(M.MaskDistribution(logits, M.TAU_DEFAULT), 0.1)
    assert checks.topk_order(ticket.mask, logits) is None
    swapped = ticket.mask.copy()
    swapped[np.argmax(logits)], swapped[np.argmin(logits)] = 0, 1
    assert checks.topk_order(swapped, logits)


def test_masked_zero_and_unchanged_params(tiny):
    _, model = tiny
    mask = (np.arange(model.d) % 2).astype(np.int64)
    weights = model.maskable_vector() * mask
    assert checks.masked_zero(weights, mask) is None
    weights[0] = 1e-12
    assert checks.masked_zero(weights, mask)
    before = {k: v.copy() for k, v in model.params.items()}
    assert checks.params_unchanged(before, model.params) is None
    changed = dict(before, **{"fc1.w": before["fc1.w"] + 1e-15})
    assert checks.params_unchanged(before, changed)


def test_density_bound_and_sign():
    kappa = 0.05
    inside = np.full(100, np.log(1.1 * kappa / (1 - 1.1 * kappa)))
    assert checks.density_bound(inside, kappa) is None
    assert checks.density_bound(inside + 0.2, kappa)
    assert checks.nonnegative("kl", 0.0) is None
    assert checks.nonnegative("kl", -1e-9)
    assert checks.nonnegative("kl", float("nan"))


def test_directional_derivative(tiny):
    ds, model = tiny
    rng = np.random.default_rng(2)
    x, y = ds.batch(0, 32, 0)
    logits, eps = rng.standard_normal(model.d), rng.logistic(size=model.d)
    v = rng.standard_normal(model.d)
    v /= np.linalg.norm(v)

    def f(l):
        return objectives.value_and_alpha_grad("kl", model, x, y, l, eps, M.TAU_DEFAULT)[0]

    _, g = objectives.value_and_alpha_grad("kl", model, x, y, logits, eps, M.TAU_DEFAULT)
    assert checks.directional_derivative(f, g, logits, v) is None
    assert checks.directional_derivative(f, 1.01 * g, logits, v)


def test_read_accuracies(tmp_path):
    csv = tmp_path / "metrics.csv"
    csv.write_text("# schema=1\nmethod,sparsity,seed,accuracy,objective_at_draw\n"
                   "cts,0.95,0,0.8,0.1\ncts,0.95,1,0.6,0.1\ncts+invert,0.95,0,0.25,1\n")
    assert checks.read_accuracies(csv) == {"cts": [0.8, 0.6], "cts+invert": [0.25]}


def test_known_faults_are_named_per_kind():
    from workloads import Op
    assert Op("ltr_s0.98_r0", "ltr", [("ticket_size", "")]).fails_only_known_fault()
    assert Op("alpha_grad_grad", "alpha_grad.grad", [("directional", "")]).fails_only_known_fault()
    assert not Op("alpha_grad_kl", "alpha_grad.kl", [("directional", "")]).fails_only_known_fault()
    assert not Op("ltr_s0.98_r0", "ltr", [("ticket_size", ""), ("masked_zero", "")]).fails_only_known_fault()
    assert not Op("pipeline0", "cts", [("ticket_size", "")]).fails_only_known_fault()
