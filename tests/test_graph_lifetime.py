"""Every graph-building entry point leaves no cyclic garbage.

A pass that forms no reference cycle frees its graph by reference counting
the moment its last reference goes, instead of whenever the cyclic garbage
collector next runs. Each test runs one entry point with the collector
disabled and ``gc.DEBUG_SAVEALL`` set, so that ``gc.collect()`` keeps
whatever only it could have freed, and asserts that it keeps nothing.
"""

import gc
import types
from collections import Counter

import numpy as np
import pytest

import cts.baselines as bl
import cts.objectives as obj
from cts.data import make_blobs
from cts.experiment import CellGroup, ExperimentConfig, METHODS, run_cell
from cts.mask import sample_logistic, step_rng
from cts.models import TrainConfig, build_model, evaluate, train
from cts.search import SearchConfig, run_cts

BLOBS = "blobs:classes=2,dim=4,n=200,seed=3"


def assert_no_cyclic_garbage(run) -> None:
    """``run()`` leaves nothing that only the cyclic collector would free."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        found = list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    kinds = Counter(type(o).__name__ for o in found).most_common(8)
    funcs = sorted({o.__qualname__ for o in found if isinstance(o, types.FunctionType)})
    assert not found, f"{len(found)} objects in cycles: {kinds}; functions: {funcs}"


def _arch_data(arch):
    if arch == "mlp-2x256":
        return make_blobs(classes=4, dim=8, n=200, seed=3)
    return make_blobs(classes=4, dim=64, n=200, seed=3, image=True)


def _batch(data, n=4):
    return data.x_train[:n], data.y_train[:n]


@pytest.mark.parametrize("arch", ["mlp-2x256", "lenet-conv4", "resnet-tiny"])
@pytest.mark.parametrize("tag", sorted(obj.OBJECTIVES))
def test_value_and_alpha_grad(arch, tag):
    data = _arch_data(arch)
    model = build_model(arch, 0, data.input_shape, data.num_classes)
    x, y = _batch(data)
    logits = np.random.default_rng(0).standard_normal(model.d)
    eps = sample_logistic(step_rng(0, 0), model.d)
    assert_no_cyclic_garbage(
        lambda: obj.value_and_alpha_grad(tag, model, x, y, logits, eps, 2.0 / 3.0))


@pytest.mark.parametrize("tag", sorted(obj.OBJECTIVES))
def test_teacher_pass_and_hard_value(tag):
    data = _arch_data("resnet-tiny")
    model = build_model("resnet-tiny", 0, data.input_shape, data.num_classes)
    x, y = _batch(data)
    mask = (np.random.default_rng(0).random(model.d) < 0.5).astype(np.int64)
    assert_no_cyclic_garbage(lambda: obj.teacher_pass(tag, model, x, y))
    assert_no_cyclic_garbage(lambda: obj.hard_value(tag, model, x, y, mask))


def test_train_and_evaluate():
    data = _arch_data("resnet-tiny")
    model = build_model("resnet-tiny", 0, data.input_shape, data.num_classes)
    mask = (np.random.default_rng(0).random(model.d) < 0.5).astype(np.int64)
    cfg = TrainConfig(steps=3, batch_size=4)
    assert_no_cyclic_garbage(lambda: train(model, data, cfg))
    assert_no_cyclic_garbage(lambda: train(model, data, cfg, mask=mask))
    assert_no_cyclic_garbage(lambda: evaluate(model, data.x_test, data.y_test))


def test_saliency_scores():
    data = _arch_data("resnet-tiny")
    model = build_model("resnet-tiny", 0, data.input_shape, data.num_classes)
    batch = _batch(data, 8)
    assert_no_cyclic_garbage(lambda: bl.snip_scores(model, batch))
    assert_no_cyclic_garbage(lambda: bl.grasp_scores(model, batch))
    assert_no_cyclic_garbage(lambda: bl.synflow_prune(model, 0.5, iterations=2))


def test_run_cts_and_run_ltr():
    data = _arch_data("lenet-conv4")
    tcfg = TrainConfig(steps=4, batch_size=4, rewind_step=1)
    scfg = SearchConfig(kappa=0.5, steps=2, objective="feature", batch_size=4)
    assert_no_cyclic_garbage(lambda: run_cts(scfg, "lenet-conv4", data, tcfg))
    assert_no_cyclic_garbage(lambda: bl.run_ltr("lenet-conv4", data, tcfg, 0.5))


@pytest.mark.parametrize("method", METHODS)
def test_run_cell(method, tmp_path):
    cfg = ExperimentConfig(
        dataset=BLOBS, arch="tiny-mlp", method=method, sparsities=(0.5,),
        out_dir=str(tmp_path),
        search=SearchConfig(steps=3, batch_size=8),
        train=TrainConfig(steps=4, batch_size=8, rewind_step=0))
    group = CellGroup(BLOBS)
    variants = ["", "shuffle", "invert", "reinit"] if method == "cts" else [""]
    for variant in variants:
        assert_no_cyclic_garbage(lambda: run_cell(cfg, 0.5, 0, variant, group))
