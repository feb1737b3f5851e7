"""Data loaders, brute-force oracle, sweep/experiment, report, and CLI tests."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

import cts.baselines as baselines
import cts.cli as cli
import cts.experiment as experiment
import cts.objectives as obj
import cts.search as search
from cts.cli import main as cli_main
from cts.data import (DataError, Dataset, load_dataset, load_idx, make_blobs,
                      parse_dataset_spec)
from cts.experiment import (ExperimentConfig, MetricsRecord, load_config,
                            report, run_experiment)
from cts.mask import load_ticket, ticket_size
from cts.models import DivergenceError, TrainConfig, build_model
from cts.objectives import hard_value
from cts.oracle import OracleError, brute_force_oracle
from cts.search import SearchConfig

DATASET = "blobs:classes=2,dim=4,n=400,seed=3"


def _write_idx(tmp_path, images, labels):
    n, h, w = images.shape
    img_path = tmp_path / "imgs.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x00000803, n, h, w) +
                         images.astype(np.uint8).tobytes())
    lab_path.write_bytes(struct.pack(">II", 0x00000801, n) +
                         labels.astype(np.uint8).tobytes())
    return img_path, lab_path


class TestBlobs:
    def test_deterministic(self):
        a = make_blobs(classes=3, dim=6, n=300, seed=1)
        b = make_blobs(classes=3, dim=6, n=300, seed=1)
        np.testing.assert_array_equal(a.x_train, b.x_train)
        np.testing.assert_array_equal(a.y_test, b.y_test)

    def test_split_sizes(self):
        d = make_blobs(classes=2, dim=4, n=500, seed=0)
        assert len(d.x_train) == 400 and len(d.x_test) == 100

    def test_standardized(self):
        d = make_blobs(classes=4, dim=20, n=2000, seed=0)
        allx = np.concatenate([d.x_train, d.x_test])
        assert abs(allx.mean()) < 1e-10
        assert abs(allx.std() - 1.0) < 1e-10

    def test_separable(self):
        # nearest-centroid on train centroids classifies test near perfectly
        d = make_blobs(classes=4, dim=20, n=2000, seed=0)
        cents = np.stack([d.x_train[d.y_train == c].mean(axis=0) for c in range(4)])
        pred = np.argmin(((d.x_test[:, None, :] - cents) ** 2).sum(-1), axis=1)
        assert (pred == d.y_test).mean() > 0.99

    def test_image_form(self):
        d = make_blobs(classes=2, dim=16, n=100, seed=0, image=True)
        assert d.x_train.shape[1:] == (1, 4, 4)
        assert d.input_shape == (1, 4, 4)

    def test_image_requires_square_dim(self):
        with pytest.raises(DataError):
            make_blobs(classes=2, dim=15, n=100, seed=0, image=True)

    def test_batches_deterministic_per_step(self):
        d = make_blobs(classes=2, dim=4, n=400, seed=0)
        x1, y1 = d.batch(3, 32, seed=9)
        x2, y2 = d.batch(3, 32, seed=9)
        x3, _ = d.batch(4, 32, seed=9)
        np.testing.assert_array_equal(x1, x2)
        assert not np.array_equal(x1, x3)

    def test_batch_rows_drawn_once_returned_fresh(self, monkeypatch):
        # the kept row indices give the rows a fresh Dataset draws, and every
        # call gathers them into new arrays
        d = make_blobs(classes=3, dim=6, n=300, seed=2)
        draws = []
        real = np.random.default_rng

        def counting(*args):
            draws.append(1)
            return real(*args)

        monkeypatch.setattr(np.random, "default_rng", counting)
        for step, size, seed in [(0, 32, 1), (7, 32, 1), (7, 16, 4), (3, 1000, 0)]:
            first = d.batch(step, size, seed)
            again = d.batch(step, size, seed)
            assert len(draws) == 1
            draws.clear()
            fresh = make_blobs(classes=3, dim=6, n=300, seed=2).batch(step, size, seed)
            draws.clear()
            for a, b, c in zip(first, again, fresh):
                np.testing.assert_array_equal(a, c)
                np.testing.assert_array_equal(b, c)
                assert not np.shares_memory(a, b)
            first[0][:] = 0.0
            np.testing.assert_array_equal(d.batch(step, size, seed)[0], fresh[0])
        assert len(d.x_train) == 240 and d.batch(3, 1000, 0)[0].shape[0] == 240


class TestIdx:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, (50, 5, 5))
        labels = rng.integers(0, 3, 50)
        img, lab = _write_idx(tmp_path, images, labels)
        d = load_idx(img, lab)
        assert len(d.x_train) + len(d.x_test) == 50
        assert d.num_classes == 3
        assert d.input_shape == (1, 5, 5)
        assert abs(np.concatenate([d.x_train, d.x_test]).mean()) < 1e-10

    def test_bad_magic_with_offset(self, tmp_path):
        p = tmp_path / "bad.idx"
        p.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 8)
        with pytest.raises(DataError, match="byte 0"):
            load_idx(p, p)

    def test_truncated_payload(self, tmp_path):
        p = tmp_path / "short.idx"
        p.write_bytes(struct.pack(">IIII", 0x00000803, 10, 5, 5) + b"\x00" * 7)
        with pytest.raises(DataError, match="mismatch"):
            load_idx(p, p)

    def test_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(0)
        img, _ = _write_idx(tmp_path, rng.integers(0, 256, (10, 3, 3)),
                            rng.integers(0, 2, 10))
        lab_path = tmp_path / "l2.idx"
        lab_path.write_bytes(struct.pack(">II", 0x00000801, 9) + b"\x00" * 9)
        with pytest.raises(DataError, match="mismatch"):
            load_idx(img, lab_path)

    def test_spec_parser(self, tmp_path):
        with pytest.raises(DataError):
            load_dataset("csv:path=x")
        with pytest.raises(DataError):
            load_dataset("idx:images=only")
        with pytest.raises(DataError, match="clases"):
            load_dataset("blobs:classes=2,dim=4,n=100,seed=1,clases=3")
        # blobs values are checked before anything is built; the defaults
        # (classes 4, dim 20) count too
        for spec, word in [("blobs:classes=1", "classes"), ("blobs:dim=3", "dim"),
                           ("blobs:classes=3,n=2", "n >="), ("blobs:dim=15,image=1", "square")]:
            with pytest.raises(DataError, match=word):
                parse_dataset_spec(spec)
        d = load_dataset("blobs:classes=2,dim=4,n=100,seed=1")
        assert d.num_classes == 2


class TestOracle:
    def test_small_enumeration_count(self):
        model = build_model("tiny-mlp", 0, (4,), 2)
        data = make_blobs(classes=2, dim=4, n=200, seed=3)
        # kappa chosen so n = 2 of d = 12 -> C(12,2) = 66 masks
        best, table = brute_force_oracle(model, data.eval_batch(seed=0), 2 / 12, "loss")
        assert len(table) == 66
        assert best.mask.sum() == 2
        values = [v for _, v in table]
        assert values == sorted(values)
        assert best.indices().tolist() == list(table[0][0])

    def test_budget_guard(self):
        model = build_model("mlp-2x256", 0, (20,), 4)
        data = make_blobs(classes=4, dim=20, n=200, seed=0)
        with pytest.raises(OracleError, match="budget"):
            brute_force_oracle(model, data.eval_batch(seed=0), 0.5, "loss")

    def test_deterministic(self):
        model = build_model("tiny-mlp", 0, (4,), 2)
        data = make_blobs(classes=2, dim=4, n=200, seed=3)
        b1, t1 = brute_force_oracle(model, data.eval_batch(seed=0), 2 / 12, "loss")
        b2, t2 = brute_force_oracle(model, data.eval_batch(seed=0), 2 / 12, "loss")
        np.testing.assert_array_equal(b1.mask, b2.mask)
        assert t1 == t2


def _exp_cfg(out_dir, method="cts", repeats=1, sanity=False, workers=1):
    return ExperimentConfig(
        dataset=DATASET, arch="tiny-mlp", method=method, sparsities=(0.5,),
        repeats=repeats, seed=0, out_dir=str(out_dir), workers=workers,
        sanity=sanity,
        search=SearchConfig(kappa=0.5, steps=30, objective="kl",
                            batch_size=32, seed_init=0, seed_search=1,
                            seed_train=2),
        train=TrainConfig(steps=60, batch_size=32, rewind_step=10, seed=0))


def _count_cells(monkeypatch):
    """The (sparsity, rep, variant) of every cell the sweeps run from here on."""
    ran = []
    real = experiment.run_cell

    def counting(cfg, sparsity, rep, variant="", **kwargs):
        ran.append((sparsity, rep, variant))
        return real(cfg, sparsity, rep, variant, **kwargs)

    monkeypatch.setattr(experiment, "run_cell", counting)
    return ran


class TestExperiment:
    def test_metrics_record_validation(self):
        with pytest.raises(Exception):
            MetricsRecord(method="cts", sparsity=1.5, seed=0, accuracy=0.9,
                          objective_at_draw=0.0, wall_time=0.0,
                          per_layer_density=[])

    def test_sweep_writes_csvs(self, tmp_path):
        records, failures = run_experiment(_exp_cfg(tmp_path))
        assert not failures
        assert (tmp_path / "metrics.csv").exists()
        assert (tmp_path / "layers.csv").exists()
        assert (tmp_path / "timings.csv").exists()
        body = (tmp_path / "metrics.csv").read_text()
        assert body.startswith("# schema=1")
        assert "wall" not in body  # timing lives in the sidecar only

    def test_metrics_csv_byte_identical_across_runs(self, tmp_path):
        run_experiment(_exp_cfg(tmp_path / "a"))
        run_experiment(_exp_cfg(tmp_path / "b"))
        assert (tmp_path / "a/metrics.csv").read_bytes() == \
               (tmp_path / "b/metrics.csv").read_bytes()
        assert (tmp_path / "a/layers.csv").read_bytes() == \
               (tmp_path / "b/layers.csv").read_bytes()

    def test_resume_skips_finished_cells(self, tmp_path):
        cfg = _exp_cfg(tmp_path, repeats=2)
        run_experiment(cfg)
        first = (tmp_path / "metrics.csv").read_bytes()
        # drop one cell and the summary; the rerun must restore both
        cells = sorted((tmp_path / "cells").glob("*.json"))
        done = [p for p in cells if not p.name.endswith(".ticket.json")]
        done[0].unlink()
        (tmp_path / "metrics.csv").unlink()
        run_experiment(cfg)
        assert (tmp_path / "metrics.csv").read_bytes() == first

    def test_corrupt_cached_ticket_recomputed(self, tmp_path):
        cfg = _exp_cfg(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "metrics.csv").read_bytes()
        tickets = sorted((tmp_path / "cells").glob("*.ticket.json"))
        doc = json.loads(tickets[0].read_text())
        good = json.dumps(doc, sort_keys=True)
        doc["indices"] = doc["indices"][1:]
        tickets[0].write_text(json.dumps(doc))
        _, failures = run_experiment(cfg)
        # the checksum mismatch forces a recompute that restores the cell
        assert not failures
        assert (tmp_path / "metrics.csv").read_bytes() == first
        assert json.loads(tickets[0].read_text())["indices"] == \
               json.loads(good)["indices"]

    def test_truncated_cell_record_reruns_that_cell(self, tmp_path, monkeypatch):
        cfg = _exp_cfg(tmp_path, repeats=2)
        run_experiment(cfg)
        first = (tmp_path / "metrics.csv").read_bytes()
        cell = tmp_path / "cells" / "cts_s0.5_r1.json"
        cell.write_bytes(cell.read_bytes()[:20])  # an interrupted write
        ran = _count_cells(monkeypatch)
        _, failures = run_experiment(cfg)
        assert not failures
        assert ran == [(0.5, 1, "")]
        assert (tmp_path / "metrics.csv").read_bytes() == first
        assert not list((tmp_path / "cells").glob("*.tmp"))

    def test_changed_config_recomputes_cells(self, tmp_path, monkeypatch):
        run_experiment(_exp_cfg(tmp_path / "a"))
        reseeded = _exp_cfg(tmp_path / "a")
        reseeded.seed = 5
        run_experiment(reseeded)
        fresh = _exp_cfg(tmp_path / "b")
        fresh.seed = 5
        run_experiment(fresh)
        for name in ("metrics.csv", "layers.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        # the same config again reuses every cell
        ran = _count_cells(monkeypatch)
        run_experiment(reseeded)
        assert ran == []
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()

    @pytest.mark.parametrize("method, field, value, reruns", [
        ("snip", "steps", 31, False),       # SNIP never runs the search
        ("snip", "objective", "loss", True),  # but scores its ticket with the objective
        ("cts", "steps", 31, True),
        ("cts", "kappa", 0.3, False),       # run_cell sets kappa from the sparsity
        ("cts", "seed_init", 7, False),     # and the seeds from the seed and repeat,
        ("cts", "train.seed", 7, False),    # the train seed too, for every method
        ("snip", "train.seed", 7, False),
    ])
    def test_fingerprint_covers_the_fields_a_method_reads(self, tmp_path, monkeypatch,
                                                          method, field, value, reruns):
        # a field is a search field, or a train field as train.<name>
        cfg = _exp_cfg(tmp_path, method=method, repeats=2)
        run_experiment(cfg)
        part, _, name = field.rpartition(".")
        setattr(getattr(cfg, part or "search"), name, value)
        ran = _count_cells(monkeypatch)
        _, failures = run_experiment(cfg)
        assert not failures
        assert ran == ([(0.5, 0, ""), (0.5, 1, "")] if reruns else [])

    def test_failed_rerun_drops_stale_record(self, tmp_path, monkeypatch):
        run_experiment(_exp_cfg(tmp_path))

        def boom(*args, **kwargs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr(experiment, "run_cell", boom)
        cfg = _exp_cfg(tmp_path)
        cfg.seed = 5
        records, failures = run_experiment(cfg)
        assert failures and records == []

    def test_clean_rerun_removes_failures_json(self, tmp_path, monkeypatch):
        cfg = _exp_cfg(tmp_path, method="snip")
        real = experiment.run_cell

        def boom(*args, **kwargs):
            raise RuntimeError("cell failed")

        monkeypatch.setattr(experiment, "run_cell", boom)
        _, failures = run_experiment(cfg)
        assert json.loads((tmp_path / "failures.json").read_text()) == failures
        monkeypatch.setattr(experiment, "run_cell", real)
        _, failures = run_experiment(cfg)
        assert not failures and not (tmp_path / "failures.json").exists()
        assert not list(tmp_path.glob("*.tmp"))

    def test_failures_recorded_not_fatal(self, tmp_path):
        cfg = _exp_cfg(tmp_path)
        cfg.sparsities = (0.999,)  # round(kappa * d) == 0: empty ticket
        cfg.search.kappa = 0.001
        records, failures = run_experiment(cfg)
        assert failures
        assert (Path(cfg.out_dir) / "failures.json").exists()

    def test_sanity_adds_variants(self, tmp_path):
        records, failures = run_experiment(_exp_cfg(tmp_path, sanity=True))
        assert not failures
        methods = {r.method for r in records}
        assert methods == {"cts", "cts+shuffle", "cts+invert"}

    @staticmethod
    def _count_draws(monkeypatch, log: Path):
        """Counts run_cts calls in a file, so that pool workers count too."""
        real = experiment.run_cts

        def counting(scfg, *args):
            with open(log, "a") as f:
                f.write(f"{scfg.seed_init}\n")
            return real(scfg, *args)

        monkeypatch.setattr(experiment, "run_cts", counting)
        return lambda: log.read_text().split() if log.exists() else []

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("rewind_step", [10, 0])
    def test_sanity_draws_once_per_pair(self, tmp_path, monkeypatch, rewind_step, workers):
        cfg = _exp_cfg(tmp_path / "out", repeats=2, sanity=True, workers=workers)
        cfg.train.rewind_step = rewind_step
        draws = self._count_draws(monkeypatch, tmp_path / "draws.log")
        records, failures = run_experiment(cfg)
        assert not failures
        assert len(records) == 2 * (4 if rewind_step == 0 else 3)
        assert sorted(draws()) == ["0", "1"]  # one draw per repeat, seeds 0 and 1

    def test_failed_draw_is_not_repeated(self, tmp_path, monkeypatch):
        cfg = _exp_cfg(tmp_path / "out", repeats=2, sanity=True)
        cfg.sparsities = (0.999,)  # round(kappa * d) == 0: empty ticket
        cfg.train.rewind_step = 0
        draws = self._count_draws(monkeypatch, tmp_path / "draws.log")
        records, failures = run_experiment(cfg)
        assert records == []
        assert sorted(draws()) == ["0", "1"]  # one failing draw per pair
        for r in (0, 1):
            error = failures[f"cts_s0.999_r{r}"]
            assert error.startswith("MaskError: ")
            for v in ("shuffle", "invert", "reinit"):
                assert failures[f"cts+{v}_s0.999_r{r}"] == error

    @pytest.mark.parametrize("rewind_step", [10, 0])
    def test_shared_draw_matches_unshared(self, tmp_path, monkeypatch, rewind_step):
        real_cts, draws = experiment.run_cts, []

        def keeping(*args):
            draws.append(real_cts(*args))
            return draws[-1]

        monkeypatch.setattr(experiment, "run_cts", keeping)
        shared = _exp_cfg(tmp_path / "shared", sanity=True)
        shared.train.rewind_step = rewind_step
        records, _ = run_experiment(shared)
        # every row is scored on its own mask at the rewind point (cell seed 0,
        # eval batch seed 1), the base row included
        (_, _, info), = draws
        ex, ey = load_dataset(DATASET).eval_batch(seed=1)
        for r in records:
            ticket, _ = load_ticket(tmp_path / "shared" / "cells" / f"{r.method}_s0.5_r0.ticket.json")
            assert r.objective_at_draw == hard_value("kl", info["rewind_model"], ex, ey,
                                                     ticket.mask.astype(np.float64)), r.method
        real = experiment.run_cell

        def unshared(cfg, sparsity, rep, variant="", group=None):
            return real(cfg, sparsity, rep, variant)  # every cell draws its own ticket

        monkeypatch.setattr(experiment, "run_cell", unshared)
        alone = _exp_cfg(tmp_path / "alone", sanity=True)
        alone.train.rewind_step = rewind_step
        run_experiment(alone)
        for name in ("metrics.csv", "layers.csv"):
            assert (tmp_path / "shared" / name).read_bytes() == \
                   (tmp_path / "alone" / name).read_bytes(), name

    def test_sanity_group_takes_one_teacher_pass(self, tmp_path, monkeypatch):
        # the cts, shuffle and invert rows of a pair score their masks on one
        # eval batch against one rewound model, so its loss gradients (the
        # grad objective's teacher) are taken once per pair, outside the search
        cfg = ExperimentConfig(
            dataset="blobs:classes=4,dim=64,n=400,seed=3,image=1", arch="lenet-conv4",
            sparsities=(0.9,), repeats=2, seed=0, out_dir=str(tmp_path), sanity=True,
            search=SearchConfig(steps=2, objective="grad", batch_size=16),
            train=TrainConfig(steps=6, batch_size=16, rewind_step=2))
        rewound, searching, passes = [], [], []
        real_search, real_grads = search.search_phase, obj.teacher_layer_grads

        def search_phase(model, *args):
            rewound.append(model)
            searching.append(True)
            try:
                return real_search(model, *args)
            finally:
                searching.pop()

        def teacher_layer_grads(model, x, y):
            if not searching and any(model is m for m in rewound):
                passes.append(len(rewound))
            return real_grads(model, x, y)

        monkeypatch.setattr(search, "search_phase", search_phase)
        monkeypatch.setattr(obj, "teacher_layer_grads", teacher_layer_grads)
        records, failures = run_experiment(cfg)
        assert not failures and len(records) == 6
        assert passes == [1, 2]

    def test_rerun_of_ablations_draws_once(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = _exp_cfg(out, sanity=True)
        run_experiment(cfg)
        first = {n: (out / n).read_bytes() for n in ("metrics.csv", "layers.csv")}
        for cell in ("cts+shuffle_s0.5_r0", "cts+invert_s0.5_r0"):
            (out / "cells" / f"{cell}.json").unlink()
        ran = _count_cells(monkeypatch)
        draws = self._count_draws(monkeypatch, tmp_path / "draws.log")
        _, failures = run_experiment(cfg)
        assert not failures
        assert ran == [(0.5, 0, "shuffle"), (0.5, 0, "invert")]
        assert len(draws()) == 1
        assert {n: (out / n).read_bytes() for n in first} == first

    def test_rerun_of_base_cell_reuses_ablations(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        cfg = _exp_cfg(out, sanity=True)
        run_experiment(cfg)
        first = {n: (out / n).read_bytes() for n in ("metrics.csv", "layers.csv")}
        (out / "cells" / "cts_s0.5_r0.json").unlink()
        ran = _count_cells(monkeypatch)
        draws = self._count_draws(monkeypatch, tmp_path / "draws.log")
        run_experiment(cfg)
        assert ran == [(0.5, 0, "")]
        assert len(draws()) == 1
        assert {n: (out / n).read_bytes() for n in first} == first

    def test_no_draw_crosses_sweeps(self, tmp_path, monkeypatch):
        draws = self._count_draws(monkeypatch, tmp_path / "draws.log")
        run_experiment(_exp_cfg(tmp_path / "a", sanity=True))
        run_experiment(_exp_cfg(tmp_path / "b", sanity=True))
        assert len(draws()) == 2
        assert (tmp_path / "a/metrics.csv").read_bytes() == (tmp_path / "b/metrics.csv").read_bytes()

    @pytest.mark.parametrize("method", experiment.METHODS)
    def test_every_method_keeps_ticket_size(self, method):
        # lenet-conv4 at sparsity 0.98: round(0.02 * 3400) == 68 weights
        cfg = ExperimentConfig(
            dataset="blobs:classes=4,dim=64,n=400,seed=3,image=1", arch="lenet-conv4",
            method=method, sparsities=(0.98,), seed=0,
            search=SearchConfig(steps=2, batch_size=16),
            train=TrainConfig(steps=4, batch_size=16, rewind_step=2))
        record, ticket = experiment.run_cell(cfg, 0.98, 0)
        d = build_model("lenet-conv4", 0).d
        assert int(ticket.mask.sum()) == ticket_size(0.02, d) == 68
        assert record.method == method

    def test_report_aggregates(self, tmp_path):
        run_experiment(_exp_cfg(tmp_path, repeats=2))
        rows = report([tmp_path / "metrics.csv"])
        assert len(rows) == 1
        method, sparsity, mean, std, n = rows[0]
        assert method == "cts" and n == 2
        assert 0 <= mean <= 1 and std >= 0

    def test_csvs_hold_only_current_grid(self, tmp_path):
        wide = _exp_cfg(tmp_path)
        wide.sparsities = (0.5, 0.75)
        run_experiment(wide)
        records, _ = run_experiment(_exp_cfg(tmp_path))
        assert [r.sparsity for r in records] == [0.5]
        for name in ("metrics.csv", "layers.csv", "timings.csv"):
            rows = (tmp_path / name).read_text().splitlines()[2:]
            assert rows and all(row.split(",")[1] == "0.5" for row in rows), name

    def test_config_file_roundtrip(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[task]\ndataset = blobs:classes=2,dim=4,n=400,seed=3\n"
            "arch = tiny-mlp\n"
            "[sweep]\nmethod = snip\nsparsities = 0.5, 0.75\nrepeats = 2\nseed = 4\n"
            f"out = {tmp_path / 'out'}\n"
            "[search]\nsteps = 30\nobjective = loss\n"
            "[train]\nsteps = 60\nrewind_step = 10\n")
        cfg = load_config(ini)
        assert cfg.method == "snip"
        assert cfg.out_dir == str(tmp_path / "out")
        assert cfg.sparsities == (0.5, 0.75)
        assert cfg.repeats == 2
        assert cfg.search.objective == "loss"
        assert cfg.train.rewind_step == 10

    def test_config_unknown_key_rejected(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[task]\ndataset = {DATASET}\narch = tiny-mlp\n"
                       "[sweep]\nsparsitys = 0.3\n")
        with pytest.raises(experiment.ExperimentError, match="sparsitys"):
            load_config(ini)
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
        assert not (out / "cells").exists()
        err = capsys.readouterr().err.strip()
        assert "sparsitys" in err and len(err.splitlines()) == 1
        ini.write_text("[serach]\nsteps = 5\n")
        with pytest.raises(experiment.ExperimentError, match="serach"):
            load_config(ini)


class TestCli:
    def test_search_writes_artifacts(self, tmp_path):
        rc = cli_main(["search", "--dataset", DATASET, "--arch", "tiny-mlp",
                       "--kappa", "0.5", "--steps", "30", "--train-steps", "60",
                       "--rewind-step", "10", "--batch-size", "32",
                       "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "ticket.json").exists()
        assert (tmp_path / "search_trace.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0 <= summary["accuracy"] <= 1
        # GradBalance's bound is 1.1 kappa; a violation is a step above 1.1 times
        # that bound after the expected density first came down through it
        rows = (tmp_path / "search_trace.csv").read_text().splitlines()[1:]
        eds = [float(row.split(",")[2]) for row in rows]
        bound = 1.1 * 0.5
        crossed = [i for i in range(1, len(eds)) if eds[i - 1] > bound >= eds[i]]
        expected = sum(ed > 1.1 * bound for ed in eds[crossed[0]:]) if crossed else 0
        assert summary["overshoot_violations"] == expected

    def test_baseline_command(self, tmp_path, capsys):
        common = ["--method", "magnitude", "--dataset", DATASET, "--arch", "tiny-mlp",
                  "--objective", "loss", "--train-steps", "60", "--rewind-step", "10",
                  "--batch-size", "32"]
        rc = cli_main(["baseline", "--kappa", "0.5", "--out", str(tmp_path / "one")] + common)
        assert rc == 0
        assert (tmp_path / "one" / "ticket.json").exists()
        printed = capsys.readouterr().out.split("objective_at_draw=")[1].split()[0]
        # the value a one-cell sweep of the same settings writes
        assert cli_main(["sweep", "--sparsities", "0.5", "--out", str(tmp_path / "sweep")]
                        + common) == 0
        capsys.readouterr()
        row = (tmp_path / "sweep" / "metrics.csv").read_text().splitlines()[2].split(",")
        assert printed == f"{float(row[4]):.6g}"

    def test_oracle_command(self, tmp_path):
        rc = cli_main(["oracle", "--dataset", DATASET, "--arch", "tiny-mlp",
                       "--kappa", str(2 / 12), "--objective", "loss",
                       "--out", str(tmp_path)])
        assert rc == 0
        table = (tmp_path / "oracle_table.csv").read_text().strip().splitlines()
        assert len(table) == 67  # header + C(12,2)

    def test_report_command(self, tmp_path, capsys):
        run_experiment(_exp_cfg(tmp_path))
        rc = cli_main(["report", str(tmp_path / "metrics.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("method,")

    def test_report_counts_each_seed_once(self, tmp_path, capsys):
        # a row seen in two CSVs is one seed; the same key with another
        # accuracy is a conflict, named in a one-line error
        run_experiment(_exp_cfg(tmp_path))
        metrics = tmp_path / "metrics.csv"
        assert cli_main(["report", str(metrics), str(metrics)]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == "cts" and row[-1] == "1"
        lines = metrics.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "0" if float(fields[3]) else "1"
        lines[2] = ",".join(fields)
        other = tmp_path / "other.csv"
        other.write_text("\n".join(lines) + "\n")
        assert cli_main(["report", str(metrics), str(other)]) == 2
        err = capsys.readouterr().err.strip()
        assert ",".join(fields[:3]) in err and len(err.splitlines()) == 1

    def test_usage_error_exit_code(self, tmp_path, capsys):
        # a non-finite value is a bad config value, whether a flag, a dataset
        # spec key or an INI key sets it: exit 2 with one line, before any run
        out = tmp_path / "out"
        task = f"[task]\ndataset = {DATASET}\narch = tiny-mlp\n"
        cases = [(["search", "--tau", tau], "tau") for tau in ("nan", "inf")]
        cases += [(["search", "--dataset", f"{DATASET},separation={sep}"], "separation")
                  for sep in ("nan", "inf", "-5")]
        # image is a 0/1 switch: any other integer is a bad value, not an image
        cases += [(["search", "--dataset", f"{DATASET},image={v}"], "image") for v in ("2", "-1")]
        for i, (section, key, value) in enumerate([
                ("train", "lr", "nan"), ("train", "lr", "inf"), ("train", "weight_decay", "inf"),
                ("search", "alpha_lr", "inf"), ("search", "lambda_lr", "inf"),
                ("search", "tau", "nan")]):
            ini = tmp_path / f"bad{i}.ini"
            ini.write_text(f"{task}[{section}]\n{key} = {value}\n")
            cases.append((["sweep", "--config", str(ini)], key))
        for argv, word in cases:
            assert cli_main(argv + ["--out", str(out)]) == 2, argv
            assert not out.exists()
            err = capsys.readouterr().err.strip()
            assert word in err and len(err.splitlines()) == 1, (argv, err)
        with pytest.raises(DataError, match="separation"):
            make_blobs(separation=np.inf)
        assert cli_main(["search", "--objective", "entropy"]) == 2
        assert cli_main(["frobnicate"]) == 2
        assert cli_main(["search", "--precision", "float32"]) == 2
        # flags that no baseline reads, and a kappa a sweep sets per cell
        assert cli_main(["baseline", "--method", "snip", "--steps", "5"]) == 2
        assert cli_main(["sweep", "--kappa", "0.1"]) == 2
        assert cli_main(["sanity", "--sanity"]) == 2
        # one spelling each: steps, the sanity subcommand, and its cts method
        assert cli_main(["search", "--quick-factor", "0.5"]) == 2
        assert cli_main(["sweep", "--sanity"]) == 2
        assert cli_main(["sanity", "--method", "cts"]) == 2
        assert cli_main(["search", "--arch", "lenet-c4"]) == 2

    def test_empty_ticket_fails_before_training(self, tmp_path, capsys, monkeypatch):
        def no_train(*args, **kwargs):
            raise AssertionError("trained before the kappa check")

        for module in (search, experiment, baselines):
            monkeypatch.setattr(module, "train", no_train)
        # every training step draws a batch, whichever module calls train
        monkeypatch.setattr(Dataset, "batch", no_train)
        # d = 12 on tiny-mlp, so kappa 0.02 keeps round(0.24) == 0 entries
        common = ["--dataset", DATASET, "--arch", "tiny-mlp", "--out", str(tmp_path / "out")]
        for argv in (["search", "--kappa", "0.02"],
                     ["baseline", "--method", "snip", "--kappa", "0.02"],
                     ["baseline", "--method", "ltr", "--kappa", "0.02"],
                     ["baseline", "--method", "grasp", "--kappa", "0.02"],
                     ["baseline", "--method", "synflow", "--kappa", "0.02"],
                     ["baseline", "--method", "magnitude", "--kappa", "0.02"],
                     ["baseline", "--method", "random", "--kappa", "0.02"],
                     ["oracle", "--kappa", "0.02", "--rewind-step", "5"]):
            assert cli_main(argv + common) == 2
            err = capsys.readouterr().err.strip()
            assert "empty ticket" in err and len(err.splitlines()) == 1
            assert "Traceback" not in err
        # a sweep records the cell as failed, still before any training
        assert cli_main(["sanity", "--sparsities", "0.98"] + common) == 1
        failures = json.loads((tmp_path / "out" / "failures.json").read_text())
        assert "cts_s0.98_r0" in failures
        assert all("empty ticket" in err for err in failures.values())

    def test_failed_run_is_one_line(self, tmp_path, capsys, monkeypatch):
        # a run that fails on a valid config exits 1 with one line, no traceback:
        # SynFlow empties fc2 of tiny-mlp at kappa 0.09 ...
        out = ["--out", str(tmp_path / "out")]
        assert cli_main(["baseline", "--method", "synflow", "--arch", "tiny-mlp",
                         "--dataset", "blobs:classes=2,dim=4,n=200,seed=1", "--kappa", "0.09",
                         "--train-steps", "5"] + out) == 1
        err = capsys.readouterr().err.strip()
        assert err == "cts baseline: run failed: layer collapse: 'fc2.w' fully pruned"

        # ... and training that diverges fails every command that trains
        def diverge(*args, **kwargs):
            raise DivergenceError("non-finite loss for 50 consecutive steps")

        monkeypatch.setattr(search, "train", diverge)
        common = ["--dataset", DATASET, "--arch", "tiny-mlp", "--kappa", "0.5"] + out
        for argv in (["search"], ["baseline", "--method", "snip"], ["oracle"]):
            assert cli_main(argv + common) == 1
            err = capsys.readouterr().err.strip()
            assert err == f"cts {argv[0]}: run failed: non-finite loss for 50 consecutive steps"

    def test_sanity_config_file(self, tmp_path, capsys):
        # `cts sanity --config` runs the file's grid in sanity mode; a grid
        # flag beside --config is a usage error, not silently dropped
        ini = tmp_path / "s.ini"
        ini.write_text(f"[task]\ndataset = {DATASET}\narch = tiny-mlp\n"
                       "[sweep]\nsparsities = 0.5\n"
                       "[search]\nsteps = 20\n"
                       "[train]\nsteps = 60\nrewind_step = 10\nbatch_size = 32\n")
        out = tmp_path / "out"
        assert cli_main(["sanity", "--config", str(ini), "--out", str(out)]) == 0
        rows = (out / "metrics.csv").read_text().splitlines()[2:]
        assert sorted(r.split(",")[:2] for r in rows) == [
            ["cts", "0.5"], ["cts+invert", "0.5"], ["cts+shuffle", "0.5"]]
        capsys.readouterr()
        for command in ("sanity", "sweep"):
            other = tmp_path / command
            assert cli_main([command, "--config", str(ini), "--sparsities", "0.9",
                             "--out", str(other)]) == 2
            assert not other.exists()
            err = capsys.readouterr().err.strip()
            assert "--sparsities" in err and len(err.splitlines()) == 1

    def test_flag_and_config_forms_share_cells(self, tmp_path, monkeypatch):
        # one grid given as flags and as a config file runs the same cells,
        # so either form resumes the other's output directory
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[task]\ndataset = {DATASET}\narch = tiny-mlp\n"
                       "[sweep]\nmethod = snip\nsparsities = 0.5\nseed = 1\n"
                       "[search]\nbatch_size = 32\n"
                       "[train]\nsteps = 60\nrewind_step = 10\nbatch_size = 32\n")
        flags = ["sweep", "--dataset", DATASET, "--arch", "tiny-mlp", "--method", "snip",
                 "--sparsities", "0.5", "--seed", "1", "--train-steps", "60",
                 "--rewind-step", "10", "--batch-size", "32"]
        out = ["--out", str(tmp_path / "out")]
        assert cli_main(flags + out) == 0
        first = (tmp_path / "out" / "metrics.csv").read_bytes()
        ran = _count_cells(monkeypatch)
        assert cli_main(["sweep", "--config", str(ini)] + out) == 0
        assert ran == []
        assert (tmp_path / "out" / "metrics.csv").read_bytes() == first

    def test_flags_left_out_match_keys_left_out(self, tmp_path, monkeypatch):
        # a sweep given as flags and the same sweep as a config file set up
        # one config: each flag's default is its config field's default
        configs = []
        monkeypatch.setattr(cli, "run_experiment", lambda cfg: configs.append(cfg) or ([], {}))
        ini = tmp_path / "exp.ini"
        ini.write_text("[sweep]\n")
        for argv in (["sweep"], ["sweep", "--config", str(ini)]):
            assert cli_main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert configs[0] == configs[1]
        assert configs[0].search.steps == SearchConfig.steps

    def test_bad_config_value_exit_code(self, tmp_path, capsys):
        ini = tmp_path / "exp.ini"
        out = tmp_path / "out"
        task = f"[task]\ndataset = {DATASET}\narch = tiny-mlp\n"
        for text, word in [(task + "[search]\nobjective = entropy", "entropy"),
                           (task + "[search]\ncontroller = lagrnage", "lagrnage"),
                           (task + "[search]\neta = 1.5", "eta"),
                           (task + "[search]\ntau = 0", "tau"),
                           (task + "[sweep]\nmethod = snip\nsanity = true", "sanity"),
                           (task.replace(DATASET, f"{DATASET},clases=3"), "clases"),
                           (task.replace("tiny-mlp", "lenet-c4"), "lenet-c4"),
                           (task + "[sweep]\nsparsities = 0.5, 0.5", "repeated"),
                           (task + "[search]\nbatch_size = 0", "batch_size"),
                           (task + "[search]\nalpha_lr = -0.5", "alpha_lr"),
                           (task + "[train]\nmomentum = 1.5", "momentum"),
                           (task + "[train]\nweight_decay = -0.1", "weight_decay"),
                           (task + "[train]\nsteps = 0\nrewind_step = 3", "rewind")]:
            ini.write_text(text + "\n")
            assert cli_main(["sweep", "--config", str(ini), "--out", str(out)]) == 2
            assert not (out / "cells").exists()
            err = capsys.readouterr().err.strip()
            assert word in err and len(err.splitlines()) == 1
        for argv, word in [(["search", "--eta", "1.5"], "eta"),
                           (["search", "--tau", "0"], "tau"),
                           (["search", "--controller", "gradbalance", "--kappa", "0"], "kappa"),
                           (["baseline", "--method", "snip", "--kappa", "1.5"], "kappa"),
                           (["baseline", "--method", "snip", "--dataset", "blobs:classes=1"],
                            "classes"),
                           (["oracle", "--dataset", DATASET, "--arch", "tiny-mlp",
                             "--kappa", "0"], "kappa"),
                           (["search", "--dataset", "blobz:classes=2"], "blobz"),
                           (["oracle", "--dataset", "blobz:classes=2", "--kappa", "0.5"], "blobz"),
                           (["oracle", "--dataset", DATASET, "--arch", "tiny-mlp", "--kappa",
                             "0.5", "--rewind-step", "5", "--train-steps", "3"], "rewind"),
                           (["oracle", "--dataset", DATASET, "--arch", "tiny-mlp", "--kappa",
                             "0.5", "--rewind-step", "1000"], "rewind"),
                           (["search", "--arch", "tiny-mlp", "--dataset", DATASET, "--kappa",
                             "0.5", "--steps", "3", "--train-steps", "0", "--rewind-step",
                             "-1"], "rewind"),
                           (["oracle", "--dataset", DATASET, "--arch", "tiny-mlp", "--kappa",
                             "0.5", "--batch-size", "0"], "batch"),
                           (["search", "--dataset", f"{DATASET},clases=3"], "clases"),
                           (["sweep", "--dataset", f"{DATASET},clases=3"], "clases"),
                           (["sanity", "--dataset", f"{DATASET},clases=3"], "clases"),
                           (["sweep", "--dataset", "blobs:classes=1"], "classes"),
                           (["sanity", "--dataset", "blobs:dim=15,image=1"], "square"),
                           (["sweep", "--dataset", DATASET, "--sparsities", "0.5,0.5"],
                            "repeated"),
                           (["sweep", "--dataset", DATASET, "--workers", "-2"], "workers"),
                           (["search", "--controller", "lagrange", "--lambda-lr", "-0.5"],
                            "lambda_lr")]:
            assert cli_main(argv + ["--out", str(out)]) == 2
            assert not out.exists()
            err = capsys.readouterr().err.strip()
            assert word in err and len(err.splitlines()) == 1
        latin1 = tmp_path / "latin1.csv"
        latin1.write_bytes(b"method,sparsity\n\xe9\n")
        # absent, not a metrics CSV, and not UTF-8
        for path in (tmp_path / "missing.csv", ini, latin1):
            assert cli_main(["report", str(path)]) == 2
            err = capsys.readouterr().err.strip()
            assert path.name in err and len(err.splitlines()) == 1
        # an accuracy that is not a number in [0, 1], as MetricsRecord rules
        for acc in ("nan", "7.5"):
            bad = tmp_path / f"acc-{acc}.csv"
            bad.write_text(f"method,sparsity,seed,accuracy,objective_at_draw\ncts,0.5,0,{acc},0\n")
            assert cli_main(["report", str(bad)]) == 2
            err = capsys.readouterr().err.strip()
            assert f"{bad}:2: accuracy out of range: {acc}" in err and len(err.splitlines()) == 1
        # each bad value below exits 2 with one line naming it, before any
        # output, from every command that takes it
        idx = f"idx:images={tmp_path / 'no-images.idx'},labels={tmp_path / 'no-labels.idx'}"
        commands = [["search"], ["baseline", "--method", "snip"], ["sweep"], ["sanity"],
                    ["oracle", "--kappa", "0.5"]]
        for flags, word in [(["--dataset", idx], "no-images.idx"),
                            (["--dataset", DATASET, "--seed", "-1"], "seed"),
                            (["--dataset", "blobs:classes=2,dim=4,n=400,seed=-1"], "seed")]:
            for command in commands:
                argv = command + flags + ["--arch", "tiny-mlp", "--out", str(out)]
                assert cli_main(argv) == 2, argv
                assert not out.exists()
                err = capsys.readouterr().err.strip()
                assert word in err and len(err.splitlines()) == 1, (argv, err)
        for text, word in [(task + "[search]\nsteps = abc", "steps"),
                           (task + "[train]\nsteps = 30\nlr_drops = 5:-1.0", "lr_drops")]:
            ini.write_text(text + "\n")
            for command in ("sweep", "sanity"):
                assert cli_main([command, "--config", str(ini), "--out", str(out)]) == 2
                assert not out.exists()
                err = capsys.readouterr().err.strip()
                assert word in err and len(err.splitlines()) == 1, (command, err)
