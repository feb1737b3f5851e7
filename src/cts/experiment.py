"""Experiment orchestration: sweeps over (method, sparsity, seed) grids.

Each grid cell is fully isolated (its own seeds and output files) and
resumable: a finished cell leaves a JSON record plus a ticket file, the
record holding the ticket's checksum and a fingerprint of the cell's config;
reruns skip cells whose outputs verify under the same config. The summary
CSV is assembled from cell records in canonical order, so reruns with the
same config are byte-identical. Wall times go to a separate sidecar, which
is the one deliberately non-deterministic output.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import cached_property
from pathlib import Path

import numpy as np

from . import baselines as bl
from . import mask as mk
from . import objectives as obj
from .data import DataError, Dataset, load_dataset, parse_dataset_spec
from .models import ARCHS, TrainConfig, build_model, evaluate, train
from .search import SearchConfig, rewind_point, run_cts

CSV_SCHEMA = 1
METHODS = ("cts", "ltr", "snip", "grasp", "synflow", "magnitude", "random")


class ExperimentError(Exception):
    pass


@dataclass
class ExperimentConfig:
    dataset: str = "blobs:classes=4,dim=20,n=4000,seed=7"
    arch: str = "mlp-2x256"
    method: str = "cts"
    sparsities: tuple = (0.95,)
    repeats: int = 1
    seed: int = 0
    out_dir: str = "out"
    workers: int = 1
    sanity: bool = False  # emit paired base-vs-ablated rows
    search: SearchConfig = field(default_factory=SearchConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        try:
            parse_dataset_spec(self.dataset)
        except DataError as e:
            raise ExperimentError(str(e)) from e
        if self.arch not in ARCHS:
            raise ExperimentError(f"unknown architecture '{self.arch}'")
        if self.method not in METHODS:
            raise ExperimentError(f"unknown method '{self.method}'")
        if self.repeats < 1:
            raise ExperimentError("repeats must be >= 1")
        if self.seed < 0:
            raise ExperimentError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {self.workers}")
        if self.sanity and self.method != "cts":
            raise ExperimentError("sanity mode applies to the cts method")
        for s in self.sparsities:
            if not 0 < s < 1:
                raise ExperimentError(f"sparsities must lie in (0, 1), got {s}")
        names = [_fmt(s) for s in self.sparsities]  # as cells and rows spell them
        if len(set(names)) != len(names):
            raise ExperimentError(f"repeated sparsity in {','.join(names)}")


@dataclass
class MetricsRecord:
    method: str
    sparsity: float
    seed: int
    accuracy: float
    objective_at_draw: float
    wall_time: float
    per_layer_density: list  # [(layer, density), ...]

    def __post_init__(self):
        if not 0 <= self.accuracy <= 1:
            raise ExperimentError(f"accuracy out of range: {self.accuracy}")
        if not 0 < self.sparsity < 1:
            raise ExperimentError(f"sparsity out of range: {self.sparsity}")
        for _, dens in self.per_layer_density:
            if not 0 <= dens <= 1:
                raise ExperimentError(f"per-layer density out of range: {dens}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cell_seeds(base_seed: int, rep: int) -> int:
    return base_seed * 1000 + rep


@dataclass
class CellGroup:
    """What the cells of one (sparsity, repeat) pair share while their job
    runs: the dataset, loaded on first use, and the base cell's draw, the
    ``(ticket, final, info)`` of its ``run_cts``, or the exception it raised.
    Sanity ablations start from that draw, or fail with that exception,
    instead of repeating it."""
    dataset: str
    draw: tuple | None = None
    error: Exception | None = None

    @cached_property
    def data(self) -> Dataset:
        return load_dataset(self.dataset)


def _tag(method: str, variant: str) -> str:
    return f"{method}{'+' + variant if variant else ''}"


def run_cell(cfg: ExperimentConfig, sparsity: float, rep: int, variant: str = "",
             group: CellGroup | None = None) -> tuple[MetricsRecord, mk.Ticket]:
    """Execute one (method, sparsity, repeat) cell. Pure given the config.

    Every method draws its ticket from the rewind point and retrains it from
    there; the cell then scores the ticket with ``hard_value`` on the eval
    batch of seed + 1 and evaluates the retrained model. A cts cell draws
    with ``run_cts`` unless ``group`` already holds the pair's draw or its
    error, and leaves either there for the next cell. A sparsity that leaves
    an empty ticket raises ``MaskError`` before any training.
    """
    group = group or CellGroup(cfg.dataset)
    data = group.data
    kappa = 1.0 - sparsity
    seed = _cell_seeds(cfg.seed, rep)
    tcfg = TrainConfig(**{**asdict(cfg.train), "seed": seed})
    t0 = time.perf_counter()

    teacher = value = None
    if cfg.method == "cts":
        if group.error is not None:
            raise group.error
        if group.draw is None:
            scfg = SearchConfig(**{**asdict(cfg.search), "kappa": kappa, "seed_init": seed,
                                   "seed_search": seed + 1, "seed_train": seed + 2})
            try:
                group.draw = run_cts(scfg, cfg.arch, data, tcfg)
            except Exception as e:
                group.error = e
                raise
        ticket, final, info = group.draw
        model_k, teacher = info["rewind_model"], info["teacher"]
        if variant:
            ticket, final = _apply_ablation(variant, ticket, info, data, tcfg, seed)
        if ticket is group.draw[0]:  # the draw scored its own mask, reinit's too
            value = info["objective_at_draw"]
    elif cfg.method == "ltr":
        ticket, final, model_k, _ = bl.run_ltr(cfg.arch, data, tcfg, kappa)
    else:
        model_k = rewind_point(cfg.arch, seed, data, tcfg, kappa)
        ticket = _pai_ticket(cfg.method, model_k, data, kappa, seed, tcfg.batch_size)
        final = train(model_k, data, tcfg, mask=ticket.mask, start_step=tcfg.rewind_step)
    if value is None:  # against the draw's teacher pass on this batch, if it took one
        ex, ey = data.eval_batch(seed=seed + 1)
        value = obj.hard_value(cfg.search.objective, model_k, ex, ey, ticket.mask,
                               teacher=teacher)
    acc, _ = evaluate(final, data.x_test, data.y_test)
    wall = time.perf_counter() - t0

    record = MetricsRecord(method=_tag(cfg.method, variant), sparsity=sparsity, seed=seed,
                           accuracy=acc, objective_at_draw=value, wall_time=wall,
                           per_layer_density=ticket.per_layer_density())
    return record, ticket


def _apply_ablation(variant, ticket, info, data, tcfg, seed):
    """The sanity ablations: ``shuffle`` permutes the ticket's bits within
    each layer, ``invert`` clamps the stored distribution to its least
    probable entries, and ``reinit`` retrains the ticket from a model drawn
    with a new seed."""
    model = info["rewind_model"]
    if variant == "shuffle":
        ticket = bl.shuffle_layerwise(ticket, seed + 7)
    elif variant == "invert":
        ticket = mk.invert_clamp(info["distribution"], ticket.density)
    elif variant == "reinit":
        model = build_model(model.arch, seed + 7, model.input_shape, model.num_classes)
    else:
        raise ExperimentError(f"unknown sanity variant '{variant}'")
    final = train(model, data, tcfg, mask=ticket.mask, start_step=tcfg.rewind_step)
    return ticket, final


def _pai_ticket(method, model_k, data: Dataset, kappa, seed, batch_size) -> mk.Ticket:
    """A pruning-at-initialization ticket of ``model_k``; SNIP and GraSP
    score a saliency batch of ``SALIENCY_BATCH_FACTOR`` training batches."""
    layout = model_k.maskable_layout()
    if method in ("snip", "grasp"):
        batch = data.batch(0, batch_size * bl.SALIENCY_BATCH_FACTOR, seed + 3)
        scores = (bl.snip_scores if method == "snip" else bl.grasp_scores)(model_k, batch)
        return bl.prune_by_scores(scores, kappa, layout=layout)
    if method == "synflow":
        return bl.synflow_prune(model_k, kappa)
    if method == "magnitude":
        return bl.magnitude_prune(model_k, kappa)
    if method == "random":
        return bl.random_prune(model_k.d, kappa, seed, layout=layout)
    raise ExperimentError(f"unknown method '{method}'")


# -- sweep persistence ---------------------------------------------------------

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cell_id(method: str, sparsity: float, rep: int, variant: str = "") -> str:
    return f"{_tag(method, variant)}_s{_fmt(sparsity)}_r{rep}"


def _cell_fingerprint(cfg: ExperimentConfig, sparsity: float, rep: int, variant: str) -> str:
    """sha256 of the config values a cell's result depends on: not the output
    location, worker count or grid shape (sparsities, repeats, sanity), and
    only the fields its method reads. Every method scores its ticket with
    ``search.objective``; only cts runs the search, less the kappa and seeds
    that ``run_cell`` sets from the cell."""
    doc = {k: v for k, v in asdict(cfg).items()
           if k not in ("out_dir", "workers", "sparsities", "repeats", "sanity")}
    if cfg.method == "cts":
        for k in ("kappa", "seed_init", "seed_search", "seed_train"):
            del doc["search"][k]
    else:
        doc["search"] = {"objective": cfg.search.objective}
    return hashlib.sha256(json.dumps([doc, sparsity, rep, variant], sort_keys=True).encode()).hexdigest()


def _replace_file(path: Path, write) -> None:
    """write(tmp) then rename over path, so a reader never sees a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    write(tmp)
    os.replace(tmp, path)


def _run_group_job(args) -> list[tuple[str, str | None]]:
    """Run or reuse the cells of one (sparsity, repeat) pair, the base cell
    first; the pair's draw lives as long as this call."""
    cfg, sparsity, rep, variants, out_dir = args
    group = CellGroup(cfg.dataset)
    return [_run_cell_job(cfg, sparsity, rep, v, Path(out_dir), group) for v in variants]


def _run_cell_job(cfg, sparsity, rep, variant, out_dir: Path, group: CellGroup):
    cell = _cell_id(cfg.method, sparsity, rep, variant)
    cell_json = out_dir / "cells" / f"{cell}.json"
    ticket_path = out_dir / "cells" / f"{cell}.ticket.json"
    fingerprint = _cell_fingerprint(cfg, sparsity, rep, variant)
    try:  # reuse the cell only if its record parses and matches its ticket and config
        doc = json.loads(cell_json.read_text())
        if doc["config_sha256"] == fingerprint and doc["ticket_sha256"] == _sha256(ticket_path):
            return cell, None
    except (OSError, ValueError, LookupError, TypeError):  # missing, truncated or foreign
        pass
    cell_json.unlink(missing_ok=True)  # a failed rerun must not leave a stale record
    try:
        record, ticket = run_cell(cfg, sparsity, rep, variant, group=group)
    except Exception as e:  # cell failures recorded, sweep continues
        return cell, f"{type(e).__name__}: {e}"
    _replace_file(ticket_path, lambda p: mk.save_ticket(
        p, ticket, arch=cfg.arch, kappa=1.0 - sparsity,
        meta={"method": record.method, "seed": record.seed}))
    doc = asdict(record)
    doc["ticket_sha256"] = _sha256(ticket_path)
    doc["config_sha256"] = fingerprint
    _replace_file(cell_json, lambda p: p.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n"))
    return cell, None


def run_experiment(cfg: ExperimentConfig) -> tuple[list[MetricsRecord], dict[str, str]]:
    """Execute the grid and write metrics.csv / layers.csv / timings.csv.

    Returns (records, failures). Failed cells are recorded and the rest of
    the grid continues. One job runs the cells of one (sparsity, repeat)
    pair, so that sanity ablations share the base cell's draw.
    """
    out = Path(cfg.out_dir)
    (out / "cells").mkdir(parents=True, exist_ok=True)
    variants = [""]
    if cfg.sanity:
        variants = ["", "shuffle", "invert"]
        if cfg.train.rewind_step == 0:
            variants.append("reinit")

    jobs = [(cfg, s, r, variants, str(out)) for s in cfg.sparsities for r in range(cfg.repeats)]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = [c for cells in pool.map(_run_group_job, jobs) for c in cells]
    else:
        results = [c for job in jobs for c in _run_group_job(job)]
    failures = {cell: err for cell, err in results if err}

    records = _collect_records(out, [cell for cell, _ in results])
    _write_csvs(out, records)
    if failures:
        (out / "failures.json").write_text(json.dumps(failures, sort_keys=True, indent=1) + "\n")
    return records, failures


def _collect_records(out: Path, cells: list[str]) -> list[MetricsRecord]:
    """Records of this grid's cells; failed cells have none, and cells left in
    ``out`` by another grid are not reported."""
    records = []
    for cell in cells:
        path = out / "cells" / f"{cell}.json"
        if not path.exists():
            continue
        doc = json.loads(path.read_text())
        doc.pop("ticket_sha256", None)
        doc.pop("config_sha256", None)
        records.append(MetricsRecord(**doc))
    records.sort(key=lambda r: (r.method, r.sparsity, r.seed))
    return records


def _write_csvs(out: Path, records: list[MetricsRecord]) -> None:
    lines = [f"# schema={CSV_SCHEMA}",
             "method,sparsity,seed,accuracy,objective_at_draw"]
    for r in records:
        lines.append(f"{r.method},{_fmt(r.sparsity)},{r.seed},"
                     f"{_fmt(r.accuracy)},{_fmt(r.objective_at_draw)}")
    (out / "metrics.csv").write_text("\n".join(lines) + "\n")

    layer_lines = [f"# schema={CSV_SCHEMA}", "method,sparsity,seed,layer,density"]
    for r in records:
        for layer, dens in r.per_layer_density:
            layer_lines.append(f"{r.method},{_fmt(r.sparsity)},{r.seed},{layer},{_fmt(dens)}")
    (out / "layers.csv").write_text("\n".join(layer_lines) + "\n")

    timing_lines = [f"# schema={CSV_SCHEMA}", "method,sparsity,seed,wall_time"]
    for r in records:
        timing_lines.append(f"{r.method},{_fmt(r.sparsity)},{r.seed},{_fmt(r.wall_time)}")
    (out / "timings.csv").write_text("\n".join(timing_lines) + "\n")


def report(csv_paths: list) -> list[tuple[str, float, float, float, int]]:
    """Aggregate metrics CSVs: per (method, sparsity) mean and sample std of
    accuracy over seeds. Returns [(method, sparsity, mean, std, n)].

    A (method, sparsity, seed) row that appears again, as in overlapping
    CSVs, counts once; the same key with another accuracy is an error."""
    seen: dict[tuple[str, float, int], float] = {}
    for path in csv_paths:
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeError) as e:
            raise ExperimentError(f"cannot read metrics CSV {path}: {e}") from e
        for i, line in enumerate(text.splitlines(), 1):
            if line.startswith("#") or line.startswith("method,"):
                continue
            parts = line.split(",")
            try:
                key = parts[0], float(parts[1]), int(parts[2])
                acc = float(parts[3])
            except (IndexError, ValueError):
                raise ExperimentError(f"{path}:{i}: not a metrics row") from None
            if seen.setdefault(key, acc) != acc:
                raise ExperimentError(f"{path}:{i}: {key[0]},{_fmt(key[1])},{key[2]} has "
                                      f"accuracy {_fmt(acc)} here, {_fmt(seen[key])} before")
    groups: dict[tuple[str, float], list[float]] = {}
    for (method, sparsity, _), acc in seen.items():
        groups.setdefault((method, sparsity), []).append(acc)
    rows = []
    for (method, sparsity), accs in sorted(groups.items()):
        arr = np.asarray(accs)
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        rows.append((method, sparsity, float(arr.mean()), std, len(arr)))
    return rows


# -- config files ---------------------------------------------------------------

def _floats(value: str) -> tuple:
    return tuple(float(v) for v in value.split(","))


def _boolean(value: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if value.lower() not in states:
        raise ValueError(f"not a boolean: {value!r}")
    return states[value.lower()]


def _lr_drops(value: str) -> tuple:
    drops = []
    for item in value.split(";"):
        if item.strip():
            step, factor = item.split(":")
            drops.append((int(step), float(factor)))
    return tuple(drops)


# section -> (config part, {key: parser}); part None is ExperimentConfig itself
_CONFIG_KEYS = {
    "task": (None, {"dataset": str, "arch": str}),
    "sweep": (None, {"method": str, "sparsities": _floats, "repeats": int, "seed": int,
                     "out": str, "workers": int, "sanity": _boolean}),
    "search": ("search", {"objective": str, "controller": str, "steps": int, "eta": float,
                          "lambda_lr": float, "tau": float, "alpha_lr": float,
                          "batch_size": int}),
    "train": ("train", {"steps": int, "batch_size": int, "lr": float, "momentum": float,
                        "weight_decay": float, "rewind_step": int, "lr_drops": _lr_drops}),
}
# keys whose ExperimentConfig field has another name
_CONFIG_FIELDS = {"out": "out_dir"}


def load_config(path) -> ExperimentConfig:
    """key = value sections: [task], [sweep], [search], [train].

    An unknown section or key is an error, so a misspelt option cannot
    silently leave its default in place.
    """
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)
    except (configparser.Error, UnicodeError) as e:
        raise ExperimentError(f"cannot parse config file {path}: {' '.join(str(e).split())}") from e
    if not read:
        raise ExperimentError(f"cannot read config file {path}")
    parts: dict = {None: {}, "search": {}, "train": {}}
    for section in cp.sections():
        if section not in _CONFIG_KEYS:
            raise ExperimentError(f"unknown section [{section}] in {path}")
        part, keys = _CONFIG_KEYS[section]
        for key, value in cp[section].items():
            if key not in keys:
                raise ExperimentError(f"unknown key '{key}' in [{section}] of {path}")
            try:
                parts[part][_CONFIG_FIELDS.get(key, key)] = keys[key](value)
            except ValueError as e:
                raise ExperimentError(f"{path}: [{section}] {key} = {value}: {e}") from e
    # built with the constructors, so that every config class checks its values
    return ExperimentConfig(**parts[None], search=SearchConfig(**parts["search"]),
                            train=TrainConfig(**parts["train"]))
