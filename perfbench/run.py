"""Benchmark of ticket drawing, end to end and per layer.

    python3 perfbench/run.py --workload mlp-kl-search --seed 0 --seconds 36 --trace 0

Run from the repository root. The program is imported from `src/`. The last
line of standard output is one JSON object: `correct`, `attempted`, `failed`
and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer ones
with `--trace 1`). A traced run also writes its spans to
`perfbench/traces/<workload>-s<seed>.json`. Sweep output goes to
`perfbench/runs/` and is removed when the run ends.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_FIRST = 5              # set-ups timed before the first round
SETUP_BETWEEN = 3            # and after every round; setup_s is their median


def blas_info() -> str:
    """BLAS library and its thread count, read from the loaded OpenBLAS."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            try:
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                config = getattr(lib, f"{prefix}_get_config{suffix}")
            except AttributeError:
                continue
            threads.restype, threads.argtypes = ctypes.c_int, []
            config.restype, config.argtypes = ctypes.c_char_p, []
            return f"{config().decode().strip()} threads={threads()}"
    return "blas=unknown threads=unknown"


def _cts_modules() -> list[str]:
    return [m for m in sys.modules if m == "cts" or m.startswith("cts.")]


def setup(wl, seed: int):
    """One timed set-up: import cts afresh, build the dataset and the model.

    The cts modules loaded before, if any, are put back afterwards, so the
    modules the run works with (and the spans patched into them) stay in
    force. Returns the time taken, the cts package, the dataset and the model.
    """
    saved = {name: sys.modules.pop(name) for name in _cts_modules()}
    t0 = time.perf_counter()
    cts = importlib.import_module("cts")
    data = cts.data.load_dataset(wl.dataset_spec(seed))
    model = cts.models.build_model(wl.arch, seed, data.input_shape, data.num_classes)
    took = time.perf_counter() - t0
    if saved:
        for name in _cts_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return took, cts, data, model


def run_rounds(runner, seconds: float, rec, between) -> tuple[list[float], list[float], list]:
    """Whole rounds until the next would end past `seconds`; at least one.

    With a recorder (None for an untraced run), rounds alternate untraced and traced (layer spans on),
    at least one of each. `between()` runs after every round, untimed.
    Returns the untraced and traced round times and the span index range of
    each traced round.
    """
    plain, traced, ranges = [], [], []
    start = time.perf_counter()
    while True:
        on = rec is not None and len(plain) > len(traced)
        if rec is not None:
            rec.layers_on = on
        first = len(rec.spans) if on else 0
        t0 = time.perf_counter()
        runner.run_round(len(plain) + len(traced))
        took = time.perf_counter() - t0
        if on:
            traced.append(took)
            ranges.append((first, len(rec.spans)))
        else:
            plain.append(took)
        between()
        if (rec is None or traced) and time.perf_counter() - start + took > seconds:
            return plain, traced, ranges


def end_to_end(spans, runner, setup_s: float) -> dict[str, float]:
    def named(name, **meta):
        return [s for s in spans if s.name == name and all(s.meta.get(k) == v for k, v in meta.items())]

    searches, trains = named("search.search_phase"), named("models.train")
    if runner.wl.pipelines:
        tickets = [s.dur for s in named("search.run_cts") if s.parent < 0]
    else:
        tickets = [s.dur for s in named("experiment.cell") if s.meta.get("kind", "").startswith("cts")]
    ltr_sweeps = named("experiment.sweep", sweep="ltr")
    ltr_trains = [s for s in trains if s.meta["masked"] and s.parent >= 0
                  and spans[s.parent].name == "baselines.run_ltr"]
    return {
        "setup_s": setup_s,
        "ticket_s": statistics.median(tickets),
        "search_steps_per_s": sum(s.meta["steps"] for s in searches) / sum(s.dur for s in searches),
        "train_steps_per_s": sum(s.meta["steps"] for s in trains) / sum(s.dur for s in trains),
        "sanity_sweep_s": statistics.median(s.dur for s in named("experiment.sweep", sweep="sanity")),
        "ltr_round_s": sum(s.dur for s in ltr_sweeps) / len(ltr_trains),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cts" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'cts'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from layers import from_spans, probe_kernels
    from spans import LAYER_POINTS, PHASE_POINTS, Recorder
    from workloads import WORKLOADS, Runner

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    first, cts, data, model = setup(wl, args.seed)
    setup_times = [first]

    def time_setups(n):
        setup_times.extend(setup(wl, args.seed)[0] for _ in range(n))

    time_setups(SETUP_FIRST - 1)
    print(f"# {wl.name} seed={args.seed} nproc={os.cpu_count()} {blas_info()}", flush=True)

    out_root = HERE / "runs" / f"{wl.name}-s{args.seed}-p{os.getpid()}"
    runner = Runner(cts, wl, args.seed, data, out_root)
    runner.warm_up()
    rec = Recorder(hooks=runner.hooks())
    rec.patch(PHASE_POINTS)
    t_start = time.perf_counter()
    try:
        if args.trace:
            rec.patch(LAYER_POINTS, layer=True)
        plain, traced, ranges = run_rounds(runner, args.seconds, rec if args.trace else None,
                                           lambda: time_setups(SETUP_BETWEEN))
        print(f"# rounds: {', '.join(f'{r:.2f}' for r in plain)} s"
              + (f"; traced: {', '.join(f'{r:.2f}' for r in traced)} s" if traced else ""), flush=True)
    finally:
        rec.undo()
        shutil.rmtree(out_root, ignore_errors=True)

    print(f"# largest final expected density: {runner.density_peak:.4f} of the GradBalance bound",
          flush=True)
    violations = list(runner.round_violations)
    failed = [op for op in runner.ops if op.violations]
    known = {}
    for op in failed:
        if op.fails_only_known_fault():
            known.setdefault(op.kind, f"{op.name}: {op.violations[0][0]}: {op.violations[0][1]}")
        else:
            violations.extend(f"{op.name}: {c}: {r}" for c, r in op.violations)
    for kind, line in known.items():
        print(f"KNOWN FAULT ({kind}, counted in failed) {line}", file=sys.stderr)
    for line in violations:
        print(f"CHECK FAILED {line}", file=sys.stderr)

    if args.trace:
        metrics = from_spans(rec.spans, ranges)
        metrics.update(probe_kernels(cts, model, data.x_train[:wl.batch_size]))
        metrics["ticket_test_acc"] = statistics.fmean(
            runner.accuracies if wl.pipelines else runner.sweep_accuracies["cts"])
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(traced) / statistics.median(plain) - 1.0)
        print("# sweep accuracy by method: " + ", ".join(
            f"{m}={statistics.fmean(a):.4f}" for m, a in sorted(runner.sweep_accuracies.items())))
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        rec.dump(traces / f"{wl.name}-s{args.seed}.json", t_start)
    else:
        metrics = end_to_end(rec.spans, runner, statistics.median(setup_times))
    with open(HERE.parent / "BENCHMARK.json") as f:
        units = {m["name"]: m["unit"] for m in json.load(f)["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": not violations, "attempted": len(runner.ops), "failed": len(failed),
              "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
