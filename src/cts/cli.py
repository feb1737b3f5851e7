"""Command-line entry point.

Subcommands: search (one ticket search run), baseline (one comparator run),
sweep (full grid), sanity (the cts grid with its shuffle, invert and reinit
ablations; in an INI config, ``[sweep] sanity``), oracle (brute force),
report (aggregate CSVs). Exit codes: 0 ok, 1 cell failures, 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import mask as mk
from . import objectives as obj
from .data import DataError, load_dataset
from .experiment import (METHODS, ExperimentConfig, ExperimentError, load_config,
                         report, run_cell, run_experiment)
from .models import ARCHS, TrainConfig, build_model, evaluate, train
from .oracle import OracleError, brute_force_oracle
from .search import SearchConfig, SearchError, run_cts


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")
    p.add_argument("--dataset", default="blobs:classes=4,dim=20,n=4000,seed=7")
    p.add_argument("--arch", default="mlp-2x256", choices=ARCHS)


def _add_kappa(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, default=0.05, help="target density")


def _add_ticket_args(p: argparse.ArgumentParser) -> None:
    """The objective that scores a ticket, and the training around it."""
    p.add_argument("--objective", default="kl", choices=sorted(obj.OBJECTIVES))
    p.add_argument("--train-steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--rewind-step", type=int, default=0)


def _add_search_args(p: argparse.ArgumentParser) -> None:
    """How the CTS search runs; a baseline reads none of these."""
    p.add_argument("--controller", default="gradbalance", choices=["gradbalance", "lagrange"])
    p.add_argument("--steps", type=int, default=500, help="search steps")
    p.add_argument("--eta", type=float, default=0.99)
    p.add_argument("--lambda-lr", type=float, default=0.01)
    p.add_argument("--tau", type=float, default=mk.TAU_DEFAULT)


def _search_cfg(args) -> SearchConfig:
    """SearchConfig from the flags the subcommand has; fields without a flag
    keep their defaults (a sweep's kappa is set per cell from its sparsity)."""
    flags = {f.name: getattr(args, f.name) for f in fields(SearchConfig) if hasattr(args, f.name)}
    return SearchConfig(**flags, seed_init=args.seed, seed_search=args.seed + 1,
                        seed_train=args.seed + 2)


def _train_cfg(args) -> TrainConfig:
    return TrainConfig(steps=args.train_steps, batch_size=args.batch_size,
                       rewind_step=args.rewind_step, seed=args.seed)


def cmd_search(args) -> int:
    try:
        cfg, tcfg = _search_cfg(args), _train_cfg(args)
        data = load_dataset(args.dataset)
    except (SearchError, DataError, ValueError) as e:
        print(f"cts search: bad config: {e}", file=sys.stderr)
        return 2
    try:  # an empty ticket is caught before any training
        ticket, final, info = run_cts(cfg, args.arch, data, tcfg)
    except mk.MaskError as e:
        print(f"cts search: bad config: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mk.save_ticket(out / "ticket.json", ticket, arch=args.arch, kappa=args.kappa)
    acc, loss = evaluate(final, data.x_test, data.y_test)
    metrics = info["search"]
    lines = ["step,objective,expected_density,lambda"]
    for step, r, ed, lam in metrics.rows():
        lines.append(f"{step},{r:.12g},{ed:.12g},{lam:.12g}")
    (out / "search_trace.csv").write_text("\n".join(lines) + "\n")
    summary = {"accuracy": acc, "test_loss": loss, "density": ticket.density,
               "objective_at_draw": info["objective_at_draw"],
               "expected_density_end": info["expected_density_end"],
               "overshoot_violations": metrics.overshoot_violations}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"density={ticket.density:.6g} accuracy={acc:.4f} "
          f"objective_at_draw={info['objective_at_draw']:.6g}")
    return 0


def cmd_baseline(args) -> int:
    try:
        cfg = ExperimentConfig(dataset=args.dataset, arch=args.arch, method=args.method,
                               sparsities=(1.0 - args.kappa,), repeats=1, seed=args.seed,
                               out_dir=args.out, search=_search_cfg(args),
                               train=_train_cfg(args))
    except (ExperimentError, SearchError, ValueError) as e:
        print(f"cts baseline: bad config: {e}", file=sys.stderr)
        return 2
    try:  # an empty ticket is caught before any training
        record, ticket = run_cell(cfg, 1.0 - args.kappa, 0)
    except (DataError, mk.MaskError) as e:
        print(f"cts baseline: bad config: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mk.save_ticket(out / "ticket.json", ticket, arch=args.arch, kappa=args.kappa,
                   meta={"method": record.method})
    print(f"method={record.method} density={ticket.density:.6g} "
          f"accuracy={record.accuracy:.4f} objective_at_draw={record.objective_at_draw:.6g}")
    return 0


def cmd_sweep(args) -> int:
    try:
        if args.config:
            cfg = load_config(args.config)
            if args.out != "out":
                cfg.out_dir = args.out
        else:
            cfg = ExperimentConfig(dataset=args.dataset, arch=args.arch, method=args.method,
                                   sparsities=tuple(float(s) for s in args.sparsities.split(",")),
                                   repeats=args.repeats, seed=args.seed, out_dir=args.out,
                                   search=_search_cfg(args), train=_train_cfg(args),
                                   workers=args.workers, sanity=args.sanity)
    except (ExperimentError, SearchError, ValueError, configparser.Error) as e:
        print(f"cts {args.command}: bad config: {e}", file=sys.stderr)
        return 2
    records, failures = run_experiment(cfg)
    print(f"cells={len(records)} failures={len(failures)} out={cfg.out_dir}")
    return 1 if failures else 0


def cmd_oracle(args) -> int:
    try:
        data = load_dataset(args.dataset)
        model = build_model(args.arch, args.seed, data.input_shape, data.num_classes)
        model = train(model, data, _train_cfg(args), stop_step=args.rewind_step)
        batch = data.eval_batch(seed=args.seed)
        best, table = brute_force_oracle(model, batch, args.kappa, args.objective)
    except (DataError, mk.MaskError, OracleError, ValueError) as e:
        print(f"cts oracle: bad config: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mk.save_ticket(out / "oracle_best.json", best, arch=args.arch, kappa=args.kappa)
    lines = ["indices,value"]
    for idx, value in table:
        lines.append(f"{'|'.join(str(i) for i in idx)},{value:.12g}")
    (out / "oracle_table.csv").write_text("\n".join(lines) + "\n")
    print(f"masks={len(table)} best={table[0][1]:.6g} worst={table[-1][1]:.6g}")
    return 0


def cmd_report(args) -> int:
    try:
        rows = report(args.csvs)
    except (OSError, ExperimentError) as e:
        print(f"cts report: {e}", file=sys.stderr)
        return 2
    print("method,sparsity,mean_accuracy,std_accuracy,n")
    for method, sparsity, mean, std, n in rows:
        print(f"{method},{sparsity:.6g},{mean:.6g},{std:.6g},{n}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("search", help="one ticket search run")
    _add_common(p)
    _add_kappa(p)
    _add_ticket_args(p)
    _add_search_args(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("baseline", help="one baseline pruner run")
    _add_common(p)
    _add_kappa(p)
    _add_ticket_args(p)
    p.add_argument("--method", required=True, choices=[m for m in METHODS if m != "cts"])
    p.set_defaults(fn=cmd_baseline)

    for name in ("sweep", "sanity"):
        p = sub.add_parser(name, help=f"{name} over a (method, sparsity, seed) grid")
        _add_common(p)
        _add_ticket_args(p)
        _add_search_args(p)
        p.add_argument("--config", default=None, help="INI config file")
        if name == "sweep":
            p.add_argument("--method", default="cts", choices=METHODS)
        p.add_argument("--sparsities", default="0.95")
        p.add_argument("--repeats", type=int, default=1)
        p.add_argument("--workers", type=int, default=1)
        # sanity has no --method: its suite is the cts cell and its ablations
        p.set_defaults(fn=cmd_sweep, method="cts", sanity=name == "sanity")

    p = sub.add_parser("oracle", help="brute-force mask enumeration")
    _add_common(p)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--objective", default="loss", choices=sorted(obj.OBJECTIVES))
    p.add_argument("--rewind-step", type=int, default=0)
    p.add_argument("--train-steps", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=64)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("report", help="aggregate metrics CSVs")
    p.add_argument("csvs", nargs="+")
    p.set_defaults(fn=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
