"""Command-line entry point.

Subcommands: search (one ticket search run), baseline (one comparator run),
sweep (full grid), sanity (the cts grid with its shuffle, invert and reinit
ablations; in an INI config, ``[sweep] sanity``), oracle (brute force),
report (aggregate CSVs). With ``--config``, the file sets a sweep's grid and
``--out`` is the one flag allowed beside it; ``sanity --config`` runs that
grid in sanity mode. A flag left out takes its config field's default, as
an INI key does (``--steps``: ``SearchConfig.steps``, 1,000). Exit codes:
0 ok; 1 a run failed on a valid config (divergence, layer collapse, a
non-finite pass) or a sweep cell failed; 2 a usage error (a bad flag,
config value or dataset spec, an unreadable file, an empty ticket). Either
error is one line on stderr from ``main``; any other exception is a bug.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from . import controllers as ctl
from . import mask as mk
from . import objectives as obj
from .baselines import BaselineError
from .data import DataError, load_dataset
from .experiment import (METHODS, ExperimentConfig, ExperimentError, _floats, load_config,
                         report, run_cell, run_experiment)
from .models import ARCHS, DivergenceError, TrainConfig, TrainConfigError, evaluate
from .oracle import OracleError, brute_force_oracle
from .search import SearchConfig, SearchError, rewind_point, run_cts
from .tensor import NonFiniteError

# what a run with a valid config can still die of: training that diverges,
# a pruner that empties a layer, a pass that turns non-finite
_RUN_FAILURES = (DivergenceError, BaselineError, NonFiniteError)
# what a bad flag, config value, dataset spec or input file raises
_USAGE_ERRORS = (DataError, ExperimentError, mk.MaskError, OracleError, SearchError,
                 TrainConfigError)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    p.add_argument("--out", default=ExperimentConfig.out_dir)
    p.add_argument("--dataset", default=ExperimentConfig.dataset)
    p.add_argument("--arch", default=ExperimentConfig.arch, choices=ARCHS)


def _add_kappa(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kappa", type=float, default=SearchConfig.kappa, help="target density")


def _add_ticket_args(p: argparse.ArgumentParser) -> None:
    """The objective that scores a ticket, and the training around it."""
    p.add_argument("--objective", default=SearchConfig.objective, choices=sorted(obj.OBJECTIVES))
    p.add_argument("--train-steps", type=int, default=TrainConfig.steps)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--rewind-step", type=int, default=TrainConfig.rewind_step)


def _add_search_args(p: argparse.ArgumentParser) -> None:
    """How the CTS search runs; a baseline reads none of these."""
    p.add_argument("--controller", default=SearchConfig.controller, choices=ctl.MODES)
    p.add_argument("--steps", type=int, default=SearchConfig.steps, help="search steps")
    p.add_argument("--eta", type=float, default=SearchConfig.eta)
    p.add_argument("--lambda-lr", type=float, default=SearchConfig.lambda_lr)
    p.add_argument("--tau", type=float, default=SearchConfig.tau)


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
    cfg, tcfg = _search_cfg(args), _train_cfg(args)
    data = load_dataset(args.dataset)
    # an empty ticket is caught before any training
    ticket, final, info = run_cts(cfg, args.arch, data, tcfg)
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
               "expected_density_end": metrics.expected_density[-1],
               "overshoot_violations": metrics.overshoot_violations}
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"density={ticket.density:.6g} accuracy={acc:.4f} "
          f"objective_at_draw={info['objective_at_draw']:.6g}")
    return 0


def cmd_baseline(args) -> int:
    cfg = ExperimentConfig(dataset=args.dataset, arch=args.arch, method=args.method,
                           sparsities=(1.0 - args.kappa,), repeats=1, seed=args.seed,
                           out_dir=args.out, search=_search_cfg(args), train=_train_cfg(args))
    # an empty ticket is caught before any training
    record, ticket = run_cell(cfg, 1.0 - args.kappa, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mk.save_ticket(out / "ticket.json", ticket, arch=args.arch, kappa=args.kappa,
                   meta={"method": record.method})
    print(f"method={record.method} density={ticket.density:.6g} "
          f"accuracy={record.accuracy:.4f} objective_at_draw={record.objective_at_draw:.6g}")
    return 0


class _NoteGiven(argparse.Action):
    """Store a flag's value and note the flag in ``namespace.given``, so a
    command can tell a flag given at its default from one left out."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = getattr(namespace, "given", ()) + (self.option_strings[0],)


def cmd_sweep(args) -> int:
    if args.config:
        # the file sets the grid; only the output directory and the
        # subcommand's sanity mode come from the command line
        beside = [f for f in args.given if f not in ("--config", "--out")]
        if beside:
            raise ExperimentError(f"{', '.join(beside)} cannot be given with --config; "
                                  f"set it in the file")
        cfg = load_config(args.config)
        cfg = replace(cfg, out_dir=args.out if "--out" in args.given else cfg.out_dir,
                      sanity=cfg.sanity or args.command == "sanity")
    else:
        cfg = ExperimentConfig(dataset=args.dataset, arch=args.arch, method=args.method,
                               sparsities=args.sparsities, repeats=args.repeats,
                               seed=args.seed, out_dir=args.out, search=_search_cfg(args),
                               train=_train_cfg(args), workers=args.workers,
                               sanity=args.sanity)
    records, failures = run_experiment(cfg)
    print(f"cells={len(records)} failures={len(failures)} out={cfg.out_dir}")
    return 1 if failures else 0


def cmd_oracle(args) -> int:
    data = load_dataset(args.dataset)
    model = rewind_point(args.arch, args.seed, data, _train_cfg(args), args.kappa)
    batch = data.eval_batch(seed=args.seed)
    best, table = brute_force_oracle(model, batch, args.kappa, args.objective)
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
    rows = report(args.csvs)
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
        p.register("action", None, _NoteGiven)  # every flag below stores a value
        _add_common(p)
        _add_ticket_args(p)
        _add_search_args(p)
        p.add_argument("--config", default=None,
                       help="INI config file; no flag but --out may be given with it")
        if name == "sweep":
            p.add_argument("--method", default=ExperimentConfig.method, choices=METHODS)
        p.add_argument("--sparsities", type=_floats, default=ExperimentConfig.sparsities)
        p.add_argument("--repeats", type=int, default=ExperimentConfig.repeats)
        p.add_argument("--workers", type=int, default=ExperimentConfig.workers)
        # sanity has no --method: its suite is the cts cell and its ablations
        p.set_defaults(fn=cmd_sweep, method="cts", sanity=name == "sanity")

    p = sub.add_parser("oracle", help="brute-force mask enumeration")
    _add_common(p)
    p.add_argument("--kappa", type=float, required=True)
    _add_ticket_args(p)
    p.set_defaults(fn=cmd_oracle, objective="loss")

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
    try:
        return args.fn(args)
    except _RUN_FAILURES as e:
        print(f"cts {args.command}: run failed: {e}", file=sys.stderr)
        return 1
    except _USAGE_ERRORS as e:
        print(f"cts {args.command}: usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
