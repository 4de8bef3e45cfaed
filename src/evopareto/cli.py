"""Command-line interface.

Subcommands:
  run <config> --out <dir> [--seed N] [--jobs N]   execute an experiment
  metrics <dir>                                    metrics.csv + fronts.csv
  stats <dir> --metric {hv,gd,igd} [--alpha 0.05]  Friedman/Nemenyi -> cd.csv
                                                   (one dataset per run)
  export-plots <dir>                               per-generation curve data
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .config import parse_config, serialize_config


def _cmd_run(args) -> int:
    text = Path(args.config).read_text(encoding="utf-8")
    config = parse_config(text)
    if args.seed is not None:
        config = config.with_seed(args.seed)
    out_dir = Path(args.out) if args.out else Path(config.output_dir or "results")
    _check_out_dir(out_dir, config)
    records = harness.run_experiment(config, jobs=args.jobs)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.txt").write_text(serialize_config(config), encoding="utf-8")
    harness.save_records(records, out_dir)
    aborted = [r for r in records if r.status != "ok"]
    print(f"completed {len(records) - len(aborted)}/{len(records)} runs "
          f"({sum(r.eval_count for r in records)} evaluations) -> {out_dir}")
    for record in aborted:
        print(f"  aborted: {record.algorithm} run {record.run_index} "
              f"(non-finite evaluation)")
    return 0


def _check_out_dir(out_dir: Path, config) -> None:
    """Refuse a results directory that holds another config's results; the
    same config may run into it again, since it gives the same results."""
    echoed = out_dir / "config.txt"
    records = out_dir / "records"
    if echoed.exists():
        if echoed.read_text(encoding="utf-8") != serialize_config(config):
            raise ValueError(f"{out_dir} holds the results of a different config "
                             f"(see {echoed}); use a fresh --out")
    elif records.is_dir() and any(records.iterdir()):
        raise ValueError(f"{records} holds run records but {out_dir} has no config.txt; "
                         f"use a fresh --out")


def _cmd_metrics(args) -> int:
    records = harness.load_records(args.dir)
    rows, reference, fronts = harness.compute_metrics(records)
    out_dir = Path(args.dir)
    harness.write_metrics_csv(rows, out_dir / "metrics.csv")
    harness.write_fronts_csv(reference, fronts, out_dir / "fronts.csv")
    print(f"wrote {out_dir / 'metrics.csv'} ({len(rows)} rows) and {out_dir / 'fronts.csv'} "
          f"({reference.shape[0]} reference points)")
    return 0


def _cmd_stats(args) -> int:
    from .stats import friedman_nemenyi

    rows = harness.read_metrics_csv(Path(args.dir) / "metrics.csv")
    table = harness.build_score_table(rows, args.metric)
    result = friedman_nemenyi(table, alpha=args.alpha)
    harness.write_cd_csv({args.metric: result}, Path(args.dir) / "cd.csv")
    print(f"Friedman chi-square = {result.statistic:.4f}, p = {result.p_value:.4g}, "
          f"CD = {result.critical_difference:.4f}")
    for name, rank in sorted(zip(result.algorithms, result.mean_ranks), key=lambda t: t[1]):
        print(f"  {name:8s} mean rank {rank:.3f}")
    for gid, group in enumerate(result.groups):
        print(f"  group {gid}: {', '.join(group)}")
    return 0


def _cmd_export_plots(args) -> int:
    rows = harness.read_metrics_csv(Path(args.dir) / "metrics.csv")
    path = Path(args.dir) / "curves.csv"
    harness.write_curves_csv(rows, path)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evopareto",
                                     description="Multi-objective policy-search benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment from a config file")
    run.add_argument("config")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override master_seed")
    run.add_argument("--jobs", type=int, default=1, help="parallel (algorithm, run) jobs")
    run.set_defaults(func=_cmd_run)

    metrics = sub.add_parser("metrics", help="compute metrics.csv and fronts.csv from records")
    metrics.add_argument("dir")
    metrics.set_defaults(func=_cmd_metrics)

    stats_cmd = sub.add_parser("stats", help="Friedman/Nemenyi comparison from metrics.csv")
    stats_cmd.add_argument("dir")
    stats_cmd.add_argument("--metric", choices=("hv", "gd", "igd"), required=True)
    stats_cmd.add_argument("--alpha", type=float, default=0.05)
    stats_cmd.set_defaults(func=_cmd_stats)

    plots = sub.add_parser("export-plots", help="export per-generation curve data")
    plots.add_argument("dir")
    plots.set_defaults(func=_cmd_export_plots)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
