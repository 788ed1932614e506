"""Command-line interface: run, baseline, verify, report."""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import ExperimentConfig, apply_dotted_overrides
from .errors import ConfigError, MtloptError
from .runner import (
    METRICS_FILE,
    SUMMARY_FILE,
    read_metrics,
    run_experiment,
    run_single_task_baselines,
    write_baselines,
    write_report,
)


def _load_overrides(args) -> dict:
    overrides: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                overrides = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config file {args.config}: {exc.strerror}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {args.config}: invalid JSON ({exc})") from exc
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {args.config}: top level must be an object")
    overrides = apply_dotted_overrides(overrides, args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides["seeds"] = [args.seed]
    if getattr(args, "out_dir", None):
        overrides["out_dir"] = args.out_dir
    if getattr(args, "method", None) is not None:
        overrides["method"] = args.method
    return overrides


def cmd_run(args) -> int:
    config = ExperimentConfig.from_dict(_load_overrides(args))
    report = run_experiment(config)
    paths = write_report(report, config.out_dir)
    for name, path in paths.items():
        print(f"{name}: {path}")
    dm = report.mean_final_delta_m()
    if dm is not None:
        print(f"mean final multi-task improvement: {dm:+.4f}")
    if report.failed:
        print("status: FAILED (see summary.json)", file=sys.stderr)
        return 1
    if report.violations:
        print(f"status: {len(report.violations)} invariant violations", file=sys.stderr)
        return 1
    print("status: ok")
    return 0


def cmd_baseline(args) -> int:
    config = ExperimentConfig.from_dict(_load_overrides(args))
    baselines = run_single_task_baselines(config)
    path = write_baselines(baselines, config.out_dir)
    print(f"baselines: {path}")
    for tid, entry in baselines["tasks"].items():
        print(f"  task {tid}: {entry['metric']} = {entry['baseline']:.6f}")
    return 0


def _criteria(text: str) -> set[int]:
    """``--criteria``'s value: comma-separated criterion numbers, each 1 to 10."""
    try:
        selected = {int(c) for c in text.split(",")}
    except ValueError:
        selected = set()
    if not selected or not selected <= set(range(1, 11)):
        raise argparse.ArgumentTypeError(
            f"{text!r}: expected comma-separated criterion numbers from 1 to 10")
    return selected


def cmd_verify(args) -> int:
    from .verification import run_all

    results = run_all(fast=args.fast, selected=args.criteria)
    failed = [r for r in results if not r.passed]
    return 1 if failed else 0


def cmd_report(args) -> int:
    from .evaluation import loss_trend_correlation

    metrics_path = os.path.join(args.dir, METRICS_FILE)
    if not os.path.exists(metrics_path):
        print(f"no metrics file at {metrics_path}", file=sys.stderr)
        return 1
    rows = read_metrics(metrics_path)
    if not rows:
        print("metrics file has no rows")
        return 0
    last_epoch = max(r["epoch"] for r in rows)
    final = [r for r in rows if r["epoch"] == last_epoch]
    methods = sorted({r["method"] for r in final})
    task_cols = sorted(c for c in rows[0] if c.startswith("metric_"))
    task_ids = sorted(int(c.split("_")[-1]) for c in task_cols)
    # summary.json names the seeds that stopped, also those that left no row
    summary_path = os.path.join(args.dir, SUMMARY_FILE)
    errors, failures, stopped = {}, {}, set()
    if os.path.exists(summary_path):
        try:
            with open(summary_path) as fh:
                summary = json.load(fh)
            if not isinstance(summary, dict):
                raise ValueError("not a JSON object")
            errors, failures = summary.get("errors", {}), summary.get("failures", {})
            if not (isinstance(errors, dict) and isinstance(failures, dict)
                    and all(isinstance(f, dict) for f in failures.values())):
                raise ValueError("errors and failures must map seeds to messages and objects")
            stopped = {int(seed) for seed in errors}  # a key that is no integer raises
        except (OSError, ValueError) as exc:
            # the metrics block needs only metrics.csv
            print(f"unreadable {summary_path} ({exc}); stopped seeds are not shown",
                  file=sys.stderr)
            errors, failures, stopped = {}, {}, set()
    seeds = {r["seed"] for r in rows} | stopped
    print(f"final epoch {last_epoch}, mean over {len({r['seed'] for r in final})} "
          f"of {len(seeds)} seed(s)")
    for method in methods:
        subset = [r for r in final if r["method"] == method]
        parts = []
        for col in task_cols:
            parts.append(f"{col}={np.mean([r[col] for r in subset]):.4f}")
        dms = [r["delta_m"] for r in subset if r["delta_m"] is not None]
        if dms:
            parts.append(f"delta_m={np.mean(dms):+.4f}")
        shares = [f"share_{t}={np.mean([r[f'share_{t}'] for r in subset]):.3f}"
                  for t in task_ids]
        print(f"  {method}: " + "  ".join(parts + shares))
    if errors:
        print("stopped seeds:")
    for seed in sorted(errors, key=int):
        failure = failures.get(seed, {})
        epoch = "" if failure.get("epoch") is None else f"epoch {failure['epoch']}, "
        print(f"  seed {seed} at {epoch}stage {failure.get('stage')}: {errors[seed]}")

    if last_epoch >= 2:
        print("training-loss trend correlation (mean over seeds):")
        for method in methods:
            mats = []
            seeds = sorted({r["seed"] for r in rows if r["method"] == method})
            for seed in seeds:
                curve = {t: [r[f"train_loss_{t}"] for r in rows
                             if r["method"] == method and r["seed"] == seed]
                         for t in task_ids}
                # a seed that failed before its third epoch has too short a curve
                if len(curve[task_ids[0]]) >= 3:
                    mats.append(loss_trend_correlation(curve))
            skipped = len(seeds) - len(mats)
            note = f" ({skipped} seed(s) with fewer than 3 epochs left out)" if skipped else ""
            mean_corr = np.mean(mats, axis=0)
            offdiag = [f"tasks {task_ids[i]}-{task_ids[j]}: {mean_corr[i, j]:+.3f}"
                       for i in range(len(task_ids)) for j in range(i + 1, len(task_ids))]
            print(f"  {method}: " + "  ".join(offdiag) + note)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mtlopt",
        description="Multi-task optimization lab: priority-learning and "
                    "priority-preserving training on desk-scale benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=True):
        p.add_argument("--config", help="JSON config file (defaults apply to missing keys)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config field, e.g. --set epochs=5 "
                            "--set data.noise=0.1")
        p.add_argument("--seed", type=int, help="single seed shorthand")
        p.add_argument("--out-dir", help="output directory override")
        if with_method:
            p.add_argument("--method", help="training method; sets config.method")

    p_run = sub.add_parser("run", help="train and emit metrics/logs/snapshots")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_base = sub.add_parser("baseline", help="train single-task baselines for delta-m")
    common(p_base, with_method=False)
    p_base.set_defaults(func=cmd_baseline)

    p_verify = sub.add_parser("verify", help="run the oracle/acceptance suite")
    p_verify.add_argument("--fast", action="store_true",
                          help="reduced sample counts (smoke test)")
    p_verify.add_argument("--criteria", type=_criteria,
                          help="comma-separated criterion numbers (1-10), e.g. 1,4,6")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="aggregate a run directory's metrics")
    p_report.add_argument("--dir", required=True)
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MtloptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
