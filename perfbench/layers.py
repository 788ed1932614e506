"""Traced run: per-layer metrics, closed-form call counts, tracing overhead.

A traced run alternates untraced and traced passes over the same work: one
round on each of the first two config seeds, so each pass trains every
method on both, evaluates and probes. Every pass must produce the same
fingerprints, so the tracer provably changes no output bits, and every
``*.calls`` count must repeat exactly across traced passes and equal its
closed form. Per-layer times are wall times, not scaled.
"""
from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

from mtlopt import autodiff, network, optimizers, quadratics, runner, strength, synthetic

from clock import Clock
from tracer import Tracer
from workloads import (EVAL_CALLS, METHODS, Inputs, Outcome, Rounds, check_rounds, plain_stage,
                       run_round, tail_percentile)

# (metric prefix, spans it aggregates, unit scale, unit, whether it has its own .calls)
TIMED = [
    ("autodiff.conv2d", ("autodiff.conv2d",), 1e6, "us", True),
    ("autodiff.task_batchnorm", ("autodiff.task_batchnorm",), 1e6, "us", True),
    ("autodiff.relu", ("autodiff.relu",), 1e6, "us", True),
    ("autodiff.loss", ("autodiff.loss",), 1e6, "us", True),
    ("autodiff.backward", ("autodiff.backward",), 1e6, "us", True),
    ("network.forward_train", ("network.forward_train",), 1e6, "us", True),
    ("network.forward_eval", ("network.forward_eval",), 1e6, "us", True),
    ("network.per_task_gradients", ("network.per_task_gradients",), 1e6, "us", True),
    ("network.zero_grad", ("network.zero_grad",), 1e6, "us", True),
    ("optimizers.phase1_step", ("optimizers.phase1_step",), 1e6, "us", True),
    ("optimizers.phase2_step", ("optimizers.phase2_step",), 1e6, "us", True),
    ("optimizers.gd_step", ("optimizers.gd_step",), 1e6, "us", True),
    ("optimizers.pcgrad_step", ("optimizers.pcgrad_step",), 1e6, "us", True),
    ("optimizers.project_gradient", ("optimizers.project_gradient",), 1e6, "us", True),
    ("strength.snapshot", ("strength.snapshot",), 1e6, "us", True),
    ("synthetic.generate", ("synthetic.batch", "synthetic.eval_batch"), 1e6, "us", False),
    ("runner.evaluate_model", ("runner.evaluate_model",), 1e6, "us", True),
    ("quadratics.convergence_probe", ("quadratics.convergence_probe",), 1e3, "ms", True),
    ("quadratics.oracle_partition", ("quadratics.oracle_partition",), 1e6, "us", True),
]
AUTODIFF = ("autodiff.conv2d", "autodiff.task_batchnorm", "autodiff.relu", "autodiff.loss",
            "autodiff.backward")
EXTRA_CALLS = ("synthetic.batch", "synthetic.eval_batch")

# ROADMAP "State" figures for the default shapes: (label, span, milliseconds)
STATE_FIGURES = [
    ("synthetic batch", "synthetic.batch", 1.65),
    ("one task forward+backward", "network.per_task_gradients", 3.6),
    ("phase-1 step", "optimizers.phase1_step", 7.0),
    ("phase-2 step", "optimizers.phase2_step", 8.5),
    ("eval pass", "runner.evaluate_model", 20.0),
    ("strength snapshot", "strength.snapshot", 0.19),
]


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric this run reports, with its unit."""
    names = {}
    for prefix, _, _, unit, has_calls in TIMED:
        if has_calls:
            names[f"{prefix}.calls"] = "count"
        self_name = "self_ms" if unit == "ms" else "self_us"
        names[f"{prefix}.{self_name}"] = unit
        names[f"{prefix}.{self_name}.tail"] = unit
    names.update({f"{name}.calls": "count" for name in EXTRA_CALLS})
    names.update({
        "autodiff.conv2d.flop": "flop", "autodiff.conv2d.gflop_per_s": "GFLOP/s",
        "autodiff.share": "ratio", "optimizers.projection_ratio": "ratio",
        "synthetic.unique_ratio": "ratio", "runner.self_share": "ratio",
        "quadratics.iters": "count", "quadratics.iter_us": "us",
        "trace.overhead_ratio": "ratio",
    })
    return names


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------

def _forward_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[4] if len(args) > 4 else "train")
    return f"network.forward_{mode}"


def _count_flop(tracer, args, kwargs, out) -> None:
    c_out, c_in, k, _ = args[2].shape  # (tape, x, weight, ...)
    n, _, h, w = out.shape
    tracer.counters["conv2d.flop"] += 2 * n * c_out * h * w * c_in * k * k


def _count_projection(tracer, args, kwargs, out) -> None:
    tracer.counters["projection.changed"] += not np.array_equal(out, args[0])


def _count_iterations(tracer, args, kwargs, out) -> None:
    tracer.counters["quadratics.iters"] += len(out.functional_trace)


def _batch_key(tag: str):
    def hook(tracer, args, kwargs, out) -> None:
        run = next((frame[0] for frame in reversed(tracer._stack)
                    if tracer.spans[frame[0]][0] == "runner.run_experiment"), None)
        if run is not None:
            tracer.distinct["synthetic"].add((run, args[0].seed, tag, args[1]))
            tracer.counters["synthetic.calls_in_runs"] += 1
    return hook


def install(tracer: Tracer) -> None:
    for op, name in (("conv2d", "conv2d"), ("task_batchnorm", "task_batchnorm"),
                     ("relu", "relu"), ("compute_loss", "loss"), ("backward", "backward")):
        tracer.patch_method(autodiff.Tape, op, f"autodiff.{name}",
                            after=_count_flop if op == "conv2d" else None)
    tracer.patch_method(network.Model, "forward", _forward_name)
    tracer.patch_method(network.Model, "zero_grad", "network.zero_grad")
    tracer.patch_function(network, "per_task_gradients", "network.per_task_gradients")
    for step in ("phase1_step", "phase2_step", "gd_step", "pcgrad_step"):
        tracer.patch_method(optimizers.MtlOptimizer, step, f"optimizers.{step}")
    tracer.patch_function(optimizers, "project_gradient", "optimizers.project_gradient",
                          after=_count_projection)
    tracer.patch_function(strength, "model_strength_snapshot", "strength.snapshot")
    tracer.patch_method(synthetic.SyntheticMtlDataset, "batch", "synthetic.batch",
                        after=_batch_key("train"))
    tracer.patch_method(synthetic.SyntheticMtlDataset, "eval_batch", "synthetic.eval_batch",
                        after=_batch_key("eval"))
    tracer.patch_function(runner, "evaluate_model", "runner.evaluate_model")
    tracer.patch_function(runner, "run_experiment", "runner.run_experiment")
    tracer.patch_function(quadratics, "convergence_probe", "quadratics.convergence_probe",
                          after=_count_iterations)
    tracer.patch_function(quadratics, "oracle_priority_partition", "quadratics.oracle_partition")


def pass_seeds(inputs: Inputs) -> int:
    """Config seeds one pass covers: the first two, to bound a traced run's length."""
    return min(2, len(inputs.seeds))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def expected_calls(inputs: Inputs, rounds: Rounds) -> dict[str, int]:
    """Call counts of one pass, from the config and the runs' own logs."""
    config = inputs.first
    spec = config.model
    epochs, steps, batches = config.epochs, config.steps_per_epoch, config.eval_batches
    k = spec.num_tasks
    n = pass_seeds(inputs)
    runs = len(METHODS) * n
    run_steps = epochs * steps
    train_forwards = runs * run_steps * k  # one per task per step
    eval_calls = runs * epochs + n * EVAL_CALLS
    eval_forwards = eval_calls * batches * k
    ops = {"conv": 0, "bn": 0, "relu": 0}
    for tid in spec.task_ids:  # forwards split evenly over the tasks
        head = spec.heads.get(tid, ())
        ops["conv"] += len(spec.trunk) + len(head)
        ops["bn"] += sum(c.batch_norm for c in spec.trunk)
        ops["relu"] += sum(c.activation for c in spec.trunk) + sum(c.activation for c in head[:-1])
    forwards_per_task = (train_forwards + eval_forwards) // k

    phases, phase2_projections = [], 0
    for (method, _), report in rounds.train.reports.items():
        if method != "ours":
            continue
        res = report.seed_results[0]
        groups: dict[int, int] = {}
        for row in res.strength_rows:
            groups[row["epoch"]] = groups.get(row["epoch"], 0) + sum(
                1 for chans in row["groups"].values() if chans)
        for row in res.log_rows:
            phases.append(row["phase"])
            if row["phase"] == optimizers.PHASE2:
                phase2_projections += steps * (k - 1) * groups[row["epoch"]]
    return {
        "autodiff.conv2d": forwards_per_task * ops["conv"],
        "autodiff.task_batchnorm": forwards_per_task * ops["bn"],
        "autodiff.relu": forwards_per_task * ops["relu"],
        "autodiff.loss": train_forwards + eval_forwards,
        "autodiff.backward": train_forwards,
        "network.forward_train": train_forwards,
        "network.forward_eval": eval_forwards,
        "network.per_task_gradients": train_forwards,
        "network.zero_grad": train_forwards,
        "optimizers.phase1_step": steps * phases.count(optimizers.PHASE1),
        "optimizers.phase2_step": steps * phases.count(optimizers.PHASE2),
        "optimizers.gd_step": n * run_steps,
        "optimizers.pcgrad_step": n * run_steps,
        "optimizers.project_gradient": phase2_projections + n * run_steps * k * (k - 1),
        "strength.snapshot": runs * epochs,
        "synthetic.batch": runs * run_steps,
        "synthetic.eval_batch": eval_calls * batches,
        "runner.evaluate_model": eval_calls,
        "runner.run_experiment": runs,
        "quadratics.convergence_probe": n * inputs.probe.used,
        "quadratics.oracle_partition": n * len(inputs.probe.oracle),
    }


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def run_pass(inputs: Inputs, outcome: Outcome, tmp_root: str, fingerprints: dict,
             clock: Clock, tracer: Tracer | None) -> Rounds:
    """One round per config seed; with a tracer, each stage is a root span."""
    rounds = Rounds(clock)
    rounds.train.fingerprints = fingerprints
    stage = plain_stage
    if tracer is not None:
        install(tracer)
        stage = lambda name, fn, *args: tracer.span(f"bench.{name}", fn, *args)  # noqa: E731
    try:
        for index in range(pass_seeds(inputs)):
            run_round(inputs, index, rounds, outcome, tmp_root, stage)
    finally:
        if tracer is not None:
            tracer.restore()
    check_rounds(rounds, outcome)
    return rounds


def run_traced(inputs: Inputs, seconds: float, tmp_root: str, outcome: Outcome,
               lines: list[str]) -> dict[str, tuple[float, str]]:
    fingerprints: dict[str, str] = {}
    pass_s = {"untraced": [], "traced": []}
    slowdowns: list[float] = []
    tracers: list[Tracer] = []
    passes: list[Rounds] = []
    # a process's first pass runs about a fifth slower whatever it is, so it is
    # a warm-up and the timed passes start after it
    kinds = ["warm-up", "untraced", "traced", "traced"]
    start = perf_counter()
    with Clock() as clock:
        while kinds:
            kind = kinds.pop(0)
            tracer = Tracer() if kind == "traced" else None
            rounds, sample = clock.measure(run_pass, inputs, outcome, tmp_root, fingerprints,
                                           clock, tracer)
            if kind == "warm-up":
                start = perf_counter()
                continue
            pass_s[kind].append(sample.scaled)
            if tracer is not None:
                tracers.append(tracer)
                passes.append(rounds)
                slowdowns.append(sample.slowdown)
            elapsed = perf_counter() - start
            done = len(pass_s["untraced"]) + len(pass_s["traced"])
            if not kinds and elapsed * (done + 2) / done <= seconds:
                kinds = ["untraced", "traced"]

    # counts: exact, equal across traced passes and to the closed form
    counts = [{name: len(v) for name, v in t.total_s.items()} for t in tracers]
    for i, c in enumerate(counts[1:], start=1):
        if c != counts[0]:
            diff = sorted(n for n in set(c) | set(counts[0]) if c.get(n) != counts[0].get(n))
            outcome.record([f"pass {i} call counts differ from pass 0 at {diff}"], "trace")
    expected = expected_calls(inputs, passes[0])
    wrong = {n: (counts[0].get(n, 0), e) for n, e in expected.items() if counts[0].get(n, 0) != e}
    outcome.record([f"call counts (measured, closed form) {wrong}"] if wrong else [], "trace")
    for tracer in tracers:
        if tracer.counters["quadratics.iters"] != tracers[0].counters["quadratics.iters"]:
            outcome.record(["quadratic iteration count differs between passes"], "trace")

    def pooled(kind: str, names) -> list[float]:
        return [v for t in tracers for n in names for v in getattr(t, kind)[n]]

    metrics: dict[str, tuple[float, str]] = {}
    for prefix, names, scale, unit, has_calls in TIMED:
        if has_calls:
            metrics[f"{prefix}.calls"] = (counts[0].get(names[0], 0), "count")
        values = [v * scale for v in pooled("self_s", names)] or [0.0]
        p = tail_percentile(len(values))
        self_name = "self_ms" if unit == "ms" else "self_us"
        metrics[f"{prefix}.{self_name}"] = (statistics.median(values), unit)
        metrics[f"{prefix}.{self_name}.tail"] = (float(np.percentile(values, p)), unit)
        lines.append(f"layer {prefix}: self median {statistics.median(values):.6g} {unit}, "
                     f"p{p:g} {np.percentile(values, p):.6g} {unit}, n={len(values)} "
                     f"over {len(tracers)} traced passes")
    for name in EXTRA_CALLS:
        metrics[f"{name}.calls"] = (counts[0].get(name, 0), "count")

    first = tracers[0]
    n = len(tracers)
    conv_self = sum(pooled("self_s", ["autodiff.conv2d"]))
    metrics["autodiff.conv2d.flop"] = (first.counters["conv2d.flop"], "flop")
    metrics["autodiff.conv2d.gflop_per_s"] = (
        n * first.counters["conv2d.flop"] / conv_self / 1e9 if conv_self else 0.0, "GFLOP/s")
    stage_wall = sum(pooled("total_s", ["bench.train", "bench.eval"]))
    metrics["autodiff.share"] = (sum(pooled("self_s", AUTODIFF)) / stage_wall, "ratio")
    projections = counts[0].get("optimizers.project_gradient", 0)
    metrics["optimizers.projection_ratio"] = (
        first.counters["projection.changed"] / projections if projections else 0.0, "ratio")
    in_runs = first.counters["synthetic.calls_in_runs"]
    metrics["synthetic.unique_ratio"] = (
        len(first.distinct["synthetic"]) / in_runs if in_runs else 0.0, "ratio")
    metrics["runner.self_share"] = (sum(pooled("self_s", ["runner.run_experiment"]))
                                    / sum(pooled("total_s", ["runner.run_experiment"])), "ratio")
    iters = first.counters["quadratics.iters"]
    metrics["quadratics.iters"] = (iters, "count")
    metrics["quadratics.iter_us"] = (
        sum(pooled("total_s", ["quadratics.convergence_probe"])) / (n * iters) * 1e6, "us")
    overhead = statistics.median(pass_s["traced"]) / statistics.median(pass_s["untraced"])
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    lines.append(f"trace passes (scaled): untraced {[round(w, 3) for w in pass_s['untraced']]} s, "
                 f"traced {[round(w, 3) for w in pass_s['traced']]} s, overhead {overhead:.4f}")
    lines.append("fingerprint " + json.dumps(fingerprints, sort_keys=True))
    if inputs.workload.name == "desk-default":
        slowdown = statistics.median(slowdowns)
        for label, span, state_ms in STATE_FIGURES:
            wall = statistics.median(pooled("total_s", [span])) * 1e3
            off = wall / slowdown / state_ms - 1.0
            flag = "OFF >25%" if abs(off) > 0.25 else "ok"
            lines.append(f"state-check {label}: traced {wall:.4g} ms wall, "
                         f"{wall / slowdown:.4g} ms scaled vs ROADMAP {state_ms} ms "
                         f"({off:+.0%} scaled, {flag}; tracing overhead {overhead:.3f}x)")
    return metrics
