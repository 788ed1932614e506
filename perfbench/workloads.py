"""Workloads, stages and checks of the mtlopt benchmark.

Every run is single-process and closed-loop: one caller, and each call into
mtlopt starts only after the previous one returned. A run has four stages,
all driven through mtlopt's public API:

* setup: fresh child processes import mtlopt, validate the config and build
  the model, dataset and optimizer (``setup_s``);
* train: ``run_experiment`` + ``write_report`` for ours, gd and pcgrad, with
  every report checked and fingerprinted;
* eval: ``evaluate_model`` on the trained ``ours`` model;
* probe: the quadratic-oracle instance set (criterion 4/5 families), which
  uses no tape, network or data layer.

All inputs are drawn from the workload seed.
"""
from __future__ import annotations

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from mtlopt import ExperimentConfig, PhaseSchedule, SyntheticMtlDataset, write_report
from mtlopt import network, optimizers, quadratics, runner
from mtlopt.rng import substream

from clock import Clock, Sample

METHODS = ("ours", "gd", "pcgrad")
REPORT_FILES = ("metrics.csv", "run_log.jsonl", "strength.jsonl")
SETUP_CHILDREN = 7
EVAL_CALLS = 8  # evaluate_model calls per round
ORACLE_ETA = 1e-3

WIDE_MODEL = {
    "trunk": [{"in_channels": 3, "out_channels": 16, "kernel_size": 3},
              {"in_channels": 16, "out_channels": 16, "kernel_size": 3}],
    "heads": {"1": [{"in_channels": 16, "out_channels": 8, "kernel_size": 1},
                    {"in_channels": 8, "out_channels": 4, "kernel_size": 1}],
              "2": [{"in_channels": 16, "out_channels": 8, "kernel_size": 1},
                    {"in_channels": 8, "out_channels": 1, "kernel_size": 1}]},
    "tasks": [{"id": 1, "loss": "cross_entropy", "weight": 1.0},
              {"id": 2, "loss": "mse", "weight": 1.0}],
}


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict          # config fields shared by the three methods
    config_seeds: int        # training seeds per run_experiment call
    probe_iterations: int    # phase-2 iterations the quadratic instance set reaches
    oracle_points: int       # priority-update oracle checks per probe pass


WORKLOADS = {
    # default model and data shapes; per-call overhead dominates
    "desk-default": Workload("desk-default", {"epochs": 10, "steps_per_epoch": 10},
                             config_seeds=6, probe_iterations=12_000, oracle_points=100),
    # 16-channel trunk on 16x16 images, batch 16; conv FLOPs and bytes dominate
    "wide-trunk": Workload("wide-trunk", {"epochs": 4, "steps_per_epoch": 4, "model": WIDE_MODEL,
                                          "data": {"batch_size": 16, "height": 16, "width": 16}},
                           config_seeds=4, probe_iterations=12_000, oracle_points=100),
}


def end_to_end_names() -> dict[str, str]:
    """Every end-to-end metric an untraced run reports, with its unit."""
    names = {"setup_s": "s", "peak_rss_mb": "MB"}
    names.update({f"train_samples_per_s.{m}": "1/s" for m in METHODS})
    names["eval_samples_per_s"] = "1/s"
    names.update({f"final_eval_loss.{m}": "loss" for m in METHODS})
    names["probe_solve_s"] = "s"
    return names


def smoke_workload(workload: Workload) -> Workload:
    """The same workload at minimal size, for the benchmark's own smoke test."""
    overrides = {**workload.overrides, "epochs": 4, "steps_per_epoch": 1}
    return Workload(workload.name, overrides, config_seeds=2, probe_iterations=200,
                    oracle_points=4)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def stage_rng(seed: int, stage: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(stage.encode()).digest()[:4], "little")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(tag,)))


@dataclass
class ProbeSet:
    problems: list   # (problem, weights, eta) for convergence_probe
    oracle: list     # (problem, theta, weights) for the priority-update check
    used: int | None = None  # problems needed to reach the iteration target


@dataclass
class Inputs:
    workload: Workload
    seeds: list[int]                                # training config seeds
    configs: dict[tuple[str, int], ExperimentConfig]  # (method, config seed) -> config
    eval_dataset: SyntheticMtlDataset
    probe: ProbeSet

    @property
    def first(self) -> ExperimentConfig:
        return self.configs[(METHODS[0], self.seeds[0])]

    @property
    def images_per_run(self) -> int:
        c = self.first
        return c.epochs * c.steps_per_epoch * c.data.batch_size

    @property
    def images_per_eval(self) -> int:
        return self.first.eval_batches * self.first.data.batch_size


def mixes_phases(seed: int, epochs: int) -> bool:
    """Whether the runner's phase draws for this seed include both phases.

    Mirrors how run_experiment draws phases (a PhaseSchedule on the seed's
    "phase-draw" substream); every ours run is still checked from its log.
    """
    schedule = PhaseSchedule(epochs, substream(seed, "phase-draw"))
    return len({schedule.draw(e).phase for e in range(epochs)}) == 2


def make_inputs(workload: Workload, seed: int) -> Inputs:
    rng = stage_rng(seed, "train")
    epochs = ExperimentConfig.from_dict(workload.overrides).epochs
    seeds: list[int] = []
    while len(seeds) < workload.config_seeds:
        candidate = int(rng.integers(0, 2 ** 31))
        if mixes_phases(candidate, epochs):  # so ours exercises phase 1 and phase 2
            seeds.append(candidate)
    configs = {(m, s): ExperimentConfig.from_dict({**workload.overrides, "method": m, "seeds": [s]})
               for m in METHODS for s in seeds}
    eval_seed = int(stage_rng(seed, "eval").integers(0, 2 ** 31))
    eval_dataset = SyntheticMtlDataset(configs[(METHODS[0], seeds[0])].data, seed=eval_seed)
    return Inputs(workload, seeds, configs, eval_dataset, make_probe_set(workload, seed))


def make_probe_set(workload: Workload, seed: int) -> ProbeSet:
    rng = stage_rng(seed, "probe")
    # criterion 5 family, cycling through its (tasks, dim) pairs so the per-iteration
    # cost mix does not depend on the seed; enough instances for the iteration target
    problems = []
    pool = max(8, workload.probe_iterations // 150)
    for i in range(pool):
        k, dim = 2 + i % 3, 2 + (i // 3) % 3
        problem = quadratics.make_conflicting_quadratic(dim, k, seed=int(rng.integers(0, 2 ** 31)),
                                                        conflict=1.0)
        problems.append((problem, np.full(k, 1.0 / k), 0.5 / problem.lipschitz))
    # criterion 4 family
    oracle = []
    for _ in range(workload.oracle_points):
        dim, k = int(rng.integers(1, 9)), int(rng.integers(2, 5))
        problem = quadratics.make_quadratic_problem(
            dim, k, float(rng.uniform(0, 1)), seed=int(rng.integers(0, 2 ** 31)),
            task_dim=int(rng.integers(0, dim + 1)))
        w = rng.uniform(0.1, 1.0, size=k)
        oracle.append((problem, rng.normal(size=problem.dim), w / w.sum()))
    return ProbeSet(problems, oracle)


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, problems: list[str], where: str) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.failures += [f"{where}: {p}" for p in problems]


def fingerprint(report, tmp_root: str) -> str:
    """sha256 over the byte-compared report files written by write_report."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory(dir=tmp_root) as out:
        write_report(report, out)
        for name in REPORT_FILES:
            with open(os.path.join(out, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def check_report(report, method: str) -> list[str]:
    problems = []
    if report.failed:
        problems += [r.error for r in report.seed_results if r.error]
    if report.violations:
        problems.append(f"{len(report.violations)} invariant violations, first: "
                        f"{report.violations[0]}")
    for res in report.seed_results:
        values = [v for row in res.rows
                  for v in (*row.train_loss.values(), *row.eval_loss.values())]
        if not np.all(np.isfinite(values)):
            problems.append(f"seed {res.seed}: non-finite loss")
    if method == "ours":
        phases = {row["phase"] for res in report.seed_results for row in res.log_rows}
        if not {optimizers.PHASE1, optimizers.PHASE2} <= phases:
            problems.append(f"ours ran only {sorted(phases)}")
    return problems


@dataclass
class TrainResult:
    samples: dict[str, list[Sample]] = field(default_factory=lambda: {m: [] for m in METHODS})
    reports: dict = field(default_factory=dict)  # (method, config seed) -> first report
    fingerprints: dict[str, str] = field(default_factory=dict)  # "method/seed" -> sha256

    def final_eval_loss(self, method: str) -> float:
        """Sum over tasks of the last epoch's eval loss, averaged over the config seeds."""
        return float(np.mean([sum(r.seed_results[0].final_eval.values())
                              for (m, _), r in self.reports.items() if m == method]))


def train_round(inputs: Inputs, config_seed: int, result: TrainResult, outcome: Outcome,
                tmp_root: str, clock: Clock) -> None:
    """One run_experiment per method on one config seed, each checked and fingerprinted."""
    for method in METHODS:
        report, sample = clock.measure(runner.run_experiment, inputs.configs[(method, config_seed)])
        result.samples[method].append(sample)
        problems = check_report(report, method)
        digest = fingerprint(report, tmp_root)
        expected = result.fingerprints.setdefault(f"{method}/{config_seed}", digest)
        if digest != expected:
            problems.append(f"fingerprint {digest[:16]} differs from {expected[:16]}")
        result.reports.setdefault((method, config_seed), report)
        outcome.record(problems, f"train {method} seed {config_seed}")


def eval_calls(inputs: Inputs, model, outcome: Outcome) -> None:
    """EVAL_CALLS evaluate_model passes; results must be finite and repeat exactly."""
    reference = None
    for _ in range(EVAL_CALLS):
        losses, metrics = runner.evaluate_model(model, inputs.eval_dataset,
                                                inputs.first.eval_batches)
        values = [*losses.values(), *metrics.values()]
        problems = [] if np.all(np.isfinite(values)) else ["non-finite eval result"]
        if reference is not None and values != reference:
            problems.append("eval result changed between identical calls")
        reference = values
        outcome.record(problems, "eval")


def probe_pass(probe: ProbeSet, target: int, outcome: Outcome) -> tuple[int, int]:
    """Solve the instance set once; returns (phase-2 iterations, oracle holds).

    The first pass fixes the set: instances are taken in order until their
    phase-2 iterations reach ``target``; later passes repeat exactly that set.
    """
    iterations, misses = 0, []
    for problem, weights, eta in probe.problems[:probe.used]:
        res = quadratics.convergence_probe(problem, "phase2", eta, max_iters=100_000,
                                           weights=weights, stop_functional=1e-16)
        iterations += len(res.functional_trace)
        misses.append(res.converged_iteration is None)
        if probe.used is None and iterations >= target:
            probe.used = len(misses)
            break
    if probe.used is None:
        raise RuntimeError(f"probe pool reaches only {iterations} of {target} iterations")
    holds = 0
    for problem, theta, w in probe.oracle:
        owners = quadratics.oracle_priority_partition(problem, theta, w, eta=ORACLE_ETA)
        holds += quadratics.priority_update_check(problem, theta, owners, w, eta=ORACLE_ETA).holds
    for i, missed in enumerate(misses):
        outcome.record([f"instance {i} missed the 1e-6 target"] if missed else [], "probe")
    outcome.record([], "oracle")
    return iterations, holds


# ---------------------------------------------------------------------------
# setup_s: fresh processes
# ---------------------------------------------------------------------------

def _run_child(command: list[str], root: str) -> tuple[float, str, str, int]:
    """Run one setup child; returns (seconds to its ready line, that line, stderr, exit code)."""
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            cwd=root)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready, line, err, proc.returncode


def measure_setup(inputs: Inputs, root: str, outcome: Outcome, clock: Clock) -> list[Sample]:
    """Process launch to "first step ready", one child at a time."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_child.py")
    config = inputs.first
    model = network.build_model(config.model, seed=config.seeds[0])
    expected = {"parameters": int(sum(p.size for p in model.named_parameters().values())),
                "batch": [config.data.batch_size, config.data.channels, config.data.height,
                          config.data.width]}
    samples = []
    for _ in range(SETUP_CHILDREN):
        # the timer's ticks would run beside the child, so calibrate before it starts
        slowdown = clock.slowdown_now()
        ready, line, err, code = _run_child([sys.executable, child, json.dumps(config.to_dict())],
                                            root)
        samples.append(Sample(ready, slowdown))
        problems = []
        try:
            if json.loads(line) != expected:
                problems.append(f"child built {line.strip()}, expected {expected}")
        except json.JSONDecodeError:
            problems.append(f"child failed: {err.strip()[-300:]}")
        if code != 0:
            problems.append(f"child exited with {code}")
        outcome.record(problems, "setup")
    return samples


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

@dataclass
class Rounds:
    """What the rounds of one run measured."""

    clock: Clock
    train: TrainResult = field(default_factory=TrainResult)
    evals: list[Sample] = field(default_factory=list)   # EVAL_CALLS calls each
    probes: list[Sample] = field(default_factory=list)
    probe_results: set = field(default_factory=set)     # (iterations, oracle holds)


def plain_stage(name: str, fn, *args):
    return fn(*args)


def run_round(inputs: Inputs, index: int, rounds: Rounds, outcome: Outcome, tmp_root: str,
              stage=plain_stage) -> None:
    """Round ``index``: train all methods on one config seed, evaluate, probe.

    Rounds interleave the stages so that every metric samples the whole run,
    not one stretch of it; consecutive rounds take the config seeds in turn.
    ``stage(name, fn, *args)`` runs each stage (the traced run opens a span).
    """
    clock = rounds.clock
    config_seed = inputs.seeds[index % len(inputs.seeds)]
    stage("train", train_round, inputs, config_seed, rounds.train, outcome, tmp_root, clock)
    model = rounds.train.reports[(METHODS[0], inputs.seeds[0])].seed_results[0].model
    _, sample = clock.measure(stage, "eval", eval_calls, inputs, model, outcome)
    rounds.evals.append(sample)
    result, sample = clock.measure(stage, "probe", probe_pass, inputs.probe,
                                   inputs.workload.probe_iterations, outcome)
    rounds.probes.append(sample)
    rounds.probe_results.add(result)


def check_rounds(rounds: Rounds, outcome: Outcome) -> None:
    if len(rounds.probe_results) != 1:
        outcome.record([f"probe results differ between passes: {sorted(rounds.probe_results)}"],
                       "probe")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

def scaled_median(samples: list[Sample]) -> float:
    return statistics.median(s.scaled for s in samples)


def run_untraced(inputs: Inputs, seconds: float, root: str, tmp_root: str,
                 outcome: Outcome, lines: list[str]) -> dict[str, tuple[float, str]]:
    import resource

    with Clock() as clock:
        rounds = Rounds(clock)
        setup = measure_setup(inputs, root, outcome, clock)
        start = perf_counter()
        index = 0
        # at least one round per config seed; then while another round fits in --seconds
        while (index < len(inputs.seeds)
               or (perf_counter() - start) * (index + 1) / index <= seconds):
            run_round(inputs, index, rounds, outcome, tmp_root)
            index += 1
    check_rounds(rounds, outcome)

    train = rounds.train
    images = inputs.images_per_run
    metrics: dict[str, tuple[float, str]] = {
        "setup_s": (scaled_median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for method in METHODS:
        metrics[f"train_samples_per_s.{method}"] = (images / scaled_median(train.samples[method]),
                                                    "1/s")
    metrics["eval_samples_per_s"] = (EVAL_CALLS * inputs.images_per_eval
                                     / scaled_median(rounds.evals), "1/s")
    for method in METHODS:
        metrics[f"final_eval_loss.{method}"] = (train.final_eval_loss(method), "loss")
    metrics["probe_solve_s"] = (scaled_median(rounds.probes), "s")

    every = [*setup, *rounds.evals, *rounds.probes, *(s for v in train.samples.values() for s in v)]
    ticks = clock.calibrations()
    lines.append(f"rounds {index} over {perf_counter() - start:.1f} s, config seeds {inputs.seeds}")
    lines.append(f"calibration {len(ticks)} ticks, p10 {np.percentile(ticks, 10) * 1e6:.1f} us, "
                 f"median {np.median(ticks) * 1e6:.1f} us; sample slowdown median "
                 f"{statistics.median(s.slowdown for s in every):.3f}, range "
                 f"{min(s.slowdown for s in every):.3f}-{max(s.slowdown for s in every):.3f}")
    lines.append(timing_line("setup_s", setup))
    for method in METHODS:
        lines.append(timing_line(f"run_experiment.{method}", train.samples[method],
                                 f"{images} images per run"))
    lines.append(timing_line("evaluate_model x8", rounds.evals,
                             f"{inputs.images_per_eval} images per call"))
    iterations, holds = next(iter(rounds.probe_results))
    lines.append(timing_line("probe_set", rounds.probes,
                             f"{inputs.probe.used} instances, {iterations} phase-2 iterations, "
                             f"oracle holds {holds}/{len(inputs.probe.oracle)}"))
    lines.append("fingerprint " + json.dumps(train.fingerprints, sort_keys=True))
    return metrics


def tail_percentile(n: int) -> float:
    """Highest of the listed percentiles that leaves at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return 50.0


def timing_line(name: str, samples: list[Sample], note: str = "") -> str:
    """Median and tail of the scaled and of the wall times, with the sample count."""
    parts = []
    for kind in ("scaled", "seconds"):
        values = [getattr(s, kind) for s in samples]
        p = tail_percentile(len(values))
        parts.append(f"{'scaled' if kind == 'scaled' else 'wall'} median "
                     f"{statistics.median(values):.6g} s, p{p:g} {np.percentile(values, p):.6g} s")
    text = f"timing {name}: {', '.join(parts)}, n={len(samples)}"
    return text + (f" ({note})" if note else "")
